#include <gtest/gtest.h>

#include "echo/bridge.hpp"
#include "echo/bus.hpp"
#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "testdata.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"

namespace acex::echo {
namespace {

// -------------------------------------------------------------- attributes

TEST(Attributes, TypedSetAndGet) {
  AttributeMap attrs;
  attrs.set_int("count", 42);
  attrs.set_double("rate", 1.5);
  attrs.set_string("name", "alpha");
  attrs.set_bytes("raw", {1, 2, 3});

  EXPECT_EQ(attrs.get_int("count"), 42);
  EXPECT_EQ(attrs.get_double("rate"), 1.5);
  EXPECT_EQ(attrs.get_string("name"), "alpha");
  EXPECT_EQ(attrs.get_bytes("raw"), (Bytes{1, 2, 3}));
  EXPECT_EQ(attrs.size(), 4u);
}

TEST(Attributes, TypeMismatchYieldsNullopt) {
  AttributeMap attrs;
  attrs.set_int("x", 1);
  EXPECT_FALSE(attrs.get_double("x").has_value());
  EXPECT_FALSE(attrs.get_string("x").has_value());
  EXPECT_FALSE(attrs.get_int("absent").has_value());
}

TEST(Attributes, OverwriteAndErase) {
  AttributeMap attrs;
  attrs.set_int("x", 1);
  attrs.set_int("x", 2);
  EXPECT_EQ(attrs.get_int("x"), 2);
  attrs.erase("x");
  EXPECT_FALSE(attrs.has("x"));
  attrs.erase("x");  // idempotent
}

TEST(Attributes, EmptyNameRejected) {
  AttributeMap attrs;
  EXPECT_THROW(attrs.set_int("", 1), ConfigError);
}

TEST(Attributes, MergeOverwrites) {
  AttributeMap a, b;
  a.set_int("keep", 1);
  a.set_int("shared", 1);
  b.set_int("shared", 2);
  b.set_string("extra", "e");
  a.merge(b);
  EXPECT_EQ(a.get_int("keep"), 1);
  EXPECT_EQ(a.get_int("shared"), 2);
  EXPECT_EQ(a.get_string("extra"), "e");
}

TEST(Attributes, SerializationRoundTrip) {
  AttributeMap attrs;
  attrs.set_int("negative", -1234567);
  attrs.set_int("huge", std::int64_t{1} << 60);
  attrs.set_double("pi", 3.14159265358979);
  attrs.set_double("neg", -0.5);
  attrs.set_string("s", "quality attribute");
  attrs.set_bytes("b", Bytes{0, 255, 128});

  Bytes wire;
  attrs.serialize(wire);
  std::size_t pos = 0;
  const AttributeMap back = AttributeMap::deserialize(wire, &pos);
  EXPECT_EQ(pos, wire.size());
  EXPECT_EQ(back, attrs);
}

TEST(Attributes, DeserializeRejectsTruncation) {
  AttributeMap attrs;
  attrs.set_string("key", "value");
  Bytes wire;
  attrs.serialize(wire);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    std::size_t pos = 0;
    const ByteView prefix = ByteView(wire).subspan(0, cut);
    EXPECT_THROW(AttributeMap::deserialize(prefix, &pos), DecodeError);
  }
}

TEST(Attributes, DeserializeRejectsUnknownType) {
  AttributeMap attrs;
  attrs.set_int("k", 5);
  Bytes wire;
  attrs.serialize(wire);
  wire[wire.size() - 2] = 9;  // type byte
  std::size_t pos = 0;
  EXPECT_THROW(AttributeMap::deserialize(wire, &pos), DecodeError);
}

// ------------------------------------------------------------------ events

TEST(EventWire, SerializeRoundTrip) {
  Event event(testdata::random_bytes(500, 1));
  event.attributes.set_int("seq", 9);
  const Event back = deserialize_event(serialize_event(event));
  EXPECT_EQ(back.payload, event.payload);
  EXPECT_EQ(back.attributes, event.attributes);
}

TEST(EventWire, RejectsTrailingGarbage) {
  Bytes wire = serialize_event(Event(to_bytes("x")));
  wire.push_back(0);
  EXPECT_THROW(deserialize_event(wire), DecodeError);
}

// ---------------------------------------------------------------- channels

TEST(EventChannel, DeliversToAllSubscribers) {
  EventChannel ch("test");
  int a = 0, b = 0;
  ch.subscribe([&](const Event&) { ++a; });
  ch.subscribe([&](const Event&) { ++b; });
  ch.submit(Event(to_bytes("e")));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(ch.events_submitted(), 1u);
  EXPECT_EQ(ch.bytes_submitted(), 1u);
}

TEST(EventChannel, UnsubscribeStopsDelivery) {
  EventChannel ch("test");
  int count = 0;
  const SubscriberId id = ch.subscribe([&](const Event&) { ++count; });
  ch.submit(Event(to_bytes("1")));
  ch.unsubscribe(id);
  ch.submit(Event(to_bytes("2")));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(ch.subscriber_count(), 0u);
}

TEST(EventChannel, SubscribeDuringDispatchTakesEffectNextEvent) {
  EventChannel ch("test");
  int late = 0;
  ch.subscribe([&](const Event&) {
    if (ch.subscriber_count() == 1) {
      ch.subscribe([&](const Event&) { ++late; });
    }
  });
  ch.submit(Event(to_bytes("a")));  // late subscriber added mid-dispatch
  EXPECT_EQ(late, 0);
  ch.submit(Event(to_bytes("b")));
  EXPECT_EQ(late, 1);
}

TEST(EventChannel, UnsubscribeSelfDuringDispatchIsSafe) {
  EventChannel ch("test");
  int count = 0;
  SubscriberId id = 0;
  id = ch.subscribe([&](const Event&) {
    ++count;
    ch.unsubscribe(id);
  });
  ch.submit(Event(to_bytes("a")));
  ch.submit(Event(to_bytes("b")));
  EXPECT_EQ(count, 1);
}

TEST(EventChannel, SelfUnsubscribeKeepsSinkCapturesAlive) {
  // Regression: unsubscribe() erases the vector entry holding the very
  // std::function being executed. The dispatch must run a copy, or the
  // sink's captures are destroyed mid-call (heap-use-after-free under
  // ASan when the capture is heap-backed, like this string).
  EventChannel ch("test");
  auto tag = std::make_shared<std::string>("capture-must-survive");
  std::string observed;
  SubscriberId id = 0;
  id = ch.subscribe([&observed, tag, &ch, &id](const Event&) {
    ch.unsubscribe(id);
    observed = *tag;  // capture read AFTER the entry was erased
  });
  ch.submit(Event(to_bytes("a")));
  EXPECT_EQ(observed, "capture-must-survive");
  EXPECT_EQ(ch.subscriber_count(), 0u);
}

TEST(EventChannel, UnsubscribeOtherDuringDispatchSkipsIt) {
  EventChannel ch("test");
  int second = 0;
  SubscriberId victim = 0;
  ch.subscribe([&](const Event&) { ch.unsubscribe(victim); });
  victim = ch.subscribe([&](const Event&) { ++second; });
  ch.submit(Event(to_bytes("a")));
  // The first sink removed the second before its turn: never invoked.
  EXPECT_EQ(second, 0);
  EXPECT_EQ(ch.subscriber_count(), 1u);
}

TEST(EventChannel, SubscribersObserveEventsInSubmissionOrder) {
  EventChannel ch("test");
  constexpr int kSubs = 4;
  std::vector<std::vector<std::string>> seen(kSubs);
  for (int i = 0; i < kSubs; ++i) {
    ch.subscribe([&seen, i](const Event& e) {
      seen[i].emplace_back(e.payload.begin(), e.payload.end());
    });
  }
  const std::vector<std::string> events = {"a", "b", "c", "d", "e"};
  for (const auto& e : events) ch.submit(Event(to_bytes(e)));
  for (int i = 0; i < kSubs; ++i) EXPECT_EQ(seen[i], events);
}

TEST(EventChannel, ThrowingSubscriberDoesNotStarveOthers) {
  EventChannel ch("test");
  std::vector<std::string> first, third;
  ch.subscribe([&](const Event& e) {
    first.emplace_back(e.payload.begin(), e.payload.end());
  });
  ch.subscribe([](const Event&) -> void {
    throw std::runtime_error("subscriber bug");
  });
  ch.subscribe([&](const Event& e) {
    third.emplace_back(e.payload.begin(), e.payload.end());
  });

  // Both healthy subscribers see both events, in submission order; the
  // first failure per dispatch still surfaces to the producer.
  EXPECT_THROW(ch.submit(Event(to_bytes("a"))), std::runtime_error);
  EXPECT_THROW(ch.submit(Event(to_bytes("b"))), std::runtime_error);
  const std::vector<std::string> expected = {"a", "b"};
  EXPECT_EQ(first, expected);
  EXPECT_EQ(third, expected);
}

TEST(EventChannel, ControlPathReachesProducer) {
  EventChannel ch("test");
  AttributeMap seen;
  ch.on_control([&](const AttributeMap& attrs) { seen = attrs; });
  AttributeMap request;
  request.set_int("acex.method", 3);
  ch.signal_control(request);
  EXPECT_EQ(seen.get_int("acex.method"), 3);
}

TEST(EventChannel, EmptyNameOrSinkRejected) {
  EXPECT_THROW(EventChannel(""), ConfigError);
  EventChannel ch("ok");
  EXPECT_THROW(ch.subscribe(nullptr), ConfigError);
  EXPECT_THROW(ch.on_control(nullptr), ConfigError);
}

// --------------------------------------------------------------------- bus

TEST(EventBus, CreateFindAndUniqueNames) {
  EventBus bus;
  const ChannelId id = bus.create_channel("alpha");
  EXPECT_EQ(bus.find("alpha"), id);
  EXPECT_TRUE(bus.has("alpha"));
  EXPECT_THROW(bus.create_channel("alpha"), ConfigError);
  EXPECT_THROW(bus.find("beta"), ConfigError);
  EXPECT_THROW(bus.channel(999), ConfigError);
}

TEST(EventBus, DerivedChannelTransformsEvents) {
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId doubled = bus.derive_channel(
      raw,
      [](Event e) -> std::optional<Event> {
        e.payload.insert(e.payload.end(), e.payload.begin(), e.payload.end());
        return e;
      },
      "doubled");

  Bytes got;
  bus.channel(doubled).subscribe([&](const Event& e) { got = e.payload; });
  bus.channel(raw).submit(Event(to_bytes("ab")));
  EXPECT_EQ(to_string(got), "abab");
}

TEST(EventBus, DerivedHandlerCanFilter) {
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId filtered = bus.derive_channel(
      raw,
      [](Event e) -> std::optional<Event> {
        if (e.payload.size() < 3) return std::nullopt;
        return e;
      },
      "filtered");
  int delivered = 0;
  bus.channel(filtered).subscribe([&](const Event&) { ++delivered; });
  bus.channel(raw).submit(Event(to_bytes("xy")));     // dropped
  bus.channel(raw).submit(Event(to_bytes("xyz")));    // passes
  EXPECT_EQ(delivered, 1);
}

TEST(EventBus, DerivedControlPropagatesToSource) {
  // §3.2: consumers of the derived channel can still steer the producer.
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId derived =
      bus.derive_channel(raw, [](Event e) -> std::optional<Event> { return e; },
                         "derived");
  AttributeMap seen;
  bus.channel(raw).on_control([&](const AttributeMap& a) { seen = a; });
  AttributeMap req;
  req.set_int("m", 4);
  bus.channel(derived).signal_control(req);
  EXPECT_EQ(seen.get_int("m"), 4);
}

TEST(EventBus, ChainedDerivation) {
  EventBus bus;
  const ChannelId a = bus.create_channel("a");
  const auto add = [](char c) {
    return [c](Event e) -> std::optional<Event> {
      e.payload.push_back(static_cast<std::uint8_t>(c));
      return e;
    };
  };
  const ChannelId b = bus.derive_channel(a, add('b'), "b");
  const ChannelId c = bus.derive_channel(b, add('c'), "c");
  Bytes got;
  bus.channel(c).subscribe([&](const Event& e) { got = e.payload; });
  bus.channel(a).submit(Event(to_bytes("a")));
  EXPECT_EQ(to_string(got), "abc");
}

TEST(EventBus, RemoveDerivedChannelDetachesTap) {
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId derived = bus.derive_channel(
      raw, [](Event e) -> std::optional<Event> { return e; }, "derived");
  EXPECT_EQ(bus.channel(raw).subscriber_count(), 1u);
  bus.remove_channel(derived);
  EXPECT_EQ(bus.channel(raw).subscriber_count(), 0u);
  EXPECT_FALSE(bus.has("derived"));
  bus.channel(raw).submit(Event(to_bytes("x")));  // must not crash
}

TEST(EventBus, RemoveSourceBeforeDerivedIsSafe) {
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId derived = bus.derive_channel(
      raw, [](Event e) -> std::optional<Event> { return e; }, "derived");
  bus.remove_channel(raw);
  EXPECT_TRUE(bus.has("derived"));
  bus.remove_channel(derived);  // must not touch the dead source
}

TEST(EventBus, RemoveDerivedChannelDuringSourceDispatchIsSafe) {
  // Regression: a source subscriber removes the derived channel while the
  // source is mid-submit. The derivation tap runs AFTER the removal in the
  // same dispatch — it must notice the channel is gone (weak_ptr lock
  // fails) instead of submitting into a destroyed EventChannel.
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  int removed_then_delivered = 0;
  // Subscribed BEFORE the derivation tap, so it runs first in dispatch.
  bus.channel(raw).subscribe([&bus](const Event&) {
    if (bus.has("derived")) bus.remove_channel(bus.find("derived"));
  });
  const ChannelId derived = bus.derive_channel(
      raw, [](Event e) -> std::optional<Event> { return e; }, "derived");
  bus.channel(derived).subscribe(
      [&removed_then_delivered](const Event&) { ++removed_then_delivered; });

  bus.channel(raw).submit(Event(to_bytes("x")));  // must not crash
  EXPECT_EQ(removed_then_delivered, 0);
  EXPECT_FALSE(bus.has("derived"));
  bus.channel(raw).submit(Event(to_bytes("y")));  // tap now fully inert
}

TEST(EventBus, RemoveSourceDuringDerivedControlSignalIsSafe) {
  // Mirror hazard on the control path: a control sink on the SOURCE
  // removes the source while the derived channel's control tap is
  // forwarding a signal through it. The weak control tap must cope with
  // the source dying between dispatches too.
  EventBus bus;
  const ChannelId raw = bus.create_channel("raw");
  const ChannelId derived = bus.derive_channel(
      raw, [](Event e) -> std::optional<Event> { return e; }, "derived");
  int signals = 0;
  bus.channel(raw).on_control([&](const AttributeMap&) {
    ++signals;
    bus.remove_channel(raw);
  });
  AttributeMap attrs;
  attrs.set_int("x", 1);
  bus.channel(derived).signal_control(attrs);
  EXPECT_EQ(signals, 1);
  bus.channel(derived).signal_control(attrs);  // source gone: no-op
  EXPECT_EQ(signals, 1);
}

// ------------------------------------------------------------------ bridge

class BridgeTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  netsim::SimLink forward_{flat_link(1e6), 1};
  netsim::SimLink reverse_{flat_link(1e6), 2};
  transport::SimDuplex duplex_{forward_, reverse_, clock_};
};

TEST_F(BridgeTest, EventsFlowAcrossTransport) {
  EventChannel producer_side("remote");
  EventChannel consumer_side("local");
  ChannelSender sender(producer_side, duplex_.a());
  ChannelReceiver receiver(consumer_side, duplex_.b());

  std::vector<std::string> got;
  consumer_side.subscribe(
      [&](const Event& e) { got.push_back(to_string(e.payload)); });

  Event e1(to_bytes("first"));
  e1.attributes.set_int("seq", 1);
  producer_side.submit(e1);
  producer_side.submit(Event(to_bytes("second")));

  EXPECT_EQ(receiver.poll(), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
  EXPECT_EQ(sender.events_forwarded(), 2u);
  EXPECT_EQ(receiver.events_received(), 2u);
}

TEST_F(BridgeTest, AttributesSurviveTheWire) {
  EventChannel producer_side("remote");
  EventChannel consumer_side("local");
  ChannelSender sender(producer_side, duplex_.a());
  ChannelReceiver receiver(consumer_side, duplex_.b());

  AttributeMap seen;
  consumer_side.subscribe([&](const Event& e) { seen = e.attributes; });
  Event e(to_bytes("payload"));
  e.attributes.set_double("acex.accept_rate", 5.5);
  producer_side.submit(e);
  receiver.poll();
  EXPECT_EQ(seen.get_double("acex.accept_rate"), 5.5);
}

TEST_F(BridgeTest, ControlSignalsReachRemoteProducer) {
  EventChannel producer_side("remote");
  EventChannel consumer_side("local");
  ChannelSender sender(producer_side, duplex_.a());
  ChannelReceiver receiver(consumer_side, duplex_.b());

  AttributeMap at_producer;
  producer_side.on_control(
      [&](const AttributeMap& a) { at_producer = a; });

  AttributeMap request;
  request.set_int("acex.method", 4);
  receiver.signal_control(request);
  EXPECT_EQ(sender.pump_control(), 1u);
  EXPECT_EQ(at_producer.get_int("acex.method"), 4);
}

TEST_F(BridgeTest, PollRespectsMaxEvents) {
  EventChannel producer_side("remote");
  EventChannel consumer_side("local");
  ChannelSender sender(producer_side, duplex_.a());
  ChannelReceiver receiver(consumer_side, duplex_.b());
  for (int i = 0; i < 5; ++i) producer_side.submit(Event(to_bytes("e")));
  EXPECT_EQ(receiver.poll(2), 2u);
  EXPECT_EQ(receiver.poll(), 3u);
}

TEST_F(BridgeTest, SenderDetachesOnDestruction) {
  EventChannel producer_side("remote");
  {
    ChannelSender sender(producer_side, duplex_.a());
    EXPECT_EQ(producer_side.subscriber_count(), 1u);
  }
  EXPECT_EQ(producer_side.subscriber_count(), 0u);
}

}  // namespace
}  // namespace acex::echo
