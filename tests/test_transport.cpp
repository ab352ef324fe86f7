#include <gtest/gtest.h>

#include <thread>

#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "testdata.hpp"
#include "transport/sequence_tracker.hpp"
#include "transport/sim_transport.hpp"
#include "transport/tcp_transport.hpp"
#include "util/error.hpp"

namespace acex::transport {
namespace {

// ---------------------------------------------------------------- simulated

class SimTransportTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  netsim::SimLink forward_{flat_link(1000), 1};
  netsim::SimLink reverse_{flat_link(1000), 2};
  SimDuplex duplex_{forward_, reverse_, clock_};
};

TEST_F(SimTransportTest, MessageArrivesAtPeer) {
  duplex_.a().send(to_bytes("hello"));
  const auto got = duplex_.b().receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "hello");
  EXPECT_FALSE(duplex_.b().receive().has_value());
}

TEST_F(SimTransportTest, SendAdvancesVirtualClock) {
  duplex_.a().send(Bytes(1000, 0));  // 1000 B at 1000 B/s = 1 s
  EXPECT_NEAR(clock_.now(), 1.0, 1e-9);
  duplex_.a().send(Bytes(500, 0));
  EXPECT_NEAR(clock_.now(), 1.5, 1e-9);
}

TEST_F(SimTransportTest, DirectionsDoNotContend) {
  duplex_.a().send(Bytes(1000, 0));
  const Seconds after_forward = clock_.now();
  duplex_.b().send(Bytes(1000, 0));  // reverse link was idle the whole time
  // The reverse link's queue started at 0, so this takes 1 s from now.
  EXPECT_NEAR(clock_.now(), after_forward + 1.0, 1e-9);
  EXPECT_TRUE(duplex_.a().receive().has_value());
}

TEST_F(SimTransportTest, OrderingIsFifo) {
  duplex_.a().send(to_bytes("one"));
  duplex_.a().send(to_bytes("two"));
  EXPECT_EQ(to_string(*duplex_.b().receive()), "one");
  EXPECT_EQ(to_string(*duplex_.b().receive()), "two");
}

TEST_F(SimTransportTest, TracksBytesAndLastTransfer) {
  duplex_.a().send(Bytes(123, 0));
  EXPECT_EQ(duplex_.a().bytes_sent(), 123u);
  EXPECT_GT(duplex_.a().last_transfer().delivered, 0.0);
  EXPECT_EQ(duplex_.b().pending(), 1u);
}

TEST(SimDuplex, RejectsSharedLink) {
  VirtualClock clock;
  netsim::SimLink link(flat_link(1000), 1);
  EXPECT_THROW(SimDuplex(link, link, clock), ConfigError);
}

// ---------------------------------------------------------------------- tcp

TEST(TcpTransport, SocketPairRoundTrip) {
  auto [a, b] = socket_pair();
  const Bytes msg = testdata::random_bytes(100000, 5);
  a.send(msg);
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);
}

TEST(TcpTransport, EmptyMessageRoundTrip) {
  auto [a, b] = socket_pair();
  a.send(Bytes{});
  const auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(TcpTransport, ShutdownYieldsEndOfStream) {
  auto [a, b] = socket_pair();
  a.send(to_bytes("last"));
  a.shutdown_send();
  EXPECT_TRUE(b.receive().has_value());
  EXPECT_FALSE(b.receive().has_value());
}

TEST(TcpTransport, ListenerAcceptsLoopbackConnection) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread client([port = listener.port()] {
    TcpTransport t = tcp_connect(port);
    t.send(to_bytes("ping"));
    const auto reply = t.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(to_string(*reply), "pong");
  });

  TcpTransport server = listener.accept();
  const auto got = server.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(*got), "ping");
  server.send(to_bytes("pong"));
  client.join();
}

TEST(TcpTransport, ManyMessagesPreserveOrderAndContent) {
  auto [a, b] = socket_pair();
  std::thread sender([&a] {
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
      a.send(rng.bytes(1 + rng.below(5000)));
    }
    a.shutdown_send();
  });
  Rng rng(9);
  int received = 0;
  while (const auto msg = b.receive()) {
    const Bytes expected = rng.bytes(1 + rng.below(5000));
    ASSERT_EQ(*msg, expected);
    ++received;
  }
  sender.join();
  EXPECT_EQ(received, 200);
}

TEST(TcpTransport, MoveTransfersOwnership) {
  auto [a, b] = socket_pair();
  TcpTransport moved = std::move(a);
  moved.send(to_bytes("x"));
  EXPECT_TRUE(b.receive().has_value());
}

TEST(TcpTransport, RejectsInvalidDescriptor) {
  EXPECT_THROW(TcpTransport(-1), ConfigError);
}

// ---------------------------------------------------------- SequenceTracker

constexpr std::uint64_t kHalf = SequenceTracker::kWindow / 2;

TEST(SequenceTracker, FoldsOutOfOrderDeliveriesAndFlagsDuplicates) {
  SequenceTracker t;
  t.deliver(0);
  t.deliver(3);
  t.deliver(2);
  EXPECT_EQ(t.next_expected(), 1u);
  EXPECT_EQ(t.gaps(), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(t.duplicate(0));
  EXPECT_TRUE(t.duplicate(2));
  EXPECT_TRUE(t.duplicate(3));
  EXPECT_FALSE(t.duplicate(1));
  EXPECT_FALSE(t.duplicate(4));

  t.deliver(1);  // closes the gap: the cursor folds over 2 and 3
  EXPECT_EQ(t.next_expected(), 4u);
  EXPECT_TRUE(t.gaps().empty());
  EXPECT_TRUE(t.duplicate(1));
  EXPECT_EQ(t.abandoned(), 0u);
}

TEST(SequenceTracker, ClampsSequencesToTheWindow) {
  SequenceTracker t;
  EXPECT_TRUE(t.plausible(SequenceTracker::kWindow - 1));
  EXPECT_FALSE(t.plausible(SequenceTracker::kWindow));
  EXPECT_FALSE(t.plausible(UINT64_MAX));

  for (std::uint64_t seq = 0; seq < 10; ++seq) t.deliver(seq);
  EXPECT_TRUE(t.plausible(3));  // behind the cursor: a duplicate, not forged
  EXPECT_TRUE(t.plausible(10 + SequenceTracker::kWindow - 1));
  EXPECT_FALSE(t.plausible(10 + SequenceTracker::kWindow));
  EXPECT_FALSE(t.plausible(UINT64_MAX));

  // The furthest plausible header opens exactly one window of gaps.
  t.saw(10 + SequenceTracker::kWindow - 1);
  EXPECT_EQ(t.gaps().size(), SequenceTracker::kWindow);
}

TEST(SequenceTracker, AbandonsAGapThatReachesTheRetryCap) {
  SequenceTracker t(2);
  t.deliver(0);
  t.deliver(2);
  EXPECT_EQ(t.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(t.take_nacks(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(t.abandoned(), 0u);  // the last request gets its round
  EXPECT_TRUE(t.take_nacks().empty());
  EXPECT_EQ(t.abandoned(), 1u);
  EXPECT_EQ(t.next_expected(), 3u);
  EXPECT_TRUE(t.gaps().empty());
  EXPECT_TRUE(t.duplicate(1));  // a late copy no longer delivers
}

TEST(SequenceTracker, SettlesGapsHalfAWindowBehindTheNewestDelivery) {
  SequenceTracker t;
  t.deliver(0);
  for (std::uint64_t seq = 2; seq <= kHalf; ++seq) t.deliver(seq);
  EXPECT_EQ(t.gaps(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(t.abandoned(), 0u);

  t.deliver(kHalf + 1);  // gap 1 is now half a window behind
  EXPECT_EQ(t.abandoned(), 1u);
  EXPECT_EQ(t.next_expected(), kHalf + 2);
  EXPECT_TRUE(t.gaps().empty());
  EXPECT_TRUE(t.plausible(kHalf + 1 + SequenceTracker::kWindow));
}

TEST(SequenceTracker, HeaderOnlySequenceNeverSettles) {
  SequenceTracker t(1);
  t.deliver(0);
  t.saw(1);  // header parsed, payload failed its CRC
  t.saw(kHalf + 100);
  EXPECT_EQ(t.gaps().size(), kHalf + 100);
  EXPECT_EQ(t.take_nacks().size(), kHalf + 100);
  EXPECT_TRUE(t.take_nacks().empty());  // past the cap ...
  EXPECT_EQ(t.abandoned(), 0u);         // ... but nothing delivered past it
  EXPECT_EQ(t.next_expected(), 1u);
  EXPECT_FALSE(t.duplicate(1));

  t.deliver(1);  // the genuine copy still delivers
  EXPECT_EQ(t.next_expected(), 2u);
  EXPECT_EQ(t.abandoned(), 0u);
}

TEST(SequenceTracker, RejectsNonPositiveRetryCap) {
  EXPECT_THROW(SequenceTracker(0), ConfigError);
}

}  // namespace
}  // namespace acex::transport
