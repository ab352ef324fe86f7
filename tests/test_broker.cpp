#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "obs/metrics.hpp"
#include "testdata.hpp"
#include "transport/fault_transport.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"

namespace acex::broker {
namespace {

Bytes compressible_block(std::size_t size, std::uint64_t seed) {
  return testdata::low_entropy(size, seed);
}

// ------------------------------------------------------- group formation

TEST(BrokerGroups, HomogeneousSubscribersFormOneGroupPerBlock) {
  VirtualClock clock;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  std::vector<SubscriberId> ids;
  for (int i = 0; i < 4; ++i) {
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 10 + i));
    ids.push_back(broker.subscribe(endpoints.back()->duplex.a()));
  }

  const Bytes block = compressible_block(8 * 1024, 7);
  const int kBlocks = 5;
  for (int i = 0; i < kBlocks; ++i) {
    broker.publish(block);
    broker.pump_all();
  }

  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.blocks, static_cast<std::uint64_t>(kBlocks));
  // Identical configs + identical measured links + one shared sample per
  // block => every subscriber picks the same method => exactly one codec
  // run per block, K-1 cache hits.
  EXPECT_EQ(stats.encodes, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.cache_misses, stats.encodes);
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kBlocks * 3));
  EXPECT_EQ(stats.last_groups, 1u);
  for (const SubscriberId id : ids) {
    EXPECT_EQ(broker.subscriber_stats(id).frames,
              static_cast<std::uint64_t>(kBlocks));
  }
}

TEST(BrokerGroups, HeterogeneousLinksFormMethodGroups) {
  VirtualClock clock;
  // Two subscribers behind an (initially) very fast link — sending is
  // cheaper than compressing, the selector stays at kNone — and two
  // behind a crawling one, which must compress.
  SimEndpoint fast1(clock, 1e6, 1), fast2(clock, 1e6, 2);
  SimEndpoint slow1(clock, 1e6, 3), slow2(clock, 1e6, 4);

  FanoutBroker broker;
  SubscriberConfig fast_cfg;
  fast_cfg.adaptive.initial_bandwidth_Bps = 1e12;
  SubscriberConfig slow_cfg;
  slow_cfg.adaptive.initial_bandwidth_Bps = 1e3;
  broker.subscribe(fast1.duplex.a(), fast_cfg);
  broker.subscribe(fast2.duplex.a(), fast_cfg);
  broker.subscribe(slow1.duplex.a(), slow_cfg);
  broker.subscribe(slow2.duplex.a(), slow_cfg);

  const std::uint64_t samples_before = samples_taken();
  broker.publish(compressible_block(16 * 1024, 9));
  // The slow pair reads the sample: taken once, for all four plans.
  EXPECT_EQ(samples_taken() - samples_before, 1u);

  const BrokerStats stats = broker.stats();
  // Two distinct method choices -> two groups -> two encodes, two hits.
  EXPECT_EQ(stats.last_groups, 2u);
  EXPECT_EQ(stats.encodes, 2u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

// ------------------------------------------------------------- sampling

TEST(BrokerSampling, RawFleetSamplesNothingOnceLinksAreMeasured) {
  // Sixteen subscribers behind fast links, charged on Fig. 4's model so
  // their plans do not depend on this host. The first chunk meets no LZ
  // speed to test against, so the fleet samples it, once. Once the pump
  // has measured the links, the §2.5 first test fails for everyone: no
  // plan reads a sample, none is taken, and every frame goes raw.
  VirtualClock clock;
  constexpr std::size_t kSubs = 16;
  constexpr int kBlocks = 40;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  SubscriberConfig config;
  config.adaptive.cpu_meter = adaptive::CpuMeter::paper_model();
  for (std::size_t i = 0; i < kSubs; ++i) {
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e9, 20 + i));
    broker.subscribe(endpoints.back()->duplex.a(), config);
  }

  for (int i = 0; i < kBlocks; ++i) {
    const std::uint64_t samples_before = samples_taken();
    broker.publish(compressible_block(16 * 1024, 200 + i));
    broker.pump_all();
    EXPECT_EQ(samples_taken() - samples_before, i == 0 ? 1u : 0u)
        << "block " << i;
  }

  std::vector<std::vector<Bytes>> wires(kSubs);
  for (std::size_t s = 0; s < kSubs; ++s) {
    while (auto frame = endpoints[s]->duplex.b().receive()) {
      wires[s].push_back(std::move(*frame));
    }
    ASSERT_EQ(wires[s].size(), static_cast<std::size_t>(kBlocks));
  }
  for (std::size_t s = 1; s < kSubs; ++s) EXPECT_EQ(wires[s], wires[0]);
  for (int i = 1; i < kBlocks; ++i) {
    EXPECT_EQ(frame_parse(ByteView(wires[0][i])).method, MethodId::kNone)
        << "block " << i;
  }
}

TEST(BrokerSampling, SubscriberSampleSizeIsHonoured) {
  // The first KiB is zeros and the rest random: a 1 KiB sample sees a
  // block LZ crushes, a 4 KiB sample mostly noise. A subscriber asking for
  // 1 KiB must be planned from a 1 KiB sample, as a private sender is, so
  // both put the same frame on the wire.
  Bytes block = testdata::random_bytes(4096, 61);
  std::fill(block.begin(), block.begin() + 1024, std::uint8_t{0});
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.decision.sample_size = 1024;
  config.cpu_meter = adaptive::CpuMeter::paper_model();

  CaptureTransport private_wire;
  adaptive::AdaptiveSender sender(private_wire, config);
  const adaptive::StreamReport report = sender.send_all(block);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_EQ(report.blocks[0].method, MethodId::kBurrowsWheeler);

  CaptureTransport broker_wire;
  FanoutBroker broker;
  SubscriberConfig sub;
  sub.adaptive = config;
  broker.subscribe(broker_wire, sub);
  broker.publish(block);
  broker.pump_all();

  ASSERT_EQ(broker_wire.frames.size(), 1u);
  ASSERT_EQ(private_wire.frames.size(), 1u);
  EXPECT_EQ(frame_parse(ByteView(broker_wire.frames[0])).method,
            MethodId::kBurrowsWheeler);
  EXPECT_EQ(broker_wire.frames[0], private_wire.frames[0]);
}

// --------------------------------------------- shared-encode byte identity

TEST(BrokerCache, SubscribersOnIdenticalLinksReceiveIdenticalBytes) {
  obs::MetricsRegistry::global().reset_values();
  VirtualClock clock;
  constexpr int kSubs = 3;
  std::vector<std::unique_ptr<SimEndpoint>> endpoints;
  FanoutBroker broker;
  std::vector<SubscriberId> ids;
  for (int i = 0; i < kSubs; ++i) {
    // Same link seed everywhere: the measured transfers (and therefore
    // the bandwidth feedback) are identical across subscribers.
    endpoints.push_back(std::make_unique<SimEndpoint>(clock, 1e6, 1));
    ids.push_back(broker.subscribe(endpoints.back()->duplex.a()));
  }

  std::vector<Bytes> blocks;
  const int kBlocks = 6;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(compressible_block(8 * 1024, 100 + i));
    broker.publish(blocks.back());
    broker.pump_all();
  }

  // The wire bytes must be identical subscriber-to-subscriber: same
  // payload from the shared encode, same sequence (every subscriber
  // joined at the start), same frame envelope.
  std::vector<std::vector<Bytes>> wires(kSubs);
  for (int s = 0; s < kSubs; ++s) {
    while (auto frame = endpoints[s]->duplex.b().receive()) {
      wires[s].push_back(std::move(*frame));
    }
    ASSERT_EQ(wires[s].size(), static_cast<std::size_t>(kBlocks));
  }
  for (int s = 1; s < kSubs; ++s) EXPECT_EQ(wires[s], wires[0]);

  // And each frame decodes back to the published block.
  const CodecRegistry registry = CodecRegistry::with_builtins();
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(frame_decompress(wires[0][i], registry), blocks[i]);
  }

  // Obs mirror == ground truth: encode invocations per block == distinct
  // chosen methods (here 1), asserted through the encode-cache counters.
  const BrokerStats stats = broker.stats();
  EXPECT_EQ(stats.encodes, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kBlocks * (kSubs - 1)));
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::MetricPoint* hits = snap.find("acex.broker.encode_cache.hits");
  const obs::MetricPoint* misses = snap.find("acex.broker.encode_cache.misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->counter, stats.cache_hits);
  EXPECT_EQ(misses->counter, stats.cache_misses);
}

TEST(BrokerCache, LateJoinerSequencesStartAtZero) {
  VirtualClock clock;
  SimEndpoint early(clock, 1e6, 1), late(clock, 1e6, 2);
  FanoutBroker broker;
  broker.subscribe(early.duplex.a());

  broker.publish(compressible_block(4096, 1));
  broker.publish(compressible_block(4096, 2));
  broker.pump_all();

  broker.subscribe(late.duplex.a());
  broker.publish(compressible_block(4096, 3));
  broker.pump_all();

  // The late joiner's stream starts at sequence 0: its receiver must see
  // a gapless fresh stream, not a hole covering the blocks it missed.
  adaptive::AdaptiveReceiver receiver(late.duplex.b(),
                                      {adaptive::RecoveryPolicy::kNack, 3});
  const adaptive::ReceiveReport report = receiver.receive_report();
  EXPECT_EQ(report.frames_ok, 1u);
  EXPECT_TRUE(report.gaps.empty());
  ASSERT_EQ(report.frames.size(), 1u);
  EXPECT_EQ(report.frames[0].sequence, 0u);
}

// --------------------------------------------------- slow-consumer policy

TEST(BrokerPolicy, DropOldestNeverStallsAndCountsDrops) {
  VirtualClock clock;
  SimEndpoint slow(clock, 1e6, 1), healthy(clock, 1e6, 2);
  FanoutBroker broker;

  SubscriberConfig slow_cfg;
  slow_cfg.egress_capacity = 2;
  slow_cfg.policy = SlowConsumerPolicy::kDropOldest;
  const SubscriberId slow_id = broker.subscribe(slow.duplex.a(), slow_cfg);

  SubscriberConfig healthy_cfg;
  healthy_cfg.egress_capacity = 64;
  const SubscriberId healthy_id =
      broker.subscribe(healthy.duplex.a(), healthy_cfg);

  // Publish without ever pumping the slow subscriber: the publisher must
  // never block, and the overflow lands on the slow queue alone.
  const int kBlocks = 5;
  for (int i = 0; i < kBlocks; ++i) {
    broker.publish(compressible_block(4096, i));
  }
  EXPECT_EQ(broker.subscriber_stats(slow_id).drops,
            static_cast<std::uint64_t>(kBlocks - 2));
  EXPECT_EQ(broker.egress_depth(slow_id), 2u);
  EXPECT_FALSE(broker.disconnected(slow_id));
  EXPECT_EQ(broker.subscriber_stats(healthy_id).frames,
            static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(broker.egress_depth(healthy_id),
            static_cast<std::size_t>(kBlocks));
}

TEST(BrokerPolicy, BlockPolicyWakesWhenPumped) {
  SinkTransport sink;
  FanoutBroker broker;
  SubscriberConfig cfg;
  cfg.egress_capacity = 1;
  cfg.policy = SlowConsumerPolicy::kBlock;
  const SubscriberId id = broker.subscribe(sink, cfg);

  const Bytes block = compressible_block(4096, 1);
  std::atomic<int> published{0};
  std::thread publisher([&] {
    for (int i = 0; i < 3; ++i) {
      broker.publish(block);
      published.fetch_add(1);
    }
  });
  // Drain until all three frames made it through the capacity-1 queue —
  // each pump frees the slot the blocked publisher is waiting for.
  while (broker.subscriber_stats(id).delivered < 3) {
    broker.pump(id);
    std::this_thread::yield();
  }
  publisher.join();
  EXPECT_EQ(published.load(), 3);
  EXPECT_EQ(sink.frames(), 3u);
}

// ------------------------------------------------------ churn under load

TEST(BrokerChurn, SubscribeUnsubscribeDuringConcurrentPublish) {
  SinkTransport sinks[4];
  FanoutBroker broker({.worker_threads = 2});

  SubscriberConfig cfg;
  cfg.egress_capacity = 4;
  cfg.policy = SlowConsumerPolicy::kDropOldest;

  // A stable subscriber that lives through the whole run.
  const SubscriberId stable = broker.subscribe(sinks[0], cfg);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    const Bytes block = compressible_block(8 * 1024, 1);
    while (!stop.load()) broker.publish(block);
  });
  std::thread pumper([&] {
    while (!stop.load()) broker.pump_all();
  });
  std::thread churner([&] {
    // Churn only once the stable subscriber holds a frame; otherwise the 50
    // rounds can finish, and stop the publisher, before its first publish.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (broker.subscriber_stats(stable).frames == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    for (int round = 0; round < 50; ++round) {
      std::vector<SubscriberId> ids;
      for (int i = 1; i < 4; ++i) ids.push_back(broker.subscribe(sinks[i], cfg));
      for (const SubscriberId id : ids) broker.unsubscribe(id);
    }
    stop.store(true);
  });
  churner.join();
  publisher.join();
  pumper.join();
  broker.pump_all();

  EXPECT_EQ(broker.subscriber_count(), 1u);
  const SubscriberStats stats = broker.subscriber_stats(stable);
  EXPECT_FALSE(stats.disconnected);
  EXPECT_GT(stats.frames, 0u);
  // Ground truth stays consistent under churn: every frame the stable
  // subscriber accepted was either delivered or dropped or is queued.
  EXPECT_EQ(stats.frames,
            stats.delivered + stats.drops + broker.egress_depth(stable));
}

TEST(BrokerChurn, UnsubscribedSubscriberStopsReceiving) {
  VirtualClock clock;
  SimEndpoint a(clock, 1e6, 1), b(clock, 1e6, 2);
  FanoutBroker broker;
  const SubscriberId id_a = broker.subscribe(a.duplex.a());
  const SubscriberId id_b = broker.subscribe(b.duplex.a());

  broker.publish(compressible_block(4096, 1));
  ASSERT_TRUE(broker.unsubscribe(id_a));
  EXPECT_FALSE(broker.unsubscribe(id_a));  // idempotent
  broker.publish(compressible_block(4096, 2));
  broker.pump_all();

  EXPECT_EQ(broker.subscriber_count(), 1u);
  EXPECT_EQ(broker.subscriber_stats(id_b).frames, 2u);
  EXPECT_THROW(broker.subscriber_stats(id_a), ConfigError);
  // The removed subscriber's egress died with it: only the pre-removal
  // frame could ever have been delivered, and queued ones were dropped.
  std::size_t delivered_a = 0;
  while (a.duplex.b().receive()) ++delivered_a;
  EXPECT_LE(delivered_a, 1u);
}

// ------------------------------------------- per-subscriber recovery

TEST(BrokerRecovery, LossySubscriberRecoversIndependently) {
  VirtualClock clock;
  SimEndpoint lossy_ep(clock, 1e6, 1), clean_ep(clock, 1e6, 2);
  transport::FaultConfig faults;
  faults.drop_prob = 0.3;
  faults.seed = 7;
  transport::FaultInjectingTransport lossy(lossy_ep.duplex.a(), faults);

  FanoutBroker broker;
  const SubscriberId lossy_id = broker.subscribe(lossy);
  const SubscriberId clean_id = broker.subscribe(clean_ep.duplex.a());

  std::vector<Bytes> blocks;
  const int kBlocks = 12;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(compressible_block(4096, 200 + i));
    broker.publish(blocks.back());
    broker.pump_all();
  }
  lossy.flush();

  adaptive::ReceiverConfig rcfg;
  rcfg.policy = adaptive::RecoveryPolicy::kNack;
  adaptive::AdaptiveReceiver lossy_rx(lossy_ep.duplex.b(), rcfg);
  adaptive::AdaptiveReceiver clean_rx(clean_ep.duplex.b(), rcfg);

  std::map<std::uint64_t, Bytes> recovered;
  const auto drain = [&](adaptive::AdaptiveReceiver& rx) {
    const adaptive::ReceiveReport report = rx.receive_report();
    for (const auto& frame : report.frames) {
      if (frame.status == adaptive::FrameOutcome::Status::kOk) {
        recovered[frame.sequence] = frame.data;
      }
    }
  };

  drain(lossy_rx);
  // NACK cycles: receiver asks, broker replays from the lossy
  // subscriber's OWN retransmit ring, pump delivers.
  for (int cycle = 0; cycle < 8; ++cycle) {
    const std::vector<std::uint64_t> nacks = lossy_rx.take_nacks();
    if (nacks.empty()) break;
    broker.retransmit(lossy_id, nacks);
    broker.pump(lossy_id);
    lossy.flush();
    broker.pump(lossy_id);
    drain(lossy_rx);
  }
  ASSERT_EQ(recovered.size(), static_cast<std::size_t>(kBlocks));
  for (int i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(recovered[static_cast<std::uint64_t>(i)], blocks[i]);
  }
  EXPECT_GT(broker.subscriber_stats(lossy_id).retransmits, 0u);

  // The clean subscriber never noticed: full stream, zero retransmits.
  recovered.clear();
  drain(clean_rx);
  EXPECT_EQ(recovered.size(), static_cast<std::size_t>(kBlocks));
  EXPECT_EQ(broker.subscriber_stats(clean_id).retransmits, 0u);
}

// ---------------------------------------------------------- channel attach

TEST(BrokerAttach, ChannelEventsFanOutToSubscribers) {
  VirtualClock clock;
  SimEndpoint ep(clock, 1e6, 1);
  FanoutBroker broker;
  broker.subscribe(ep.duplex.a());

  echo::EventChannel channel("sensors");
  const echo::SubscriberId tap = broker.attach(channel);
  channel.submit(echo::Event(compressible_block(4096, 1)));
  channel.submit(echo::Event(compressible_block(4096, 2)));
  broker.detach(channel, tap);
  channel.submit(echo::Event(compressible_block(4096, 3)));  // not published
  broker.pump_all();

  EXPECT_EQ(broker.stats().blocks, 2u);
  std::size_t frames = 0;
  while (ep.duplex.b().receive()) ++frames;
  EXPECT_EQ(frames, 2u);
}

// ------------------------------------------- blocking wait + shed mode

TEST(BrokerEgress, BlockedSenderWakesWhenDrained) {
  MonotonicClock clock;
  EgressQueue q(1, SlowConsumerPolicy::kBlock, clock);
  q.send(Bytes{1});
  std::thread consumer([&] {
    while (!q.try_pop()) std::this_thread::yield();
  });
  q.send(Bytes{2});  // blocks on the full queue until the pop frees it
  consumer.join();
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.try_pop(), Bytes{2});
}

TEST(BrokerEgress, ShedModeDropsOldestInsteadOfBlocking) {
  MonotonicClock clock;
  EgressQueue q(2, SlowConsumerPolicy::kBlock, clock);
  q.send(Bytes{1});
  q.send(Bytes{2});
  q.set_shed_mode(true);
  q.send(Bytes{3});  // full queue + shed: evict 1, admit 3, never wait
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.try_pop(), Bytes{2});
  EXPECT_EQ(q.try_pop(), Bytes{3});
  q.set_shed_mode(false);
  EXPECT_FALSE(q.shed_mode());
}

TEST(BrokerEgress, ClearEmptiesWithoutCountingDrops) {
  MonotonicClock clock;
  EgressQueue q(8, SlowConsumerPolicy::kDropOldest, clock);
  q.send(Bytes{1, 2, 3});
  q.send(Bytes{4, 5});
  EXPECT_EQ(q.bytes(), 5u);
  EXPECT_EQ(q.clear(), 2u);
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(q.drops(), 0u);  // cleared frames are replayed, not lost
  EXPECT_FALSE(q.closed());
  q.send(Bytes{6});
  EXPECT_EQ(q.try_pop(), Bytes{6});
}

// ------------------------------------------------------ lifecycle + rules

TEST(BrokerMetrics, DestroyedBrokerReleasesSubscriberGauge) {
  const auto gauge = [] {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    const obs::MetricPoint* point = snap.find("acex.broker.subscribers");
    return point ? point->gauge : std::int64_t{0};
  };
  const std::int64_t before = gauge();
  SinkTransport a, b, c;
  {
    FanoutBroker broker;
    for (SinkTransport* sink : {&a, &b, &c}) broker.subscribe(*sink);
    EXPECT_EQ(gauge(), before + 3);
  }
  EXPECT_EQ(gauge(), before);
}

/// A codec that fails with something other than acex::Error, which the
/// encoder does not absorb into a fallback.
class ForeignThrowCodec final : public Codec {
 public:
  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView) override { throw std::runtime_error("boom"); }
  Bytes decompress(ByteView) override { throw std::runtime_error("boom"); }
};

TEST(BrokerEncode, ForeignCodecThrowReachesPublisherAtAnyWorkerCount) {
  // Two subscribers plan Burrows-Wheeler with different slacks, so the
  // chunk has two encode groups and runs them on the pool when there is
  // one. The codec's throw must reach publish()'s caller either way.
  for (const std::size_t workers : {1u, 4u}) {
    SinkTransport a, b;
    BrokerConfig config;
    config.worker_threads = workers;
    FanoutBroker broker(config);
    broker.registry().register_factory(
        MethodId::kBurrowsWheeler,
        [] { return std::make_unique<ForeignThrowCodec>(); });
    SubscriberConfig sub;
    sub.adaptive.async_sampling = false;
    sub.adaptive.target_rate_Bps = 1e12;  // climb the ladder to BW
    sub.adaptive.expansion_slack_bytes = 64;
    broker.subscribe(a, sub);
    sub.adaptive.expansion_slack_bytes = 65;
    broker.subscribe(b, sub);
    EXPECT_THROW(broker.publish(compressible_block(4096, 5)),
                 std::runtime_error)
        << workers << " workers";
  }
}

TEST(BrokerCache, ExpansionVerdictMatchesPrivateSenderAtVarintBoundary) {
  // 16383 bytes is the largest 2-byte varint; the codec's block + slack
  // payload needs 3. Framed, that is one byte beyond the null frame plus
  // slack, so both paths must fall back — the broker on its shared
  // payload, the private sender on its own frame — and agree on the bytes.
  const Bytes block = compressible_block(16383, 41);
  adaptive::AdaptiveConfig config;
  config.async_sampling = false;
  config.target_rate_Bps = 1e12;  // climb the ladder to BW
  const auto factory = [slack = config.expansion_slack_bytes] {
    return std::make_unique<ExpandingCodec>(slack);
  };

  CaptureTransport private_wire;
  adaptive::AdaptiveSender sender(private_wire, config);
  sender.registry().register_factory(MethodId::kBurrowsWheeler, factory);
  const adaptive::StreamReport report = sender.send_all(block);
  ASSERT_EQ(report.blocks.size(), 1u);
  EXPECT_EQ(report.blocks[0].requested_method, MethodId::kBurrowsWheeler);

  CaptureTransport broker_wire;
  FanoutBroker broker;
  broker.registry().register_factory(MethodId::kBurrowsWheeler, factory);
  SubscriberConfig sub;
  sub.adaptive = config;
  const SubscriberId id = broker.subscribe(broker_wire, sub);
  broker.publish(block);
  broker.pump_all();

  EXPECT_TRUE(report.blocks[0].fallback);
  EXPECT_EQ(broker.subscriber_stats(id).fallbacks, 1u);
  ASSERT_EQ(broker_wire.frames.size(), 1u);
  ASSERT_EQ(private_wire.frames.size(), 1u);
  EXPECT_EQ(broker_wire.frames[0], private_wire.frames[0]);
}

}  // namespace
}  // namespace acex::broker
