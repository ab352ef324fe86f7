// Tests for the user-expressed target transmission rate (§1: users express
// "the target rates of data transmission") and the monitor's achieved-ratio
// estimate it builds on.

#include <gtest/gtest.h>

#include <optional>

#include "adaptive/monitor.hpp"
#include "adaptive/pipeline.hpp"
#include "fixtures.hpp"
#include "netsim/link.hpp"
#include "transport/sim_transport.hpp"
#include "util/error.hpp"
#include "workloads/transactions.hpp"

namespace acex::adaptive {
namespace {

// ------------------------------------------------------------ ratio_or

TEST(MonitorRatio, FallbackBeforeSamples) {
  ReducingSpeedMonitor monitor;
  EXPECT_DOUBLE_EQ(monitor.ratio_or(MethodId::kLempelZiv, 0.4), 0.4);
}

TEST(MonitorRatio, DerivedFromSpeedSeries) {
  ReducingSpeedMonitor monitor;
  // 1000 -> 300 in 0.1 s: ratio 0.3.
  monitor.record(MethodId::kLempelZiv, 1000, 300, 0.1);
  EXPECT_NEAR(monitor.ratio_or(MethodId::kLempelZiv, 1.0), 0.3, 1e-9);
}

TEST(MonitorRatio, ExpansionClampsToOne) {
  ReducingSpeedMonitor monitor;
  monitor.record(MethodId::kHuffman, 1000, 1500, 0.1);
  EXPECT_DOUBLE_EQ(monitor.ratio_or(MethodId::kHuffman, 0.5), 1.0);
}

// ------------------------------------------------------ target-rate gate

struct Rig {
  VirtualClock clock;
  netsim::SimLink forward, reverse;
  transport::SimDuplex duplex;
  AdaptiveSender sender;

  Rig(double bps, AdaptiveConfig config)
      : forward(flat_link(bps), 1),
        reverse(flat_link(1e9), 2),
        duplex(forward, reverse, clock),
        sender(duplex.a(), patch(std::move(config))) {}

  static AdaptiveConfig patch(AdaptiveConfig config) {
    config.async_sampling = false;
    return config;
  }
};

TEST(TargetRate, DisabledKeepsBreakEvenChoice) {
  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(512 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e9;
  Rig rig(1e9, config);  // effectively infinite link
  const auto report = rig.sender.send_all(data);
  for (std::size_t i = 1; i < report.blocks.size(); ++i) {
    EXPECT_EQ(report.blocks[i].method, MethodId::kNone);
  }
}

TEST(TargetRate, MetByRawTransferChangesNothing) {
  workloads::TransactionGenerator gen(2);
  const Bytes data = gen.text_block(512 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e9;
  config.target_rate_Bps = 1e6;  // the 1 GB/s link meets this raw
  Rig rig(1e9, config);
  const auto report = rig.sender.send_all(data);
  for (std::size_t i = 1; i < report.blocks.size(); ++i) {
    EXPECT_EQ(report.blocks[i].method, MethodId::kNone);
  }
}

TEST(TargetRate, EscalatesWhenLinkFallsShort) {
  // A 1 MB/s link cannot carry 2 MB/s of payload raw; the selector must
  // compress even though break-even alone might already do so — force the
  // contrast by giving the link plenty of CPU headroom.
  workloads::TransactionGenerator gen(3);
  const Bytes data = gen.text_block(1024 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e6;
  config.target_rate_Bps = 2e6;
  Rig rig(1e6, config);
  const auto report = rig.sender.send_all(data);
  std::size_t compressed = 0;
  for (const auto& b : report.blocks) {
    compressed += b.method != MethodId::kNone;
  }
  EXPECT_EQ(compressed, report.blocks.size());
  // Effective payload rate delivered must approach the target: with ~25 %
  // wire ratio a 1 MB/s link carries ~4 MB/s of payload.
  const double payload_rate =
      static_cast<double>(report.original_bytes) / report.total_seconds;
  EXPECT_GT(payload_rate, 1.5e6);
}

TEST(TargetRate, UnreachableTargetEscalatesToStrongest) {
  workloads::TransactionGenerator gen(4);
  const Bytes data = gen.text_block(512 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e5;   // 100 KB/s link
  config.target_rate_Bps = 100e6;       // absurd target
  Rig rig(1e5, config);
  const auto report = rig.sender.send_all(data);
  for (const auto& b : report.blocks) {
    EXPECT_EQ(b.method, MethodId::kBurrowsWheeler);
  }
}

TEST(TargetRate, EscalationNeverWeakensBreakEvenChoice) {
  // On a link slow enough that break-even already picks BW, a modest
  // target must not demote the method.
  workloads::TransactionGenerator gen(5);
  const Bytes data = gen.text_block(512 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 2e4;
  config.target_rate_Bps = 1e3;  // trivially met
  Rig rig(2e4, config);
  const auto report = rig.sender.send_all(data);
  std::size_t bw_blocks = 0;
  for (const auto& b : report.blocks) {
    bw_blocks += b.method == MethodId::kBurrowsWheeler;
  }
  EXPECT_GE(bw_blocks, report.blocks.size() - 1);
}

TEST(TargetRate, NegativeTargetRejected) {
  VirtualClock clock;
  netsim::SimLink fwd(flat_link(1e6), 1), rev(flat_link(1e6), 2);
  transport::SimDuplex duplex(fwd, rev, clock);
  AdaptiveConfig config;
  config.target_rate_Bps = -1;
  EXPECT_THROW(AdaptiveSender(duplex.a(), config), ConfigError);
}

TEST(TargetRate, UsesMonitoredRatiosOnceAvailable) {
  // After a few blocks the ladder's ratio estimates come from real
  // achievements; on incompressible data even BW cannot reach the target,
  // but the selector must still settle on SOME rung without thrashing.
  Rng rng(6);
  const Bytes data = rng.bytes(512 * 1024);

  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e5;
  config.target_rate_Bps = 10e6;
  Rig rig(1e5, config);
  const auto report = rig.sender.send_all(data);
  // All blocks escalate to the strongest method (stored-mode fallback
  // bounds the damage on random data).
  for (const auto& b : report.blocks) {
    EXPECT_EQ(b.method, MethodId::kBurrowsWheeler);
    EXPECT_LE(b.wire_size, b.original_size + 64);
  }
}

}  // namespace
}  // namespace acex::adaptive
