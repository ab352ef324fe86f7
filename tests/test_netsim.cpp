#include <gtest/gtest.h>

#include "netsim/bandwidth.hpp"
#include "netsim/link.hpp"
#include "netsim/load_trace.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace acex::netsim {
namespace {

// -------------------------------------------------------------- load trace

TEST(LoadTrace, StepFunctionSemantics) {
  const LoadTrace trace({{0, 1}, {10, 5}, {20, 2}});
  EXPECT_DOUBLE_EQ(trace.value_at(-1), 0.0);
  EXPECT_DOUBLE_EQ(trace.value_at(0), 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at(9.99), 1.0);
  EXPECT_DOUBLE_EQ(trace.value_at(10), 5.0);
  EXPECT_DOUBLE_EQ(trace.value_at(15), 5.0);
  EXPECT_DOUBLE_EQ(trace.value_at(20), 2.0);
  EXPECT_DOUBLE_EQ(trace.value_at(1000), 2.0);  // holds past the end
}

TEST(LoadTrace, RejectsUnsortedTimes) {
  EXPECT_THROW(LoadTrace({{5, 1}, {5, 2}}), ConfigError);
  EXPECT_THROW(LoadTrace({{5, 1}, {3, 2}}), ConfigError);
}

TEST(LoadTrace, RejectsNegativeLoad) {
  EXPECT_THROW(LoadTrace({{0, -1}}), ConfigError);
}

TEST(LoadTrace, ScaledMultipliesValues) {
  const LoadTrace trace({{0, 2}, {10, 4}});
  const LoadTrace x4 = trace.scaled(4.0);
  EXPECT_DOUBLE_EQ(x4.value_at(0), 8.0);
  EXPECT_DOUBLE_EQ(x4.value_at(10), 16.0);
  EXPECT_DOUBLE_EQ(x4.peak(), 16.0);
}

TEST(LoadTrace, ParseTextFormat) {
  const LoadTrace trace = LoadTrace::parse(
      "# MBone-style trace\n"
      "0 0\n"
      "10 3.5\n"
      "\n"
      "20 7\n");
  EXPECT_DOUBLE_EQ(trace.value_at(12), 3.5);
  EXPECT_DOUBLE_EQ(trace.duration(), 20.0);
}

TEST(LoadTrace, ParseRejectsGarbage) {
  EXPECT_THROW(LoadTrace::parse("abc def\n"), ConfigError);
}

TEST(LoadTrace, BuiltinMboneMatchesFigure7Shape) {
  const LoadTrace& trace = mbone_trace();
  EXPECT_DOUBLE_EQ(trace.duration(), 160.0);
  // Quiet start, peak of ~17 around t = 60..100, decayed end.
  EXPECT_LT(trace.value_at(2), 2.0);
  EXPECT_NEAR(trace.peak(), 17.0, 2.0);
  double peak_window = 0;
  for (double t = 60; t <= 100; t += 2) {
    peak_window = std::max(peak_window, trace.value_at(t));
  }
  EXPECT_GT(peak_window, 14.0);
  EXPECT_LT(trace.value_at(158), 4.0);
}

// -------------------------------------------------------------------- link

TEST(SimLink, UnloadedSpeedMatchesFigure5Presets) {
  // Means within ~3 std-devs over many 128 KiB transfers.
  for (const LinkParams& params : figure5_links()) {
    SimLink link(params, 7);
    RunningStats speed;
    Seconds t = 0;
    for (int i = 0; i < 300; ++i) {
      const auto r = link.transmit(128 * 1024, t);
      speed.add(128.0 * 1024 /
                (r.delivered - r.started - params.latency_s));
      t = r.delivered;
    }
    EXPECT_NEAR(speed.mean() / params.bandwidth_Bps, 1.0, 0.1)
        << params.name;
  }
}

TEST(SimLink, JitterReproducesFigure5StdDevs) {
  // The international link's 46 % vs the gigabit link's 0.78 %.
  SimLink intl(international_link(), 3);
  SimLink giga(gigabit_link(), 3);
  RunningStats intl_speed, giga_speed;
  Seconds t1 = 0, t2 = 0;
  for (int i = 0; i < 500; ++i) {
    const auto a = intl.transmit(64 * 1024, t1);
    t1 = a.delivered;
    intl_speed.add(a.effective_Bps);
    const auto b = giga.transmit(64 * 1024, t2);
    t2 = b.delivered;
    giga_speed.add(b.effective_Bps);
  }
  EXPECT_GT(intl_speed.stddev_percent(), 25.0);
  EXPECT_LT(giga_speed.stddev_percent(), 3.0);
}

TEST(SimLink, FifoQueueingSerializesTransfers) {
  LinkParams params;
  params.bandwidth_Bps = 1000;  // 1 KB/s: 1000 bytes take 1 s
  params.jitter_frac = 0;
  SimLink link(params, 1);
  const auto first = link.transmit(1000, 0.0);
  EXPECT_NEAR(first.delivered, 1.0, 1e-6);
  // Submitted while busy: must wait for the queue.
  const auto second = link.transmit(1000, 0.1);
  EXPECT_NEAR(second.started, 1.0, 1e-6);
  EXPECT_NEAR(second.delivered, 2.0, 1e-6);
}

TEST(SimLink, BackgroundLoadThrottles) {
  LinkParams params;
  params.bandwidth_Bps = 1e6;
  params.jitter_frac = 0;
  params.share_per_connection = 0.01;
  SimLink link(params, 1);
  const LoadTrace trace({{0, 0}, {10, 68}});  // 68 % consumed after t=10
  link.set_background(&trace);
  EXPECT_DOUBLE_EQ(link.effective_bandwidth(5), 1e6);
  EXPECT_NEAR(link.effective_bandwidth(15), 0.32e6, 1e3);
}

TEST(SimLink, BackgroundLoadRespectsFloor) {
  LinkParams params;
  params.bandwidth_Bps = 1e6;
  params.share_per_connection = 0.1;
  SimLink link(params, 1);
  const LoadTrace trace({{0, 1000}});  // would consume 100x the link
  link.set_background(&trace, 0.07);
  EXPECT_NEAR(link.effective_bandwidth(0), 0.07e6, 1e3);
}

TEST(SimLink, LossInflatesDuration) {
  LinkParams lossy;
  lossy.bandwidth_Bps = 1e6;
  lossy.jitter_frac = 0;
  lossy.loss_rate = 0.5;
  SimLink link(lossy, 11);
  double retransmissions = 0;
  Seconds t = 0;
  for (int i = 0; i < 200; ++i) {
    const auto r = link.transmit(1000, t);
    retransmissions += r.retransmissions;
    t = r.delivered;
  }
  EXPECT_GT(retransmissions, 100.0);  // ~1 retransmission per transfer
}

TEST(SimLink, DeterministicForSameSeed) {
  SimLink a(international_link(), 42);
  SimLink b(international_link(), 42);
  for (int i = 0; i < 50; ++i) {
    const auto ra = a.transmit(4096, 0);
    const auto rb = b.transmit(4096, 0);
    EXPECT_DOUBLE_EQ(ra.delivered, rb.delivered);
  }
}

TEST(SimLink, RejectsInvalidParams) {
  LinkParams bad;
  bad.bandwidth_Bps = 0;
  EXPECT_THROW(SimLink(bad, 1), ConfigError);
  LinkParams lossy;
  lossy.loss_rate = 1.0;
  EXPECT_THROW(SimLink(lossy, 1), ConfigError);
}

TEST(SimLink, ResetClearsQueue) {
  LinkParams params;
  params.bandwidth_Bps = 1000;
  params.jitter_frac = 0;
  SimLink link(params, 1);
  link.transmit(5000, 0);
  EXPECT_GT(link.busy_until(), 0.0);
  link.reset();
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
}

// --------------------------------------------------------------- estimator

TEST(BandwidthEstimator, NoSamplesUsesFallback) {
  BandwidthEstimator est;
  EXPECT_FALSE(est.has_estimate());
  EXPECT_DOUBLE_EQ(est.estimate_or(123.0), 123.0);
}

TEST(BandwidthEstimator, ConvergesToSteadyRate) {
  BandwidthEstimator est;
  for (int i = 0; i < 50; ++i) est.record(1000, 0.01);  // 100 KB/s
  EXPECT_NEAR(est.estimate_or(0), 1e5, 1e3);
}

TEST(BandwidthEstimator, ReactsToLoadDrop) {
  BandwidthEstimator est;
  for (int i = 0; i < 20; ++i) est.record(1000, 0.001);  // 1 MB/s
  for (int i = 0; i < 8; ++i) est.record(1000, 0.01);    // drops to 100 KB/s
  EXPECT_LT(est.estimate_or(0), 3e5);
}

TEST(BandwidthEstimator, IgnoresNonPositiveDurations) {
  BandwidthEstimator est;
  est.record(1000, 0.0);
  est.record(1000, -1.0);
  EXPECT_FALSE(est.has_estimate());
  EXPECT_EQ(est.sample_count(), 0u);
}

TEST(BandwidthEstimator, PessimisticUnderOutliers) {
  // A single fast outlier must not balloon the estimate (min of EWMA and
  // window mean).
  BandwidthEstimator est;
  for (int i = 0; i < 10; ++i) est.record(1000, 0.01);  // 100 KB/s
  est.record(1000, 0.0001);                             // 10 MB/s outlier
  EXPECT_LT(est.estimate_or(0), 2.5e6);
}

}  // namespace
}  // namespace acex::netsim
