#include <gtest/gtest.h>

#include "adaptive/telemetry.hpp"
#include "echo/bridge.hpp"
#include "netsim/link.hpp"
#include "transport/sim_transport.hpp"
#include "workloads/transactions.hpp"

namespace acex::adaptive {
namespace {

BlockReport sample_report(std::size_t index, MethodId method) {
  BlockReport r;
  r.index = index;
  r.method = method;
  r.original_size = 131072;
  r.wire_size = method == MethodId::kNone ? 131083 : 40000;
  r.compress_seconds = 0.003;
  r.send_seconds = 0.02;
  r.bandwidth_estimate_Bps = 5e6;
  r.sampled_ratio_percent = 33.0;
  return r;
}

TEST(Telemetry, BlockEventsCarryTheRecord) {
  echo::EventChannel channel("telemetry");
  TelemetryPublisher publisher(channel);

  echo::AttributeMap seen;
  channel.subscribe([&](const echo::Event& e) { seen = e.attributes; });
  publisher.publish(sample_report(7, MethodId::kLempelZiv));

  EXPECT_EQ(seen.get_string("acex.t.kind"), "block");
  EXPECT_EQ(seen.get_int("acex.t.index"), 7);
  EXPECT_EQ(seen.get_string("acex.t.method"), "lempel-ziv");
  EXPECT_EQ(seen.get_int("acex.t.original"), 131072);
  EXPECT_EQ(seen.get_int("acex.t.wire"), 40000);
  EXPECT_NEAR(*seen.get_double("acex.t.compress_us"), 3000.0, 1e-6);
}

TEST(Telemetry, AggregatorBuildsTheDashboard) {
  echo::EventChannel channel("telemetry");
  TelemetryPublisher publisher(channel);
  TelemetryAggregator dashboard;
  channel.subscribe(
      [&](const echo::Event& e) { EXPECT_TRUE(dashboard.observe(e)); });

  StreamReport stream;
  for (std::size_t i = 0; i < 10; ++i) {
    const MethodId m = i < 4 ? MethodId::kNone : MethodId::kLempelZiv;
    const auto r = sample_report(i, m);
    stream.add(r);
    publisher.publish(r);
  }
  publisher.publish_summary(stream);

  EXPECT_EQ(dashboard.blocks(), 10u);
  EXPECT_EQ(dashboard.original_bytes(), 10u * 131072);
  EXPECT_EQ(dashboard.method_counts().at("none"), 4u);
  EXPECT_EQ(dashboard.method_counts().at("lempel-ziv"), 6u);
  EXPECT_TRUE(dashboard.summary_seen());
  EXPECT_LT(dashboard.wire_ratio_percent(), 100.0);
}

TEST(Telemetry, NonTelemetryEventsIgnored) {
  TelemetryAggregator dashboard;
  echo::Event plain(to_bytes("payload"));
  EXPECT_FALSE(dashboard.observe(plain));
  EXPECT_EQ(dashboard.blocks(), 0u);
}

TEST(Telemetry, CrossesTheBridgeLikeAnyChannel) {
  // The point of attribute-borne telemetry: it travels through the same
  // middleware machinery as data, including the remote bridge.
  VirtualClock clock;
  netsim::LinkParams flat;
  flat.jitter_frac = 0;
  netsim::SimLink fwd(flat, 1), rev(flat, 2);
  transport::SimDuplex duplex(fwd, rev, clock);

  echo::EventChannel local("telemetry");
  echo::ChannelSender bridge_out(local, duplex.a());
  echo::EventChannel remote("telemetry.inbound");
  echo::ChannelReceiver bridge_in(remote, duplex.b());

  TelemetryAggregator remote_dashboard;
  remote.subscribe(
      [&](const echo::Event& e) { remote_dashboard.observe(e); });

  TelemetryPublisher publisher(local);
  publisher.publish(sample_report(0, MethodId::kBurrowsWheeler));
  publisher.publish(sample_report(1, MethodId::kBurrowsWheeler));
  bridge_in.poll();

  EXPECT_EQ(remote_dashboard.blocks(), 2u);
  EXPECT_EQ(remote_dashboard.method_counts().at("burrows-wheeler"), 2u);
}

TEST(Telemetry, EndToEndWithRealSenderReports) {
  // Publish the blocks an actual adaptive stream produced; the dashboard
  // must reconcile exactly with the sender's own StreamReport.
  VirtualClock clock;
  netsim::LinkParams slow;
  slow.bandwidth_Bps = 2e5;
  slow.jitter_frac = 0;
  netsim::SimLink fwd(slow, 3), rev(slow, 4);
  transport::SimDuplex duplex(fwd, rev, clock);

  AdaptiveConfig config;
  config.async_sampling = false;
  AdaptiveSender sender(duplex.a(), config);
  workloads::TransactionGenerator gen(5);
  const Bytes data = gen.text_block(512 * 1024);
  const StreamReport report = sender.send_all(data);

  echo::EventChannel channel("telemetry");
  TelemetryPublisher publisher(channel);
  TelemetryAggregator dashboard;
  channel.subscribe([&](const echo::Event& e) { dashboard.observe(e); });
  for (const auto& b : report.blocks) publisher.publish(b);
  publisher.publish_summary(report);

  EXPECT_EQ(dashboard.blocks(), report.blocks.size());
  EXPECT_EQ(dashboard.original_bytes(), report.original_bytes);
  EXPECT_EQ(dashboard.wire_bytes(), report.wire_bytes);
  EXPECT_NEAR(dashboard.wire_ratio_percent(),
              report.wire_ratio_percent(), 1e-9);
}

}  // namespace
}  // namespace acex::adaptive
