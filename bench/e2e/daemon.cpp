// daemon-tcp-4: the real acexd path. An in-process net::Daemon with its
// default configuration serves four DaemonClients over loopback TCP whose
// offers differ in method set and block size, so the broker re-chunks each
// 16 KiB demo block per client. Open loop at 200 blocks/s. Threads: the
// publisher (calling thread) and one thread polling the clients
// round-robin with poll(0); the daemon runs its own event-loop thread.

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include <unistd.h>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/demo_stream.hpp"

namespace acexbench {
namespace {

using namespace acex;

constexpr std::size_t kClients = 4;
constexpr std::size_t kBlockSize = 16 * 1024;
constexpr double kBlocksPerSecond = 200;
constexpr double kWarmupSeconds = 2;
/// How long after the last due time a delivery may still arrive.
constexpr double kDrainSeconds = 2;
/// Sleep of the client poller after a round in which no client had data.
constexpr double kIdleSeconds = 100e-6;
/// How often the poller samples the resident set for peak_rss_MiB.
constexpr double kRssSampleSeconds = 0.01;

net::DaemonClientConfig client_config(std::size_t i) {
  static const std::vector<std::vector<MethodId>> kOffers = {
      {MethodId::kHuffman, MethodId::kNone},
      {MethodId::kLempelZiv, MethodId::kNone},
      {MethodId::kLzw, MethodId::kNone},
      {MethodId::kNone},
  };
  net::DaemonClientConfig config;
  config.offer.methods = kOffers[i % kOffers.size()];
  config.offer.block_size = static_cast<std::uint32_t>(8 * 1024 * (i % 4 + 1));
  config.offer.name = "bench-" + std::to_string(i);
  return config;
}

/// The daemon counts a connection as streaming before it sends kWelcome,
/// so once every client constructor (which waits for kWelcome) returns,
/// all four are streaming.
struct DaemonSystem {
  DaemonSystem() {
    daemon.start();
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(
          std::make_unique<net::DaemonClient>(daemon.port(), client_config(i)));
    }
  }
  ~DaemonSystem() {
    for (auto& client : clients) client->bye();
    daemon.stop();
  }
  DaemonSystem(const DaemonSystem&) = delete;
  DaemonSystem& operator=(const DaemonSystem&) = delete;

  net::Daemon daemon{net::DaemonConfig{}};
  std::vector<std::unique_ptr<net::DaemonClient>> clients;
};

struct Counters {
  net::DaemonStats daemon;
  broker::BrokerStats broker;
  std::uint64_t drops = 0;
  double loop_cpu_s = 0;
};

Counters read_counters(DaemonSystem& system,
                       const std::vector<long>& loop_tids) {
  Counters c;
  c.daemon = system.daemon.stats();
  session::SessionManager& manager = system.daemon.manager();
  c.broker = manager.broker().stats();
  for (const auto& client : system.clients) {
    c.drops += manager.subscriber_stats(client->welcome().session_id).drops;
  }
  c.loop_cpu_s = thread_cpu_seconds(loop_tids);
  return c;
}

}  // namespace

Result run_daemon(const Options& options) {
  Result result;
  Schedule schedule(kBlocksPerSecond, kWarmupSeconds, options.seconds);
  const std::size_t total = schedule.total;
  std::vector<Bytes> blocks;
  blocks.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    blocks.push_back(net::demo_block(options.seed,
                                     static_cast<std::uint32_t>(i), kBlockSize));
  }
  result.set("input", "demo-blocks");
  result.set("clients", std::to_string(kClients));
  result.set("block_bytes", std::to_string(kBlockSize));
  result.set("blocks_per_s", std::to_string(kBlocksPerSecond));
  result.set("warmup_s", std::to_string(kWarmupSeconds));
  result.set("loop", "open");

  Tracer tracer;
  Lane* pub_lane = options.traced() ? tracer.lane("publisher") : nullptr;
  Lane* poll_lane = options.traced() ? tracer.lane("clients") : nullptr;

  EndToEnd e2e;
  e2e.rss_base = rss_bytes();
  const auto make = [] { return std::make_unique<DaemonSystem>(); };
  auto system = build_system<DaemonSystem>(kSetupRuns, e2e.setup_s, make);
  // Every thread but this one is now the daemon's (the earlier systems
  // have been torn down and the bench threads start below).
  std::vector<long> loop_tids = thread_ids();
  loop_tids.erase(std::remove(loop_tids.begin(), loop_tids.end(),
                              static_cast<long>(getpid())),
                  loop_tids.end());

  obs::Gauge& egress_depth =
      obs::MetricsRegistry::global().gauge("acex.broker.egress.depth");
  schedule.begin();
  const double deadline = schedule.due(total) + kDrainSeconds;

  // Client poller: round-robin poll(0); every completed block of each
  // client's decoded stream is checked against the published bytes.
  //
  // DaemonClient::stream() keeps every byte the client ever decoded (about
  // 70 MiB per client in a 20 s run), so the process's peak RSS would be
  // mostly those four buffers and hide what the daemon holds. Between
  // polls, when no stream is mid-append, the poller samples the resident
  // set minus the streams' sizes; peak_rss_MiB is the largest sample.
  std::vector<double> arrived(total * kClients, kMissing);
  std::size_t mismatches = 0;
  double rss_peak = 0;
  std::thread poller([&] {
    std::vector<std::size_t> verified(kClients, 0);  // stream bytes checked
    std::size_t delivered = 0;
    double next_rss_sample = 0;
    for (;;) {
      if (now() >= next_rss_sample) {
        double streams = 0;
        for (const auto& client : system->clients) {
          streams += static_cast<double>(client->stream().size());
        }
        rss_peak = std::max(rss_peak, rss_bytes() - streams);
        next_rss_sample = now() + kRssSampleSeconds;
      }
      bool any = false;
      for (std::size_t j = 0; j < kClients; ++j) {
        const auto sub = static_cast<std::int32_t>(j);
        net::DaemonClient& client = *system->clients[j];
        SpanScope poll(poll_lane, "net.client_poll", kInherit, sub);
        std::size_t got = 0;
        try {
          got = client.poll(0);
        } catch (const std::exception&) {
          ++mismatches;  // undecodable frame: the stream is not intact
        }
        if (got == 0) {
          poll.cancel();
          continue;
        }
        any = true;
        const Bytes& stream = client.stream();
        while (verified[j] + kBlockSize <= stream.size()) {
          const std::size_t k = verified[j] / kBlockSize;
          poll.set_id(static_cast<std::int64_t>(k), sub);
          const SpanScope verify(poll_lane, "bench.verify",
                                 static_cast<std::int64_t>(k), sub);
          if (k < total && std::memcmp(stream.data() + verified[j],
                                       blocks[k].data(), kBlockSize) == 0) {
            arrived[k * kClients + j] = now();
            ++delivered;
          } else {
            ++mismatches;
          }
          verified[j] += kBlockSize;
        }
      }
      if (delivered == total * kClients || now() > deadline) return;
      if (!any) sleep_until(now() + kIdleSeconds);
    }
  });

  // Publisher: the calling thread, on schedule regardless of the system.
  std::vector<double> late;
  std::int64_t egress_depth_max = 0;
  obs::MetricsSnapshot obs_before;
  Counters before;
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < total; ++i) {
      Bytes copy = blocks[i];
      sleep_until(schedule.due(i));
      if (i == schedule.warm) {
        obs_before = obs::MetricsRegistry::global().snapshot();
        before = read_counters(*system, loop_tids);
      }
      if (schedule.opens_epoch(i)) e2e.marks.push_back(mark());
      if (i >= schedule.warm) late.push_back((now() - schedule.due(i)) * 1e3);
      {
        const SpanScope span(pub_lane, "net.publish",
                             static_cast<std::int64_t>(i), kAllSubs);
        system->daemon.publish(std::move(copy));
      }
      if (i >= schedule.warm) {
        egress_depth_max = std::max(egress_depth_max, egress_depth.value());
      }
    }
    sleep_until(schedule.due(total));
    e2e.marks.push_back(mark());
  } catch (...) {
    error = std::current_exception();
  }
  poller.join();  // ends by the deadline at the latest
  if (error) std::rethrow_exception(error);
  const obs::MetricsSnapshot obs_after = obs::MetricsRegistry::global().snapshot();
  const Counters after = read_counters(*system, loop_tids);
  e2e.rss_peak = rss_peak;
  system.reset();
  build_system<DaemonSystem>(kSetupRuns, e2e.setup_s, make);

  for (std::size_t i = schedule.warm; i < total; ++i) {
    for (std::size_t j = 0; j < kClients; ++j) {
      const double at = arrived[i * kClients + j];
      e2e.deliveries.push_back({static_cast<std::int64_t>(i),
                                static_cast<std::int32_t>(j), schedule.due(i),
                                at, kBlockSize});
      if (at != kMissing) e2e.payload_bytes += kBlockSize;
    }
  }
  e2e.wire_bytes =
      static_cast<double>(after.daemon.bytes_out - before.daemon.bytes_out);
  add_end_to_end(result, e2e);
  result.verified = mismatches == 0;

  if (!options.traced()) return result;

  // ---- per-layer metrics (traced run) ----
  const double window_start = e2e.marks.front().at;
  const double window_end = e2e.window_end();
  const double window = window_end - window_start;
  const Layers layers = analyse_trace(options, tracer, e2e.deliveries,
                                      window_start, window_end, result);
  const double published = static_cast<double>(after.daemon.blocks_published -
                                               before.daemon.blocks_published);
  const double per_block = published > 0 ? 1.0 / published : 0.0;
  const auto obs_delta = [&](const char* name) {
    return series_delta(obs_before, obs_after, name);
  };
  const SeriesTotal encode = obs_delta("acex.adaptive.encode_us");
  const SeriesTotal decode = obs_delta("acex.adaptive.rx.decode_us");
  const double hits =
      static_cast<double>(after.broker.cache_hits - before.broker.cache_hits);
  const double misses = static_cast<double>(after.broker.cache_misses -
                                            before.broker.cache_misses);

  result.metric("compress.encode_us",
                encode.count > 0 ? encode.sum / encode.count : 0, "us");
  result.metric("compress.encode_MBps",
                encode.sum > 0 ? published * kBlockSize / encode.sum : 0,
                "MB/s");
  result.metric("compress.decode_us",
                decode.count > 0 ? decode.sum / decode.count : 0, "us");
  result.metric("broker.encodes_per_block",
                static_cast<double>(after.broker.encodes - before.broker.encodes) *
                    per_block,
                "count");
  result.metric("broker.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.metric("broker.encode_ms_per_block",
                (after.broker.encode_seconds - before.broker.encode_seconds) *
                    1e3 * per_block,
                "ms");
  result.metric("broker.egress_depth_max",
                static_cast<double>(egress_depth_max), "count");
  result.metric("broker.drops", static_cast<double>(after.drops - before.drops),
                "count");
  result.metric("net.publish_us", layer(layers, "net.publish").mean_us(), "us");
  result.metric("net.loop_busy_frac",
                (after.loop_cpu_s - before.loop_cpu_s) / window, "fraction");
  result.metric("net.wakeups_per_block",
                static_cast<double>(after.daemon.loop_wakeups -
                                    before.daemon.loop_wakeups) *
                    per_block,
                "count");
  result.metric("net.bytes_out_per_block", e2e.wire_bytes * per_block, "B");
  result.metric("net.client_poll_us",
                layer(layers, "net.client_poll").mean_self_us(), "us");
  result.metric("net.client_busy_frac",
                layer(layers, "net.client_poll").total_s / window, "fraction");
  result.metric("session.parks", obs_delta("acex.session.parks").sum, "count");
  result.metric("session.restarts", obs_delta("acex.session.restarts").sum,
                "count");
  result.metric("budget.stage_changes",
                obs_delta("acex.budget.stage_changes").sum, "count");
  result.metric("adaptive.rx.nacks_issued",
                obs_delta("acex.adaptive.rx.nacks_issued").sum, "count");
  result.metric("bench.gen_late_p99_ms", quantile(late, 0.99), "ms");
  return result;
}

}  // namespace acexbench
