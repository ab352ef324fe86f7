// fanout-shm-64: one FanoutBroker (inline encodes) builds each frame once
// inside a shared-memory slab (ShmBus frame builder) and fans descriptors
// out to 64 ShmEndpoint subscribers on identical links. Open loop at 100
// blocks/s of 16 KiB transaction text, about half the rate at which p95
// latency starts to climb. Once the warm-up has measured the links the
// null codec runs, so the broker, the shm ring and the egress path carry
// the work and compression almost none. Threads: the publisher (calling
// thread), one pump_all() thread, and one consumer draining all 64
// receivers (kSkip, so a lost frame is a failed delivery, not an abort).

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "adaptive/pipeline.hpp"
#include "broker/broker.hpp"
#include "harness.hpp"
#include "shm/bus.hpp"
#include "workloads/transactions.hpp"

namespace acexbench {
namespace {

using namespace acex;

constexpr std::size_t kSubscribers = 64;
constexpr std::size_t kBlockSize = 16 * 1024;
constexpr double kBlocksPerSecond = 100;
constexpr double kWarmupSeconds = 2;
/// How long after the last due time a delivery may still arrive.
constexpr double kDrainSeconds = 2;
/// Distinct input blocks (8 MiB); the stream cycles through them.
constexpr std::size_t kInputBlocks = 512;
/// Sleep of the pump and consumer threads after a pass that found nothing.
constexpr double kIdleSeconds = 100e-6;

shm::ShmBusConfig bus_config() {
  shm::ShmBusConfig config;
  // Each subscriber's retransmit ring pins its last 64 frames; every frame
  // is shared by all 64 subscribers, so 256 slabs leave ample headroom.
  config.ring.slab_count = 256;
  config.ring.slab_size = kBlockSize + 256;
  return config;
}

struct FanoutSystem {
  FanoutSystem() : broker(broker_config(bus)) {
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      endpoints.push_back(bus.endpoint());
      broker::SubscriberConfig config;
      config.name = "sub-" + std::to_string(i);
      config.adaptive.decision.block_size = kBlockSize;
      ids.push_back(broker.subscribe(*endpoints.back(), config));
      receivers.push_back(std::make_unique<adaptive::AdaptiveReceiver>(
          *endpoints.back(),
          adaptive::ReceiverConfig{adaptive::RecoveryPolicy::kSkip}));
    }
  }

  static broker::BrokerConfig broker_config(shm::ShmBus& bus) {
    broker::BrokerConfig config;
    config.worker_threads = 1;
    config.frame_builder = bus.frame_builder();
    return config;
  }

  // Declaration order is teardown order reversed: receivers go first, the
  // broker before the endpoints it writes to, the bus last.
  shm::ShmBus bus{bus_config()};
  std::vector<std::unique_ptr<shm::ShmEndpoint>> endpoints;
  broker::FanoutBroker broker;
  std::vector<broker::SubscriberId> ids;
  std::vector<std::unique_ptr<adaptive::AdaptiveReceiver>> receivers;
};

struct Counters {
  broker::BrokerStats broker;
  std::uint64_t drops = 0;
  shm::ShmBusStats bus;
  std::uint64_t queue_drops = 0;
  std::uint64_t stale = 0;
};

Counters read_counters(FanoutSystem& system) {
  Counters c;
  c.broker = system.broker.stats();
  for (const broker::SubscriberId id : system.ids) {
    c.drops += system.broker.subscriber_stats(id).drops;
  }
  c.bus = system.bus.stats();
  for (const auto& endpoint : system.endpoints) {
    const shm::ShmEndpointStats s = endpoint->stats();
    c.queue_drops += s.queue_drops;
    c.stale += s.stale_descriptors;
  }
  return c;
}

}  // namespace

Result run_fanout(const Options& options) {
  Result result;
  std::vector<Bytes> input;
  {
    workloads::TransactionGenerator gen(options.seed);
    for (std::size_t i = 0; i < kInputBlocks; ++i) {
      input.push_back(gen.text_block(kBlockSize));
    }
  }
  const auto block = [&](std::size_t i) -> const Bytes& {
    return input[i % input.size()];
  };
  result.set("input", "ois-transactions");
  result.set("subscribers", std::to_string(kSubscribers));
  result.set("block_bytes", std::to_string(kBlockSize));
  result.set("blocks_per_s", std::to_string(kBlocksPerSecond));
  result.set("warmup_s", std::to_string(kWarmupSeconds));
  result.set("loop", "open");

  Tracer tracer;
  Lane* pub_lane = options.traced() ? tracer.lane("publisher") : nullptr;
  Lane* pump_lane = options.traced() ? tracer.lane("pump") : nullptr;
  Lane* rx_lane = options.traced() ? tracer.lane("consumer") : nullptr;

  EndToEnd e2e;
  e2e.rss_base = rss_bytes();
  reset_peak_rss();
  const auto make = [] { return std::make_unique<FanoutSystem>(); };
  auto system = build_system<FanoutSystem>(kSetupRuns, e2e.setup_s, make);

  Schedule schedule(kBlocksPerSecond, kWarmupSeconds, options.seconds);
  const std::size_t total = schedule.total;
  obs::Gauge& egress_depth =
      obs::MetricsRegistry::global().gauge("acex.broker.egress.depth");
  schedule.begin();
  const double deadline = schedule.due(total) + kDrainSeconds;

  // Pump thread: drain every egress onto its shm endpoint.
  std::atomic<bool> stop_pump{false};
  std::vector<std::pair<double, std::size_t>> pump_passes;  // traced runs
  std::thread pump_thread([&] {
    while (!stop_pump.load(std::memory_order_relaxed)) {
      SpanScope span(pump_lane, "broker.pump");
      const double start = now();
      const std::size_t frames = system->broker.pump_all();
      if (frames == 0) {
        span.cancel();
        sleep_until(now() + kIdleSeconds);
      } else if (options.traced()) {
        pump_passes.push_back({start, frames});
      }
    }
  });

  // Consumer thread: sweep the 64 receivers, verify every frame.
  std::vector<double> arrived(total * kSubscribers, kMissing);
  std::vector<std::uint32_t> wire(total * kSubscribers, 0);
  std::size_t mismatches = 0;
  std::size_t endpoint_depth_max = 0;
  std::thread consumer_thread([&] {
    std::size_t delivered = 0;
    for (;;) {
      bool any = false;
      for (std::size_t j = 0; j < kSubscribers; ++j) {
        const auto sub = static_cast<std::int32_t>(j);
        if (options.traced()) {
          endpoint_depth_max =
              std::max(endpoint_depth_max, system->endpoints[j]->depth());
        }
        SpanScope receive(rx_lane, "adaptive.receive", kInherit, sub);
        const adaptive::ReceiveReport report =
            system->receivers[j]->receive_report();
        if (report.frames.empty()) {
          receive.cancel();
          continue;
        }
        any = true;
        for (const adaptive::FrameOutcome& frame : report.frames) {
          // A corrupt or stale frame was skipped: a missing delivery.
          if (frame.status != adaptive::FrameOutcome::Status::kOk) continue;
          if (frame.sequence >= total) {
            ++mismatches;
            continue;
          }
          receive.set_id(static_cast<std::int64_t>(frame.sequence), sub);
          const SpanScope verify(rx_lane, "bench.verify");
          const Bytes& expect = block(frame.sequence);
          if (frame.data != expect) {
            ++mismatches;
            continue;
          }
          const std::size_t slot = frame.sequence * kSubscribers + j;
          arrived[slot] = now();
          wire[slot] = static_cast<std::uint32_t>(frame.wire_size);
          ++delivered;
        }
      }
      if (delivered == total * kSubscribers || now() > deadline) return;
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
      sleep_until(schedule.due(i));
      if (i == schedule.warm) {
        obs_before = obs::MetricsRegistry::global().snapshot();
        before = read_counters(*system);
      }
      if (schedule.opens_epoch(i)) e2e.marks.push_back(mark());
      if (i >= schedule.warm) late.push_back((now() - schedule.due(i)) * 1e3);
      {
        const SpanScope span(pub_lane, "broker.publish",
                             static_cast<std::int64_t>(i), kAllSubs);
        system->broker.publish(block(i));
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
  consumer_thread.join();  // ends by the deadline at the latest
  stop_pump.store(true);
  pump_thread.join();
  if (error) std::rethrow_exception(error);
  const obs::MetricsSnapshot obs_after = obs::MetricsRegistry::global().snapshot();
  const Counters after = read_counters(*system);
  e2e.rss_peak = peak_rss_bytes();
  system.reset();
  build_system<FanoutSystem>(kSetupRuns, e2e.setup_s, make);

  for (std::size_t i = schedule.warm; i < total; ++i) {
    const auto bytes = static_cast<double>(block(i).size());
    for (std::size_t j = 0; j < kSubscribers; ++j) {
      const std::size_t slot = i * kSubscribers + j;
      e2e.deliveries.push_back({static_cast<std::int64_t>(i),
                                static_cast<std::int32_t>(j), schedule.due(i),
                                arrived[slot], bytes});
      if (arrived[slot] == kMissing) continue;
      e2e.payload_bytes += bytes;
      e2e.wire_bytes += wire[slot];
    }
  }
  add_end_to_end(result, e2e);
  result.verified = mismatches == 0;

  if (!options.traced()) return result;

  // ---- per-layer metrics (traced run) ----
  const double window_start = e2e.marks.front().at;
  const double window_end = e2e.window_end();
  const double window = window_end - window_start;
  const Layers layers = analyse_trace(options, tracer, e2e.deliveries,
                                      window_start, window_end, result);
  const double blocks = static_cast<double>(total - schedule.warm);
  const double encodes =
      static_cast<double>(after.broker.encodes - before.broker.encodes);
  const double hits =
      static_cast<double>(after.broker.cache_hits - before.broker.cache_hits);
  const double misses = static_cast<double>(after.broker.cache_misses -
                                            before.broker.cache_misses);
  const SeriesTotal encode =
      series_delta(obs_before, obs_after, "acex.adaptive.encode_us");
  const SeriesTotal decode =
      series_delta(obs_before, obs_after, "acex.adaptive.rx.decode_us");
  const LayerStats pump = layer(layers, "broker.pump");
  double pump_frames = 0;
  double pump_count = 0;
  for (const auto& [start, frames] : pump_passes) {
    if (start < window_start || start > window_end) continue;
    pump_frames += static_cast<double>(frames);
    pump_count += 1;
  }

  result.metric("compress.encode_us",
                encode.count > 0 ? encode.sum / encode.count : 0, "us");
  result.metric("compress.encode_MBps",
                encode.sum > 0 ? blocks * kBlockSize / encode.sum : 0, "MB/s");
  result.metric("compress.decode_us",
                decode.count > 0 ? decode.sum / decode.count : 0, "us");
  result.metric("adaptive.receive_us",
                layer(layers, "adaptive.receive").mean_self_us(), "us");
  result.metric("broker.publish_us", layer(layers, "broker.publish").mean_us(),
                "us");
  result.metric("broker.encodes_per_block", encodes / blocks, "count");
  result.metric("broker.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  result.metric("broker.encode_ms_per_block",
                (after.broker.encode_seconds - before.broker.encode_seconds) *
                    1e3 / blocks,
                "ms");
  result.metric("broker.pump_us", pump.mean_us(), "us");
  result.metric("broker.pump_frames",
                pump_count > 0 ? pump_frames / pump_count : 0, "count");
  result.metric("broker.pump_busy_frac", pump.total_s / window, "fraction");
  result.metric("broker.egress_depth_max",
                static_cast<double>(egress_depth_max), "count");
  result.metric("broker.drops", static_cast<double>(after.drops - before.drops),
                "count");
  result.metric("shm.staged_bytes_per_block",
                static_cast<double>(after.bus.staged_bytes -
                                    before.bus.staged_bytes) /
                    blocks,
                "B");
  result.metric("shm.copy_fallbacks",
                static_cast<double>(after.bus.copy_fallbacks -
                                    before.bus.copy_fallbacks),
                "count");
  result.metric("shm.endpoint_depth_max",
                static_cast<double>(endpoint_depth_max), "count");
  result.metric("shm.queue_drops",
                static_cast<double>(after.queue_drops - before.queue_drops),
                "count");
  result.metric("shm.stale_descriptors",
                static_cast<double>(after.stale - before.stale), "count");
  result.metric("bench.gen_late_p99_ms", quantile(late, 0.99), "ms");
  result.metric("bench.consumer_busy_frac",
                layer(layers, "adaptive.receive").total_s / window, "fraction");
  return result;
}

}  // namespace acexbench
