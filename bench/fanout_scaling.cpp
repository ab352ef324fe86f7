// Fan-out broker scaling: wall-clock publish throughput and raw encode CPU
// for the same commercial stream distributed to 1, 4, 16 and 64
// subscribers, on identical links and on heterogeneous ones.
//
// The number the broker exists for: with K subscribers on IDENTICAL links
// every block forms one method group, so encode CPU stays flat as K grows
// (64 homogeneous subscribers should cost well under 2x the encode CPU of
// one). Heterogeneous links split into method groups and encode CPU scales
// with the number of DISTINCT methods — never with the subscriber count.
//
// Subscribers are not pumped during the measured loop (frames land in the
// egress queues), so the per-subscriber planners keep their configured
// link profile and the measurement isolates plan + shared-encode + frame
// cost. Every run is verified afterwards: each subscriber's egress drains
// to a capture sink whose frames must carry sequences 0..N-1 and decode
// byte-exact to the published stream.
//
//   usage: fanout_scaling [BLOCKS]   (default 32 blocks of 16 KiB)

#include <cstdlib>
#include <memory>
#include <thread>

#include "bench_common.hpp"
#include "broker/broker.hpp"
#include "compress/frame.hpp"
#include "shm/bus.hpp"

namespace {

using namespace acex;

bool verify(const bench::CaptureTransport& transport, ByteView original,
            std::size_t block_size) {
  const CodecRegistry registry = CodecRegistry::with_builtins();
  Bytes decoded;
  std::uint64_t expected = 0;
  for (const Bytes& framed : transport.frames()) {
    const Frame frame = frame_parse(framed);
    if (frame.sequence != expected++) return false;
    const Bytes block = frame_decode(frame, registry);
    if (block.size() > block_size) return false;
    decoded.insert(decoded.end(), block.begin(), block.end());
  }
  return decoded.size() == original.size() &&
         std::equal(decoded.begin(), decoded.end(), original.begin());
}

/// Initial link profile for subscriber i: identical everywhere in
/// homogeneous mode, cycling four tiers (from "so fast compression never
/// pays" down to a thin pipe) in heterogeneous mode.
double subscriber_bandwidth(bool heterogeneous, std::size_t i) {
  if (!heterogeneous) return 1e6;
  const double tiers[] = {1e12, 1e6, 2e5, 2e4};
  return tiers[i % 4];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acex;

  const std::size_t blocks =
      argc > 1 ? static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10))
               : 32;
  const std::size_t block_size = 16 * 1024;
  const Bytes data = bench::commercial_data(blocks * block_size);

  bench::header("Fan-out broker scaling (commercial stream)");
  std::printf(
      "%zu blocks of %zu KiB to each subscriber; hardware threads: %u\n\n",
      blocks, block_size / 1024, std::thread::hardware_concurrency());
  std::printf("%-10s  %5s  %10s  %10s  %8s  %12s  %6s  %s\n", "links", "subs",
              "elapsed(s)", "blocks/s", "encodes", "encode_cpu_s", "hit%",
              "verified");
  bench::rule();

  double homog_encode_cpu_1 = 0;
  double homog_encode_cpu_64 = 0;
  for (const bool heterogeneous : {false, true}) {
    for (const std::size_t subs : {1u, 4u, 16u, 64u}) {
      broker::BrokerConfig bc;
      bc.worker_threads = 4;
      broker::FanoutBroker broker(bc);

      std::vector<std::unique_ptr<bench::CaptureTransport>> sinks;
      std::vector<broker::SubscriberId> ids;
      for (std::size_t i = 0; i < subs; ++i) {
        sinks.push_back(std::make_unique<bench::CaptureTransport>());
        broker::SubscriberConfig sc;
        sc.adaptive.decision.block_size = block_size;
        sc.adaptive.decision.sample_size = 4096;
        sc.adaptive.initial_bandwidth_Bps =
            subscriber_bandwidth(heterogeneous, i);
        sc.egress_capacity = blocks + 8;  // hold the whole run un-pumped
        ids.push_back(broker.subscribe(*sinks.back(), sc));
      }

      MonotonicClock wall;
      const Seconds start = wall.now();
      for (std::size_t at = 0; at < data.size(); at += block_size) {
        const std::size_t len = std::min(block_size, data.size() - at);
        broker.publish(ByteView(data.data() + at, len));
      }
      const double elapsed = wall.now() - start;

      broker.pump_all();
      bool ok = true;
      for (std::size_t i = 0; i < subs; ++i) {
        ok = ok && verify(*sinks[i], data, block_size);
      }

      const broker::BrokerStats stats = broker.stats();
      const double total =
          static_cast<double>(stats.cache_hits + stats.cache_misses);
      const double hit_pct =
          total == 0 ? 0.0 : 100.0 * static_cast<double>(stats.cache_hits) /
                                 total;
      const char* mode = heterogeneous ? "hetero" : "identical";
      std::printf("%-10s  %5zu  %10.3f  %10.1f  %8llu  %12.3f  %5.1f%%  %s\n",
                  mode, subs, elapsed,
                  static_cast<double>(blocks) / elapsed,
                  static_cast<unsigned long long>(stats.encodes),
                  stats.encode_seconds, hit_pct, ok ? "ok" : "FAILED");

      const std::string label = std::string(mode) + "-" + std::to_string(subs);
      bench::record_result("bench.fanout.elapsed_s", "config", label, elapsed);
      bench::record_result("bench.fanout.blocks_per_s", "config", label,
                           static_cast<double>(blocks) / elapsed);
      bench::record_result("bench.fanout.encodes", "config", label,
                           static_cast<double>(stats.encodes));
      bench::record_result("bench.fanout.encode_cpu_s", "config", label,
                           stats.encode_seconds);
      bench::record_result("bench.fanout.cache_hit_pct", "config", label,
                           hit_pct);
      if (!heterogeneous && subs == 1) homog_encode_cpu_1 = stats.encode_seconds;
      if (!heterogeneous && subs == 64) {
        homog_encode_cpu_64 = stats.encode_seconds;
      }
    }
  }

  const double ratio = homog_encode_cpu_1 > 0
                           ? homog_encode_cpu_64 / homog_encode_cpu_1
                           : 0.0;
  bench::record_result("bench.fanout.homog_cpu_ratio_64v1", "config",
                       "identical", ratio);
  std::printf(
      "\nShared-encode headline: 64 identical subscribers cost %.2fx the "
      "encode CPU of 1\n(the fan-out is %zux; encode work follows distinct "
      "methods, not subscriber count).\n",
      ratio, static_cast<std::size_t>(64));

  // ---- shared-memory fan-out: descriptor shipping instead of payloads ----
  //
  // The same homogeneous stream, but frames are staged ONCE into shm slabs
  // (FanoutBroker::frame_builder) and each subscriber's transport carries a
  // ~16-byte descriptor. Two checks gate the row:
  //   1. every subscriber's received frames are byte-identical to the heap
  //      (TCP-path) broker's frames for the same stream, and
  //   2. the MEASURED payload bytes moved through memory for 64 subscribers
  //      stay within 1.5x those of a single stream (they should be ~1.0x:
  //      one staging write per block regardless of fan-out), with zero
  //      copy-fallbacks in steady state.
  std::printf("\nShared-memory fan-out (descriptor shipping)\n");
  std::printf("%5s  %10s  %12s  %12s  %6s  %s\n", "subs", "elapsed(s)",
              "staged_B", "delivered_B", "fallbk", "verified");
  bench::rule();

  bool shm_ok = true;
  double staged_bytes_1 = 0;
  double staged_bytes_64 = 0;
  for (const std::size_t subs : {1u, 64u}) {
    // Reference frames off the heap path — exactly what TCP would carry.
    broker::BrokerConfig ref_cfg;
    ref_cfg.worker_threads = 4;
    broker::FanoutBroker reference(ref_cfg);
    std::vector<std::unique_ptr<bench::CaptureTransport>> ref_sinks;
    broker::SubscriberConfig sc;
    sc.adaptive.decision.block_size = block_size;
    sc.adaptive.decision.sample_size = 4096;
    sc.adaptive.initial_bandwidth_Bps = 1e6;
    sc.egress_capacity = blocks + 8;
    for (std::size_t i = 0; i < subs; ++i) {
      ref_sinks.push_back(std::make_unique<bench::CaptureTransport>());
      reference.subscribe(*ref_sinks.back(), sc);
    }
    for (std::size_t at = 0; at < data.size(); at += block_size) {
      reference.publish(
          ByteView(data.data() + at, std::min(block_size, data.size() - at)));
    }
    reference.pump_all();

    // Shm path: slab-staged frames, descriptor fan-out.
    shm::ShmBusConfig bus_cfg;
    bus_cfg.ring.slab_count = blocks + 16;
    bus_cfg.ring.slab_size = block_size + 256;
    bus_cfg.queue_capacity = blocks + 8;
    shm::ShmBus bus(bus_cfg);
    broker::BrokerConfig shm_cfg;
    shm_cfg.worker_threads = 4;
    shm_cfg.frame_builder = bus.frame_builder();
    broker::FanoutBroker fan(shm_cfg);
    std::vector<std::unique_ptr<shm::ShmEndpoint>> endpoints;
    for (std::size_t i = 0; i < subs; ++i) {
      endpoints.push_back(bus.endpoint());
      fan.subscribe(*endpoints.back(), sc);
    }

    MonotonicClock wall;
    const Seconds start = wall.now();
    for (std::size_t at = 0; at < data.size(); at += block_size) {
      fan.publish(
          ByteView(data.data() + at, std::min(block_size, data.size() - at)));
    }
    fan.pump_all();
    const double elapsed = wall.now() - start;

    // Drain every endpoint and hold the shm frames against the reference.
    bool identical = true;
    std::size_t delivered_bytes = 0;
    for (std::size_t i = 0; i < subs; ++i) {
      std::vector<Bytes> got;
      while (auto frame = endpoints[i]->receive()) {
        delivered_bytes += frame->size();
        got.push_back(std::move(*frame));
      }
      identical = identical && got == ref_sinks[i]->frames();
    }
    const shm::ShmBusStats bus_stats = bus.stats();
    const bool no_fallback = bus_stats.copy_fallbacks == 0;
    shm_ok = shm_ok && identical && no_fallback;
    if (subs == 1) staged_bytes_1 = static_cast<double>(bus_stats.staged_bytes);
    if (subs == 64) {
      staged_bytes_64 = static_cast<double>(bus_stats.staged_bytes);
    }

    std::printf("%5zu  %10.3f  %12llu  %12zu  %6llu  %s\n", subs, elapsed,
                static_cast<unsigned long long>(bus_stats.staged_bytes),
                delivered_bytes,
                static_cast<unsigned long long>(bus_stats.copy_fallbacks),
                identical ? "ok" : "FAILED");

    const std::string label = "shm-" + std::to_string(subs);
    bench::record_result("bench.fanout.shm.elapsed_s", "config", label,
                         elapsed);
    bench::record_result("bench.fanout.shm.staged_bytes", "config", label,
                         static_cast<double>(bus_stats.staged_bytes));
    bench::record_result("bench.fanout.shm.delivered_bytes", "config", label,
                         static_cast<double>(delivered_bytes));
    bench::record_result("bench.fanout.shm.copy_fallbacks", "config", label,
                         static_cast<double>(bus_stats.copy_fallbacks));
    bench::record_result("bench.fanout.shm.verified", "config", label,
                         identical ? 1.0 : 0.0);
  }

  const double shm_ratio =
      staged_bytes_1 > 0 ? staged_bytes_64 / staged_bytes_1 : 0.0;
  const bool bandwidth_ok = shm_ratio > 0 && shm_ratio <= 1.5;
  shm_ok = shm_ok && bandwidth_ok;
  bench::record_result("bench.fanout.shm.staged_ratio_64v1", "config", "shm",
                       shm_ratio);
  std::printf(
      "\nShm headline: 64 subscribers moved %.2fx the payload bytes of 1 "
      "(acceptance: <= 1.5x,\nzero copy-fallbacks, byte-identical to the "
      "TCP-path frames) -> %s\n",
      shm_ratio, shm_ok ? "PASS" : "FAIL");

  bench::write_results_json("fanout_scaling");
  return shm_ok ? 0 : 1;
}
