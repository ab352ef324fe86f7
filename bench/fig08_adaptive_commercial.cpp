// Figures 8, 9, 10: configurable compression streaming the commercial
// transaction data over a 100 Mb link whose background load replays the
// MBone trace x4 (§4.2). One paced run produces all three series:
//   Fig. 8  — method chosen per block over time (none -> LZ -> BW as load
//             rises, back down as it drains);
//   Fig. 9  — compression time per block (us);
//   Fig. 10 — compressed block size (bytes, <= 128 KiB).
//
// The CPU is calibrated to the paper's Sun-Fire profile so the regime
// boundaries land where Figs. 4/5 put them (DESIGN.md §2).

#include <map>

#include "bench_common.hpp"
#include "netsim/load_trace.hpp"

int main() {
  using namespace acex;

  // 160 blocks, one per second, mirroring the 160 s trace.
  const Bytes data = bench::commercial_data(160 * 128 * 1024);

  adaptive::ExperimentConfig config;
  config.link = netsim::fast_ethernet_link();
  config.link.jitter_frac = 0.02;
  // Paper: "raw MBone numbers multiplied by a factor of 4". Our emulated
  // link assigns each connection 1.4 % of capacity so that the x4 peak
  // (~68 connections) saturates it, as in the paper's experiment.
  config.link.share_per_connection = 0.014;
  config.background = netsim::mbone_trace().scaled(4.0);
  config.pace = 1.0;
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  // The wall-clock run: measured CPU, scaled to the Sun-Fire profile.
  config.adaptive.cpu_meter = adaptive::CpuMeter::wall_for_lz_speed(
      data, adaptive::kPaperLzReducingBps);
  const auto result = run_adaptive(data, config);

  bench::header(
      "Figures 8-10: adaptive run, commercial data, loaded 100 Mb link");
  std::printf("cpu profile: Sun-Fire emulation (wall-clock meter, "
              "scale=%.3f), pace 1 block/s, %zu blocks\n\n",
              config.adaptive.cpu_meter.scale(), result.stream.blocks.size());
  bench::print_block_series(result.stream);

  // Phase summary (which methods served which load phases).
  const auto phases = [](const std::map<std::string, std::size_t>& counts) {
    return counts.count("none") && counts.count("lempel-ziv") &&
                   counts.count("burrows-wheeler")
               ? "all three phases reproduced"
               : "PHASES MISSING";
  };
  const auto counts = bench::method_counts(result.stream);
  bench::print_method_usage("method usage", counts);
  std::printf("round-trip verified: %s\n",
              result.verified ? "yes" : "NO (BUG)");
  bench::print_stream_summary("adaptive", result.stream);
  std::printf(
      "\nShape check (paper Fig. 8): '1' (no compression) under no load, "
      "'2' (LZ) as load\nrises, '3' (BW) at peak: %s\n",
      phases(counts));

  // The same scenario on the Fig. 4 model meter: no clock is read, so the
  // counts are the same in every run on every host.
  config.adaptive.cpu_meter = adaptive::CpuMeter::paper_model();
  const auto model = run_adaptive(data, config);
  const auto model_counts = bench::method_counts(model.stream);
  bench::print_method_usage("method usage (Fig. 4 model meter)",
                            model_counts);
  std::printf("round-trip verified: %s\n",
              model.verified ? "yes" : "NO (BUG)");
  bench::print_stream_summary("adaptive", model.stream);
  std::printf("Shape check (paper Fig. 8, model meter): %s\n",
              phases(model_counts));
  return 0;
}
