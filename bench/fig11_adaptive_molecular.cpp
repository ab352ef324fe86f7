// Figures 11, 12: the same §4.2 scenario but streaming molecular-dynamics
// data (PBIO snapshots). Paper: "most of the data was compressed by
// Huffman" — the coordinate-dominated blocks fail the compressibility cut
// — with occasional LZ/BW on portions with string repetitions, and
// compressed block sizes barely below 128 KiB (Fig. 12).

#include <map>

#include "bench_common.hpp"
#include "netsim/load_trace.hpp"

int main() {
  using namespace acex;

  const Bytes data = bench::molecular_data(16384, 38);  // ~20 MB stream

  adaptive::ExperimentConfig config;
  config.link = netsim::fast_ethernet_link();
  config.link.jitter_frac = 0.02;
  config.link.share_per_connection = 0.014;
  config.background = netsim::mbone_trace().scaled(4.0);
  config.pace = 1.0;
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  // The wall-clock run: measured CPU, scaled to the Sun-Fire profile.
  // Calibrate against the commercial data (the paper's Fig. 4 calibration
  // corpus), not the MD data itself.
  const Bytes calib = bench::commercial_data(512 * 1024);
  config.adaptive.cpu_meter = adaptive::CpuMeter::wall_for_lz_speed(
      calib, adaptive::kPaperLzReducingBps);

  const auto result = run_adaptive(data, config);

  bench::header(
      "Figures 11-12: adaptive run, molecular data, loaded 100 Mb link");
  std::printf("dataset: %zu bytes of PBIO atom snapshots; %zu blocks\n\n",
              data.size(), result.stream.blocks.size());
  bench::print_block_series(result.stream);

  const auto verdict = [](std::map<std::string, std::size_t> counts) {
    const std::size_t huffman = counts["huffman"];
    const std::size_t strong =
        counts["lempel-ziv"] + counts["burrows-wheeler"];
    std::printf(
        "\nShape check (paper Fig. 11): Huffman dominates the compressed "
        "blocks (%zu huffman\nvs %zu LZ/BW): %s; compressed sizes stay near "
        "the 128 KiB block size (Fig. 12).\n",
        huffman, strong, huffman > strong ? "reproduced" : "DIFFERS");
  };
  const auto counts = bench::method_counts(result.stream);
  bench::print_method_usage("method usage", counts);
  std::printf("round-trip verified: %s\n",
              result.verified ? "yes" : "NO (BUG)");
  bench::print_stream_summary("adaptive", result.stream);
  verdict(counts);

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
  verdict(model_counts);
  return 0;
}
