#pragma once

// Shared plumbing for the figure-reproduction benches: dataset builders,
// table printing, and the CPU-profile calibration every experiment uses to
// emulate the paper's 2003-era hosts (see DESIGN.md §2).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "adaptive/experiment.hpp"
#include "compress/metrics.hpp"
#include "compress/registry.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "transport/transport.hpp"
#include "util/bytes.hpp"
#include "workloads/molecular.hpp"
#include "workloads/transactions.hpp"

namespace acex::bench {

/// Accepts frames instantly and keeps them for verification. Lets the
/// wall-clock benches measure pure encode + pipeline overhead with no link
/// emulation in the way.
class CaptureTransport : public transport::Transport {
 public:
  void send(ByteView message) override {
    frames_.emplace_back(message.begin(), message.end());
  }
  std::optional<Bytes> receive() override { return std::nullopt; }
  const Clock& clock() const override { return clock_; }
  const std::vector<Bytes>& frames() const { return frames_; }

 private:
  MonotonicClock clock_;
  std::vector<Bytes> frames_;
};

/// The commercial (OIS transaction) dataset used by Figs. 2, 3, 4, 8-10.
inline Bytes commercial_data(std::size_t size = 4 * 1024 * 1024,
                             std::uint64_t seed = 2004) {
  workloads::TransactionGenerator gen(seed);
  return gen.text_block(size);
}

/// The molecular-dynamics dataset (PBIO snapshots) of Figs. 6, 11, 12.
inline Bytes molecular_data(std::size_t atoms = 16384, std::size_t steps = 4,
                            std::uint64_t seed = 2004) {
  workloads::MolecularConfig config;
  config.atom_count = atoms;
  config.seed = seed;
  workloads::MolecularGenerator gen(config);
  return gen.stream(steps);
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() {
  std::printf("%s\n", std::string(74, '-').c_str());
}

/// Measure one paper method on `data` with round-trip verification.
inline CompressionMeasurement measure(MethodId method, ByteView data) {
  MonotonicClock clock;
  const CodecPtr codec = make_codec(method);
  return measure_codec(*codec, data, clock);
}

/// Per-block series printer shared by the Fig. 8-12 benches.
inline void print_block_series(const adaptive::StreamReport& stream) {
  std::printf("%8s  %6s  %-16s  %12s  %12s\n", "time(s)", "block", "method",
              "comp_us", "wire_bytes");
  rule();
  for (const auto& b : stream.blocks) {
    std::printf("%8.2f  %6zu  %-16s  %12.0f  %12zu\n", b.submitted, b.index,
                std::string(method_name(b.method)).c_str(),
                b.compress_seconds * 1e6, b.wire_size);
  }
}

/// Blocks per method actually sent, keyed by method name.
inline std::map<std::string, std::size_t> method_counts(
    const adaptive::StreamReport& stream) {
  std::map<std::string, std::size_t> counts;
  for (const auto& b : stream.blocks) {
    counts[std::string(method_name(b.method))]++;
  }
  return counts;
}

/// Prints "\n<label>:  name=count  ..." over `counts`, then a newline.
inline void print_method_usage(
    const char* label, const std::map<std::string, std::size_t>& counts) {
  std::printf("\n%s:", label);
  for (const auto& [name, n] : counts) {
    std::printf("  %s=%zu", name.c_str(), n);
  }
  std::printf("\n");
}

inline void print_stream_summary(const char* name,
                                 const adaptive::StreamReport& s) {
  std::printf(
      "%-16s total=%8.3f s  wire=%5.1f %%  compress=%6.3f s (%4.1f %% of "
      "total)\n",
      name, s.total_seconds, s.wire_ratio_percent(), s.compress_seconds,
      100.0 * s.compression_share());
}

/// Record one headline result as a labelled single-sample histogram — the
/// JSON-lines exporter prints `sum` with %.17g, so the value survives a
/// parse round-trip exactly (read it back as sum/count).
inline void record_result(std::string_view name, std::string_view label_key,
                          std::string_view label_value, double value) {
  obs::MetricsRegistry::global()
      .histogram(name, label_key, label_value)
      .record(value);
}

/// Dump the full metrics registry (bench results recorded above plus every
/// instrument the exercised layers fed) as JSON lines. The path comes from
/// $ACEX_BENCH_JSON, defaulting to BENCH_results.json in the working
/// directory; CI uploads the file as a workflow artifact.
inline void write_results_json(const char* bench_name) {
  const char* env = std::getenv("ACEX_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_results.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"type\":\"bench\",\"name\":\"" << bench_name << "\"}\n";
  out << obs::to_json_lines(obs::MetricsRegistry::global().snapshot());
  std::printf("\nresults written to %s\n", path.c_str());
}

}  // namespace acex::bench
