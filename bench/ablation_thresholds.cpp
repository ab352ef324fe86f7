// Ablation: sensitivity of the §2.5 decision constants (alpha = 0.83,
// beta = 3.48, ratio cut = 48.78 %). Each constant is swept under three
// constant load regimes of the 100 Mb link:
//   light     (~10 % used, 6.8 MB/s)  — compression should NOT pay;
//   heavy     (~70 % used, 2.3 MB/s)  — LZ territory;
//   saturated (~95 % used, 0.38 MB/s) — strongest-method territory.
// The paper's constants should be at-or-near the best cell in EVERY column;
// extreme values must lose at least one regime — that is what makes the
// adaptive middle ground valuable.

#include "bench_common.hpp"
#include "netsim/load_trace.hpp"

namespace {

using namespace acex;

double run_regime(const Bytes& data, const adaptive::CpuMeter& cpu_meter,
                  double connections,
                  adaptive::DecisionParams params) {
  adaptive::ExperimentConfig config;
  config.link = netsim::fast_ethernet_link();
  config.link.jitter_frac = 0.0;
  config.link.share_per_connection = 0.014;
  config.background = netsim::LoadTrace({{0, connections}});
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
  config.adaptive.cpu_meter = cpu_meter;
  config.adaptive.decision = params;
  return run_adaptive(data, config).stream.total_seconds;
}

void sweep(const char* title, const char* column, const Bytes& data,
           const adaptive::CpuMeter& cpu_meter,
           const std::vector<double>& values,
           adaptive::DecisionParams (*make)(double)) {
  bench::header(title);
  std::printf("%10s  %10s  %10s  %12s\n", column, "light(s)", "heavy(s)",
              "saturated(s)");
  bench::rule();
  for (const double v : values) {
    const auto params = make(v);
    std::printf("%10.2f  %10.3f  %10.3f  %12.3f\n", v,
                run_regime(data, cpu_meter, 7, params),
                run_regime(data, cpu_meter, 50, params),
                run_regime(data, cpu_meter, 68, params));
  }
}

}  // namespace

int main() {
  const Bytes data = bench::commercial_data(8 * 1024 * 1024);
  const adaptive::CpuMeter cpu_meter = adaptive::CpuMeter::wall_for_lz_speed(
      data, adaptive::kPaperLzReducingBps);

  sweep("Ablation: alpha (compress-at-all gate; paper 0.83)", "alpha", data,
        cpu_meter, {0.2, 0.5, 0.83, 1.5, 3.0, 6.0}, [](double v) {
          adaptive::DecisionParams p;
          p.alpha = v;
          p.beta = std::max(p.beta, v + 0.1);
          return p;
        });

  sweep("Ablation: beta (LZ -> BW escalation; paper 3.48)", "beta", data,
        cpu_meter, {1.0, 2.0, 3.48, 7.0, 20.0, 45.0}, [](double v) {
          adaptive::DecisionParams p;
          p.beta = v;
          return p;
        });

  sweep("Ablation: ratio cut percent (paper 48.78)", "cut", data, cpu_meter,
        {10.0, 25.0, 48.78, 70.0, 95.0}, [](double v) {
          adaptive::DecisionParams p;
          p.ratio_cut_percent = v;
          return p;
        });

  std::printf(
      "\nReading: small alpha over-compresses on the light link; huge alpha "
      "refuses to\ncompress on the loaded ones; the paper's 0.83 is "
      "competitive in every column.\nbeta only matters when the link is "
      "saturated (it picks LZ vs BW); the ratio cut\ntrades Huffman "
      "against LZ on data near the compressibility boundary.\n");
  return 0;
}
