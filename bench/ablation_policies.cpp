// Ablation: adaptive vs every fixed policy across all four Fig. 5 links —
// where are the crossovers? Paper §4.1: compression should win big on the
// 1 Mb and international links, be marginal-to-useful on a loaded 100 Mb
// link, and LOSE on an unloaded gigabit link.

#include "bench_common.hpp"

int main() {
  using namespace acex;
  const Bytes data = bench::commercial_data(8 * 1024 * 1024);
  const adaptive::CpuMeter cpu_meter = adaptive::CpuMeter::wall_for_lz_speed(
      data, adaptive::kPaperLzReducingBps);

  bench::header("Ablation: policy x link (commercial data, unloaded links)");
  std::printf("%-16s  %12s  %12s  %12s  %12s\n", "policy", "1Gb(s)",
              "100Mb(s)", "1Mb(s)", "intl(s)");
  bench::rule();

  // totals[policy][link]
  std::vector<std::vector<double>> totals(4);
  std::vector<std::string> names;
  for (std::size_t l = 0; l < netsim::figure5_links().size(); ++l) {
    adaptive::ExperimentConfig config;
    config.link = netsim::figure5_links()[l];
    config.adaptive.async_sampling = false;
    config.adaptive.initial_bandwidth_Bps = config.link.bandwidth_Bps;
    config.adaptive.cpu_meter = cpu_meter;
    config.seed = 7 + l;

    const auto results = adaptive::run_policy_comparison(data, config);
    for (std::size_t p = 0; p < results.size(); ++p) {
      totals[p].push_back(results[p].stream.total_seconds);
      if (l == 0) names.push_back(results[p].policy);
      if (!results[p].verified) {
        std::printf("!! round-trip FAILED: %s on %s\n",
                    results[p].policy.c_str(), config.link.name.c_str());
      }
    }
  }
  for (std::size_t p = 0; p < names.size(); ++p) {
    std::printf("%-16s", names[p].c_str());
    for (const double t : totals[p]) std::printf("  %12.3f", t);
    std::printf("\n");
  }

  // Crossover summary: best policy per link.
  std::printf("\nbest policy per link:");
  for (std::size_t l = 0; l < netsim::figure5_links().size(); ++l) {
    std::size_t best = 0;
    for (std::size_t p = 1; p < names.size(); ++p) {
      if (totals[p][l] < totals[best][l]) best = p;
    }
    std::printf("  %s=%s", netsim::figure5_links()[l].name.c_str(),
                names[best].c_str());
  }
  std::printf(
      "\n\nShape check (paper §4.1): no-compression competitive on fast "
      "intranet links,\ncompression decisive on the 1 Mb and international "
      "links, adaptive within a few\npercent of the best fixed policy "
      "everywhere (it cannot beat an oracle, but must\nnever be badly "
      "wrong).\n");
  return 0;
}
