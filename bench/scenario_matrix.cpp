// The scenario x policy grid (ROADMAP item 5, DESIGN.md §15): replay every
// workload class the repo knows — transactional text (with and without
// context takeover), molecular PBIO, e4m3 and float32 tensor streams, and
// nested XML markup — against every decision policy over emulated netsim
// links, and emit one machine-readable BENCH_scenarios.json grid:
//
//   scenario x policy -> blocks/s, wire ratio, CPU-us/block, method histogram
//
// This is the frontier map every future PR diffs against: a decision-engine
// change that moves a cell moves it HERE, visibly, under a pinned seed.
//
// The binary exits non-zero when the grid degenerates: any cell failing
// round-trip verification, or fewer than two scenarios whose dominant
// method actually shifts across policies (if no scenario flips, the
// policies are not distinct and the grid proves nothing).
//
// Usage: scenario_matrix [blocks-per-scenario]   (default 48; CI smoke 12)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "netsim/load_trace.hpp"
#include "workloads/markup.hpp"
#include "workloads/tensor.hpp"

namespace {

using namespace acex;

struct ScenarioSpec {
  std::string name;
  Bytes data;
  netsim::LinkParams link;
  bool loaded = false;           ///< apply the MBone x4 background trace
  bool context_takeover = true;  ///< false = per-block-reset variant
  double pace = 0;               ///< virtual seconds between blocks
  double target_rate_Bps = 0;    ///< engaged only under kTargetRate
};

struct CellResult {
  std::string scenario;
  std::string policy;
  double blocks_per_s = 0;
  double wire_ratio_percent = 100;
  double cpu_us_per_block = 0;
  bool verified = false;
  std::map<std::string, std::size_t> methods;

  std::string dominant_method() const {
    std::string best;
    std::size_t best_n = 0;
    for (const auto& [name, n] : methods) {
      if (n > best_n) {
        best = name;
        best_n = n;
      }
    }
    return best;
  }
};

std::vector<ScenarioSpec> build_scenarios(std::size_t blocks) {
  const std::size_t bytes = blocks * 128 * 1024;
  std::vector<ScenarioSpec> scenarios;

  // 1/2: the paper's own commercial stream over the loaded 100 Mb link,
  // with carried context vs per-block reset — what context takeover buys.
  {
    ScenarioSpec s;
    s.name = "txn-text-mbone-takeover";
    s.data = bench::commercial_data(bytes);
    s.link = netsim::fast_ethernet_link();
    s.link.jitter_frac = 0.02;
    s.link.share_per_connection = 0.014;
    s.loaded = true;
    s.pace = 1.0;
    s.target_rate_Bps = 2.0e6;
    scenarios.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "txn-text-mbone-reset";
    s.data = bench::commercial_data(bytes);
    s.link = netsim::fast_ethernet_link();
    s.link.jitter_frac = 0.02;
    s.link.share_per_connection = 0.014;
    s.loaded = true;
    s.context_takeover = false;
    s.pace = 1.0;
    s.target_rate_Bps = 2.0e6;
    scenarios.push_back(std::move(s));
  }

  // 3: molecular-dynamics PBIO snapshots crawling through a megabit link —
  // the slow-link regime where strong compression pays its CPU bill.
  {
    ScenarioSpec s;
    s.name = "md-pbio-megabit";
    s.data = bench::molecular_data(8192, std::max<std::size_t>(blocks / 4, 2));
    s.link = netsim::megabit_link();
    s.target_rate_Bps = 0.4e6;
    scenarios.push_back(std::move(s));
  }

  // 4: e4m3 tensor stream on a fast link — low entropy, no string
  // repetitions: the sampled LZ ratio sits ABOVE the §2.5 cut while
  // Huffman still has headroom, exactly the case that separates the
  // bandwidth rule from the CPU/energy scorers.
  {
    ScenarioSpec s;
    s.name = "tensor-e4m3-fast";
    workloads::TensorGenerator gen(2004);
    s.data = gen.e4m3_block(bytes);
    s.link = netsim::fast_ethernet_link();
    s.target_rate_Bps = 9.0e6;
    scenarios.push_back(std::move(s));
  }

  // 5: the same tensors as raw float32 over a gigabit link — barely
  // compressible AND the link is faster than any codec: compression must
  // lose under every objective that counts CPU.
  {
    ScenarioSpec s;
    s.name = "tensor-f32-gigabit";
    workloads::TensorGenerator gen(2004);
    s.data = gen.f32_block(bytes / 4);
    s.link = netsim::gigabit_link();
    scenarios.push_back(std::move(s));
  }

  // 6: nested markup across the lossy international link — extreme string
  // repetition on a very slow path: Burrows-Wheeler territory for every
  // policy that values the wire at all.
  {
    ScenarioSpec s;
    s.name = "xml-markup-intl";
    workloads::MarkupGenerator gen(2004);
    s.data = gen.block(std::max<std::size_t>(bytes / 16, 4 * 128 * 1024));
    s.link = netsim::international_link();
    s.target_rate_Bps = 0.2e6;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

CellResult run_cell(const ScenarioSpec& spec, adaptive::DecisionPolicy policy,
                    const netsim::LoadTrace& mbone,
                    const adaptive::CpuMeter& cpu_meter) {
  adaptive::ExperimentConfig config;
  config.link = spec.link;
  if (spec.loaded) config.background = mbone;
  config.pace = spec.pace;
  config.context_takeover = spec.context_takeover;
  config.adaptive.async_sampling = false;
  config.adaptive.initial_bandwidth_Bps = spec.link.bandwidth_Bps;
  config.adaptive.cpu_meter = cpu_meter;
  config.adaptive.decision.policy = policy;
  if (policy == adaptive::DecisionPolicy::kTargetRate) {
    config.adaptive.target_rate_Bps = spec.target_rate_Bps;
  }

  const adaptive::ExperimentResult result =
      run_adaptive(spec.data, config);

  CellResult cell;
  cell.scenario = spec.name;
  cell.policy = std::string(adaptive::policy_name(policy));
  cell.verified = result.verified;
  const auto& stream = result.stream;
  const double blocks = static_cast<double>(stream.blocks.size());
  if (stream.total_seconds > 0) {
    cell.blocks_per_s = blocks / stream.total_seconds;
  }
  if (stream.original_bytes > 0) {
    cell.wire_ratio_percent = 100.0 *
                              static_cast<double>(stream.wire_bytes) /
                              static_cast<double>(stream.original_bytes);
  }
  if (blocks > 0) {
    cell.cpu_us_per_block = stream.compress_seconds * 1e6 / blocks;
  }
  for (const auto& b : stream.blocks) {
    cell.methods[std::string(method_name(b.method))]++;
  }
  return cell;
}

void write_grid_json(const std::vector<CellResult>& cells) {
  const char* env = std::getenv("ACEX_SCENARIOS_JSON");
  const std::string path = env != nullptr ? env : "BENCH_scenarios.json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "scenario_matrix: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"type\":\"bench\",\"name\":\"scenario_matrix\"}\n";
  for (const CellResult& cell : cells) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"scenario\":\"%s\",\"policy\":\"%s\","
                  "\"blocks_per_s\":%.6g,\"wire_ratio_percent\":%.6g,"
                  "\"cpu_us_per_block\":%.6g,\"verified\":%s,"
                  "\"dominant_method\":\"%s\",\"methods\":{",
                  cell.scenario.c_str(), cell.policy.c_str(),
                  cell.blocks_per_s, cell.wire_ratio_percent,
                  cell.cpu_us_per_block, cell.verified ? "true" : "false",
                  cell.dominant_method().c_str());
    out << line;
    bool first = true;
    for (const auto& [name, n] : cell.methods) {
      if (!first) out << ",";
      first = false;
      out << "\"" << name << "\":" << n;
    }
    out << "}}\n";
  }
  std::printf("\ngrid written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t blocks = 48;
  if (argc > 1) {
    blocks = static_cast<std::size_t>(std::strtoul(argv[1], nullptr, 10));
    if (blocks == 0) blocks = 48;
  }

  // One calibration for the whole grid (the Sun-Fire profile every figure
  // bench uses), measured on the commercial corpus.
  const Bytes calib = bench::commercial_data(512 * 1024);
  const adaptive::CpuMeter cpu_meter = adaptive::CpuMeter::wall_for_lz_speed(
      calib, adaptive::kPaperLzReducingBps);
  const netsim::LoadTrace mbone = netsim::mbone_trace().scaled(4.0);

  const std::vector<ScenarioSpec> scenarios = build_scenarios(blocks);

  bench::header("Scenario x policy decision grid");
  std::printf("wall-clock meter scale=%.3f, %zu scenarios x %zu policies, "
              "~%zu blocks per scenario\n\n",
              cpu_meter.scale(), scenarios.size(),
              adaptive::all_policies().size(), blocks);
  std::printf("%-26s %-15s %9s %8s %10s  %s\n", "scenario", "policy",
              "blk/s", "wire%", "cpu_us/blk", "methods");
  bench::rule();

  std::vector<CellResult> cells;
  bool all_verified = true;
  for (const ScenarioSpec& spec : scenarios) {
    for (const adaptive::DecisionPolicy policy : adaptive::all_policies()) {
      CellResult cell = run_cell(spec, policy, mbone, cpu_meter);
      all_verified = all_verified && cell.verified;
      std::string hist;
      for (const auto& [name, n] : cell.methods) {
        hist += name + "=" + std::to_string(n) + " ";
      }
      std::printf("%-26s %-15s %9.2f %8.1f %10.0f  %s%s\n",
                  cell.scenario.c_str(), cell.policy.c_str(),
                  cell.blocks_per_s, cell.wire_ratio_percent,
                  cell.cpu_us_per_block, hist.c_str(),
                  cell.verified ? "" : " [VERIFY FAILED]");
      cells.push_back(std::move(cell));
    }
    std::printf("\n");
  }

  write_grid_json(cells);

  // Acceptance: the frontier must visibly move — at least two scenarios
  // where different policies produce different dominant methods.
  std::size_t moving = 0;
  for (const ScenarioSpec& spec : scenarios) {
    std::set<std::string> dominants;
    for (const CellResult& cell : cells) {
      if (cell.scenario == spec.name) dominants.insert(cell.dominant_method());
    }
    if (dominants.size() > 1) ++moving;
  }
  std::printf("scenarios whose dominant method shifts across policies: %zu\n",
              moving);
  if (!all_verified) {
    std::fprintf(stderr, "scenario_matrix: round-trip verification FAILED\n");
    return 1;
  }
  if (moving < 2) {
    std::fprintf(stderr,
                 "scenario_matrix: frontier did not move (need >= 2 "
                 "scenarios with policy-dependent methods, got %zu)\n",
                 moving);
    return 1;
  }
  std::printf("grid acceptance: OK\n");
  return 0;
}
