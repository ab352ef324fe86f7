// acexbench: runs ONE workload of the end-to-end benchmark in this process
// and prints its result as a single JSON line on stdout. acexbench.py runs
// each workload in its own child process (so peak RSS, the obs registry
// and threads stay isolated), records, compares and reports.
//
//   acexbench --workload NAME [--seed N] [--seconds S] [--trace DIR]
//
// Exit status: 0 when every delivered byte matched its input, 2 on any
// mismatch, 1 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using acexbench::Options;
using acexbench::Result;

/// Every per-layer metric a traced run reports. A workload that does not
/// exercise a layer reports 0 for it: no work was measured there.
/// trace.overhead_pct, which needs an untraced run to compare with, is
/// added by acexbench.py.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"adaptive.plan_us", "us"},
    {"adaptive.method_share.none", "fraction"},
    {"adaptive.method_share.huffman", "fraction"},
    {"adaptive.method_share.lempel-ziv", "fraction"},
    {"adaptive.method_share.burrows-wheeler", "fraction"},
    {"adaptive.bw_estimate_MiBps", "MiB/s"},
    {"compress.encode_us", "us"},
    {"compress.encode_MBps", "MB/s"},
    {"compress.decode_us", "us"},
    {"adaptive.receive_us", "us"},
    {"transport.link_wait_us", "us"},
    {"transport.send_us", "us"},
    {"transport.recv_wait_us", "us"},
    {"transport.link_busy_frac", "fraction"},
    {"broker.publish_us", "us"},
    {"broker.encodes_per_block", "count"},
    {"broker.cache_hit_ratio", "ratio"},
    {"broker.encode_ms_per_block", "ms"},
    {"broker.pump_us", "us"},
    {"broker.pump_frames", "count"},
    {"broker.pump_busy_frac", "fraction"},
    {"broker.egress_depth_max", "count"},
    {"broker.drops", "count"},
    {"shm.staged_bytes_per_block", "B"},
    {"shm.copy_fallbacks", "count"},
    {"shm.endpoint_depth_max", "count"},
    {"shm.queue_drops", "count"},
    {"shm.stale_descriptors", "count"},
    {"net.publish_us", "us"},
    {"net.loop_busy_frac", "fraction"},
    {"net.wakeups_per_block", "count"},
    {"net.bytes_out_per_block", "B"},
    {"net.client_poll_us", "us"},
    {"net.client_busy_frac", "fraction"},
    {"session.parks", "count"},
    {"session.restarts", "count"},
    {"budget.stage_changes", "count"},
    {"adaptive.rx.nacks_issued", "count"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.consumer_busy_frac", "fraction"},
    {"trace.unaccounted_pct", "%"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Options& options, const Result& r) {
  std::string line = "{\"workload\":" + json_string(options.workload) +
                     ",\"seed\":" + std::to_string(options.seed) +
                     ",\"seconds\":" + json_number(options.seconds) +
                     ",\"traced\":" + (options.traced() ? "true" : "false") +
                     ",\"verified\":" + (r.verified ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"config\":{";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    if (i) line += ",";
    line += json_string(r.config[i].first) + ":" + json_string(r.config[i].second);
  }
  line += "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) line += ",";
    const auto& [name, metric] = r.metrics[i];
    line += json_string(name) + ":{\"value\":" + json_number(metric.first) +
            ",\"unit\":" + json_string(metric.second) + "}";
  }
  line += "},\"diagnostics\":{";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    if (i) line += ",";
    line += json_string(r.diagnostics[i].first) + ":" +
            json_number(r.diagnostics[i].second);
  }
  line += "},\"layers\":" + r.layers_json + "}";
  std::printf("%s\n", line.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: acexbench --workload "
               "wan-commercial|wan-molecular|fanout-shm-64|daemon-tcp-4\n"
               "                 [--seed N] [--seconds S] [--trace DIR]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0)) return usage();

  Result result;
  try {
    if (options.workload == "wan-commercial") {
      result = acexbench::run_wan(options, false);
    } else if (options.workload == "wan-molecular") {
      result = acexbench::run_wan(options, true);
    } else if (options.workload == "fanout-shm-64") {
      result = acexbench::run_fanout(options);
    } else if (options.workload == "daemon-tcp-4") {
      result = acexbench::run_daemon(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acexbench: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  if (options.traced()) {
    for (const LayerMetric& m : kLayerMetrics) {
      bool present = false;
      for (const auto& [name, metric] : result.metrics) {
        present = present || name == m.name;
      }
      if (!present) result.metric(m.name, 0.0, m.unit);
    }
  }
  print_result(options, result);
  return result.verified ? 0 : 2;
}
