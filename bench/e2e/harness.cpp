#include "harness.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace acexbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until(double deadline) {
  const double wait = deadline - now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

// ---- spans -------------------------------------------------------------

std::size_t Lane::open(const char* name, std::int64_t block,
                       std::int32_t sub) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.block = block;
  span.sub = sub;
  spans_.push_back(span);
  const std::size_t index = spans_.size() - 1;
  stack_.push_back(static_cast<std::int32_t>(index));
  spans_.back().start = now();
  return index;
}

void Lane::close(std::size_t index) {
  const double end = now();
  if (!stack_.empty() && stack_.back() == static_cast<std::int32_t>(index)) {
    stack_.pop_back();
  }
  if (index < spans_.size()) spans_[index].end = end;
}

void Lane::set_id(std::size_t index, std::int64_t block, std::int32_t sub) {
  spans_[index].block = block;
  spans_[index].sub = sub;
}

void Lane::cancel(std::size_t index) {
  if (!stack_.empty() && stack_.back() == static_cast<std::int32_t>(index)) {
    stack_.pop_back();
  }
  if (index + 1 == spans_.size()) {
    spans_.pop_back();  // no children recorded: forget it entirely
  } else {
    spans_[index].name = nullptr;
  }
}

Lane* Tracer::lane(const std::string& name) {
  lanes_.push_back(std::make_unique<Lane>(name));
  return lanes_.back().get();
}

std::vector<const Lane*> Tracer::lanes() const {
  std::vector<const Lane*> out;
  for (const auto& lane : lanes_) out.push_back(lane.get());
  return out;
}

// ---- process probes --------------------------------------------------

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0;
  double pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

void reset_peak_rss() {
  // "5" resets the peak RSS mark (VmHWM, and with it ru_maxrss).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

std::vector<long> thread_ids() {
  std::vector<long> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    tids.push_back(std::strtol(entry->d_name, nullptr, 10));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

double thread_cpu_seconds(const std::vector<long>& tids) {
  double ticks = 0;
  for (const long tid : tids) {
    std::ifstream stat("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---- obs series ------------------------------------------------------

SeriesTotal series_total(const acex::obs::MetricsSnapshot& snap,
                         const std::string& name) {
  using Kind = acex::obs::MetricPoint::Kind;
  SeriesTotal total;
  for (const auto& point : snap.points) {
    if (point.name != name) continue;
    switch (point.kind) {
      case Kind::kCounter:
        total.sum += static_cast<double>(point.counter);
        break;
      case Kind::kGauge:
        total.sum += static_cast<double>(point.gauge);
        break;
      case Kind::kHistogram:
        total.sum += point.hist.sum;
        total.count += static_cast<double>(point.hist.count);
        break;
    }
  }
  return total;
}

SeriesTotal series_delta(const acex::obs::MetricsSnapshot& before,
                         const acex::obs::MetricsSnapshot& after,
                         const std::string& name) {
  const SeriesTotal a = series_total(before, name);
  const SeriesTotal b = series_total(after, name);
  return {b.sum - a.sum, b.count - a.count};
}

// ---- results ---------------------------------------------------------

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

int epoch_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kEpochSeconds)));
}

Mark mark() { return {now(), process_cpu_seconds()}; }

Schedule::Schedule(double blocks_per_second, double warmup_seconds,
                   double seconds)
    : rate(blocks_per_second),
      warm(static_cast<std::size_t>(std::lround(warmup_seconds * rate))),
      per_epoch(std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::lround(seconds * rate / epoch_count(seconds))))),
      total(warm + per_epoch * static_cast<std::size_t>(epoch_count(seconds))) {}

double EndToEnd::window_end() const {
  double end = marks.empty() ? 0.0 : marks.back().at;
  for (const Delivery& d : deliveries) {
    if (std::isfinite(d.end)) end = std::max(end, d.end);
  }
  return end;
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  constexpr double kMiB = 1024.0 * 1024.0;
  if (e2e.marks.size() < 2) throw std::runtime_error("no measured window");
  const std::size_t epochs = e2e.marks.size() - 1;
  std::vector<std::vector<double>> latency_ms(epochs);
  std::vector<double> bytes(epochs, 0.0);
  std::vector<double> pooled;
  std::uint64_t missing = 0;
  for (const Delivery& d : e2e.deliveries) {
    const auto after = std::upper_bound(
        e2e.marks.begin(), e2e.marks.end(), d.start,
        [](double t, const Mark& m) { return t < m.at; });
    const std::size_t e = std::min<std::size_t>(
        epochs - 1, after == e2e.marks.begin() ? 0 : after - e2e.marks.begin() - 1);
    const double ms = std::isfinite(d.end) ? (d.end - d.start) * 1e3 : kMissing;
    if (std::isfinite(d.end)) {
      bytes[e] += d.bytes;
    } else {
      ++missing;
    }
    latency_ms[e].push_back(ms);
    pooled.push_back(ms);
  }

  std::vector<double> p50, p95, payload, cpu;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (latency_ms[e].empty()) continue;
    const double seconds = e2e.marks[e + 1].at - e2e.marks[e].at;
    const double cpu_s = e2e.marks[e + 1].cpu_s - e2e.marks[e].cpu_s;
    p50.push_back(quantile(latency_ms[e], 0.50));
    p95.push_back(quantile(latency_ms[e], 0.95));
    payload.push_back(bytes[e] / kMiB / seconds);
    cpu.push_back(bytes[e] > 0 ? cpu_s * 1e3 / (bytes[e] / kMiB) : kMissing);
  }
  result.attempted = e2e.deliveries.size();
  result.failed = missing;
  const double attempted = std::max<double>(1.0, e2e.deliveries.size());
  std::vector<double> setup = e2e.setup_s;

  result.metric("payload_MiBps", quantile(payload, 0.5), "MiB/s");
  result.metric("latency_p50_ms", quantile(p50, 0.5), "ms");
  result.metric("latency_p95_ms", quantile(p95, 0.5), "ms");
  result.metric("wire_ratio",
                e2e.payload_bytes > 0 ? e2e.wire_bytes / e2e.payload_bytes : 0,
                "ratio");
  result.metric("cpu_ms_per_MiB", quantile(cpu, 0.5), "ms/MiB");
  result.metric("failed_frac", static_cast<double>(missing) / attempted,
                "fraction");
  result.metric("setup_s", quantile(setup, 0.5), "s");
  result.metric("peak_rss_MiB", (e2e.rss_peak - e2e.rss_base) / kMiB, "MiB");

  // Pooled tail percentiles are diagnostics only: recorded with the sample
  // count behind them, never gated on.
  result.diagnostic("latency_p99_ms", quantile(pooled, 0.99));
  result.diagnostic("latency_p999_ms", quantile(pooled, 0.999));
  result.diagnostic("latency_samples", static_cast<double>(pooled.size()));
  result.diagnostic("epochs", static_cast<double>(epochs));
  result.diagnostic("window_s", e2e.marks.back().at - e2e.marks.front().at);
  result.diagnostic("setup_runs", static_cast<double>(setup.size()));
}

LayerStats layer(const Layers& layers, const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? LayerStats{} : it->second;
}

}  // namespace acexbench
