#pragma once

// Shared plumbing of acexbench: the wall clock, bench-side spans, process
// CPU and memory probes, obs-series deltas, and the result record every
// workload fills in. Spans are recorded by the benchmark around calls into
// the library's public functions; nothing here reaches inside src/.

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace acexbench {

/// Seconds on the steady clock.
double now();

/// Sleep until `deadline` (a now() value).
void sleep_until(double deadline);

/// Command-line settings of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 2004;
  double seconds = 20;    ///< measured time, warm-up excluded
  std::string trace_dir;  ///< empty = untraced run
  bool traced() const { return !trace_dir.empty(); }
};

// ---- spans -------------------------------------------------------------

/// Span id: a block index plus a subscriber index. A span whose block is
/// kInherit takes its parent's id (the receiver learns which block a
/// receive carried only after the call returns); kAllSubs marks work done
/// once for every subscriber (a broker publish).
constexpr std::int64_t kInherit = -1;
constexpr std::int32_t kAllSubs = -2;

struct Span {
  const char* name = nullptr;  ///< nullptr = cancelled
  double start = 0;
  double end = 0;
  std::int32_t parent = -1;  ///< index in the same lane, -1 = root
  std::int64_t block = kInherit;
  std::int32_t sub = 0;
};

/// The spans one bench thread records, kept in memory without locking.
/// Spans nest through an explicit stack: the innermost open span is the
/// parent of the next one opened.
class Lane {
 public:
  explicit Lane(std::string name) : name_(std::move(name)) {
    spans_.reserve(1 << 16);
  }

  std::size_t open(const char* name, std::int64_t block, std::int32_t sub);
  void close(std::size_t index);
  void set_id(std::size_t index, std::int64_t block, std::int32_t sub);
  void cancel(std::size_t index);

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Owner of every lane of one run. Create the lanes before starting the
/// threads that write them; each lane is then written by its thread only.
class Tracer {
 public:
  Lane* lane(const std::string& name);
  std::vector<const Lane*> lanes() const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// Opens a span on construction and closes it on destruction; a null lane
/// (untraced run) makes every operation a no-op.
class SpanScope {
 public:
  SpanScope(Lane* lane, const char* name, std::int64_t block = kInherit,
            std::int32_t sub = 0)
      : lane_(lane), index_(lane ? lane->open(name, block, sub) : 0) {}
  ~SpanScope() {
    if (lane_) lane_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_id(std::int64_t block, std::int32_t sub) {
    if (lane_) lane_->set_id(index_, block, sub);
  }
  /// Discard the span (an empty drain or poll carried no block).
  void cancel() {
    if (lane_) lane_->cancel(index_);
  }

 private:
  Lane* lane_;
  std::size_t index_;
};

// ---- process probes --------------------------------------------------

/// User + system CPU seconds of the whole process.
double process_cpu_seconds();

/// Current resident set, bytes.
double rss_bytes();

/// Reset the kernel's peak-RSS mark to the current RSS, so input
/// generation does not count (Linux; elsewhere the peak is the process's).
void reset_peak_rss();

/// Peak resident set since the last reset, bytes (VmHWM, or ru_maxrss
/// where /proc/self/status has none).
double peak_rss_bytes();

/// CPU seconds of the listed threads of this process (from
/// /proc/self/task/<tid>/stat, clock-tick resolution).
double thread_cpu_seconds(const std::vector<long>& tids);

/// Thread ids of this process.
std::vector<long> thread_ids();

// ---- obs series ------------------------------------------------------

/// Sum and count of every histogram named `name` (all label values), or a
/// counter's value in `sum`.
struct SeriesTotal {
  double sum = 0;
  double count = 0;
};
SeriesTotal series_total(const acex::obs::MetricsSnapshot& snap,
                         const std::string& name);

/// Difference of one series between two snapshots.
SeriesTotal series_delta(const acex::obs::MetricsSnapshot& before,
                         const acex::obs::MetricsSnapshot& after,
                         const std::string& name);

// ---- results ---------------------------------------------------------

constexpr double kMissing = std::numeric_limits<double>::infinity();

/// One measured (block, subscriber) delivery: from when it was due (open
/// loop) or submitted (closed loop) to its verified arrival; end is
/// kMissing when it never arrived.
struct Delivery {
  std::int64_t block = 0;
  std::int32_t sub = 0;
  double start = 0;
  double end = kMissing;
  double bytes = 0;  ///< payload carried
};

/// The measured window is cut into epochs of about kEpochSeconds. Timing
/// metrics are computed per epoch and reported as the median over epochs,
/// so a burst of interference on the host moves one epoch, not the run.
constexpr double kEpochSeconds = 2;

/// Number of epochs in a window of `seconds`.
int epoch_count(double seconds);

/// An epoch boundary: when it was crossed and the process CPU time then.
struct Mark {
  double at = 0;
  double cpu_s = 0;
};

/// Record a boundary now.
Mark mark();

/// An open-loop publishing schedule: block i is due at start + i / rate
/// whatever the system is doing. The first `warm` blocks are warm-up; the
/// measured blocks after them fill whole epochs.
struct Schedule {
  Schedule(double rate, double warmup_seconds, double seconds);

  /// Start the clock: block 0 is due a moment from now. Call it when the
  /// system is ready, or the publisher starts with a burst of overdue
  /// blocks.
  void begin() { start = now() + 0.01; }

  double due(std::size_t i) const {
    return start + static_cast<double>(i) / rate;
  }
  /// Whether block i opens an epoch (the publisher marks it).
  bool opens_epoch(std::size_t i) const {
    return i >= warm && (i - warm) % per_epoch == 0;
  }

  double rate;
  std::size_t warm;
  std::size_t per_epoch;
  std::size_t total;  ///< warm-up plus measured blocks
  double start = 0;
};

/// What a workload measured over its window, turned into the end-to-end
/// metrics by add_end_to_end(). A delivery belongs to the epoch its start
/// falls in.
struct EndToEnd {
  std::vector<Delivery> deliveries;
  std::vector<Mark> marks;   ///< epoch boundaries, first to last
  double payload_bytes = 0;  ///< verified payload, summed over subscribers
  double wire_bytes = 0;     ///< bytes on the wire for that payload
  std::vector<double> setup_s;  ///< one per system construction
  double rss_base = 0;       ///< RSS after input generation
  double rss_peak = 0;

  /// First boundary to the last verified arrival.
  double window_end() const;
};

struct Result {
  bool verified = true;  ///< false on any byte mismatch
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;
  std::vector<std::pair<std::string, double>> diagnostics;
  std::string layers_json = "{}";  ///< traced runs: per-layer self times

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void diagnostic(const std::string& name, double value) {
    diagnostics.push_back({name, value});
  }
  void set(const std::string& key, const std::string& value) {
    config.push_back({key, value});
  }
};

/// Fill attempted/failed, the end-to-end metrics and the diagnostics from
/// one window's measurements.
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// Linear-interpolated quantile of `values` (sorted in place); +inf
/// entries sort last, so missing deliveries count as infinitely late.
double quantile(std::vector<double>& values, double q);

/// One span name's totals over the spans that started inside the window.
struct LayerStats {
  std::size_t spans = 0;
  double total_s = 0;  ///< summed span durations
  double self_s = 0;   ///< summed durations minus child-covered time
  double path_s = 0;   ///< blocking-path time owned, over all deliveries

  double mean_us() const { return spans ? total_s * 1e6 / spans : 0.0; }
  double mean_self_us() const { return spans ? self_s * 1e6 / spans : 0.0; }
};
using Layers = std::map<std::string, LayerStats>;

/// Per-layer analysis of a traced run over the window [from, to]: self
/// times, blocking-path attribution of each delivery's latency, and the
/// span file. Adds trace.unaccounted_pct to `result` and returns the
/// per-name totals.
Layers analyse_trace(const Options& options, const Tracer& tracer,
                     const std::vector<Delivery>& deliveries, double from,
                     double to, Result& result);

/// `name`'s stats, or zeros when no such span was recorded.
LayerStats layer(const Layers& layers, const std::string& name);

/// System constructions before and again after the run; setup_s is the
/// median of all of them.
constexpr int kSetupRuns = 21;

/// Pause between two timed constructions. Each set-up then starts from
/// cold caches, as a user's one set-up does; back-to-back set-ups ran warm
/// and their median moved by up to 1.7x from one process to the next.
constexpr double kSetupGapSeconds = 0.02;

/// Construct `make()` `runs` times, kSetupGapSeconds apart, timing each
/// construction, and keep the last system; the durations go to `setup_s`.
/// Workloads call it once before the run (keeping the system they measure)
/// and once after it, so the set-up samples straddle the run instead of
/// sharing one moment of the host's load.
template <typename System, typename Make>
std::unique_ptr<System> build_system(int runs, std::vector<double>& setup_s,
                                     Make make) {
  std::unique_ptr<System> system;
  for (int i = 0; i < runs; ++i) {
    if (i > 0) sleep_until(now() + kSetupGapSeconds);
    system.reset();
    const double start = now();
    system = make();
    setup_s.push_back(now() - start);
  }
  return system;
}

Result run_wan(const Options& options, bool molecular);
Result run_fanout(const Options& options);
Result run_daemon(const Options& options);

}  // namespace acexbench
