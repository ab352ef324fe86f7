// Per-layer analysis of a traced run.
//
// Self time: a span's duration minus the part of it its child spans cover.
//
// Blocking-path attribution: each delivery's latency interval is split
// among the spans carrying its id (its block and subscriber, or its block
// and kAllSubs). At every instant the owner is the span whose own (not
// child-covered) time includes that instant; where several threads' spans
// overlap, work beats waiting (a span named "*_wait" owns time only when
// nothing else covers it) and otherwise the most recently started span
// wins. Time no span owns is unaccounted: queueing inside the system that
// the benchmark cannot see from outside.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "harness.hpp"

namespace acexbench {
namespace {

struct Interval {
  double start;
  double end;
};

struct Flat {
  const Span* span;
  std::size_t lane;
  std::int64_t parent;  ///< global index, -1 = root
  std::int64_t block;   ///< resolved id
  std::int32_t sub;
  bool wait;
  std::vector<Interval> self;  ///< own time: span minus its children
};

/// `outer` minus every interval of `holes` (clipped), in time order.
std::vector<Interval> subtract(Interval outer, std::vector<Interval> holes) {
  std::sort(holes.begin(), holes.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::vector<Interval> out;
  double cursor = outer.start;
  for (const Interval& h : holes) {
    const double s = std::max(h.start, outer.start);
    const double e = std::min(h.end, outer.end);
    if (e <= s) continue;
    if (s > cursor) out.push_back({cursor, s});
    cursor = std::max(cursor, e);
  }
  if (outer.end > cursor) out.push_back({cursor, outer.end});
  return out;
}

std::uint64_t key_of(std::int64_t block, std::int32_t sub) {
  return (static_cast<std::uint64_t>(block) << 20) ^
         static_cast<std::uint32_t>(sub + 8);
}

bool ends_with(const char* text, const char* suffix) {
  const std::size_t n = std::strlen(text);
  const std::size_t m = std::strlen(suffix);
  return n >= m && std::strcmp(text + n - m, suffix) == 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

Layers analyse_trace(const Options& options, const Tracer& tracer,
                     const std::vector<Delivery>& deliveries, double from,
                     double to, Result& result) {
  const std::vector<const Lane*> lanes = tracer.lanes();

  // Flatten every lane into one index space.
  std::vector<Flat> flat;
  std::vector<std::size_t> offset;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    offset.push_back(flat.size());
    for (const Span& span : lanes[l]->spans()) {
      Flat f{&span, l, -1, span.block, span.sub,
             span.name != nullptr && ends_with(span.name, "_wait"), {}};
      flat.push_back(std::move(f));
    }
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const auto& spans = lanes[l]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        flat[offset[l] + i].parent =
            static_cast<std::int64_t>(offset[l]) + spans[i].parent;
      }
    }
  }
  // Inherited ids come from the nearest ancestor that has one; parents
  // precede their children in a lane, so one forward pass resolves all.
  for (Flat& f : flat) {
    if (f.block == kInherit && f.parent >= 0) {
      f.block = flat[f.parent].block;
      f.sub = flat[f.parent].sub;
    }
  }
  std::vector<std::vector<Interval>> children(flat.size());
  for (const Flat& f : flat) {
    if (f.span->name != nullptr && f.parent >= 0) {
      children[f.parent].push_back({f.span->start, f.span->end});
    }
  }
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i].self = subtract({flat[i].span->start, flat[i].span->end},
                            children[i]);
  }

  // Layer table: every span that started inside the window.
  Layers layers;
  std::size_t window_spans = 0;
  for (const Flat& f : flat) {
    if (f.span->name == nullptr) continue;
    if (f.span->start < from || f.span->start > to) continue;
    LayerStats& layer = layers[f.span->name];
    ++layer.spans;
    ++window_spans;
    layer.total_s += f.span->end - f.span->start;
    for (const Interval& iv : f.self) layer.self_s += iv.end - iv.start;
  }

  // Blocking-path attribution per delivered (block, subscriber).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_id;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (flat[i].span->name == nullptr || flat[i].block < 0) continue;
    by_id[key_of(flat[i].block, flat[i].sub)].push_back(i);
  }
  double latency_total = 0;
  double covered_total = 0;
  std::vector<double> latencies;
  std::vector<double> covered_each;
  std::vector<std::size_t> candidates;
  std::vector<double> points;
  for (const Delivery& d : deliveries) {
    if (!std::isfinite(d.end) || d.end <= d.start) continue;
    candidates.clear();
    for (const std::int32_t sub : {d.sub, kAllSubs}) {
      const auto it = by_id.find(key_of(d.block, sub));
      if (it == by_id.end()) continue;
      candidates.insert(candidates.end(), it->second.begin(), it->second.end());
    }
    points.assign({d.start, d.end});
    for (const std::size_t c : candidates) {
      for (const Interval& iv : flat[c].self) {
        if (iv.start > d.start && iv.start < d.end) points.push_back(iv.start);
        if (iv.end > d.start && iv.end < d.end) points.push_back(iv.end);
      }
    }
    std::sort(points.begin(), points.end());
    double covered = 0;
    for (std::size_t p = 0; p + 1 < points.size(); ++p) {
      const double mid = 0.5 * (points[p] + points[p + 1]);
      const double length = points[p + 1] - points[p];
      if (length <= 0) continue;
      const Flat* owner = nullptr;
      for (const std::size_t c : candidates) {
        const Flat& f = flat[c];
        bool covers = false;
        for (const Interval& iv : f.self) {
          if (iv.start <= mid && mid < iv.end) {
            covers = true;
            break;
          }
        }
        if (!covers) continue;
        if (owner == nullptr || (owner->wait && !f.wait) ||
            (owner->wait == f.wait && f.span->start > owner->span->start)) {
          owner = &f;
        }
      }
      if (owner == nullptr) continue;
      covered += length;
      layers[owner->span->name].path_s += length;
    }
    latency_total += d.end - d.start;
    covered_total += covered;
    latencies.push_back(d.end - d.start);
    covered_each.push_back(covered);
  }

  std::string json = "{";
  for (const auto& [name, layer] : layers) {
    if (json.size() > 1) json += ",";
    json += "\"" + name + "\":{\"spans\":" + std::to_string(layer.spans) +
            ",\"self_ms\":" + json_number(layer.self_s * 1e3) +
            ",\"mean_self_us\":" + json_number(layer.mean_self_us()) +
            ",\"path_pct\":" +
            json_number(latency_total > 0
                            ? 100.0 * layer.path_s / latency_total
                            : 0) +
            "}";
  }
  json += "}";
  result.layers_json = json;

  result.metric("trace.unaccounted_pct",
                latency_total > 0
                    ? 100.0 * (latency_total - covered_total) / latency_total
                    : 0,
                "%");
  const double median_latency = quantile(latencies, 0.5);
  const double median_covered = quantile(covered_each, 0.5);
  result.diagnostic("trace.stage_sum_error_pct",
                    median_latency > 0
                        ? 100.0 * std::fabs(median_latency - median_covered) /
                              median_latency
                        : 0);
  result.diagnostic("trace.spans", static_cast<double>(window_spans));

  // The span file: one JSON object per span, for offline reconstruction.
  std::filesystem::create_directories(options.trace_dir);
  const std::string path =
      options.trace_dir + "/" + options.workload + ".spans.jsonl";
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const Flat& f = flat[i];
    if (f.span->name == nullptr) continue;
    char line[384];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"lane\":\"%s\",\"id\":%zu,\"parent\":%lld,"
                  "\"block\":%lld,\"sub\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  f.span->name, lanes[f.lane]->name().c_str(), i,
                  static_cast<long long>(f.parent),
                  static_cast<long long>(f.block), f.sub,
                  (f.span->start - from) * 1e6, (f.span->end - from) * 1e6);
    out << line;
  }
  result.set("span_file", path);
  return layers;
}

}  // namespace acexbench
