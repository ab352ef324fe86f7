#include "obs/export.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "util/error.hpp"

namespace acex::obs {
namespace {

/// %.17g: enough digits that a double parses back bit-exact.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

void append_label_field(std::string& out, const MetricPoint& p) {
  if (p.label_key.empty()) return;
  out += ",\"label\":{";
  append_json_string(out, p.label_key);
  out += ':';
  append_json_string(out, p.label_value);
  out += '}';
}

// ---- minimal JSON reader for the lines this library writes ------------

struct JsonValue {
  enum class Type { kNumber, kString, kArray, kObject } type = Type::kNumber;
  std::string text;                ///< a string's contents or a number's token
  std::vector<std::string> array;  ///< arrays of number tokens only
  std::map<std::string, JsonValue> object;
};

class JsonLineParser {
 public:
  explicit JsonLineParser(std::string_view text) : text_(text) {}

  /// One line is one object. Its values may be objects one level down
  /// (the `label` pair) and no deeper, which also bounds the recursion a
  /// hostile line can drive.
  JsonValue parse_object(bool nested = false) {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace(key, parse_value(nested));
      skip_ws();
      const char c = next();
      if (c == '}') return value;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

 private:
  JsonValue parse_value(bool nested) {
    skip_ws();
    const char c = peek();
    JsonValue value;
    if (c == '"') {
      value.type = JsonValue::Type::kString;
      value.text = parse_string();
    } else if (c == '{') {
      if (nested) fail("objects nested more than one level");
      value = parse_object(true);
    } else if (c == '[') {
      value.type = JsonValue::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      for (;;) {
        value.array.push_back(parse_number());
        skip_ws();
        const char sep = next();
        if (sep == ']') break;
        if (sep != ',') fail("expected ',' or ']'");
        skip_ws();
      }
    } else {
      value.text = parse_number();
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        if (e == 'n') {
          out += '\n';
        } else if (e == '"' || e == '\\') {
          out += e;
        } else {
          fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
  }

  /// The raw token; the field it belongs to decides how it converts.
  std::string parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == 'i' ||
            text_[pos_] == 'n' || text_[pos_] == 'f' || text_[pos_] == 'a')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::string(text_.substr(start, pos_ - start));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of line");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    skip_ws();
    if (next() != c) fail(std::string("expected '") + c + "'");
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw DecodeError("obs json: " + why);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

const JsonValue& field(const JsonValue& obj, const std::string& key,
                       JsonValue::Type type) {
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    throw DecodeError("obs json: missing field '" + key + "'");
  }
  if (it->second.type != type) {
    throw DecodeError("obs json: field '" + key + "' has the wrong type");
  }
  return it->second;
}

/// A number token read as its field's own type: counts and levels never
/// pass through a double, which would round them above 2^53 and admit -1,
/// 0.5, 1e30, nan and inf.
template <typename T>
T number(const std::string& token) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || stop != end) {
    throw DecodeError("obs json: bad number: " + token);
  }
  return v;
}

MetricPoint point_from_json(const JsonValue& obj) {
  using Type = JsonValue::Type;
  const auto token = [&](const char* key) -> const std::string& {
    return field(obj, key, Type::kNumber).text;
  };
  MetricPoint p;
  const std::string& type = field(obj, "type", Type::kString).text;
  p.name = field(obj, "name", Type::kString).text;
  if (obj.object.count("label") != 0) {
    const JsonValue& label = field(obj, "label", Type::kObject);
    if (label.object.size() != 1 ||
        label.object.begin()->second.type != Type::kString) {
      throw DecodeError("obs json: label must hold exactly one string pair");
    }
    p.label_key = label.object.begin()->first;
    p.label_value = label.object.begin()->second.text;
  }
  if (type == "counter") {
    p.kind = MetricPoint::Kind::kCounter;
    p.counter = number<std::uint64_t>(token("value"));
  } else if (type == "gauge") {
    p.kind = MetricPoint::Kind::kGauge;
    p.gauge = number<std::int64_t>(token("value"));
  } else if (type == "histogram") {
    p.kind = MetricPoint::Kind::kHistogram;
    p.hist.count = number<std::uint64_t>(token("count"));
    p.hist.sum = number<double>(token("sum"));
    p.hist.min = number<double>(token("min"));
    p.hist.max = number<double>(token("max"));
    if (!(p.hist.min <= p.hist.max)) {
      throw DecodeError("obs json: histogram min exceeds max");
    }
    const auto& buckets = field(obj, "buckets", Type::kArray).array;
    if (buckets.size() > Histogram::kBuckets) {
      throw DecodeError("obs json: more than Histogram::kBuckets buckets");
    }
    for (const std::string& b : buckets) {
      p.hist.buckets.push_back(number<std::uint64_t>(b));
    }
  } else {
    throw DecodeError("obs json: unknown point type '" + type + "'");
  }
  return p;
}

}  // namespace

std::string to_json_lines(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricPoint& p : snapshot.points) {
    switch (p.kind) {
      case MetricPoint::Kind::kCounter:
        out += "{\"type\":\"counter\",\"name\":";
        append_json_string(out, p.name);
        append_label_field(out, p);
        out += ",\"value\":" + std::to_string(p.counter) + "}\n";
        break;
      case MetricPoint::Kind::kGauge:
        out += "{\"type\":\"gauge\",\"name\":";
        append_json_string(out, p.name);
        append_label_field(out, p);
        out += ",\"value\":" + std::to_string(p.gauge) + "}\n";
        break;
      case MetricPoint::Kind::kHistogram: {
        out += "{\"type\":\"histogram\",\"name\":";
        append_json_string(out, p.name);
        append_label_field(out, p);
        out += ",\"count\":" + std::to_string(p.hist.count);
        out += ",\"sum\":" + fmt_double(p.hist.sum);
        out += ",\"min\":" + fmt_double(p.hist.min);
        out += ",\"max\":" + fmt_double(p.hist.max);
        // Derived quantiles ride along for consumers that just want
        // numbers; parse ignores them (recomputed from buckets).
        out += ",\"p50\":" + fmt_double(p.hist.p50());
        out += ",\"p90\":" + fmt_double(p.hist.p90());
        out += ",\"p99\":" + fmt_double(p.hist.p99());
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < p.hist.buckets.size(); ++i) {
          if (i) out += ',';
          out += std::to_string(p.hist.buckets[i]);
        }
        out += "]}\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json_lines(const std::vector<SpanEvent>& spans) {
  std::string out;
  for (const SpanEvent& s : spans) {
    out += "{\"type\":\"span\",\"block\":" + std::to_string(s.block);
    out += ",\"stage\":";
    append_json_string(out, stage_name(s.stage));
    out += ",\"worker\":" + std::to_string(s.worker);
    out += ",\"start_us\":" + fmt_double(s.start_us);
    out += ",\"end_us\":" + fmt_double(s.end_us) + "}\n";
  }
  return out;
}

MetricsSnapshot parse_json_lines(std::string_view text) {
  MetricsSnapshot snapshot;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    JsonLineParser parser(line);
    const JsonValue obj = parser.parse_object();
    const auto type_it = obj.object.find("type");
    if (type_it != obj.object.end() && type_it->second.text != "counter" &&
        type_it->second.text != "gauge" &&
        type_it->second.text != "histogram") {
      // Non-metric lines (spans, bench headers) may be interleaved in the
      // same file; metrics parsing skips them. Structural damage on any
      // line still throws above.
      continue;
    }
    snapshot.points.push_back(point_from_json(obj));
  }
  return snapshot;
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_typed;  // emit one # TYPE line per metric family
  const auto type_line = [&](const std::string& name, const char* kind) {
    if (name == last_typed) return;
    out += "# TYPE " + name + " " + kind + "\n";
    last_typed = name;
  };
  const auto label = [](const MetricPoint& p,
                        const std::string& extra = {}) -> std::string {
    std::string inner;
    if (!p.label_key.empty()) {
      inner += prometheus_name(p.label_key) + "=\"" + p.label_value + "\"";
    }
    if (!extra.empty()) {
      if (!inner.empty()) inner += ',';
      inner += extra;
    }
    return inner.empty() ? "" : "{" + inner + "}";
  };

  for (const MetricPoint& p : snapshot.points) {
    const std::string name = prometheus_name(p.name);
    switch (p.kind) {
      case MetricPoint::Kind::kCounter:
        type_line(name, "counter");
        out += name + label(p) + " " + std::to_string(p.counter) + "\n";
        break;
      case MetricPoint::Kind::kGauge:
        type_line(name, "gauge");
        out += name + label(p) + " " + std::to_string(p.gauge) + "\n";
        break;
      case MetricPoint::Kind::kHistogram: {
        type_line(name, "histogram");
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < p.hist.buckets.size(); ++i) {
          if (p.hist.buckets[i] == 0) continue;  // elide empty buckets
          cumulative += p.hist.buckets[i];
          const double upper = i + 1 < p.hist.buckets.size()
                                   ? Histogram::bucket_lower(i + 1)
                                   : std::numeric_limits<double>::infinity();
          const std::string le =
              std::isinf(upper) ? "+Inf" : fmt_double(upper);
          out += name + "_bucket" + label(p, "le=\"" + le + "\"") + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket" + label(p, "le=\"+Inf\"") + " " +
               std::to_string(p.hist.count) + "\n";
        out += name + "_sum" + label(p) + " " + fmt_double(p.hist.sum) + "\n";
        out += name + "_count" + label(p) + " " +
               std::to_string(p.hist.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[256];
  bool any_hist = false;
  for (const MetricPoint& p : snapshot.points) {
    if (p.kind == MetricPoint::Kind::kHistogram) {
      any_hist = true;
      continue;
    }
    const char* kind =
        p.kind == MetricPoint::Kind::kCounter ? "counter" : "gauge  ";
    const long long v = p.kind == MetricPoint::Kind::kCounter
                            ? static_cast<long long>(p.counter)
                            : static_cast<long long>(p.gauge);
    std::snprintf(buf, sizeof buf, "%s  %-52s %12lld\n", kind,
                  p.full_name().c_str(), v);
    out += buf;
  }
  if (any_hist) {
    std::snprintf(buf, sizeof buf, "%-61s %8s %10s %10s %10s %10s %10s\n",
                  "histogram", "count", "mean", "p50", "p90", "p99", "max");
    out += buf;
    for (const MetricPoint& p : snapshot.points) {
      if (p.kind != MetricPoint::Kind::kHistogram) continue;
      std::snprintf(buf, sizeof buf,
                    "%-61s %8" PRIu64 " %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                    p.full_name().c_str(), p.hist.count, p.hist.mean(),
                    p.hist.p50(), p.hist.p90(), p.hist.p99(), p.hist.max);
      out += buf;
    }
  }
  return out;
}

}  // namespace acex::obs
