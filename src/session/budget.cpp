#include "session/budget.hpp"

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace acex::session {
namespace {

struct BudgetMetrics {
  obs::Gauge& used_bytes;
  obs::Gauge& limit_bytes;
  obs::Gauge& stage;
  obs::Counter& stage_changes;
};

BudgetMetrics& budget_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static BudgetMetrics m{r.gauge("acex.budget.used_bytes"),
                         r.gauge("acex.budget.limit_bytes"),
                         r.gauge("acex.budget.stage"),
                         r.counter("acex.budget.stage_changes")};
  return m;
}

}  // namespace

std::string_view stage_name(DegradationStage stage) noexcept {
  switch (stage) {
    case DegradationStage::kNormal: return "normal";
    case DegradationStage::kCheaperCodec: return "cheaper-codec";
    case DegradationStage::kNullCodec: return "null-codec";
    case DegradationStage::kDropOldest: return "drop-oldest";
    case DegradationStage::kShedParked: return "shed-parked";
    case DegradationStage::kRefuseNew: return "refuse-new";
  }
  return "?";
}

void BudgetConfig::validate() const {
  if (limit_bytes == 0) throw ConfigError("budget: limit_bytes must be > 0");
  const double t[] = {enter_cheaper, enter_null, enter_drop, enter_shed,
                      enter_refuse};
  double prev = 0;
  for (const double v : t) {
    if (v <= prev || v > 1.0) {
      throw ConfigError(
          "budget: thresholds must be strictly increasing within (0, 1]");
    }
    prev = v;
  }
  if (hysteresis <= 0 || hysteresis >= enter_cheaper) {
    throw ConfigError("budget: hysteresis must be in (0, enter_cheaper)");
  }
}

MemoryBudget::MemoryBudget(BudgetConfig config) : config_(config) {
  config_.validate();
  budget_metrics().limit_bytes.set(
      static_cast<std::int64_t>(config_.limit_bytes));
}

double MemoryBudget::enter_fraction(DegradationStage stage) const noexcept {
  switch (stage) {
    case DegradationStage::kNormal: return 0;
    case DegradationStage::kCheaperCodec: return config_.enter_cheaper;
    case DegradationStage::kNullCodec: return config_.enter_null;
    case DegradationStage::kDropOldest: return config_.enter_drop;
    case DegradationStage::kShedParked: return config_.enter_shed;
    case DegradationStage::kRefuseNew: return config_.enter_refuse;
  }
  return 0;
}

DegradationStage MemoryBudget::target_for(double fraction) const noexcept {
  DegradationStage target = DegradationStage::kNormal;
  for (const DegradationStage s :
       {DegradationStage::kCheaperCodec, DegradationStage::kNullCodec,
        DegradationStage::kDropOldest, DegradationStage::kShedParked,
        DegradationStage::kRefuseNew}) {
    if (fraction >= enter_fraction(s)) target = s;
  }
  return target;
}

DegradationStage MemoryBudget::refresh_with(std::size_t used_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  used_bytes_ = used_bytes;
  const double fraction = static_cast<double>(used_bytes) /
                          static_cast<double>(config_.limit_bytes);
  const DegradationStage target = target_for(fraction);
  DegradationStage next = stage_;
  if (target > stage_) {
    // Escalate immediately: overload protection that waits is not
    // protection.
    next = target;
  } else if (target < stage_ &&
             fraction <= enter_fraction(stage_) - config_.hysteresis) {
    // De-escalate only once clearly below the current stage's entry point,
    // so usage dithering at a boundary cannot flap the ladder.
    next = target;
  }
  if (next != stage_) {
    stage_ = next;
    ++stage_changes_;
    budget_metrics().stage_changes.add(1);
  }
  budget_metrics().used_bytes.set(static_cast<std::int64_t>(used_bytes_));
  budget_metrics().stage.set(static_cast<std::int64_t>(stage_));
  return stage_;
}

DegradationStage MemoryBudget::stage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stage_;
}

std::size_t MemoryBudget::used_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

std::uint64_t MemoryBudget::stage_changes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stage_changes_;
}

}  // namespace acex::session
