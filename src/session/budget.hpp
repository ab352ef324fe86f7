#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>

namespace acex::session {

/// The overload ladder, in escalation order. Each stage keeps everything
/// the previous stages did and adds one more concession; the whole point
/// is that running out of memory degrades service quality smoothly
/// instead of failing some arbitrary allocation (DESIGN.md §12).
enum class DegradationStage {
  kNormal = 0,       ///< full plan quality
  kCheaperCodec,     ///< governor demotes each choice one ladder rung
  kNullCodec,        ///< governor forces the null codec (CPU + buffers)
  kDropOldest,       ///< every egress sheds instead of blocking
  kShedParked,       ///< parked sessions are expired early
  kRefuseNew,        ///< new subscribes are turned away
};

std::string_view stage_name(DegradationStage stage) noexcept;

struct BudgetConfig {
  /// Process-wide envelope the measured usage is held against.
  std::size_t limit_bytes = 64 * 1024 * 1024;

  /// Stage entry thresholds as fractions of limit_bytes, strictly
  /// increasing. usage >= enter_x * limit escalates to stage x.
  double enter_cheaper = 0.60;
  double enter_null = 0.75;
  double enter_drop = 0.85;
  double enter_shed = 0.92;
  double enter_refuse = 0.97;

  /// De-escalation margin: a stage is left only once usage falls below its
  /// entry threshold by at least this fraction. Without it, usage
  /// oscillating around one threshold would flap the ladder every block.
  double hysteresis = 0.08;

  void validate() const;
};

/// Process-wide memory accounting with hysteresis-guarded degradation.
/// The caller measures usage (SessionManager hands it the broker's egress
/// queues and retransmit rings, live and parked) and refresh_with() walks
/// the ladder: escalation is immediate (overload must not wait), recovery
/// is damped by the hysteresis margin. Thread-safe.
class MemoryBudget {
 public:
  explicit MemoryBudget(BudgetConfig config = {});

  /// Walk the ladder against `used_bytes`; returns the (possibly new)
  /// stage.
  DegradationStage refresh_with(std::size_t used_bytes);

  DegradationStage stage() const;
  std::size_t used_bytes() const;
  std::uint64_t stage_changes() const;
  const BudgetConfig& config() const noexcept { return config_; }

 private:
  double enter_fraction(DegradationStage stage) const noexcept;
  DegradationStage target_for(double fraction) const noexcept;

  BudgetConfig config_;
  mutable std::mutex mutex_;
  DegradationStage stage_ = DegradationStage::kNormal;
  std::size_t used_bytes_ = 0;
  std::uint64_t stage_changes_ = 0;
};

}  // namespace acex::session
