#pragma once

// Session-chaos driver (DESIGN.md §12): a SessionManager fans one block
// stream out to N session clients over faulted links, and the harness
// kills each client mid-stream — repeatedly — then reconnects it through
// the resume protocol. Invariants checked:
//
//   * resume fidelity: a session that resumes within its grace window
//     ends the run having delivered EVERY block published since it
//     joined, byte-identical (CRC ground truth), zero duplicated;
//   * expiry honesty: a session that overstays its grace window expires
//     — resume yields a clean restart, never a wedged session — and the
//     `acex.session.*` obs mirror matches the manager's ground truth;
//   * convergence: once the links heal, finitely many NACK rounds reach
//     a fixed point with nothing left in limbo.
//
// Everything is a pure function of ChaosConfig::seed, so a violation
// reproduces by re-running with the same config.

#include <cstdint>
#include <string>
#include <vector>

namespace acex::qa {

struct ChaosConfig {
  /// Target round count. The run extends past it (up to 4x) until every
  /// peer has been killed `min_kills` times and revived, so the headline
  /// guarantee is exercised no matter how the schedule lands.
  std::size_t rounds = 24;

  std::uint64_t seed = 1;
  std::size_t sessions = 16;
  std::size_t blocks_per_round = 4;
  std::size_t block_size = 2048;

  /// Forced kill/reconnect cycles per peer (the acceptance floor).
  std::size_t min_kills = 3;
  /// Probability of an extra, unscheduled kill per alive peer per round.
  double extra_kill_prob = 0.02;
  /// Probability a killed peer overstays its park grace and expires
  /// (exercising the restart-from-scratch path).
  double expire_prob = 0.15;

  double drop_prob = 0.04;
  double reorder_prob = 0.05;
  double duplicate_prob = 0.03;
  double bit_flip_prob = 0.03;
  double truncate_prob = 0.02;

  int nack_retry_cap = 6;
};

struct ChaosReport {
  std::size_t rounds = 0;
  std::uint64_t published = 0;   ///< blocks through the manager
  std::uint64_t kills = 0;       ///< peers killed mid-stream
  std::uint64_t resumes = 0;     ///< within-grace resume successes
  std::uint64_t restarts = 0;    ///< expired/evicted -> fresh session
  std::uint64_t expired = 0;     ///< sessions that overstayed the grace
  std::uint64_t delivered = 0;   ///< unique CRC-verified frames, all peers
  std::uint64_t heartbeats = 0;  ///< heartbeats sent

  /// Human-readable invariant violations; empty means the chaos passed.
  std::vector<std::string> violations;

  bool ok() const noexcept { return violations.empty(); }
};

/// Run the chaos battery. Never throws for invariant violations (they are
/// collected in the report); throws only on configuration errors.
ChaosReport run_chaos(const ChaosConfig& config);

}  // namespace acex::qa
