#pragma once

// Invariant-soak driver (DESIGN.md §10): runs the full stack — ECho
// channel bridge AND parallel engine, each over its own fault-injecting
// emulated link — for a wall-clock budget or a fixed round count, and
// continuously checks the invariants the subsystem promises:
//
//   * delivery ordering / at-most-once: no event or block is delivered
//     twice, and every delivered payload matches what was published;
//   * gap-window bounds: the missing-sequence sets on both halves never
//     exceed transport::SequenceTracker's window;
//   * observability honesty: the obs counter deltas for the fault
//     injectors equal the injectors' own ground-truth counters;
//   * retransmit-ring convergence: once the links heal, finitely many
//     NACK rounds reach a fixed point where every sequence is either
//     recovered or explicitly abandoned — nothing stays in limbo
//     (recovered + abandoned + gaps == published on every half).
//
// Faults and the pub/sub and broker halves (on Fig. 4's model meter) are
// pure functions of SoakConfig::seed, so a violation reproduces with the
// same config; only the engine half's framing follows the wall clock.

#include <cstdint>
#include <string>
#include <vector>

namespace acex::qa {

struct SoakConfig {
  /// Wall-clock budget in seconds; 0 runs exactly `rounds` rounds instead
  /// (the deterministic mode ctest uses).
  double seconds = 0;
  std::size_t rounds = 20;

  std::uint64_t seed = 1;
  std::size_t workers = 4;           ///< parallel-engine worker threads
  std::size_t events_per_round = 12; ///< pub/sub events published per round
  std::size_t blocks_per_round = 6;  ///< engine blocks streamed per round
  std::size_t block_size = 2048;

  double drop_prob = 0.04;
  double reorder_prob = 0.05;
  double duplicate_prob = 0.03;
  double bit_flip_prob = 0.03;
  double truncate_prob = 0.02;

  int nack_retry_cap = 4;

  /// Broker half: fan one block stream out to this many subscribers, each
  /// over its own faulted link with independent NACK recovery. 0 disables
  /// the scenario entirely — the default budgets are unchanged.
  std::size_t broker_subscribers = 0;
  /// With the broker scenario on: every N rounds the oldest subscriber is
  /// unsubscribed (its accounting settled) and a fresh one joins, so the
  /// soak exercises mid-stream churn. 0 keeps the subscriber set fixed.
  std::size_t broker_churn_every = 3;
};

struct SoakReport {
  std::size_t rounds = 0;

  std::uint64_t events_published = 0;
  std::uint64_t events_delivered = 0;   ///< unique events at the consumer
  std::uint64_t events_unrecovered = 0; ///< abandoned after the retry cap
  std::uint64_t event_retransmits = 0;

  std::uint64_t blocks_sent = 0;
  std::uint64_t blocks_recovered = 0;   ///< unique blocks, CRC-verified
  std::uint64_t blocks_abandoned = 0;
  std::uint64_t block_retransmits = 0;

  std::uint64_t broker_blocks = 0;       ///< blocks published to the broker
  std::uint64_t broker_recovered = 0;    ///< unique frames, CRC-verified
  std::uint64_t broker_abandoned = 0;    ///< given up (churn or retry cap)
  std::uint64_t broker_retransmits = 0;
  std::uint64_t broker_encodes = 0;      ///< actual codec runs (cache misses)
  std::uint64_t broker_cache_hits = 0;   ///< frames served by shared encodes

  std::uint64_t faults_injected = 0;    ///< non-clean messages, both links

  /// Human-readable invariant violations; empty means the soak passed.
  std::vector<std::string> violations;

  bool ok() const noexcept { return violations.empty(); }
};

/// Run the soak. Never throws for invariant violations (they are collected
/// in the report); throws only on configuration errors.
SoakReport run_soak(const SoakConfig& config);

}  // namespace acex::qa
