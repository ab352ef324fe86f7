#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace acex::transport {

/// Receive-side twin of RetransmitRing: which sequence numbers of a
/// NACK-recoverable stream have been delivered, which are missing, how
/// often each missing one has been requested, and when one is given up.
/// Shared by adaptive::AdaptiveReceiver (frames) and echo::ChannelReceiver
/// (events), so both recovery boundaries answer these questions the same
/// way.
///
/// Everything below the cursor (next_expected()) is delivered or settled;
/// out-of-order deliveries above it wait in an ahead-set until the cursor
/// folds over them. A gap is a sequence in [cursor, newest seen] that is
/// in neither.
///
/// Window: a wire sequence kWindow or more ahead of the cursor is
/// implausible. The 1-byte frame header checksum passes ~1/256 of random
/// corruptions, and one forged sequence near UINT64_MAX would otherwise
/// make the gap scan unbounded; real traffic never runs that far ahead of
/// delivery, because senders' retransmit rings are far smaller.
///
/// Give-up rule, the same under every recovery policy: a gap below the
/// newest *delivered* sequence is abandoned and settled (the cursor skips
/// it; a late copy is a duplicate) once either
///   * take_nacks() finds its attempts already at the retry cap, so the
///     last request had a full round to be answered, or
///   * it falls half a window behind that delivery, so a dead gap can
///     never pin the cursor until live traffic hits the window edge.
/// A sequence seen only in a header whose frame then failed to decode
/// (saw()) may be NACKed, but a header is no evidence to give anything
/// up: it never settles while nothing above it is delivered, and a later
/// genuine copy still delivers.
class SequenceTracker {
 public:
  static constexpr std::uint64_t kWindow = 1024;

  /// `nack_retry_cap`: how many times take_nacks() requests one gap.
  explicit SequenceTracker(int nack_retry_cap = 3);

  /// False when `seq` lies a window or more ahead of the cursor: reject
  /// the message as corrupt before it touches any other state.
  bool plausible(std::uint64_t seq) const noexcept {
    return seq < next_ || seq - next_ < kWindow;
  }

  /// A plausible sequence read from a header whose payload is not yet
  /// verified: it widens the gap scan (within the window), nothing else.
  void saw(std::uint64_t seq) noexcept {
    if (seq >= seen_end_) seen_end_ = seq + 1;
  }

  /// True when a copy of `seq` arriving now is a duplicate: it was
  /// delivered or settled. No lookup for the in-order case.
  bool duplicate(std::uint64_t seq) const noexcept {
    return seq < next_ || (seq > next_ && ahead_.count(seq) > 0);
  }

  /// A plausible, decoded and integrity-checked delivery of `seq`. Settles
  /// every gap half a window or more behind it.
  void deliver(std::uint64_t seq);

  /// Sequences believed missing, lowest first; at most kWindow of them.
  std::vector<std::uint64_t> gaps() const;

  /// Gaps to request again, each counted as one attempt; gaps already at
  /// the retry cap are skipped, and settled when below the newest
  /// delivery.
  std::vector<std::uint64_t> take_nacks();

  /// The lowest sequence neither delivered nor settled: what a session
  /// resume replays from.
  std::uint64_t next_expected() const noexcept { return next_; }
  /// Gaps given up on and settled — lost for good.
  std::uint64_t abandoned() const noexcept { return abandoned_; }

 private:
  void settle(std::uint64_t seq);
  void mark(std::uint64_t seq);

  int nack_retry_cap_;
  std::uint64_t next_ = 0;
  std::set<std::uint64_t> ahead_;
  std::uint64_t seen_end_ = 0;       ///< one past the newest sequence seen
  std::uint64_t delivered_end_ = 0;  ///< one past the newest delivered
  std::map<std::uint64_t, int> nack_attempts_;
  std::uint64_t abandoned_ = 0;
};

}  // namespace acex::transport
