#include "transport/sequence_tracker.hpp"

#include "util/error.hpp"

namespace acex::transport {

SequenceTracker::SequenceTracker(int nack_retry_cap)
    : nack_retry_cap_(nack_retry_cap) {
  if (nack_retry_cap <= 0) {
    throw ConfigError("sequence tracker: nack_retry_cap must be positive");
  }
}

void SequenceTracker::mark(std::uint64_t seq) {
  if (seq == next_) {
    ++next_;
    // Fold in any out-of-order deliveries the gap was holding back.
    auto it = ahead_.begin();
    while (it != ahead_.end() && *it == next_) {
      ++next_;
      it = ahead_.erase(it);
    }
  } else if (seq > next_) {
    ahead_.insert(seq);
  }
}

void SequenceTracker::settle(std::uint64_t seq) {
  ++abandoned_;
  mark(seq);
}

void SequenceTracker::deliver(std::uint64_t seq) {
  saw(seq);
  if (seq >= delivered_end_) delivered_end_ = seq + 1;
  mark(seq);
  // The cursor is the lowest gap whenever it trails the newest delivery.
  while (delivered_end_ - next_ > kWindow / 2) settle(next_);
}

std::vector<std::uint64_t> SequenceTracker::gaps() const {
  std::vector<std::uint64_t> out;
  // plausible() keeps seen_end_ within a window of the cursor; bounding the
  // scan as well keeps it finite whatever a caller fed saw().
  for (std::uint64_t seq = next_; seq < seen_end_ && seq - next_ < kWindow;
       ++seq) {
    if (ahead_.count(seq) == 0) out.push_back(seq);
  }
  return out;
}

std::vector<std::uint64_t> SequenceTracker::take_nacks() {
  // Attempt records below the cursor are settled (the sequence arrived
  // after all, or was given up); dropping them bounds the map by the window.
  nack_attempts_.erase(nack_attempts_.begin(),
                       nack_attempts_.lower_bound(next_));
  std::vector<std::uint64_t> request;
  for (const std::uint64_t seq : gaps()) {
    int& attempts = nack_attempts_[seq];
    if (attempts < nack_retry_cap_) {
      ++attempts;
      request.push_back(seq);
    } else if (seq < delivered_end_) {
      settle(seq);  // lost for good
    }
  }
  return request;
}

}  // namespace acex::transport
