#include "broker/egress_queue.hpp"

namespace acex::broker {

EgressQueue::EgressQueue(std::size_t capacity, SlowConsumerPolicy policy,
                         const Clock& clock)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy),
      clock_(&clock) {}

void EgressQueue::drop_front_locked() {
  bytes_ -= frames_.front().size();
  frames_.pop_front();
  ++drops_;
}

void EgressQueue::send(ByteView message) {
  // The caller's span may die at return: take an owned copy.
  send_buffer(BufferView::copy(message));
}

void EgressQueue::send_buffer(const BufferView& message) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw IoError("egress queue closed");

  if (frames_.size() >= capacity_) {
    const SlowConsumerPolicy effective =
        shed_mode_ ? SlowConsumerPolicy::kDropOldest : policy_;
    switch (effective) {
      case SlowConsumerPolicy::kBlock:
        not_full_.wait(lock, [this] {
          return closed_ || shed_mode_ || frames_.size() < capacity_;
        });
        if (closed_) throw IoError("egress queue closed");
        while (shed_mode_ && frames_.size() >= capacity_) drop_front_locked();
        break;
      case SlowConsumerPolicy::kDropOldest:
        // The receiver sees the evicted sequence as a gap and asks for it
        // back through its NACK path — loss here is recoverable loss.
        while (frames_.size() >= capacity_) drop_front_locked();
        break;
    }
  }

  // Retain the view — sharing the backing buffer with every other holder
  // (sibling queues, retransmit rings, the shm slab ring).
  frames_.push_back(message);
  bytes_ += message.size();
  ++accepted_;
}

std::optional<Bytes> EgressQueue::receive() { return try_pop(); }

std::optional<BufferView> EgressQueue::receive_buffer() {
  return try_pop_buffer();
}

std::optional<Bytes> EgressQueue::try_pop() {
  std::optional<BufferView> frame = try_pop_buffer();
  if (!frame) return std::nullopt;
  return frame->to_bytes();
}

std::optional<BufferView> EgressQueue::try_pop_buffer() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (frames_.empty()) return std::nullopt;
  BufferView frame = std::move(frames_.front());
  frames_.pop_front();
  bytes_ -= frame.size();
  not_full_.notify_one();
  return frame;
}

void EgressQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  frames_.clear();
  bytes_ = 0;
  not_full_.notify_all();
}

std::size_t EgressQueue::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t cleared = frames_.size();
  frames_.clear();
  bytes_ = 0;
  not_full_.notify_all();
  return cleared;
}

void EgressQueue::set_shed_mode(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  shed_mode_ = on;
  if (on) not_full_.notify_all();
}

bool EgressQueue::shed_mode() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_mode_;
}

bool EgressQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t EgressQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_.size();
}

std::size_t EgressQueue::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t EgressQueue::bytes_unique(std::set<const void*>& seen) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const BufferView& frame : frames_) {
    const void* key = frame.owner_key();
    if (key != nullptr && !seen.insert(key).second) continue;
    total += frame.size();
  }
  return total;
}

std::uint64_t EgressQueue::drops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return drops_;
}

std::uint64_t EgressQueue::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

}  // namespace acex::broker
