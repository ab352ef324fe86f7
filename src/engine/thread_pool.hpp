#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace acex::engine {

/// Fixed-size worker pool over a bounded FIFO task queue — the execution
/// substrate of the parallel compression engine (DESIGN.md §8).
///
/// The queue holds at most twice the worker count; submit() blocks the
/// producer once it is full, so a fast producer cannot buffer an unbounded
/// backlog. Workers dequeue in submission order. Each task is a
/// std::packaged_task: whatever it returns or throws reaches the caller
/// through the future submit() hands back, never the worker thread.
class ThreadPool {
 public:
  /// `threads` == 0 asks for one worker per hardware thread (at least 1).
  explicit ThreadPool(std::size_t threads);

  /// Joins after finishing every task already accepted; tasks submitted
  /// before destruction are never dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `job`; blocks while the queue is full. The future carries the
  /// job's result, or the exception it threw.
  template <typename Job>
  std::future<std::invoke_result_t<Job&>> submit(Job job) {
    std::packaged_task<std::invoke_result_t<Job&>()> task(std::move(job));
    auto result = task.get_future();
    enqueue(std::packaged_task<void()>(std::move(task)));
    return result;
  }

  std::size_t size() const noexcept { return workers_.size(); }

 private:
  void enqueue(std::packaged_task<void()> task);
  void worker_loop(std::size_t index);

  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Resolve a user-facing worker-thread knob: 0 means "one per hardware
/// thread" (at least 1), anything else is taken literally.
std::size_t resolve_worker_threads(std::size_t requested) noexcept;

/// The engine's one in-order loop: for i in [0, count), call
/// `make_job(i)` on the calling thread (where serial work such as §2.5
/// planning happens), run the job it returns, and hand the job's result to
/// `consume` on the calling thread, strictly in index order.
///
/// With a null `pool` every job runs inline: make_job(i), the job, then
/// consume. Otherwise jobs run on `pool` with at most 2 × pool size in
/// flight: after planning job i, the caller consumes heads while the window
/// is full, submits job i, then consumes every head that has already
/// finished. A throw from make_job, a job or consume reaches the caller
/// only after every job already submitted has finished, so jobs may borrow
/// the caller's stack.
template <typename MakeJob, typename Consume>
void run_in_order(ThreadPool* pool, std::size_t count, MakeJob&& make_job,
                  Consume&& consume) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) consume(make_job(i)());
    return;
  }
  using Job = std::invoke_result_t<MakeJob&, std::size_t>;
  std::deque<std::future<std::invoke_result_t<Job&>>> in_flight;
  const auto consume_head = [&] {
    auto head = std::move(in_flight.front());
    in_flight.pop_front();
    consume(head.get());
  };
  const auto head_done = [&] {
    return !in_flight.empty() &&
           in_flight.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  };
  try {
    const std::size_t window = 2 * pool->size();
    for (std::size_t i = 0; i < count; ++i) {
      Job job = make_job(i);
      while (in_flight.size() >= window) consume_head();
      in_flight.push_back(pool->submit(std::move(job)));
      while (head_done()) consume_head();
    }
    while (!in_flight.empty()) consume_head();
  } catch (...) {
    for (auto& pending : in_flight) pending.wait();
    throw;
  }
}

}  // namespace acex::engine
