#include "engine/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace acex::engine {
namespace {

/// Handle-cached instruments (DESIGN.md §9): the registry lookup happens
/// once per process, every increment after that is a relaxed atomic.
/// Process-wide by design — concurrent pools share these series.
struct PoolMetrics {
  obs::Gauge& workers;          ///< live worker threads across all pools
  obs::Gauge& queue_depth;      ///< tasks waiting in pool queues right now
  obs::Counter& tasks;          ///< tasks completed
  obs::Counter& busy_us;        ///< cumulative worker time inside tasks
  obs::Histogram& submit_wait_us;  ///< producer time blocked on a full queue
};

PoolMetrics& pool_metrics() {
  auto& r = obs::MetricsRegistry::global();
  static PoolMetrics m{
      r.gauge("acex.engine.workers"), r.gauge("acex.engine.queue_depth"),
      r.counter("acex.engine.tasks"), r.counter("acex.engine.worker_busy_us"),
      r.histogram("acex.engine.submit_wait_us")};
  return m;
}

double steady_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t resolve_worker_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_worker_threads(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  pool_metrics().workers.add(static_cast<std::int64_t>(count));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  pool_metrics().workers.sub(static_cast<std::int64_t>(workers_.size()));
}

void ThreadPool::worker_loop(std::size_t index) {
  obs::set_current_worker(static_cast<std::int32_t>(index));
  PoolMetrics& metrics = pool_metrics();
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.sub(1);
    }
    not_full_.notify_one();
    const double start = steady_us();
    task();  // a throw lands in the task's future, not on this thread
    metrics.busy_us.add(static_cast<std::uint64_t>(steady_us() - start));
    metrics.tasks.add(1);
  }
}

void ThreadPool::enqueue(std::packaged_task<void()> task) {
  const double start = steady_us();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] {
      return stopping_ || queue_.size() < 2 * workers_.size();
    });
    if (stopping_) {
      throw ConfigError("thread pool: submit after shutdown began");
    }
    queue_.push_back(std::move(task));
  }
  PoolMetrics& metrics = pool_metrics();
  metrics.queue_depth.add(1);
  metrics.submit_wait_us.record(steady_us() - start);
  not_empty_.notify_one();
}

}  // namespace acex::engine
