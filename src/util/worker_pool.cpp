#include "util/worker_pool.hpp"

#include <algorithm>
#include <chrono>

namespace atlantis::util {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Yield iterations a helper burns waiting for the next job before it
// sleeps on the condition variable. Lockstep stepping posts a job every
// few microseconds; staying runnable across that gap avoids a futex
// sleep/wake round-trip per simulated cycle.
constexpr int kIdleSpins = 512;

}  // namespace

WorkerPool::WorkerPool(int threads) {
  if (threads <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = static_cast<int>(std::min(4u, std::max(1u, hc)));
  }
  stats_.resize(static_cast<std::size_t>(threads));
  // The caller is worker 0; spawn the helpers.
  for (int i = 1; i < threads; ++i) {
    helpers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
    stopping_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

std::vector<WorkerPool::WorkerStats> WorkerPool::worker_stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

void WorkerPool::reset_worker_stats() {
  std::lock_guard<std::mutex> lk(mutex_);
  std::fill(stats_.begin(), stats_.end(), WorkerStats{});
}

void WorkerPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (helpers_.empty() || n == 1) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < n; ++i) fn(i);
    const std::uint64_t dt = now_ns() - t0;
    std::lock_guard<std::mutex> lk(mutex_);
    stats_[0].tasks += static_cast<std::uint64_t>(n);
    stats_[0].busy_ns += dt;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    job_ = &fn;
    job_n_ = n;
    next_index_ = 0;
    remaining_ = n;
    ++job_seq_;
    job_gen_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();
  work(fn);
  std::unique_lock<std::mutex> lk(mutex_);
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_ = nullptr;  // fn's frame is about to die; helpers are idle again
}

void WorkerPool::work(const std::function<void(int)>& fn) {
  for (;;) {
    int i;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (next_index_ >= job_n_) return;
      i = next_index_++;
    }
    const std::uint64_t t0 = now_ns();
    fn(i);
    const std::uint64_t dt = now_ns() - t0;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stats_[0].tasks += 1;
      stats_[0].busy_ns += dt;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::worker_loop(int wid) {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    if (!stop_ && (job_ == nullptr || next_index_ >= job_n_)) {
      // Nothing to do right now: spin briefly on the (lock-free) job
      // generation before committing to a condition-variable sleep.
      const std::uint64_t seen = job_gen_.load(std::memory_order_acquire);
      lk.unlock();
      for (int spin = 0; spin < kIdleSpins; ++spin) {
        if (stopping_.load(std::memory_order_acquire) ||
            job_gen_.load(std::memory_order_acquire) != seen) {
          break;
        }
        std::this_thread::yield();
      }
      lk.lock();
    }
    start_cv_.wait(
        lk, [&] { return stop_ || (job_ != nullptr && next_index_ < job_n_); });
    if (stop_) return;
    const std::function<void(int)>* fn = job_;
    while (job_ != nullptr && next_index_ < job_n_) {
      const int i = next_index_++;
      lk.unlock();
      const std::uint64_t t0 = now_ns();
      (*fn)(i);
      const std::uint64_t dt = now_ns() - t0;
      lk.lock();
      stats_[static_cast<std::size_t>(wid)].tasks += 1;
      stats_[static_cast<std::size_t>(wid)].busy_ns += dt;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

}  // namespace atlantis::util
