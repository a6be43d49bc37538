// Small fixed worker pool for independent units of work: per-board TRT
// slices stepped in lockstep (trt/multiboard.hpp) and the JobService's
// pooled functional evaluation of a batch (serve/jobservice.hpp).
//
// parallel_for(n, fn) runs fn(0..n-1) across the workers and the calling
// thread and returns when every index has completed — the return is the
// barrier the lockstep protocol relies on. The pool is deliberately
// simple: one job at a time, indices handed out under a mutex,
// completion signalled through a condition variable, so it is easy to
// reason about under TSan.
//
// Granularity: per-index handout costs one mutex round-trip, so tasks
// should be well above a microsecond. Helpers briefly spin for the next
// job before sleeping on the condition variable, so back-to-back
// parallel_for calls don't pay a futex wake each. Per-worker
// utilization counters (worker_stats) make the granularity visible in
// the benchmarks instead of leaving a silent flat-line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace atlantis::util {

class WorkerPool {
 public:
  /// Work done by one worker since the last reset_worker_stats().
  /// Worker 0 is the calling thread; 1..size()-1 are the helpers.
  struct WorkerStats {
    std::uint64_t tasks = 0;    // indices executed
    std::uint64_t busy_ns = 0;  // wall time spent inside the functor
  };

  /// `threads` is the total worker count including the caller;
  /// 0 picks min(hardware_concurrency, 4) — "a small worker pool".
  explicit WorkerPool(int threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers participating in a parallel_for (helpers + caller).
  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n); returns when all have finished.
  /// The calling thread participates. Must not be called re-entrantly
  /// from inside a task.
  void parallel_for(int n, const std::function<void(int)>& fn);

  /// Per-worker counters since the last reset (snapshot; call while no
  /// parallel_for is in flight for exact totals). Index 0 = caller.
  std::vector<WorkerStats> worker_stats() const;
  void reset_worker_stats();

  /// Process-wide pool shared by multiboard runs and the job service.
  static WorkerPool& shared();

 private:
  void worker_loop(int wid);
  void work(const std::function<void(int)>& fn);

  std::vector<std::thread> helpers_;
  mutable std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;  // guarded by mutex_
  int job_n_ = 0;
  int next_index_ = 0;       // guarded by mutex_
  int remaining_ = 0;        // indices not yet completed
  std::uint64_t job_seq_ = 0;
  bool stop_ = false;
  std::vector<WorkerStats> stats_;  // guarded by mutex_
  // Lock-free signals for the helpers' pre-sleep spin: bumped/set under
  // mutex_ by the publisher, read unlocked by spinning helpers.
  std::atomic<std::uint64_t> job_gen_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace atlantis::util
