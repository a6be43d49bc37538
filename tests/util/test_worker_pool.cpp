// WorkerPool: dispatch correctness and per-worker accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/worker_pool.hpp"

namespace atlantis::util {
namespace {

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (const int n : {0, 1, 3, 4, 7, 64, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n > 0 ? n : 1));
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&](int i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    int total = 0;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "n=" << n << " index " << i;
      total += hits[static_cast<std::size_t>(i)].load();
    }
    EXPECT_EQ(total, n > 0 ? n : 0);
  }
}

TEST(WorkerPool, WorkerStatsAccountForEveryTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.worker_stats().size(), 4u);
  pool.reset_worker_stats();

  const int n = 1024;
  std::atomic<int> ran{0};
  pool.parallel_for(n, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), n);

  std::uint64_t tasks = 0;
  for (const WorkerPool::WorkerStats& s : pool.worker_stats()) {
    tasks += s.tasks;
  }
  // Per-index dispatch: every index is one task, wherever it landed.
  EXPECT_EQ(tasks, static_cast<std::uint64_t>(n));
}

TEST(WorkerPool, SerialFallbackChargesTheCaller) {
  WorkerPool pool(1);  // helpers_.empty(): serial path
  pool.reset_worker_stats();
  pool.parallel_for(10, [](int) {});
  const auto stats = pool.worker_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tasks, 10u);
}

}  // namespace
}  // namespace atlantis::util
