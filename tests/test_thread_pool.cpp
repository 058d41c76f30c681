#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace mdmesh {
namespace {

TEST(ThreadPoolTest, SerialModeRunsEverything) {
  ThreadPool pool(0);
  std::vector<int> hit(100, 0);
  pool.ParallelFor(100, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hit[static_cast<std::size_t>(i)]++;
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hit(1000);
  pool.ParallelFor(1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hit[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hit) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::int64_t> sum{0};
  pool.ParallelFor(3, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ThreadPoolTest, RepeatedInvocations) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.ParallelFor(257, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) sum += i;
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(ThreadPoolTest, ResultIndependentOfWorkerCount) {
  // The engine relies on this: identical partitioned computation regardless
  // of parallelism. Sum of squares into per-index slots, then reduce.
  auto run = [](unsigned workers) {
    ThreadPool pool(workers);
    std::vector<std::int64_t> out(512);
    pool.ParallelFor(512, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) out[static_cast<std::size_t>(i)] = i * i;
    });
    return std::accumulate(out.begin(), out.end(), std::int64_t{0});
  };
  EXPECT_EQ(run(0), run(1));
  EXPECT_EQ(run(0), run(4));
  EXPECT_EQ(run(0), run(7));
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int> n{0};
  ThreadPool::Global().ParallelFor(10, [&](std::int64_t b, std::int64_t e) {
    n += static_cast<int>(e - b);
  });
  EXPECT_EQ(n.load(), 10);
}

}  // namespace
}  // namespace mdmesh
