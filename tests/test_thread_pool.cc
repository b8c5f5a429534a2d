/** @file Unit tests for the fixed worker pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hh"

using twig::common::ThreadPool;

TEST(ThreadPool, ParallelForCoversExactlyTheRange)
{
    ThreadPool pool(3);
    constexpr std::size_t kBegin = 7, kEnd = 1000;
    std::vector<std::atomic<int>> hits(kEnd);
    pool.parallelFor(kBegin, kEnd,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kEnd; ++i)
        EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(5, 5, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(9, 10, [&](std::size_t i) {
        EXPECT_EQ(i, 9u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesBodyException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(0, 64,
                                  [](std::size_t i) {
                                      if (i == 13)
                                          throw std::logic_error("boom");
                                  }),
                 std::logic_error);
    // The error is the caller's: the pool remains usable afterwards.
    std::atomic<int> count{0};
    pool.parallelFor(0, 64, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ReusableAcrossManyParallelFors)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<long> sum{0};
        pool.parallelFor(0, 100, [&](std::size_t i) {
            sum.fetch_add(static_cast<long>(i));
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<long> sum{0};
    pool.parallelFor(0, 50, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 50 * 49 / 2);
}
