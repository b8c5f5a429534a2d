/** @file Unit tests for running statistics and percentile estimation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "stats/summary.hh"
#include "stats/windowed_quantile.hh"

using namespace twig::stats;

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Percentile, EmptyReturnsZero)
{
    EXPECT_EQ(percentileOf({}, 99.0), 0.0);
}

TEST(Percentile, MedianOfOddCount)
{
    EXPECT_DOUBLE_EQ(percentileOf({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    // p25 of {1,2,3,4}: rank = 0.75 -> 1 + 0.75*(2-1) = 1.75
    EXPECT_DOUBLE_EQ(percentileOf({1.0, 2.0, 3.0, 4.0}, 25.0), 1.75);
}

TEST(Percentile, ExtremesClampToMinMax)
{
    const std::vector<double> v = {5.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(percentileOf(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 100.0), 9.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, -5.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileOf(v, 120.0), 9.0);
}

TEST(Percentile, P99OfUniformGrid)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(static_cast<double>(i));
    EXPECT_NEAR(percentileOf(v, 99.0), 990.0, 1.0);
}

class PercentileSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PercentileSweep, MonotoneInP)
{
    // Property: percentile is a non-decreasing function of p.
    twig::common::Rng rng(77);
    std::vector<double> v;
    for (int i = 0; i < 500; ++i)
        v.push_back(rng.normal(0.0, 1.0));
    const double p = GetParam();
    EXPECT_LE(percentileOf(v, p), percentileOf(v, p + 5.0));
}

INSTANTIATE_TEST_SUITE_P(Grid, PercentileSweep,
                         ::testing::Values(0.0, 10.0, 25.0, 50.0, 75.0,
                                           90.0, 95.0));

TEST(PercentileSelect, EmptyReturnsZero)
{
    std::vector<double> v;
    EXPECT_EQ(percentileSelect(v.data(), v.size(), 50.0), 0.0);
    EXPECT_EQ(percentileSelect(nullptr, 0, 99.0), 0.0);
}

TEST(PercentileSelect, SingleValueAtAnyP)
{
    for (double p : {-10.0, 0.0, 50.0, 99.0, 100.0, 250.0}) {
        std::vector<double> v = {7.5};
        EXPECT_DOUBLE_EQ(percentileSelect(v.data(), v.size(), p), 7.5);
    }
}

TEST(PercentileSelect, ClampFoldsExtremesIntoSelection)
{
    // p <= 0 must be the minimum and p >= 100 the maximum without a
    // separate scan — the clamp inside the selection helper handles it.
    std::vector<double> v = {5.0, 1.0, 9.0, -2.0};
    EXPECT_DOUBLE_EQ(percentileSelect(v.data(), v.size(), -5.0), -2.0);
    EXPECT_DOUBLE_EQ(percentileSelect(v.data(), v.size(), 0.0), -2.0);
    EXPECT_DOUBLE_EQ(percentileSelect(v.data(), v.size(), 100.0), 9.0);
    EXPECT_DOUBLE_EQ(percentileSelect(v.data(), v.size(), 120.0), 9.0);
}

TEST(PercentileSelect, MatchesSortBasedPercentileExactly)
{
    // Selection over the same multiset must return bit-identical
    // results to sort-then-interpolate: the simulator's QoS numbers
    // rely on this equivalence.
    twig::common::Rng rng(123);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> v;
        const int n = 1 + static_cast<int>(rng.uniformInt(400));
        for (int i = 0; i < n; ++i)
            v.push_back(rng.lognormalMean(2.0, 0.8));

        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        for (double p : {0.0, 12.5, 50.0, 90.0, 99.0, 100.0}) {
            const double rank =
                std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(sorted.size() - 1);
            const std::size_t lo = static_cast<std::size_t>(rank);
            const std::size_t hi =
                std::min(lo + 1, sorted.size() - 1);
            const double frac = rank - static_cast<double>(lo);
            const double expect =
                sorted[lo] + frac * (sorted[hi] - sorted[lo]);

            std::vector<double> scratch = v;
            EXPECT_EQ(percentileSelect(scratch.data(), scratch.size(), p),
                      expect)
                << "trial " << trial << " p " << p;
            EXPECT_EQ(percentileOf(v, p), expect);
        }
    }
}

TEST(PercentileSelect, ConstRefOverloadLeavesInputUntouched)
{
    const std::vector<double> v = {3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(percentileOf(v, 50.0), 2.0);
    EXPECT_EQ(v[0], 3.0);
    EXPECT_EQ(v[1], 1.0);
    EXPECT_EQ(v[2], 2.0);
}

TEST(WindowedQuantile, EmptyReturnsZero)
{
    WindowedQuantile w(3);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.percentile(99.0), 0.0);
    EXPECT_EQ(w.lastIntervalPercentile(99.0), 0.0);
    EXPECT_EQ(w.lastIntervalCount(), 0u);
}

TEST(WindowedQuantile, TracksCountsPerInterval)
{
    WindowedQuantile w(3);
    w.beginInterval();
    w.add(1.0);
    w.add(2.0);
    EXPECT_EQ(w.count(), 2u);
    EXPECT_EQ(w.lastIntervalCount(), 2u);
    EXPECT_EQ(w.intervals(), 1u);

    w.beginInterval();
    w.add(3.0);
    EXPECT_EQ(w.count(), 3u);
    EXPECT_EQ(w.lastIntervalCount(), 1u);
    EXPECT_EQ(w.intervals(), 2u);
}

TEST(WindowedQuantile, EvictsOldestIntervalWhenFull)
{
    WindowedQuantile w(2);
    w.beginInterval();
    w.add(100.0); // will be evicted
    w.beginInterval();
    w.add(1.0);
    w.beginInterval();
    w.add(2.0);
    w.add(3.0);
    // Window now holds {1} and {2, 3}; 100 is gone.
    EXPECT_EQ(w.count(), 3u);
    EXPECT_EQ(w.intervals(), 2u);
    EXPECT_DOUBLE_EQ(w.percentile(100.0), 3.0);
    EXPECT_DOUBLE_EQ(w.percentile(0.0), 1.0);
}

TEST(WindowedQuantile, MatchesConcatenatedPercentileOf)
{
    // Bit-identity with the seed's concatenate-then-sort window.
    twig::common::Rng rng(9);
    WindowedQuantile w(3);
    std::vector<std::vector<double>> recent;
    for (int interval = 0; interval < 10; ++interval) {
        w.beginInterval();
        std::vector<double> batch;
        const int n = static_cast<int>(rng.uniformInt(50));
        for (int i = 0; i < n; ++i) {
            const double x = rng.lognormalMean(5.0, 1.0);
            w.add(x);
            batch.push_back(x);
        }
        recent.push_back(std::move(batch));
        if (recent.size() > 3)
            recent.erase(recent.begin());

        std::vector<double> window;
        for (const auto &b : recent)
            window.insert(window.end(), b.begin(), b.end());
        for (double p : {0.0, 50.0, 99.0, 100.0}) {
            EXPECT_EQ(w.percentile(p), percentileOf(window, p))
                << "interval " << interval << " p " << p;
        }
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  percentileOf(recent.back(), 99.0));
    }
}
