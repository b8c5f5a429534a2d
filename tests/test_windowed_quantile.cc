/**
 * @file
 * Targeted tests for stats::WindowedQuantile's incremental
 * maintenance: ring wrap-around, duplicate-heavy data, percentile
 * extremes, the deep-rank fallback path, and a randomized cross-check
 * against a naive rebuild-every-query model. (tests/test_summary.cc
 * holds the basic behavioural tests; everything here attacks the
 * caching/eviction machinery.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "stats/windowed_quantile.hh"

using twig::common::Rng;
using twig::stats::WindowedQuantile;

namespace {

/** Sort-and-interpolate percentile: the semantics WindowedQuantile
 * must reproduce bit-for-bit. */
double
naivePercentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (p <= 0.0)
        return values.front();
    if (p >= 100.0)
        return values.back();
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= values.size())
        return values.back();
    return values[lo] + frac * (values[lo + 1] - values[lo]);
}

/** Naive trailing-window model: a deque of per-interval vectors. */
class NaiveWindow
{
  public:
    explicit NaiveWindow(std::size_t window) : window_(window) {}

    void
    beginInterval()
    {
        intervals_.emplace_back();
        while (intervals_.size() > window_)
            intervals_.pop_front();
    }

    void add(double x) { intervals_.back().push_back(x); }

    double
    percentile(double p) const
    {
        std::vector<double> all;
        for (const auto &iv : intervals_)
            all.insert(all.end(), iv.begin(), iv.end());
        return naivePercentile(std::move(all), p);
    }

    double
    lastIntervalPercentile(double p) const
    {
        return intervals_.empty()
            ? 0.0
            : naivePercentile(intervals_.back(), p);
    }

  private:
    std::size_t window_;
    std::deque<std::vector<double>> intervals_;
};

} // namespace

TEST(WindowedQuantileWrap, RingWrapsManyTimesOverItsLength)
{
    // 3-interval window driven for 20 intervals: the ring wraps ~7
    // times; every query must see exactly the last 3 intervals.
    WindowedQuantile w(3);
    NaiveWindow naive(3);
    for (int i = 0; i < 20; ++i) {
        w.beginInterval();
        naive.beginInterval();
        for (int j = 0; j < 50; ++j) {
            const double x = static_cast<double>((i * 50 + j) % 97);
            w.add(x);
            naive.add(x);
        }
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0))
            << "interval " << i;
        EXPECT_EQ(w.percentile(50.0), naive.percentile(50.0))
            << "interval " << i;
        EXPECT_EQ(w.intervals(), std::min<std::size_t>(i + 1, 3));
    }
    EXPECT_EQ(w.count(), 150u);
}

TEST(WindowedQuantileWrap, EmptyIntervalsInsideTheWindow)
{
    WindowedQuantile w(4);
    NaiveWindow naive(4);
    for (int i = 0; i < 12; ++i) {
        w.beginInterval();
        naive.beginInterval();
        if (i % 3 != 1) { // every third interval stays empty
            for (int j = 0; j < 10; ++j) {
                const double x = static_cast<double>(i * 10 + j);
                w.add(x);
                naive.add(x);
            }
        }
        EXPECT_EQ(w.percentile(90.0), naive.percentile(90.0));
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  naive.lastIntervalPercentile(99.0));
    }
}

TEST(WindowedQuantileDuplicates, MassivelyDuplicatedValues)
{
    // Only three distinct values: rank selection must still agree
    // with the sort model (ties everywhere, tails full of equals).
    WindowedQuantile w(3);
    NaiveWindow naive(3);
    const double vals[] = {7.5, 7.5, 1.0, 7.5, 3.25};
    for (int i = 0; i < 9; ++i) {
        w.beginInterval();
        naive.beginInterval();
        for (int j = 0; j < 40; ++j) {
            const double x = vals[(i + j) % 5];
            w.add(x);
            naive.add(x);
        }
        for (const double p : {0.0, 25.0, 50.0, 75.0, 99.0, 100.0})
            EXPECT_EQ(w.percentile(p), naive.percentile(p))
                << "interval " << i << " p" << p;
    }
}

TEST(WindowedQuantileExtremes, P0P50P99P100)
{
    WindowedQuantile w(2);
    w.beginInterval();
    for (int j = 100; j >= 1; --j)
        w.add(static_cast<double>(j));
    // 1..100: p0 = min, p100 = max, p50 interpolates mid-ranks.
    EXPECT_EQ(w.percentile(0.0), 1.0);
    EXPECT_EQ(w.percentile(100.0), 100.0);
    EXPECT_EQ(w.percentile(50.0), 50.5);
    EXPECT_EQ(w.percentile(99.0), naivePercentile(
        []{ std::vector<double> v; for (int j = 1; j <= 100; ++j)
                v.push_back(j); return v; }(), 99.0));
    // Out-of-range p clamps rather than reading out of bounds.
    EXPECT_EQ(w.percentile(-5.0), 1.0);
    EXPECT_EQ(w.percentile(250.0), 100.0);
}

TEST(WindowedQuantileExtremes, LowPercentileFallbackThenIncremental)
{
    // A p99 query first (tail path), then p1 (deeper than any cached
    // tail -> gather/select fallback), then p99 again: the fallback
    // must not corrupt the caches.
    WindowedQuantile w(3);
    NaiveWindow naive(3);
    Rng rng(5);
    for (int i = 0; i < 6; ++i) {
        w.beginInterval();
        naive.beginInterval();
        for (int j = 0; j < 200; ++j) {
            const double x = rng.uniform(0.0, 1000.0);
            w.add(x);
            naive.add(x);
        }
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0));
        EXPECT_EQ(w.percentile(1.0), naive.percentile(1.0));
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0));
    }
}

TEST(WindowedQuantileRandomized, CrossCheckAgainstNaiveModel)
{
    // Fuzz the full surface: random window lengths and interval sizes
    // (including empty), random queries at random ranks.
    Rng rng(0x51d0);
    for (int round = 0; round < 5; ++round) {
        const std::size_t window = 1 + rng.uniformInt(std::uint64_t{5});
        WindowedQuantile w(window);
        NaiveWindow naive(window);
        for (int i = 0; i < 30; ++i) {
            w.beginInterval();
            naive.beginInterval();
            const std::size_t n = rng.uniformInt(std::uint64_t{120});
            for (std::size_t j = 0; j < n; ++j) {
                const double x = rng.uniform(0.0, 500.0);
                w.add(x);
                naive.add(x);
            }
            const double p = rng.uniform(0.0, 100.0);
            EXPECT_EQ(w.percentile(p), naive.percentile(p))
                << "round " << round << " interval " << i << " p" << p;
            EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0))
                << "round " << round << " interval " << i;
        }
    }
}
