/**
 * @file
 * Targeted tests for stats::WindowedQuantile's incremental
 * maintenance: ring wrap-around, duplicate-heavy data, percentile
 * extremes, the deep-rank path, tails that must deepen when the rank
 * outgrows them, both query orders, and randomized cross-checks
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

/** Open one interval of @p values in both windows. */
void
feed(WindowedQuantile &w, NaiveWindow &naive,
     const std::vector<double> &values)
{
    w.beginInterval();
    naive.beginInterval();
    for (const double x : values) {
        w.add(x);
        naive.add(x);
    }
}

std::vector<double>
uniformValues(Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

/** Randomized cross-check against the naive model: @p rounds windows
 * of random length (1-5), each fed @p intervals intervals of fewer
 * than @p max_n samples (empty ones included) and queried at the
 * window p99 and the interval p99, after a query at a random
 * percentile when @p any_rank is set. */
void
crossCheck(std::uint64_t seed, int rounds, int intervals,
           std::uint64_t max_n, bool any_rank)
{
    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        const std::size_t window = 1 + rng.uniformInt(std::uint64_t{5});
        WindowedQuantile w(window);
        NaiveWindow naive(window);
        for (int i = 0; i < intervals; ++i) {
            w.beginInterval();
            naive.beginInterval();
            const std::size_t n = rng.uniformInt(max_n);
            for (std::size_t j = 0; j < n; ++j) {
                const double x = rng.uniform(0.0, 500.0);
                w.add(x);
                naive.add(x);
            }
            if (any_rank) {
                const double p = rng.uniform(0.0, 100.0);
                EXPECT_EQ(w.percentile(p), naive.percentile(p))
                    << "round " << round << " interval " << i << " p" << p;
            }
            EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0))
                << "round " << round << " interval " << i;
            EXPECT_EQ(w.lastIntervalPercentile(99.0),
                      naive.lastIntervalPercentile(99.0))
                << "round " << round << " interval " << i;
        }
    }
}

/** Three 20,000-sample intervals of @p value(i), i counting up through
 * all three, queried at p99 and p99.9 (window and interval) after
 * each, in both query orders. */
void
checkMonotoneIntervals(double (*value)(std::size_t))
{
    const double orders[2][2] = {{99.0, 99.9}, {99.9, 99.0}};
    for (const auto &order : orders) {
        WindowedQuantile w(3);
        NaiveWindow naive(3);
        std::size_t i = 0;
        for (int interval = 0; interval < 3; ++interval) {
            std::vector<double> values(20000);
            for (double &x : values)
                x = value(i++);
            feed(w, naive, values);
            for (const double p : order) {
                EXPECT_EQ(w.percentile(p), naive.percentile(p))
                    << "interval " << interval << " p" << p;
                EXPECT_EQ(w.lastIntervalPercentile(p),
                          naive.lastIntervalPercentile(p))
                    << "interval " << interval << " p" << p;
            }
        }
    }
}

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
    // A p99 query first (tail path), then p1 (deeper than the p99
    // tails: they deepen while the rank is within kMergeMax, the
    // window is gathered and selected beyond), then p99 again: neither
    // path may corrupt the tails.
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

TEST(WindowedQuantileDepth, RankOutgrowsTheOlderSegmentsTails)
{
    // A 20-sample interval's tail is built 6 deep (rank depth 2 plus
    // headroom). A 20,000-sample interval then pushes the window p99's
    // depth to 202, and ~12 of the first interval's samples rank among
    // the window's top 202, so its tail must deepen before the merge.
    WindowedQuantile w(3);
    NaiveWindow naive(3);
    Rng rng(17);
    const struct
    {
        std::size_t n;
        double lo, hi;
    } intervals[] = {{20, 95.0, 105.0},
                     {20000, 0.0, 100.0},
                     {20, 0.0, 100.0},
                     {3000, 0.0, 100.0}};
    for (const auto &iv : intervals) {
        feed(w, naive, uniformValues(rng, iv.n, iv.lo, iv.hi));
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0)) << iv.n;
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  naive.lastIntervalPercentile(99.0)) << iv.n;
        EXPECT_EQ(w.percentile(99.9), naive.percentile(99.9)) << iv.n;
    }
}

TEST(WindowedQuantileDepth, OldSegmentHoldsEveryLargestValue)
{
    // The first interval holds every one of the window's 52 largest
    // values; its tail was built 6 deep for a 100-sample window, so a
    // 5,000-sample interval of small values forces it to rebuild.
    WindowedQuantile w(3);
    NaiveWindow naive(3);
    Rng rng(23);
    feed(w, naive, uniformValues(rng, 100, 1000.0, 2000.0));
    EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0));
    feed(w, naive, uniformValues(rng, 5000, 0.0, 100.0));
    EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0));
    EXPECT_GT(w.percentile(99.0), 1000.0);
    EXPECT_EQ(w.lastIntervalPercentile(99.0),
              naive.lastIntervalPercentile(99.0));
    feed(w, naive, uniformValues(rng, 10, 0.0, 100.0));
    EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0));
    EXPECT_EQ(w.percentile(99.5), naive.percentile(99.5));
}

TEST(WindowedQuantileDepth, BothQueryOrdersAndALowRankBetween)
{
    // The simulator asks for the window p99 before the interval's own;
    // the other order (a shallower tail first, deepened by the window
    // query) and a p1 between two p99s must agree as well.
    WindowedQuantile window_first(3);
    WindowedQuantile instant_first(3);
    WindowedQuantile low_between(3);
    NaiveWindow naive(3);
    Rng rng(29);
    for (int i = 0; i < 12; ++i) {
        const std::size_t n = 50 + rng.uniformInt(std::uint64_t{900});
        const auto values = uniformValues(rng, n, 0.0, 250.0);
        for (WindowedQuantile *w :
             {&window_first, &instant_first, &low_between}) {
            w->beginInterval();
            for (const double x : values)
                w->add(x);
        }
        naive.beginInterval();
        for (const double x : values)
            naive.add(x);
        const double window_p99 = naive.percentile(99.0);
        const double instant_p99 = naive.lastIntervalPercentile(99.0);

        EXPECT_EQ(window_first.percentile(99.0), window_p99) << i;
        EXPECT_EQ(window_first.lastIntervalPercentile(99.0), instant_p99)
            << i;

        EXPECT_EQ(instant_first.lastIntervalPercentile(99.0), instant_p99)
            << i;
        EXPECT_EQ(instant_first.percentile(99.0), window_p99) << i;

        EXPECT_EQ(low_between.percentile(99.0), window_p99) << i;
        EXPECT_EQ(low_between.percentile(1.0), naive.percentile(1.0)) << i;
        EXPECT_EQ(low_between.lastIntervalPercentile(1.0),
                  naive.lastIntervalPercentile(1.0)) << i;
        EXPECT_EQ(low_between.percentile(99.0), window_p99) << i;
        EXPECT_EQ(low_between.lastIntervalPercentile(99.0), instant_p99)
            << i;
    }
}

TEST(WindowedQuantileDepth, SamplesAddedAfterAQueryEnterTheTail)
{
    // A query sorts the current interval's largest samples to the front
    // of its buffer; samples appended afterwards, one at a time or in
    // a batch, may outrank them and must be seen by the next query.
    WindowedQuantile w(2);
    NaiveWindow naive(2);
    Rng rng(31);
    for (int i = 0; i < 4; ++i) {
        feed(w, naive, uniformValues(rng, 300, 0.0, 100.0));
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0)) << i;
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  naive.lastIntervalPercentile(99.0)) << i;
        for (const double x : uniformValues(rng, 3, 100.0, 200.0)) {
            w.add(x);
            naive.add(x);
        }
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  naive.lastIntervalPercentile(99.0)) << i;
        const auto batch = uniformValues(rng, 5, 200.0, 300.0);
        w.addBatch(batch.data(), batch.size());
        for (const double x : batch)
            naive.add(x);
        EXPECT_EQ(w.percentile(99.0), naive.percentile(99.0)) << i;
        EXPECT_EQ(w.lastIntervalPercentile(99.0),
                  naive.lastIntervalPercentile(99.0)) << i;
    }
}

TEST(WindowedQuantileDepth, StrictlyRisingInterval)
{
    // An overloaded FCFS queue's latencies rise through the interval,
    // so every sample outranks the tail built so far: sorted insertion
    // spends its budget of moves and the build finishes by selection
    // (or, for the deepest tails, selects from the start).
    checkMonotoneIntervals(
        [](std::size_t i) { return 1.0 + 0.25 * static_cast<double>(i); });
}

TEST(WindowedQuantileDepth, StrictlyFallingInterval)
{
    // The first samples are the tail; no later one enters it.
    checkMonotoneIntervals([](std::size_t i) {
        return 1.0e5 - 0.25 * static_cast<double>(i);
    });
}

TEST(WindowedQuantileRandomized, CrossCheckAgainstNaiveModel)
{
    // Fuzz the full surface: random window lengths and interval sizes
    // (including empty), random queries at random ranks.
    crossCheck(0x51d0, 5, 30, 120, /*any_rank=*/true);
}

TEST(WindowedQuantileRandomized, LargeIntervalsAtP99AgainstNaiveModel)
{
    // The simulator's pattern: intervals of up to ~3,000 latencies,
    // window p99 then the interval's p99, with the load (and so the
    // rank depth) swinging between intervals.
    crossCheck(0x99, 4, 25, 3001, /*any_rank=*/false);
}
