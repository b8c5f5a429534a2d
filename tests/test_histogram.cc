/** @file Unit tests for the fixed-range histogram. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "stats/histogram.hh"

using twig::common::Rng;
using twig::stats::Histogram;

namespace {

/** The histogram as it was before it tracked occupancy: every bin
 * zeroed, summed and scanned. Histogram must agree with it bin for
 * bin and in every quantile. */
struct DenseHistogram
{
    DenseHistogram(double lo, double hi, std::size_t bins)
        : lo(lo), hi(hi), width((hi - lo) / static_cast<double>(bins)),
          counts(bins, 0)
    {
    }

    void
    add(double x)
    {
        auto idx = static_cast<std::ptrdiff_t>((x - lo) / width);
        idx = std::clamp<std::ptrdiff_t>(
            idx, 0, static_cast<std::ptrdiff_t>(counts.size()) - 1);
        ++counts[static_cast<std::size_t>(idx)];
        ++total;
    }

    void
    clear()
    {
        std::fill(counts.begin(), counts.end(), std::size_t{0});
        total = 0;
    }

    void
    merge(const DenseHistogram &other)
    {
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += other.counts[i];
        total += other.total;
    }

    double
    quantile(double q) const
    {
        if (total == 0)
            return 0.0;
        const double rank = q * static_cast<double>(total);
        std::size_t cum = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0)
                continue;
            const std::size_t next = cum + counts[i];
            if (static_cast<double>(next) >= rank) {
                const double within = (rank - static_cast<double>(cum)) /
                    static_cast<double>(counts[i]);
                return lo + (static_cast<double>(i) +
                             std::clamp(within, 0.0, 1.0)) * width;
            }
            cum = next;
        }
        return hi;
    }

    double lo, hi, width;
    std::vector<std::size_t> counts;
    std::size_t total = 0;
};

void
expectSame(const Histogram &h, const DenseHistogram &dense)
{
    ASSERT_EQ(h.bins(), dense.counts.size());
    EXPECT_EQ(h.count(), dense.total);
    for (std::size_t b = 0; b < h.bins(); ++b)
        ASSERT_EQ(h.binCount(b), dense.counts[b]) << "bin " << b;
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.quantile(q), dense.quantile(q)) << "q " << q;
}

/** Add @p n samples drawn over a range wider than [0, 50), so both
 * edge bins take clamped values, to both histograms. */
void
addRandom(Rng &rng, std::size_t n, double centre, double spread,
          Histogram &h, DenseHistogram &dense)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double x = centre + rng.uniform(-spread, spread);
        h.add(x);
        dense.add(x);
    }
}

} // namespace

TEST(Histogram, BinsSamplesCorrectly)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);  // bin 0
    h.add(5.5);  // bin 5
    h.add(9.99); // bin 9
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.binCount(1), 0u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
    EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 1.0);
    EXPECT_DOUBLE_EQ(h.binCenter(4), 9.0);
}

TEST(Histogram, FractionsSumToOne)
{
    Histogram h(0.0, 1.0, 7);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i) / 100.0);
    double total = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b)
        total += h.binFraction(b);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, DensityIntegratesToOne)
{
    Histogram h(-2.0, 2.0, 16);
    for (int i = 0; i < 1000; ++i)
        h.add(-2.0 + 4.0 * i / 1000.0);
    double integral = 0.0;
    const double width = 4.0 / 16.0;
    for (std::size_t b = 0; b < h.bins(); ++b)
        integral += h.density(b) * width;
    EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, ModeBin)
{
    Histogram h(0.0, 3.0, 3);
    h.add(1.5);
    h.add(1.6);
    h.add(0.1);
    EXPECT_EQ(h.modeBin(), 1u);
}

TEST(Histogram, EmptyFractionsAndDensity)
{
    Histogram h(0.0, 1.0, 2);
    EXPECT_EQ(h.binFraction(0), 0.0);
    EXPECT_EQ(h.density(1), 0.0);
    EXPECT_EQ(h.modeBin(), 0u);
}

TEST(Histogram, AsciiRendersOneLinePerBin)
{
    Histogram h(0.0, 1.0, 3);
    h.add(0.5);
    const std::string art = h.ascii(10);
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);
    EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Histogram, InvalidConstruction)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), twig::common::FatalError);
    EXPECT_THROW(Histogram(2.0, 1.0, 4), twig::common::FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), twig::common::FatalError);
}

TEST(Histogram, ClearKeepsBinningDropsSamples)
{
    Histogram h(0.0, 10.0, 10);
    h.add(3.0);
    h.add(7.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.binCount(3), 0u);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
    h.add(5.5); // still usable with the same binning
    EXPECT_EQ(h.binCount(5), 1u);
}

TEST(Histogram, MergeSumsBinCounts)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(1.5);
    a.add(4.5);
    b.add(4.5);
    b.add(9.5);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.binCount(1), 1u);
    EXPECT_EQ(a.binCount(4), 2u);
    EXPECT_EQ(a.binCount(9), 1u);
    EXPECT_EQ(b.count(), 2u); // the source is untouched
}

TEST(Histogram, MergeThenQuantileMatchesConcatenatedSamples)
{
    // The fleet-wide tail-latency contract: per-node histograms merged
    // then queried must equal one histogram over all samples.
    Histogram node_a(0.0, 50.0, 500);
    Histogram node_b(0.0, 50.0, 500);
    Histogram fleet(0.0, 50.0, 500);
    for (int i = 0; i < 400; ++i) {
        const double x = 0.1 * i; // 0..40, spread over both nodes
        Histogram &node = (i % 3 == 0) ? node_a : node_b;
        node.add(x);
        fleet.add(x);
    }
    node_a.merge(node_b);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(node_a.quantile(q), fleet.quantile(q));
}

TEST(Histogram, HierarchicalMergeMatchesFlatMergeExactly)
{
    // The two-level fleet contract: merging node histograms into
    // per-domain histograms and then the domain histograms into the
    // fleet one must equal the flat node -> fleet merge bin for bin
    // (integer bin counts make the merge associative and commutative).
    const std::size_t nodes = 12, domains = 3;
    std::vector<Histogram> node_hists;
    for (std::size_t n = 0; n < nodes; ++n) {
        node_hists.emplace_back(0.0, 40.0, 256);
        for (std::size_t i = 0; i <= 30 * n; ++i)
            node_hists[n].add(0.013 * static_cast<double>(i * (n + 1)));
    }

    Histogram flat(0.0, 40.0, 256);
    for (const auto &h : node_hists)
        flat.merge(h);

    Histogram fleet(0.0, 40.0, 256);
    for (std::size_t d = 0; d < domains; ++d) {
        Histogram domain(0.0, 40.0, 256);
        for (std::size_t n = d * nodes / domains;
             n < (d + 1) * nodes / domains; ++n)
            domain.merge(node_hists[n]);
        fleet.merge(domain);
    }

    ASSERT_EQ(fleet.count(), flat.count());
    for (std::size_t b = 0; b < flat.bins(); ++b)
        EXPECT_EQ(fleet.binCount(b), flat.binCount(b)) << "bin " << b;
    for (double q : {0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(fleet.quantile(q), flat.quantile(q));
}

TEST(Histogram, HierarchicalMergeWithEmptyDomainsIsExact)
{
    // A domain whose every member crashed contributes an empty
    // histogram; the fleet merge must be unaffected.
    Histogram populated(0.0, 10.0, 32);
    populated.add(2.5);
    populated.add(7.5);

    Histogram flat(0.0, 10.0, 32);
    flat.merge(populated);

    Histogram empty_domain(0.0, 10.0, 32);
    Histogram fleet(0.0, 10.0, 32);
    fleet.merge(empty_domain);
    fleet.merge(populated);
    fleet.merge(empty_domain);

    ASSERT_EQ(fleet.count(), flat.count());
    for (std::size_t b = 0; b < flat.bins(); ++b)
        EXPECT_EQ(fleet.binCount(b), flat.binCount(b));
}

TEST(Histogram, MergeRejectsMismatchedBinning)
{
    Histogram h(0.0, 10.0, 10);
    Histogram other_lo(1.0, 10.0, 10);
    Histogram other_hi(0.0, 20.0, 10);
    Histogram other_bins(0.0, 10.0, 20);
    EXPECT_THROW(h.merge(other_lo), twig::common::FatalError);
    EXPECT_THROW(h.merge(other_hi), twig::common::FatalError);
    EXPECT_THROW(h.merge(other_bins), twig::common::FatalError);
}

TEST(Histogram, QuantileValidatesRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.5);
    EXPECT_THROW(h.quantile(-0.1), twig::common::FatalError);
    EXPECT_THROW(h.quantile(1.1), twig::common::FatalError);
}

TEST(HistogramOccupancy, AddClearAndReuseMatchDense)
{
    // Bin counts around the 64-bin word size, plus the node's 1024.
    Rng rng(41);
    for (const std::size_t bins : {1u, 63u, 64u, 65u, 1024u}) {
        Histogram h(0.0, 50.0, bins);
        DenseHistogram dense(0.0, 50.0, bins);
        expectSame(h, dense);
        for (int round = 0; round < 6; ++round) {
            // Narrow and wide fills alternate, so each clear() leaves
            // bins behind that the next fill does not touch.
            const double spread = round % 2 == 0 ? 2.0 : 40.0;
            addRandom(rng, 200, rng.uniform(-5.0, 55.0), spread, h, dense);
            expectSame(h, dense);
            h.clear();
            dense.clear();
            expectSame(h, dense);
        }
    }
}

TEST(HistogramOccupancy, MergeIntoNonEmptyTargetMatchesDense)
{
    Rng rng(43);
    Histogram a(0.0, 50.0, 1024), b(0.0, 50.0, 1024);
    DenseHistogram da(0.0, 50.0, 1024), db(0.0, 50.0, 1024);
    addRandom(rng, 300, 10.0, 5.0, a, da);
    addRandom(rng, 300, 30.0, 30.0, b, db);
    a.merge(b);
    da.merge(db);
    expectSame(a, da);
    expectSame(b, db); // the source is untouched
    // The merged bins must clear with the rest.
    a.clear();
    da.clear();
    addRandom(rng, 50, 45.0, 1.0, a, da);
    expectSame(a, da);
}

TEST(HistogramOccupancy, CopyAssignmentCarriesOccupancy)
{
    // ClusterManager's trailing window overwrites a ring slot with the
    // interval's fleet histogram and copies the oldest slot into the
    // accumulator before merging the rest.
    Rng rng(47);
    Histogram src(0.0, 50.0, 1024), slot(0.0, 50.0, 1024);
    DenseHistogram dsrc(0.0, 50.0, 1024), dslot(0.0, 50.0, 1024);
    addRandom(rng, 200, 5.0, 3.0, src, dsrc);
    addRandom(rng, 200, 40.0, 3.0, slot, dslot);
    slot = src;
    dslot = dsrc;
    expectSame(slot, dslot);
    addRandom(rng, 100, 25.0, 30.0, slot, dslot);
    expectSame(slot, dslot);
    slot.clear();
    dslot.clear();
    expectSame(slot, dslot);
    expectSame(src, dsrc);
}

TEST(HistogramOccupancy, ChainedMergesMatchDense)
{
    // The fleet's interval: node histograms cleared and refilled,
    // merged into domains, domains into the fleet histogram, which a
    // three-interval ring and a trailing accumulator then copy and
    // merge, for 20 intervals.
    const std::size_t nodes = 6, domains = 2, bins = 1024;
    Rng rng(53);
    std::vector<Histogram> node_h(nodes, Histogram(0.0, 50.0, bins));
    std::vector<DenseHistogram> node_d(nodes,
                                       DenseHistogram(0.0, 50.0, bins));
    std::vector<Histogram> ring;
    std::vector<DenseHistogram> dring;
    Histogram fleet(0.0, 50.0, bins), trailing(0.0, 50.0, bins);
    DenseHistogram dfleet(0.0, 50.0, bins), dtrailing(0.0, 50.0, bins);
    for (int t = 0; t < 20; ++t) {
        fleet.clear();
        dfleet.clear();
        for (std::size_t d = 0; d < domains; ++d) {
            Histogram domain(0.0, 50.0, bins);
            DenseHistogram ddomain(0.0, 50.0, bins);
            for (std::size_t n = d * nodes / domains;
                 n < (d + 1) * nodes / domains; ++n) {
                node_h[n].clear();
                node_d[n].clear();
                addRandom(rng, 1 + rng.uniformInt(std::uint64_t{300}),
                          rng.uniform(0.0, 50.0), 8.0, node_h[n],
                          node_d[n]);
                domain.merge(node_h[n]);
                ddomain.merge(node_d[n]);
            }
            fleet.merge(domain);
            dfleet.merge(ddomain);
        }
        expectSame(fleet, dfleet);
        if (ring.size() < 3) {
            ring.push_back(fleet);
            dring.push_back(dfleet);
        } else {
            std::rotate(ring.begin(), ring.begin() + 1, ring.end());
            std::rotate(dring.begin(), dring.begin() + 1, dring.end());
            ring.back() = fleet;
            dring.back() = dfleet;
        }
        trailing = ring.front();
        dtrailing = dring.front();
        for (std::size_t i = 1; i < ring.size(); ++i) {
            trailing.merge(ring[i]);
            dtrailing.merge(dring[i]);
        }
        expectSame(trailing, dtrailing);
    }
}
