/**
 * @file
 * Fixed-range histogram used for tardiness histograms (Fig. 6), the
 * prediction-error probability-density plots (Fig. 1) and the fleet's
 * per-node latency histograms (src/cluster). A node fills a few dozen
 * of its 1024 bins an interval, so the histogram keeps one occupancy
 * bit per bin and clear() and merge() visit only filled bins.
 */

#ifndef TWIG_STATS_HISTOGRAM_HH
#define TWIG_STATS_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace twig::stats {

/**
 * Uniform-bin histogram over [lo, hi); out-of-range samples are clamped
 * into the first/last bin so no data is silently dropped.
 */
class Histogram
{
  public:
    /**
     * @param lo    lower edge of the first bin
     * @param hi    upper edge of the last bin (must be > lo)
     * @param bins  number of bins (must be >= 1)
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Drop all samples, keeping the binning (per-interval reuse).
     * Touches only the filled bins. */
    void clear();

    /**
     * Merge another histogram into this one by summing bin counts.
     * Both histograms must have identical binning (lo, hi, bins) —
     * anything else would silently re-bin — or FatalError is raised.
     * Merging then querying a quantile gives exactly the same answer
     * as building one histogram over the concatenated samples, which
     * is how fleet-wide tail latency is computed from per-node
     * histograms (src/cluster). Touches only @p other's filled bins.
     */
    void merge(const Histogram &other);

    /**
     * Approximate q-quantile (q in [0, 1]) with linear interpolation
     * inside the containing bin; 0 when empty. Exact up to bin
     * resolution, and — unlike a sorted-sample quantile — computable
     * after merge() without keeping raw samples.
     */
    double quantile(double q) const;

    /** Total number of samples added. */
    std::size_t count() const { return total_; }

    /** Raw count of bin @p i. */
    std::size_t binCount(std::size_t i) const { return counts_.at(i); }

    /** Number of bins. */
    std::size_t bins() const { return counts_.size(); }

    /** Centre value of bin @p i. */
    double binCenter(std::size_t i) const;

    /** Fraction of all samples that fell in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

    /**
     * Probability density estimate for bin @p i
     * (fraction divided by bin width).
     */
    double density(std::size_t i) const;

    /** Index of the most populated bin (0 when empty). */
    std::size_t modeBin() const;

    /** Render a compact ASCII bar chart (for bench stdout). */
    std::string ascii(std::size_t width = 40) const;

  private:
    double lo_;
    double hi_;
    double binWidth_;
    std::vector<std::size_t> counts_;
    /** Bit i % 64 of word i / 64 is set iff counts_[i] != 0. */
    std::vector<std::uint64_t> filled_;
    std::size_t total_ = 0;
};

} // namespace twig::stats

#endif // TWIG_STATS_HISTOGRAM_HH
