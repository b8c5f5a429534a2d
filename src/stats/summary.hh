/**
 * @file
 * Running summary statistics and exact percentile estimation.
 */

#ifndef TWIG_STATS_SUMMARY_HH
#define TWIG_STATS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace twig::stats {

/**
 * Welford-style running mean/variance accumulator.
 *
 * Numerically stable single-pass computation; O(1) memory.
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divides by n). */
    double variance() const;

    /** Sample variance (divides by n-1); 0 when n < 2. */
    double sampleVariance() const;

    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(count_); }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Exact percentile estimator over a stored sample window.
 *
 * Stores all added samples; percentile() sorts a scratch copy on demand.
 * Intended for per-interval latency samples (thousands of values), where
 * exactness matters more than memory.
 */
class PercentileEstimator
{
  public:
    void add(double x) { samples_.push_back(x); }
    void clear() { samples_.clear(); }
    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Return the p-th percentile (p in [0, 100]) using linear
     * interpolation between closest ranks; 0 when empty.
     */
    double percentile(double p) const;

    /** All stored samples (unsorted). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

/**
 * p-th percentile (linear interpolation between closest ranks) of the
 * unsorted range [data, data + n); 0 when n == 0 and p clamped into
 * [0, 100] (so p <= 0 is the minimum and p >= 100 the maximum, with no
 * separate scan). Reorders the range via nth_element — O(n) expected,
 * zero allocations — and returns exactly what a sort-then-interpolate
 * percentile over the same values returns.
 */
double percentileSelect(double *data, std::size_t n, double p);

/** p-th percentile of an unsorted vector; copies once, then selects. */
double percentileOf(const std::vector<double> &values, double p);

/** Rvalue overload: selects directly in the temporary, no copy. */
double percentileOf(std::vector<double> &&values, double p);

} // namespace twig::stats

#endif // TWIG_STATS_SUMMARY_HH
