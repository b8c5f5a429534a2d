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

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divides by n). */
    double variance() const;

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

} // namespace twig::stats

#endif // TWIG_STATS_SUMMARY_HH
