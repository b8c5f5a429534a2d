#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

namespace twig::stats {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
percentileSelect(double *data, std::size_t n, double p)
{
    if (n == 0)
        return 0.0;
    // Clamping folds the old p <= 0 / p >= 100 min/max scans into the
    // same selection: rank 0 selects the minimum, rank n-1 the maximum.
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    std::nth_element(data, data + lo, data + n);
    const double lo_val = data[lo];
    if (frac == 0.0 || lo + 1 >= n)
        return lo_val;
    // After nth_element everything right of lo is >= data[lo], so the
    // (lo+1)-th order statistic is the minimum of that suffix.
    const double hi_val = *std::min_element(data + lo + 1, data + n);
    return lo_val + frac * (hi_val - lo_val);
}

double
percentileOf(const std::vector<double> &values, double p)
{
    std::vector<double> scratch(values);
    return percentileSelect(scratch.data(), scratch.size(), p);
}

} // namespace twig::stats
