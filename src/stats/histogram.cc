#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "common/error.hh"

namespace twig::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), binWidth_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0), filled_((bins + 63) / 64, 0)
{
    common::fatalIf(hi <= lo, "histogram range must be non-empty");
    common::fatalIf(bins == 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / binWidth_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    const auto i = static_cast<std::size_t>(idx);
    ++counts_[i];
    filled_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++total_;
}

void
Histogram::clear()
{
    for (std::size_t w = 0; w < filled_.size(); ++w) {
        for (std::uint64_t bits = filled_[w]; bits != 0; bits &= bits - 1)
            counts_[w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(bits))] = 0;
        filled_[w] = 0;
    }
    total_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    common::fatalIf(other.lo_ != lo_ || other.hi_ != hi_ ||
                        other.counts_.size() != counts_.size(),
                    "Histogram::merge: binning mismatch ([", other.lo_,
                    ", ", other.hi_, ") x ", other.counts_.size(),
                    " vs [", lo_, ", ", hi_, ") x ", counts_.size(), ")");
    for (std::size_t w = 0; w < filled_.size(); ++w) {
        for (std::uint64_t bits = other.filled_[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t i =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            counts_[i] += other.counts_[i];
        }
        filled_[w] |= other.filled_[w];
    }
    total_ += other.total_;
}

double
Histogram::quantile(double q) const
{
    common::fatalIf(q < 0.0 || q > 1.0,
                    "Histogram::quantile: q out of [0, 1]");
    if (total_ == 0)
        return 0.0;
    // Rank of the requested quantile among the samples (1-based,
    // nearest-rank), then linear interpolation within the bin that
    // contains it.
    const double rank = q * static_cast<double>(total_);
    std::size_t cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const std::size_t next = cum + counts_[i];
        if (static_cast<double>(next) >= rank) {
            const double within = (rank - static_cast<double>(cum)) /
                                  static_cast<double>(counts_[i]);
            return lo_ + (static_cast<double>(i) +
                          std::clamp(within, 0.0, 1.0)) * binWidth_;
        }
        cum = next;
    }
    return hi_;
}

double
Histogram::binCenter(std::size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * binWidth_;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

double
Histogram::density(std::size_t i) const
{
    return binFraction(i) / binWidth_;
}

std::size_t
Histogram::modeBin() const
{
    return static_cast<std::size_t>(std::distance(
        counts_.begin(), std::max_element(counts_.begin(), counts_.end())));
}

std::string
Histogram::ascii(std::size_t width) const
{
    std::ostringstream os;
    const std::size_t peak =
        total_ ? counts_[modeBin()] : static_cast<std::size_t>(1);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "%9.3f ", binCenter(i));
        os << label;
        const auto bar = peak
            ? counts_[i] * width / peak
            : static_cast<std::size_t>(0);
        for (std::size_t b = 0; b < bar; ++b)
            os << '#';
        os << "  (" << counts_[i] << ")\n";
    }
    return os.str();
}

} // namespace twig::stats
