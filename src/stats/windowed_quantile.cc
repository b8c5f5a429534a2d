#include "stats/windowed_quantile.hh"

#include <algorithm>
#include <functional>

#include "common/error.hh"
#include "stats/summary.hh"

namespace twig::stats {

namespace {

/** Ranks deeper than this (low percentiles) gather and select: building
 * and merging tails that deep would cost more than one selection. */
constexpr std::size_t kMergeMax = 512;

/** Gather/selection scratch of the deep-rank paths. A query fills
 * and consumes it before returning, so one per thread serves every
 * window that thread queries. */
std::vector<double> &
selectScratch()
{
    thread_local std::vector<double> scratch;
    return scratch;
}

} // namespace

WindowedQuantile::WindowedQuantile(std::size_t window_intervals)
    : window_(window_intervals)
{
    common::fatalIf(window_ == 0,
                    "WindowedQuantile: window must be >= 1 intervals");
    segs_.resize(window_);
    cursors_.reserve(window_);
}

void
WindowedQuantile::beginInterval()
{
    if (held_ == window_) {
        // Recycle the oldest segment in place: the ring slot after the
        // current interval holds the interval leaving the window.
        cur_ = cur_ + 1 == window_ ? 0 : cur_ + 1;
        Segment &s = segs_[cur_];
        total_ -= s.samples.size();
        s.samples.clear();
        s.tailLen = 0;
    } else {
        if (held_ > 0)
            cur_ = cur_ + 1 == window_ ? 0 : cur_ + 1;
        ++held_;
    }
}

void
WindowedQuantile::addBatch(const double *data, std::size_t n)
{
    Segment &s = current();
    const std::size_t need = s.samples.size() + n;
    if (s.samples.capacity() < need)
        s.samples.reserve(2 * need); // headroom: see the declaration
    s.samples.insert(s.samples.end(), data, data + n);
    s.tailLen = 0;
    total_ += n;
}

void
WindowedQuantile::coverTail(Segment &s, std::size_t m) const
{
    const std::size_t n = s.samples.size();
    if (s.tailLen >= std::min(n, m))
        return;
    const std::size_t k = std::min(n, m + m / 4 + 4);
    s.tailLen = k;
    double *x = s.samples.data();
    // Sort the first k descending, then sink each later sample that
    // beats the smallest kept one to its rank, the displaced smallest
    // taking its slot. At p99 depths this costs fewer mispredicted
    // branches than a heap: most samples fail the first compare. On
    // samples in random order it makes ~k^2 ln(n/k) / 2 moves, more
    // than selecting costs once k^2 > 4n (an overloaded queue's deep
    // tails); samples that keep outranking the tail (rising ones) would
    // make n·k, so insertion also gives up after 8n moves. Selection
    // keeps the same k largest, sorted the same way.
    if (k * k <= 4 * n) {
        std::sort(x, x + k, std::greater<double>{});
        std::size_t moves = 0;
        std::size_t i = k;
        for (; i < n && moves < 8 * n; ++i) {
            const double v = x[i];
            if (v > x[k - 1]) {
                x[i] = x[k - 1];
                std::size_t j = k - 1;
                for (; j > 0 && x[j - 1] < v; --j)
                    x[j] = x[j - 1];
                moves += k - 1 - j;
                x[j] = v;
            }
        }
        if (i == n)
            return;
    }
    std::nth_element(x, x + k - 1, x + n, std::greater<double>{});
    std::sort(x, x + k, std::greater<double>{});
}

double
WindowedQuantile::percentile(double p) const
{
    const std::size_t n = total_;
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t m = n - lo;
    if (m > kMergeMax)
        return gatherSelect(p);
    // No segment holds more than min(n_s, m) of the window's top m
    // samples, so tails that deep make the merge exact.
    for (std::size_t i = 0; i < held_; ++i)
        coverTail(segs_[slot(i)], m);
    return mergeTails(lo, rank - static_cast<double>(lo));
}

double
WindowedQuantile::mergeTails(std::size_t lo, double frac) const
{
    const std::size_t m = total_ - lo;
    cursors_.assign(held_, 0);
    // Pop the m largest samples in descending order; the (m-1)-th pop
    // is the (lo+1)-th ascending order statistic and the m-th is the
    // lo-th, matching percentileSelect's lo_val/hi_val exactly.
    double lo_val = 0.0;
    double hi_val = 0.0;
    for (std::size_t pop = 1; pop <= m; ++pop) {
        std::size_t best = held_;
        double best_val = 0.0;
        for (std::size_t i = 0; i < held_; ++i) {
            const Segment &s = segs_[slot(i)];
            const std::size_t c = cursors_[i];
            if (c == s.tailLen)
                continue;
            const double v = s.samples[c];
            if (best == held_ || v > best_val) {
                best = i;
                best_val = v;
            }
        }
        ++cursors_[best];
        if (pop == m - 1)
            hi_val = best_val;
        else if (pop == m)
            lo_val = best_val;
    }
    if (frac == 0.0 || lo + 1 >= total_)
        return lo_val;
    return lo_val + frac * (hi_val - lo_val);
}

double
WindowedQuantile::gatherSelect(double p) const
{
    std::vector<double> &scratch = selectScratch();
    if (scratch.capacity() < total_)
        scratch.reserve(2 * total_); // headroom: see addBatch
    scratch.clear();
    for (std::size_t i = 0; i < held_; ++i) {
        const Segment &s = segs_[slot(i)];
        scratch.insert(scratch.end(), s.samples.begin(), s.samples.end());
    }
    return percentileSelect(scratch.data(), scratch.size(), p);
}

double
WindowedQuantile::lastIntervalPercentile(double p) const
{
    if (held_ == 0)
        return 0.0;
    Segment &cur = segs_[cur_];
    const std::size_t n = cur.samples.size();
    if (n == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    const std::size_t m = n - lo;
    if (m > kMergeMax) {
        std::vector<double> &scratch = selectScratch();
        if (scratch.capacity() < n)
            scratch.reserve(2 * n); // headroom: see addBatch
        scratch.assign(cur.samples.begin(), cur.samples.end());
        return percentileSelect(scratch.data(), scratch.size(), p);
    }
    coverTail(cur, m);
    // The tail is this segment's largest samples, descending, so
    // ascending rank n-j is samples[j-1].
    const double lo_val = cur.samples[m - 1];
    if (frac == 0.0 || lo + 1 >= n)
        return lo_val;
    return lo_val + frac * (cur.samples[m - 2] - lo_val);
}

} // namespace twig::stats
