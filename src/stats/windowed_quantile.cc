#include "stats/windowed_quantile.hh"

#include <algorithm>
#include <functional>

#include "common/error.hh"
#include "stats/summary.hh"

namespace twig::stats {

namespace {

/** Merging more than this many tail elements per query costs more than
 * gathering and selecting, so deep ranks (low percentiles) take the
 * fallback even when the tails happen to cover them. */
constexpr std::size_t kMergeMax = 512;

/** Restore the min-heap property after heap[0] was overwritten. */
void
siftDownMin(std::vector<double> &heap)
{
    const std::size_t n = heap.size();
    const double v = heap[0];
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            ++child;
        if (heap[child] >= v)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = v;
}

/** Gather/selection scratch of the cold fallback paths. A query fills
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
    : window_(window_intervals), tailCap_(64)
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
        s.tail.clear();
        s.builtCount = 0;
        s.builtCap = 0;
    } else {
        if (held_ > 0)
            cur_ = cur_ + 1 == window_ ? 0 : cur_ + 1;
        ++held_;
    }
}

void
WindowedQuantile::addBatch(const double *data, std::size_t n)
{
    auto &samples = current().samples;
    const std::size_t need = samples.size() + n;
    if (samples.capacity() < need)
        samples.reserve(2 * need); // headroom: see reserve()
    samples.insert(samples.end(), data, data + n);
    total_ += n;
}

void
WindowedQuantile::freshenTail(Segment &s) const
{
    const std::size_t n = s.samples.size();
    if (s.builtCount == n && s.builtCap == tailCap_)
        return;
    const std::size_t k = std::min(tailCap_, n);
    auto &t = s.tail;
    if (t.capacity() < k)
        t.reserve(2 * k); // headroom: see reserve()
    // Top-k scan: min-heap of the k largest, one predictable compare
    // per remaining sample, then sort the survivors ascending.
    t.assign(s.samples.begin(),
             s.samples.begin() + static_cast<std::ptrdiff_t>(k));
    std::make_heap(t.begin(), t.end(), std::greater<double>{});
    for (std::size_t i = k; i < n; ++i) {
        if (s.samples[i] > t[0]) {
            t[0] = s.samples[i];
            siftDownMin(t);
        }
    }
    std::sort(t.begin(), t.end());
    s.builtCount = n;
    s.builtCap = tailCap_;
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
    if (m <= kMergeMax) {
        // The merge is exact only if every segment's tail reaches rank
        // m: at most m of the window's top-m samples can live in one
        // segment, so a complete tail or one holding >= m samples
        // suffices.
        bool covered = true;
        for (std::size_t i = 0; i < held_; ++i) {
            Segment &s = segs_[slot(i)];
            freshenTail(s);
            if (s.tail.size() != s.samples.size() && s.tail.size() < m) {
                covered = false;
                break;
            }
        }
        if (covered)
            return mergeTails(lo, rank - static_cast<double>(lo));
    }
    return gatherSelect(p, m);
}

double
WindowedQuantile::mergeTails(std::size_t lo, double frac) const
{
    const std::size_t m = total_ - lo;
    cursors_.clear();
    for (std::size_t i = 0; i < held_; ++i)
        cursors_.push_back(segs_[slot(i)].tail.size());
    // Pop the m largest samples in descending order; the (m-1)-th pop
    // is the (lo+1)-th ascending order statistic and the m-th is the
    // lo-th, matching percentileSelect's lo_val/hi_val exactly.
    double lo_val = 0.0;
    double hi_val = 0.0;
    for (std::size_t pop = 1; pop <= m; ++pop) {
        std::size_t best = held_;
        double best_val = 0.0;
        for (std::size_t i = 0; i < held_; ++i) {
            const std::size_t c = cursors_[i];
            if (c == 0)
                continue;
            const double v = segs_[slot(i)].tail[c - 1];
            if (best == held_ || v > best_val) {
                best = i;
                best_val = v;
            }
        }
        --cursors_[best];
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
WindowedQuantile::gatherSelect(double p, std::size_t m) const
{
    std::vector<double> &scratch = selectScratch();
    if (scratch.capacity() < total_)
        scratch.reserve(2 * total_); // headroom: see reserve()
    scratch.clear();
    for (std::size_t i = 0; i < held_; ++i) {
        const Segment &s = segs_[slot(i)];
        scratch.insert(scratch.end(), s.samples.begin(), s.samples.end());
    }
    // Teach the next query's rebuild to keep enough tail that this
    // rank merges incrementally.
    if (m <= kMergeMax / 2)
        tailCap_ = std::max(tailCap_, 2 * m);
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
    freshenTail(cur);
    const std::size_t len = cur.tail.size();
    if (len == n || len >= m) {
        // The tail is exactly this segment's top-len multiset, sorted
        // ascending, so ascending rank n-k is tail[len-k].
        const double lo_val = cur.tail[len - m];
        if (frac == 0.0 || lo + 1 >= n)
            return lo_val;
        return lo_val + frac * (cur.tail[len - m + 1] - lo_val);
    }
    std::vector<double> &scratch = selectScratch();
    if (scratch.capacity() < n)
        scratch.reserve(2 * n); // headroom: see reserve()
    scratch.assign(cur.samples.begin(), cur.samples.end());
    if (m <= kMergeMax / 2)
        tailCap_ = std::max(tailCap_, 2 * m);
    return percentileSelect(scratch.data(), scratch.size(), p);
}

void
WindowedQuantile::clear()
{
    for (Segment &s : segs_) {
        s.samples.clear();
        s.tail.clear();
        s.builtCount = 0;
        s.builtCap = 0;
    }
    held_ = 0;
    cur_ = 0;
    total_ = 0;
}

} // namespace twig::stats
