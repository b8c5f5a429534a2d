/**
 * @file
 * Exact streaming quantiles over a trailing window of intervals,
 * maintained incrementally.
 *
 * The QoS measure the simulator reports each control interval is the
 * p99 over the completions of the last W intervals. The seed
 * implementation kept one vector per interval and rebuilt the whole
 * window by concatenation before sorting it; the first optimized
 * version kept one flat buffer and re-scanned every sample in the
 * window per query. This version maintains the tail structure *across*
 * intervals instead of rescanning the window:
 *
 *  - Samples live in per-interval segments held in a ring, so opening
 *    a new interval recycles the oldest segment in O(1) instead of
 *    compacting a flat buffer, and adding samples is a pure append.
 *
 *  - Each segment caches a sorted tail of its largest tailCap samples,
 *    built lazily at query time by one top-k scan over the segment.
 *    Only the current interval's segment ever changes, so older
 *    segments' tails are built once and reused for every query over
 *    the rest of their life in the window. A high-percentile query
 *    then merge-selects over the W cached tails — a few hundred
 *    comparisons — instead of scanning every sample in the window.
 *
 *  - Queries the tails cannot answer exactly (low percentiles, or a
 *    rank deeper than the kept tails) fall back to gathering the
 *    segments into a scratch buffer and selecting, and grow tailCap so
 *    the next query rebuilds deep enough to answer incrementally.
 *
 * Every path returns exact order statistics with percentileSelect's
 * interpolation, so results are bit-identical to sort-then-interpolate
 * over the same multiset. Steady state performs zero allocations.
 *
 * Not thread-safe: one instance belongs to one simulated queue.
 */

#ifndef TWIG_STATS_WINDOWED_QUANTILE_HH
#define TWIG_STATS_WINDOWED_QUANTILE_HH

#include <cstddef>
#include <vector>

namespace twig::stats {

/** Trailing-window sample store with incremental exact quantiles. */
class WindowedQuantile
{
  public:
    /** @param window_intervals  trailing window length (>= 1). */
    explicit WindowedQuantile(std::size_t window_intervals);

    /**
     * Open a new interval, evicting the oldest one when the window is
     * full. Samples added afterwards belong to the new interval.
     */
    void beginInterval();

    /** Add one sample to the current interval. */
    void
    add(double x)
    {
        current().samples.push_back(x);
        ++total_;
    }

    /** Append @p n samples to the current interval in one shot. */
    void addBatch(const double *data, std::size_t n);

    /** Grow the current interval's sample buffer ahead of @p n add()
     * calls (no-op when capacity already suffices). Growth doubles the
     * needed capacity so a slowly creeping per-interval maximum
     * (Poisson highs over a long run) settles after one growth instead
     * of reallocating at every new high-water mark. */
    void
    reserve(std::size_t n)
    {
        auto &samples = current().samples;
        const std::size_t need = samples.size() + n;
        if (samples.capacity() < need)
            samples.reserve(2 * need);
    }

    /** Samples currently in the window. */
    std::size_t count() const { return total_; }
    bool empty() const { return total_ == 0; }

    /** Samples in the current (most recently begun) interval. */
    std::size_t
    lastIntervalCount() const
    {
        return held_ == 0 ? 0 : segs_[cur_].samples.size();
    }

    /** Number of intervals currently held (<= window length). */
    std::size_t intervals() const { return held_; }

    /**
     * p-th percentile (p in [0, 100], linear interpolation) over every
     * sample in the window; 0 when empty.
     */
    double percentile(double p) const;

    /** p-th percentile over the current interval's samples only. */
    double lastIntervalPercentile(double p) const;

    /** Drop everything (capacity kept). */
    void clear();

  private:
    /** One interval's samples plus its cached largest-samples tail. */
    struct Segment
    {
        std::vector<double> samples;
        /** Ascending; exactly the largest min(builtCount, builtCap)
         * samples of this segment. Valid only when builtCount ==
         * samples.size() and builtCap == tailCap_ (see freshenTail).
         */
        std::vector<double> tail;
        std::size_t builtCount = 0; ///< samples.size() at last build
        std::size_t builtCap = 0;   ///< tailCap_ at last build
    };

    Segment &current() { return segs_[cur_]; }
    const Segment &current() const { return segs_[cur_]; }

    /** Ring slot of the i-th held interval (0 = oldest). */
    std::size_t
    slot(std::size_t i) const
    {
        return (cur_ + window_ - held_ + 1 + i) % window_;
    }

    /** (Re)build @p s's tail cache if its samples or the tail cap
     * changed since the last build. One top-k scan over the segment;
     * a no-op for every segment older than the current interval. */
    void freshenTail(Segment &s) const;

    /** Exact interpolated percentile by descending merge over the held
     * segments' fresh tails; callable only when every tail covers rank
     * depth m = total - lo. */
    double mergeTails(std::size_t lo, double frac) const;

    /** Gather every held sample into the thread's select scratch and
     * select (cold fallback; grows tailCap_ so the next query covers
     * this rank). */
    double gatherSelect(double p, std::size_t m) const;

    std::size_t window_;
    std::size_t held_ = 0;  ///< intervals currently in the window
    std::size_t cur_ = 0;   ///< ring index of the current interval
    std::size_t total_ = 0; ///< samples across every held interval
    /** Per-segment tail depth; adapts upward when a query needs a
     * deeper rank than the tails keep. */
    mutable std::size_t tailCap_;
    /** Ring of window_ segments; oldest = (cur_ - held_ + 1) mod W.
     * Mutable because queries freshen the lazily built tail caches —
     * the sample multiset itself never changes under const methods. */
    mutable std::vector<Segment> segs_;
    /** Per-segment descending-merge cursors (reserved to window_). */
    mutable std::vector<std::size_t> cursors_;
};

} // namespace twig::stats

#endif // TWIG_STATS_WINDOWED_QUANTILE_HH
