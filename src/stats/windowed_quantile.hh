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
 *  - Each segment keeps a sorted tail of its largest samples, only as
 *    deep as a query's rank needs, in place: a top-k selection moves
 *    them to the front of the segment's buffer, descending, so a tail
 *    costs no memory of its own. A query at rank depth m = n - lo
 *    (lo = floor(p/100 * (n-1))) needs each segment's largest
 *    min(n_s, m) samples; a segment whose tail is shorter than that
 *    (an append empties it) is rebuilt from its samples,
 *    k = min(n_s, m + m/4 + 4) deep, the headroom absorbing a window
 *    whose rank creeps up as load climbs. Only the current interval's
 *    segment ever changes, so older segments' tails are mostly reused
 *    for the rest of their life in the window. The query then
 *    merge-selects over the W tails: a few dozen comparisons instead
 *    of a scan of every sample in the window.
 *
 *  - m never falls as n grows, and the window holds the current
 *    interval, so the window p99 ranks at least as deep as the
 *    interval's own p99: asked after the window query, the interval
 *    p99 is a lookup in the tail that query built.
 *
 *  - Ranks deeper than kMergeMax (low percentiles) gather the segments
 *    into a per-thread scratch buffer and select instead.
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
        Segment &s = current();
        s.samples.push_back(x);
        s.tailLen = 0; // the new sample may outrank the tail
        ++total_;
    }

    /** Append @p n samples to the current interval in one shot. Growth
     * doubles the needed capacity so a slowly creeping per-interval
     * maximum (Poisson highs over a long run) settles after one growth
     * instead of reallocating at every new high-water mark. */
    void addBatch(const double *data, std::size_t n);

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

  private:
    /** One interval's samples, its largest first. */
    struct Segment
    {
        /** The interval's samples in no meaningful order, except that
         * the first tailLen are its largest, descending. */
        std::vector<double> samples;
        std::size_t tailLen = 0; ///< the tail; 0 after any append
    };

    Segment &current() { return segs_[cur_]; }
    const Segment &current() const { return segs_[cur_]; }

    /** Ring slot of the i-th held interval (0 = oldest). */
    std::size_t
    slot(std::size_t i) const
    {
        return (cur_ + window_ - held_ + 1 + i) % window_;
    }

    /** Make @p s's tail hold its largest min(n_s, m) samples: a no-op
     * when it is deep enough, else one top-k selection over the
     * segment with headroom (see the file comment). */
    void coverTail(Segment &s, std::size_t m) const;

    /** Exact interpolated percentile by descending merge over the held
     * segments' tails; callable only once every tail covers rank depth
     * m = total - lo. */
    double mergeTails(std::size_t lo, double frac) const;

    /** Gather every held sample into the thread's select scratch and
     * select (ranks deeper than kMergeMax). */
    double gatherSelect(double p) const;

    std::size_t window_;
    std::size_t held_ = 0;  ///< intervals currently in the window
    std::size_t cur_ = 0;   ///< ring index of the current interval
    std::size_t total_ = 0; ///< samples across every held interval
    /** Ring of window_ segments; oldest = (cur_ - held_ + 1) mod W.
     * Mutable because queries reorder a segment's samples to build its
     * tail; the sample multiset never changes under const methods. */
    mutable std::vector<Segment> segs_;
    /** Per-segment descending-merge cursors (reserved to window_). */
    mutable std::vector<std::size_t> cursors_;
};

} // namespace twig::stats

#endif // TWIG_STATS_WINDOWED_QUANTILE_HH
