#include "sim/queue_sim.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hh"
#include "common/isa.hh"
#include "common/sim_counters.hh"

namespace twig::sim {

namespace {

using common::simprof::Phase;
using common::simprof::ScopedPhaseTimer;

/** Service times are pre-drawn in chunks of this many requests (see
 * run); the last chunk's unconsumed draws are rolled back. */
constexpr std::size_t kDrawChunk = 64;

/** Eight free-time lanes on one cache line. A class's lane array is
 * whole blocks, so the W-lane vectors of every version (W divides 8)
 * tile it with aligned loads. */
struct alignas(64) LaneBlock
{
    double t[8];
};

/** The vector type of a W-lane insert (GCC vector extensions),
 * allowed to alias the lanes' doubles. */
template <std::size_t W>
struct LaneVec
{
    typedef double Vec
        __attribute__((vector_size(W * sizeof(double)), may_alias));
};

/**
 * Remove lane 0 of the @p n ascending free-times at @p lanes (the
 * consumed minimum, <= @p c) and insert @p c; returns the new lane 0.
 *
 * With a the old lanes, the new lane j is min(max(a[j], c), a[j + 1]):
 * a[j + 1] below c's rank, c at it, a[j] above it (for j = 0, max(a[0],
 * c) = c). One branch-free pass, W lanes at a time: a[j + 1] is a
 * shuffle of the vector and the next aligned one, which the +inf
 * padding and the trailing +inf block make readable. The next minimum
 * is min(c, a[1]), so lane 0 is never reloaded. Only min, max and
 * shuffles touch the values, so every W keeps the same multiset of
 * free-times and yields the same sequence of minima.
 */
template <std::size_t W>
__attribute__((always_inline)) inline double
insertLanes(LaneBlock *lanes, std::uint32_t n, double c)
{
    static_assert(W == 2 || W == 4);
    typedef typename LaneVec<W>::Vec Vec;
    Vec *v = reinterpret_cast<Vec *>(lanes);
    Vec cur = v[0];
    const double next_min = cur[1] < c ? cur[1] : c;
    const std::size_t n_vecs = (n + W - 1) / W;
    for (std::size_t i = 0; i < n_vecs; ++i) {
        const Vec next = v[i + 1];
        Vec above;
        if constexpr (W == 2)
            above = __builtin_shufflevector(cur, next, 1, 2);
        else
            above = __builtin_shufflevector(cur, next, 1, 2, 3, 4);
        const Vec kept = cur > c ? cur : c;
        v[i] = kept < above ? kept : above;
        cur = next;
    }
    return next_min;
}

// One version per ISA level, each at its own width: 4 lanes (one AVX2
// register) under x86-64-v3, 2 (one SSE2 register) at the baseline. A
// vector wider than the ISA's registers lives on the stack, and an
// 8-lane x86-64-v4 version won no consistent time on a 512-node fleet.
// Builds without per-ISA versions (common/isa.hh) get the baseline
// one only.
#if TWIG_ISA_VERSIONS
__attribute__((target("arch=x86-64-v3"))) double
insertCompletion(LaneBlock *lanes, std::uint32_t n, double c)
{
    return insertLanes<4>(lanes, n, c);
}

__attribute__((target("default")))
#endif
double
insertCompletion(LaneBlock *lanes, std::uint32_t n, double c)
{
    return insertLanes<2>(lanes, n, c);
}

/** Reserve with headroom: growth doubles the requested capacity so a
 * creeping high-water mark (Poisson maxima over a long run) settles
 * after one growth instead of reallocating at every new maximum. */
void
reserveSlack(std::vector<double> &v, std::size_t n)
{
    if (v.capacity() < n)
        v.reserve(2 * n);
}

/** Zero every field of @p res, keeping latenciesMs capacity. */
void
resetResult(QueueIntervalResult &res)
{
    res.latenciesMs.clear();
    res.p99Ms = 0.0;
    res.p99InstantMs = 0.0;
    res.completed = 0;
    res.arrivals = 0;
    res.dropped = 0;
    res.queuedAtEnd = 0;
    res.busyCoreSeconds = 0.0;
}

/**
 * Cores of one equal-speed class, their free-times kept sorted in
 * lanes.
 *
 * FCFS dispatch always consumes the earliest-free core — start =
 * max(arrival, lane 0) — so starting a request is one insertCompletion
 * pass: lane 0 out, the completion in at its rank. Stale free-times
 * (before the arrival cursor) are exactly the lowest lanes and are
 * consumed first, so no retirement pass is needed.
 */
struct ClassLanes
{
    double speed = 1.0;
    double occupancy = 1.0;
    /** mean_service_s / speed, hoisted out of the dispatch loop. */
    double svcTime = 0.0;
    std::uint32_t nCores = 0;
    /** Lane 0, the earliest free-time (+inf when nCores == 0). */
    double minFree = 0.0;
    /** The nCores free-times, ascending, padded with +inf to whole
     * blocks, then one all-+inf block. Grows only. */
    std::vector<LaneBlock> lanes;

    /** Reset for an interval starting at @p t0: every core frees at
     * exactly t0. */
    void configure(double spd, double occ, std::uint32_t n_cores,
                   double t0);
};

/**
 * What RequestQueueSim::run rebuilds every interval and no interval
 * reads back. One per thread, shared by every queue the thread steps,
 * and safe under the thread pool because each worker owns its own
 * (the same rule as nn/matrix.cc's panels). The buffers grow to the
 * largest interval any of those queues has run and are then reused.
 */
struct RunScratch
{
    QueueIntervalResult result;
    /** This interval's arrivals, sorted ascending. */
    std::vector<double> arrivals;
    /** Bucket-sort scratch: per-bucket offsets and scatter target. */
    std::vector<std::uint32_t> bucketOffsets;
    std::vector<double> sortScratch;
    /** Dedicated / shared-full / shared-fractional speed classes. */
    std::array<ClassLanes, 3> classes;
    /** Speculatively pre-drawn service times (see run). */
    std::array<double, kDrawChunk> draws{};
};

RunScratch &
runScratch()
{
    thread_local RunScratch scratch;
    return scratch;
}

void
ClassLanes::configure(double spd, double occ, std::uint32_t n_cores,
                      double t0)
{
    const double inf = std::numeric_limits<double>::infinity();
    speed = spd;
    occupancy = occ;
    nCores = n_cores;
    minFree = n_cores == 0 ? inf : t0;
    // Blocks past these are never read, whatever an earlier run of a
    // longer class left there.
    const std::size_t blocks = (n_cores + 7u) / 8u + 1u;
    if (lanes.size() < blocks)
        lanes.resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t i = 0; i < 8; ++i)
            lanes[b].t[i] = 8 * b + i < n_cores ? t0 : inf;
    }
}

/** Draw a Poisson count (normal approximation above lambda = 64). */
std::size_t
poisson(common::Rng &rng, double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda > 64.0) {
        const double n = rng.normal(lambda, std::sqrt(lambda));
        return n <= 0.0 ? 0 : static_cast<std::size_t>(n + 0.5);
    }
    // Knuth's method for small rates.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    std::size_t k = 0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > limit);
    return k - 1;
}

/** Sort @p s's arrivals ascending: bucket scatter + one insertion-sort
 * pass, expected O(n) for uniform arrival times (same sequence
 * std::sort produces). */
void
sortArrivals(RunScratch &s, double t0, double dt)
{
    const std::size_t n = s.arrivals.size();
    if (n < 64) {
        std::sort(s.arrivals.begin(), s.arrivals.end());
        return;
    }
    // The arrival times are uniform over [t0, t0 + dt), so a bucket
    // scatter leaves a handful of elements per bucket and the
    // insertion-sort pass below moves each element O(1) slots on
    // average: expected O(n) for exactly the sequence std::sort
    // produces. Bucket count is capped so the counting array stays
    // L1-resident; the scatter's random accesses were the dominant
    // cost with one bucket per element.
    const std::size_t nb = n < 4096 ? n : 4096;
    s.bucketOffsets.resize(nb + 1); // resize grows geometrically
    std::fill(s.bucketOffsets.begin(), s.bucketOffsets.end(), 0u);
    s.sortScratch.resize(n);
    const double scale = static_cast<double>(nb) / dt;
    for (double a : s.arrivals) {
        std::size_t b = static_cast<std::size_t>((a - t0) * scale);
        if (b >= nb)
            b = nb - 1;
        ++s.bucketOffsets[b + 1];
    }
    for (std::size_t b = 1; b <= nb; ++b)
        s.bucketOffsets[b] += s.bucketOffsets[b - 1];
    for (double a : s.arrivals) {
        std::size_t b = static_cast<std::size_t>((a - t0) * scale);
        if (b >= nb)
            b = nb - 1;
        s.sortScratch[s.bucketOffsets[b]++] = a;
    }
    for (std::size_t i = 1; i < n; ++i) {
        const double v = s.sortScratch[i];
        std::size_t j = i;
        while (j > 0 && s.sortScratch[j - 1] > v) {
            s.sortScratch[j] = s.sortScratch[j - 1];
            --j;
        }
        s.sortScratch[j] = v;
    }
    s.arrivals.swap(s.sortScratch);
}

/** Generate this interval's arrivals from @p rng, sorted ascending
 * into @p s.arrivals. run() dispatches straight from the array and
 * only spills the unstarted remainder into the backlog ring. */
void
generateArrivals(common::Rng &rng, RunScratch &s, double t0, double dt,
                 double rps)
{
    ScopedPhaseTimer timer(Phase::Arrivals);

    // New Poisson arrivals, uniform within the interval.
    const std::size_t n_new = poisson(rng, rps * dt);
    s.result.arrivals = n_new;
    s.arrivals.resize(n_new);
    for (auto &a : s.arrivals)
        a = t0 + rng.uniform() * dt;
    sortArrivals(s, t0, dt);
}

} // namespace

RequestQueueSim::RequestQueueSim(const ServiceProfile &profile,
                                 common::Rng rng, double ref_freq_ghz,
                                 std::size_t max_pending,
                                 double service_rate_scale)
    : profile_(profile), rng_(rng), refFreqGhz_(ref_freq_ghz),
      rateScale_(service_rate_scale), maxPending_(max_pending),
      window_(kQosWindowIntervals)
{
    common::fatalIf(profile.baseServiceTimeMs <= 0.0,
                    "service ", profile.name,
                    ": base service time must be > 0");
    common::fatalIf(ref_freq_ghz <= 0.0, "reference frequency must be > 0");
    common::fatalIf(service_rate_scale <= 0.0,
                    "service rate scale must be > 0");
}

void
RequestQueueSim::pendingPopFront()
{
    pendingHead_ = (pendingHead_ + 1) & (pendingBuf_.size() - 1);
    --pendingCount_;
}

void
RequestQueueSim::pendingPushBack(double arrival)
{
    if (pendingCount_ == pendingBuf_.size())
        pendingGrow();
    pendingBuf_[(pendingHead_ + pendingCount_) & (pendingBuf_.size() - 1)] =
        arrival;
    ++pendingCount_;
}

void
RequestQueueSim::pendingGrow()
{
    // Nearly every queue backs up a few requests at some point and
    // most never more, so the first ring is small; an overload doubles
    // it from there.
    const std::size_t new_cap =
        pendingBuf_.empty() ? 64 : pendingBuf_.size() * 2;
    std::vector<double> grown(new_cap);
    for (std::size_t i = 0; i < pendingCount_; ++i)
        grown[i] = pendingBuf_[(pendingHead_ + i) & (pendingBuf_.size() - 1)];
    pendingBuf_.swap(grown);
    pendingHead_ = 0;
}

const QueueIntervalResult &
RequestQueueSim::run(double t0, double dt, double rps,
                     const CoreAssignment &assignment, double inflation)
{
    common::fatalIf(dt <= 0.0, "queue sim: interval must be > 0");
    common::fatalIf(inflation < 1.0, "queue sim: inflation must be >= 1");
    common::fatalIf(assignment.freqGhz <= 0.0,
                    "queue sim: frequency must be > 0");

    RunScratch &scratch = runScratch();
    QueueIntervalResult &res = scratch.result;
    resetResult(res);
    const double t_end = t0 + dt;

    generateArrivals(rng_, scratch, t0, dt, rps);
    const std::vector<double> &arrivals = scratch.arrivals;
    // Backlog cap, applied up front exactly as the seed's per-arrival
    // push loop applied it: no requests leave the queue between the
    // pushes, so the first (maxPending - backlog) sorted arrivals are
    // accepted and the rest dropped. The accepted arrivals stay in the
    // arrival array — dispatch reads the backlog ring first and then
    // the array directly, and only the unstarted remainder is spilled
    // into the ring at the end, instead of round-tripping every
    // request through ring pushes.
    const std::size_t room =
        pendingCount_ >= maxPending_ ? 0 : maxPending_ - pendingCount_;
    const std::size_t accepted = std::min(arrivals.size(), room);
    res.dropped += arrivals.size() - accepted;

    // Group the logical server set into at most three equal-speed
    // classes. Within a class the cores are interchangeable, so FCFS
    // dispatch only ever needs each class's earliest-free core — the
    // per-class sorted free-time lanes replace the seed's linear scan
    // over every core.
    const double shared_freq_gain = std::pow(
        assignment.sharedFreqGhz / assignment.freqGhz,
        profile_.freqExponent);
    // Time-shared pool, work-conserving: the co-runners consume pool
    // *capacity*, so this service sees `usable` full-speed cores (at
    // the arbitrated frequency) plus at most one fractional core.
    std::size_t n_shared_full = 0;
    double usable = assignment.usableSharedCores();
    while (usable >= 1.0) {
        ++n_shared_full;
        usable -= 1.0;
    }
    const bool has_fraction = usable > 0.05;

    std::array<ClassLanes, 3> &classes = scratch.classes;
    classes[0].configure(
        1.0, 1.0, static_cast<std::uint32_t>(assignment.dedicatedCores.size()),
        t0);
    classes[1].configure(shared_freq_gain, 1.0,
                         static_cast<std::uint32_t>(n_shared_full), t0);
    classes[2].configure(shared_freq_gain * usable, usable,
                         has_fraction ? 1u : 0u, t0);

    // Hot loop iterates only the classes that actually have cores
    // (commonly one), in class order so first-wins ties match the
    // seed's scan.
    ClassLanes *active[3];
    int n_active = 0;
    for (ClassLanes &c : classes) {
        if (c.nCores != 0)
            active[n_active++] = &c;
    }
    if (n_active == 0) {
        // No cores this interval: everything just queues.
        for (std::size_t i = 0; i < accepted; ++i)
            pendingPushBack(arrivals[i]);
        res.queuedAtEnd = pendingCount_;
        res.p99Ms = pendingCount_ == 0
            ? 0.0
            : (t_end - pendingFront()) * 1000.0;
        return res;
    }

    // Mean on-core time at this DVFS state, before interference.
    const double freq_scale = std::pow(refFreqGhz_ / assignment.freqGhz,
                                       profile_.freqExponent);
    const double mean_service_s =
        profile_.baseServiceTimeMs * 1e-3 * freq_scale * inflation /
        rateScale_;

    // The on-core time distribution is fixed for the interval: derive
    // the underlying-normal parameters once (exactly what
    // Rng::lognormalMean computes per draw) instead of per request.
    const double cv = profile_.serviceTimeCv;
    const double lognormal_sigma2 = std::log(1.0 + cv * cv);
    const double lognormal_mu =
        std::log(mean_service_s) - 0.5 * lognormal_sigma2;
    const double lognormal_sigma = std::sqrt(lognormal_sigma2);
    for (ClassLanes &c : classes) {
        if (c.nCores != 0)
            c.svcTime = mean_service_s / c.speed;
    }

    std::size_t n_started = 0;
    double busy_core_s = 0.0;
    reserveSlack(res.latenciesMs, pendingCount_ + accepted);
    double *draws = scratch.draws.data();

    const double timeout_s = profile_.timeoutMs * 1e-3;
    std::size_t ringLeft = pendingCount_;
    std::size_t arrIdx = 0;
    std::size_t remaining = ringLeft + accepted;

    // Service times are drawn speculatively, one batched pass per
    // chunk of requests: the generator state is snapshotted at each
    // refill, and after the loop the unconsumed draws of the final
    // chunk are rolled back by restoring the snapshot and replaying
    // exactly the consumed count. Timed-out requests consume no draw
    // (as in the seed), they just drain the chunk slower. The
    // first chunk is small because saturated intervals can break out
    // after a handful of requests.
    common::Rng chunkSnapshot = rng_;
    std::size_t chunkLen = 0;
    std::size_t chunkPos = 0;
    std::size_t nextChunkSize = 16;

    bool done = remaining == 0;
    while (!done) {
        if (chunkPos == chunkLen) {
            ScopedPhaseTimer draw_timer(Phase::Draws);
            chunkSnapshot = rng_;
            chunkLen = std::min(remaining, nextChunkSize);
            nextChunkSize = kDrawChunk;
            rng_.lognormalBatch(lognormal_mu, lognormal_sigma,
                                draws, chunkLen);
            chunkPos = 0;
        }

        ScopedPhaseTimer timer(Phase::Dispatch);
        // FCFS dispatch: keep starting requests while a core frees up
        // before the interval's end. The backlog ring (older) drains
        // before the new-arrival array; both are ascending.
        while (chunkPos < chunkLen) {
            const double arrival =
                ringLeft != 0 ? pendingBuf_[pendingHead_]
                              : arrivals[arrIdx];
            // Dispatch to the class whose earliest-free core gives the
            // earliest *expected completion* (not merely earliest-free:
            // a slow fractional pool core is often idle precisely
            // because it is slow, and an earliest-free rule would
            // funnel requests onto it). Strict `<` in class order
            // dedicated -> shared-full -> fractional matches the
            // seed's first-wins linear scan.
            ClassLanes *best = nullptr;
            double best_completion = 1e300;
            double start = 0.0;
            for (int c = 0; c < n_active; ++c) {
                ClassLanes &cls = *active[c];
                // max(arrival, earliest free) — the seed's start
                // rule, as a conditional move.
                const double f =
                    cls.minFree > arrival ? cls.minFree : arrival;
                const double completion = f + cls.svcTime;
                if (completion < best_completion) {
                    best_completion = completion;
                    best = &cls;
                    start = f;
                }
            }
            if (start >= t_end) {
                done = true; // next slot is beyond this interval
                break;
            }
            if (ringLeft != 0) {
                pendingPopFront();
                --ringLeft;
            } else {
                ++arrIdx;
            }
            --remaining;

            // Client abandons requests that waited past the timeout;
            // the measured latency is censored at the timeout value.
            if (timeout_s > 0.0 && start - arrival > timeout_s) {
                ++res.dropped;
                res.latenciesMs.push_back(profile_.timeoutMs);
                if (remaining == 0) {
                    done = true;
                    break;
                }
                continue;
            }

            ClassLanes &cls = *best;
            const double raw = draws[chunkPos++];
            // x / 1.0 == x exactly; skip the divide for the dedicated
            // class rather than prove it harmless.
            const double on_core =
                cls.speed == 1.0 ? raw : raw / cls.speed;
            const double completion = start + on_core;
            cls.minFree =
                insertCompletion(cls.lanes.data(), cls.nCores, completion);

            const double latency_ms = (completion - arrival) * 1000.0;
            res.latenciesMs.push_back(latency_ms);
            busy_core_s += on_core * cls.occupancy;
            ++n_started;
            if (remaining == 0) {
                done = true;
                break;
            }
        }
    }

    if (chunkPos < chunkLen) {
        // Un-draw the speculative leftovers: restore the snapshot and
        // replay only what dispatch actually consumed, leaving the
        // generator in exactly the state per-request draws would have.
        ScopedPhaseTimer draw_timer(Phase::Draws);
        rng_ = chunkSnapshot;
        if (chunkPos > 0)
            rng_.lognormalBatch(lognormal_mu, lognormal_sigma,
                                draws, chunkPos);
    }
    // Spill unstarted new arrivals into the backlog ring, behind any
    // unstarted older backlog (same FIFO the push-everything path
    // leaves behind).
    for (std::size_t i = arrIdx; i < accepted; ++i)
        pendingPushBack(arrivals[i]);

    res.completed = n_started;
    res.queuedAtEnd = pendingCount_;
    res.busyCoreSeconds = busy_core_s;

    {
        ScopedPhaseTimer timer(Phase::Quantile);

        // Measured QoS: p99 over the trailing window of intervals,
        // answered incrementally from per-interval tails.
        window_.beginInterval();
        window_.addBatch(res.latenciesMs.data(), res.latenciesMs.size());

        if (!window_.empty()) {
            res.p99Ms = window_.percentile(99.0);
        } else if (pendingCount_ > 0) {
            // Saturated and stalled: report the age of the oldest request
            // so the tail latency keeps growing across intervals.
            res.p99Ms = (t_end - pendingFront()) * 1000.0;
        }
        // Asked second, the interval's own p99 ranks no deeper than the
        // window's: a lookup in the tail the window query just built.
        if (!res.latenciesMs.empty())
            res.p99InstantMs = window_.lastIntervalPercentile(99.0);
        if (pendingCount_ > 0) {
            // Never let a stale window mask a currently-growing backlog.
            const double oldest_ms = (t_end - pendingFront()) * 1000.0;
            res.p99Ms = std::max(res.p99Ms, oldest_ms);
            res.p99InstantMs = std::max(res.p99InstantMs, oldest_ms);
        }
        if (res.latenciesMs.empty() && pendingCount_ == 0)
            res.p99InstantMs = res.p99Ms;
    }
    return res;
}

} // namespace twig::sim
