#include "sim/queue_sim.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hh"
#include "common/sim_counters.hh"

namespace twig::sim {

namespace {

using common::simprof::Phase;
using common::simprof::ScopedPhaseTimer;

/** Service times are pre-drawn in chunks of this many requests (see
 * run); the last chunk's unconsumed draws are rolled back. */
constexpr std::size_t kDrawChunk = 64;

// ThreadSanitizer instruments the ifunc resolver target_clones
// emits, and resolvers run during relocation — before the TSan
// runtime's thread state exists — so any TSan build that links this
// file would crash before main. Under TSan the default-ISA scan is
// used instead. (Same constraint as nn/matrix.cc.)
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TWIG_SIM_CLONES                                                     \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",        \
                                 "default")))
#else
#define TWIG_SIM_CLONES
#endif

/**
 * Minimum of @p n doubles, n a positive multiple of 8 (lanes are
 * padded with +inf to their stride). Four independent accumulator
 * chains so the reduction pipelines (and vectorizes under the wider
 * ISA clones) instead of serializing on one min dependency. FP min is
 * exact and order-independent, so any association gives the identical
 * result.
 */
TWIG_SIM_CLONES double
laneMin(const double *v, std::uint32_t n)
{
    double m0 = v[0];
    double m1 = v[1];
    double m2 = v[2];
    double m3 = v[3];
    m0 = std::min(m0, v[4]);
    m1 = std::min(m1, v[5]);
    m2 = std::min(m2, v[6]);
    m3 = std::min(m3, v[7]);
    for (std::uint32_t i = 8; i < n; i += 4) {
        m0 = std::min(m0, v[i]);
        m1 = std::min(m1, v[i + 1]);
        m2 = std::min(m2, v[i + 2]);
        m3 = std::min(m3, v[i + 3]);
    }
    return std::min(std::min(m0, m1), std::min(m2, m3));
}

/**
 * Min + arg-min over exactly 8 slots (+inf padding makes short
 * buckets safe): a 3-level conditional-move tournament — no loop, no
 * data-dependent branches. Ties resolve to the lower slot; slot
 * identity never affects simulation output.
 */
inline void
min8(const double *v, double &m, std::uint32_t &arg)
{
    const double m01 = std::min(v[0], v[1]);
    const std::uint32_t a01 = v[1] < v[0] ? 1u : 0u;
    const double m23 = std::min(v[2], v[3]);
    const std::uint32_t a23 = v[3] < v[2] ? 3u : 2u;
    const double m45 = std::min(v[4], v[5]);
    const std::uint32_t a45 = v[5] < v[4] ? 5u : 4u;
    const double m67 = std::min(v[6], v[7]);
    const std::uint32_t a67 = v[7] < v[6] ? 7u : 6u;
    const double m03 = std::min(m01, m23);
    const std::uint32_t a03 = m23 < m01 ? a23 : a01;
    const double m47 = std::min(m45, m67);
    const std::uint32_t a47 = m67 < m45 ? a67 : a45;
    m = std::min(m03, m47);
    arg = m47 < m03 ? a47 : a03;
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
 * Cores of one equal-speed class, dispatched from a calendar of
 * free-times.
 *
 * All nCores free-times live in the calendar at all times, bucketed
 * by value into kBuckets fixed-width slots over the interval (bucket
 * index is one multiply; buckets partition the time axis in order, so
 * the smallest values live in the first occupied buckets). FCFS
 * dispatch always consumes the earliest-free core — start =
 * max(arrival, min) — so stale values (free before the arrival
 * cursor) are exactly the minima and get consumed and replaced first;
 * the calendar stays compact around the cursor without any explicit
 * retirement pass. Consuming is one swap-remove at the cached min
 * slot, one append at the new completion's bucket, and a rescan of
 * the first occupied bucket at or after the old one (branchless cmov
 * tournament; SIMD lane scan when a bucket degenerates, e.g. every
 * core parked at t0 or an overload piling into the last bucket).
 * Everything is branch-predictable by construction — an earlier
 * variant that cached the next few minima to shorten the dependency
 * chain lost to this one on mispredicts.
 */
struct ClassCal
{
    /** Bucket count per interval. 256 makes a bucket a few ms at dt =
     * 1s — comfortably below typical service times, so busy
     * free-times spread over several buckets and the min rescan
     * touches only a handful of slots. Workloads whose service time
     * still collapses into one bucket fall back to the SIMD lane
     * scan. */
    static constexpr std::size_t kBuckets = 256;
    static constexpr std::size_t kOccWords = kBuckets / 64;

    double speed = 1.0;
    double occupancy = 1.0;
    /** mean_service_s / speed, hoisted out of the dispatch loop. */
    double svcTime = 0.0;
    std::uint32_t nCores = 0;
    /** Earliest free-time (+inf when nCores == 0) and its slot. */
    double minFree = 0.0;
    std::uint32_t minBucket = 0;
    std::uint32_t minSlot = 0;
    /** Bit b set iff counts[b] > 0. */
    std::array<std::uint64_t, kOccWords> occWords{};
    std::array<std::uint16_t, kBuckets> counts{};
    /** Busy free-times, bucket b at [b * stride, b * stride +
     * counts[b]). A bucket can hold every core of the class. */
    std::vector<double> slots;
    std::uint32_t stride = 0;
    /** Bucket mapping for this interval: trunc((t - base) * invW),
     * clamped to [0, kBuckets - 1]. Monotone in t, so bucket
     * comparisons are exact order facts about the times. */
    double base = 0.0;
    double invW = 0.0;

    /** Reset for an interval starting at @p t0: every core frees at
     * exactly t0, i.e. nCores values in bucket 0. */
    void configure(double spd, double occ, std::uint32_t n_cores,
                   double t0, double dt);

    std::int64_t
    bucketOf(double t) const
    {
        const auto b = static_cast<std::int64_t>((t - base) * invW);
        return b < 0 ? 0
                     : (b >= static_cast<std::int64_t>(kBuckets)
                            ? static_cast<std::int64_t>(kBuckets) - 1
                            : b);
    }

    void
    setOcc(std::size_t b)
    {
        occWords[b >> 6] |= 1ULL << (b & 63);
    }

    void
    clearOcc(std::size_t b)
    {
        occWords[b >> 6] &= ~(1ULL << (b & 63));
    }

    void consumeMin(double completion);
    void recomputeMinFrom(std::size_t fromBucket);
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
    std::array<ClassCal, 3> cals;
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
ClassCal::configure(double spd, double occ, std::uint32_t n_cores,
                    double t0, double dt)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Invariant: every slot beyond a bucket's count holds +inf, so
    // min scans can read a full 8-slot lane unconditionally. Restore
    // it for the buckets the previous interval populated (O(previous
    // core count)) before the layout (stride) potentially changes.
    for (std::size_t w = 0; w < kOccWords; ++w) {
        std::uint64_t word = occWords[w];
        while (word != 0) {
            const std::size_t b =
                (w << 6) +
                static_cast<std::size_t>(__builtin_ctzll(word));
            word &= word - 1;
            std::fill_n(slots.begin() +
                            static_cast<std::ptrdiff_t>(b * stride),
                        counts[b], inf);
            counts[b] = 0;
        }
        occWords[w] = 0;
    }
    speed = spd;
    occupancy = occ;
    nCores = n_cores;
    base = t0;
    invW = static_cast<double>(kBuckets) / dt;
    stride = (n_cores + 7u) & ~7u;
    const std::size_t need = kBuckets * stride;
    if (slots.size() < need)
        slots.resize(need, inf); // grows only; settles after warmup
    minBucket = 0;
    minSlot = 0;
    if (n_cores == 0) {
        minFree = inf;
        return;
    }
    // Every core frees at exactly t0: nCores values in bucket 0.
    counts[0] = static_cast<std::uint16_t>(n_cores);
    occWords[0] = 1;
    std::fill(slots.begin(), slots.begin() + n_cores, t0);
    minFree = t0;
}

void
ClassCal::consumeMin(double completion)
{
    // Swap-remove the cached minimum (appends never move existing
    // slots, so the cached position is always current), re-padding
    // the vacated slot with +inf.
    const std::size_t b = minBucket;
    {
        double *lane = slots.data() + b * stride;
        const std::uint32_t cnt = counts[b];
        lane[minSlot] = lane[cnt - 1];
        lane[cnt - 1] = std::numeric_limits<double>::infinity();
        counts[b] = static_cast<std::uint16_t>(cnt - 1);
        if (cnt == 1)
            clearOcc(b);
    }
    // completion > start >= minFree, so its bucket is >= minBucket and
    // the post-insert minimum still lives at or after minBucket.
    const auto nb = static_cast<std::size_t>(bucketOf(completion));
    slots[nb * stride + counts[nb]] = completion;
    counts[nb] = static_cast<std::uint16_t>(counts[nb] + 1);
    setOcc(nb);
    recomputeMinFrom(b);
}

void
ClassCal::recomputeMinFrom(std::size_t fromBucket)
{
    // Buckets partition the time axis in order, so the minimum lives
    // in the first occupied bucket; it is never below fromBucket.
    std::size_t w = fromBucket >> 6;
    std::uint64_t word = occWords[w] & (~0ULL << (fromBucket & 63));
    while (word == 0)
        word = occWords[++w]; // nCores > 0: some bucket is occupied
    const std::size_t fb =
        (w << 6) + static_cast<std::size_t>(__builtin_ctzll(word));
    const double *lane = slots.data() + fb * stride;
    const std::uint32_t cnt = counts[fb];
    std::uint32_t arg;
    double m;
    if (cnt <= 8) {
        // Common case: one branchless 8-slot tournament (+inf padding
        // covers short buckets).
        min8(lane, m, arg);
    } else {
        // Degenerate bucket (e.g. every core parked at t0, or an
        // overload piling completions into the last bucket): SIMD
        // lane scan over the padded stride, then locate the slot by
        // equality. Ties pick the first slot; slot identity never
        // affects outputs.
        m = laneMin(lane, (cnt + 7u) & ~7u);
        arg = 0;
        for (std::uint32_t i = 0; i < cnt; ++i) {
            if (lane[i] == m) {
                arg = i;
                break;
            }
        }
    }
    minFree = m;
    minBucket = static_cast<std::uint32_t>(fb);
    minSlot = arg;
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
    // per-class free-time calendar replaces the seed's linear scan
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

    std::array<ClassCal, 3> &cals = scratch.cals;
    cals[0].configure(
        1.0, 1.0, static_cast<std::uint32_t>(assignment.dedicatedCores.size()),
        t0, dt);
    cals[1].configure(shared_freq_gain, 1.0,
                      static_cast<std::uint32_t>(n_shared_full), t0, dt);
    cals[2].configure(shared_freq_gain * usable, usable,
                      has_fraction ? 1u : 0u, t0, dt);

    // Hot loop iterates only the classes that actually have cores
    // (commonly one), in class order so first-wins ties match the
    // seed's scan.
    ClassCal *active[3];
    int n_active = 0;
    for (ClassCal &c : cals) {
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
    for (ClassCal &c : cals) {
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
            ClassCal *best = nullptr;
            double best_completion = 1e300;
            double start = 0.0;
            for (int c = 0; c < n_active; ++c) {
                ClassCal &cal = *active[c];
                // max(arrival, earliest free) — the seed's start
                // rule, as a conditional move.
                const double f =
                    cal.minFree > arrival ? cal.minFree : arrival;
                const double completion = f + cal.svcTime;
                if (completion < best_completion) {
                    best_completion = completion;
                    best = &cal;
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

            ClassCal &cal = *best;
            const double raw = draws[chunkPos++];
            // x / 1.0 == x exactly; skip the divide for the dedicated
            // class rather than prove it harmless.
            const double on_core =
                cal.speed == 1.0 ? raw : raw / cal.speed;
            const double completion = start + on_core;
            cal.consumeMin(completion);

            const double latency_ms = (completion - arrival) * 1000.0;
            res.latenciesMs.push_back(latency_ms);
            busy_core_s += on_core * cal.occupancy;
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

void
RequestQueueSim::reset()
{
    pendingHead_ = 0;
    pendingCount_ = 0;
    window_.clear();
}

} // namespace twig::sim
