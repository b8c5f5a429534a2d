/**
 * @file
 * Event-driven multi-server FCFS queue: the latency engine of one
 * simulated LC service.
 *
 * Each control interval, Poisson arrivals are generated at the offered
 * load and dispatched FCFS onto the cores granted to the service. A
 * request's on-core time is log-normal, scaled by DVFS
 * ((fmax/f)^freqExponent) and by the interference inflation factor
 * computed for the interval. Unstarted requests carry over between
 * intervals, so overload makes tail latency blow up across intervals —
 * exactly the behaviour the paper's capacity sweep looks for.
 *
 * Time-shared cores (resource arbitration, paper §IV) are modelled as
 * cores running at 1/shareCount speed.
 *
 * The hot path is allocation-free in steady state and dispatches from
 * a calendar of core free-times: cores are grouped into at most three
 * equal-speed classes, each class buckets its cores' free-times by
 * value into fixed-width time slots (indexed lookup + intra-bucket
 * scan, SIMD where a bucket degenerates), so the earliest-free core is
 * always in the first occupied bucket and consuming it is O(bucket
 * occupancy) instead of a heap sift or a linear scan over every core.
 * Service times are drawn in speculative chunks (one batched sampling
 * pass per ~64 requests, unconsumed draws rolled back exactly), new
 * arrivals are dispatched straight from the sorted arrival array
 * instead of round-tripping through the backlog ring, and the QoS
 * window is an incrementally maintained stats::WindowedQuantile.
 *
 * Results are bit-identical to the seed's algorithm (concatenate-then-
 * sort window, linear-scan dispatch), which the tests keep as
 * oracle::ReferenceQueueSim (tests/oracle/): both consume the RNG
 * stream in the same order.
 */

#ifndef TWIG_SIM_QUEUE_SIM_HH
#define TWIG_SIM_QUEUE_SIM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/machine.hh"
#include "sim/service_profile.hh"
#include "stats/windowed_quantile.hh"

namespace twig::sim {

/** Outcome of simulating one control interval for one service. */
struct QueueIntervalResult
{
    /** Latencies (ms) of requests that *started* service this
     * interval, plus each timed-out request's latency censored at the
     * timeout, in dispatch order. */
    std::vector<double> latenciesMs;
    /** p99 over the trailing QoS window (kQosWindowIntervals); when
     * nothing completed recently, the age of the oldest queued request
     * (overload signal). */
    double p99Ms = 0.0;
    /** p99 over this interval's completions only (no trailing window);
     * same overload fallback. Credit assignment wants this: it reflects
     * only the allocation that was actually active. */
    double p99InstantMs = 0.0;
    /** Requests that entered service. */
    std::size_t completed = 0;
    /** New arrivals this interval. */
    std::size_t arrivals = 0;
    /** Requests dropped because the pending queue overflowed, plus
     * requests that waited past the service's timeout. */
    std::size_t dropped = 0;
    /** Requests still waiting at interval end. */
    std::size_t queuedAtEnd = 0;
    /** Total on-core seconds consumed by requests started this interval
     * (weighted by core speed, i.e. real occupancy). */
    double busyCoreSeconds = 0.0;
};

/** Per-service queue simulator with cross-interval backlog. */
class RequestQueueSim
{
  public:
    /**
     * @param profile      the service's workload parameters
     * @param rng          private randomness stream
     * @param ref_freq_ghz frequency at which baseServiceTimeMs holds
     * @param max_pending  backlog cap (drops beyond; memory guard)
     * @param service_rate_scale per-core rate multiplier of the hosting
     *                     node class (MachineConfig::serviceRateScale);
     *                     1.0 is bitwise-identical to the unscaled path
     */
    RequestQueueSim(const ServiceProfile &profile, common::Rng rng,
                    double ref_freq_ghz, std::size_t max_pending = 200000,
                    double service_rate_scale = 1.0);

    /**
     * Simulate the interval [t0, t0+dt).
     *
     * The returned reference points at a member scratch that the next
     * run() overwrites; copy it if you need it to outlive the call.
     *
     * @param rps        offered load
     * @param assignment cores granted this interval
     * @param inflation  interference service-time inflation (>= 1)
     */
    const QueueIntervalResult &run(double t0, double dt, double rps,
                                   const CoreAssignment &assignment,
                                   double inflation);

    /** Clear the backlog (used when a service is swapped out). */
    void reset();

    std::size_t backlog() const { return pendingCount_; }
    const ServiceProfile &profile() const { return profile_; }

  private:
    /**
     * Cores of one equal-speed class, dispatched from a calendar of
     * free-times.
     *
     * All nCores free-times live in the calendar at all times,
     * bucketed by value into kBuckets fixed-width slots over the
     * interval (bucket index is one multiply; buckets partition the
     * time axis in order, so the smallest values live in the first
     * occupied buckets). FCFS dispatch always consumes the
     * earliest-free core — start = max(arrival, min) — so stale
     * values (free before the arrival cursor) are exactly the minima
     * and get consumed and replaced first; the calendar stays compact
     * around the cursor without any explicit retirement pass.
     * Consuming is one swap-remove at the cached min slot, one append
     * at the new completion's bucket, and a rescan of the first
     * occupied bucket at or after the old one (branchless cmov
     * tournament; SIMD lane scan when a bucket degenerates, e.g.
     * every core parked at t0 or an overload piling into the last
     * bucket). Everything is branch-predictable by construction — an
     * earlier variant that cached the next few minima to shorten the
     * dependency chain lost to this one on mispredicts.
     */
    struct ClassCal
    {
        /** Bucket count per interval. 256 makes a bucket a few ms at
         * dt = 1s — comfortably below typical service times, so busy
         * free-times spread over several buckets and the min rescan
         * touches only a handful of slots. Workloads whose service
         * time still collapses into one bucket fall back to the SIMD
         * lane scan. */
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

        /** Reset for an interval starting at @p t0: every core frees
         * at exactly t0, i.e. nCores values in bucket 0. */
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

    /** Draw a Poisson count (normal approximation above lambda = 64). */
    std::size_t poisson(double lambda);

    /** Generate this interval's arrivals, sorted ascending into
     * newArrivals_. run() dispatches straight from the array and only
     * spills the unstarted remainder into the backlog ring. */
    void generateArrivals(double t0, double dt, double rps);

    /** Sort newArrivals_ ascending: bucket scatter + one insertion-sort
     * pass, expected O(n) for uniform arrival times (same sequence
     * std::sort produces). */
    void sortArrivals(double t0, double dt);

    // Backlog ring buffer (arrival times of unstarted requests, FIFO).
    double pendingFront() const { return pendingBuf_[pendingHead_]; }
    void pendingPopFront();
    void pendingPushBack(double arrival);
    void pendingGrow();

    ServiceProfile profile_;
    common::Rng rng_;
    double refFreqGhz_;
    double rateScale_;
    std::size_t maxPending_;

    /** Power-of-two ring buffer; head/count indexing, amortized growth. */
    std::vector<double> pendingBuf_;
    std::size_t pendingHead_ = 0;
    std::size_t pendingCount_ = 0;

    // --- scratch (warm after the first few intervals) ---
    QueueIntervalResult result_;
    std::vector<double> newArrivals_;
    /** Bucket-sort scratch: per-bucket offsets and scatter target. */
    std::vector<std::uint32_t> bucketOffsets_;
    std::vector<double> sortScratch_;
    /** Dedicated / shared-full / shared-fractional speed classes. */
    std::array<ClassCal, 3> cals_;
    /** Speculatively pre-drawn service times (see run). */
    std::vector<double> drawBuf_;
    stats::WindowedQuantile window_;
};

} // namespace twig::sim

#endif // TWIG_SIM_QUEUE_SIM_HH
