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
 * sorted free-time lanes: cores are grouped into at most three
 * equal-speed classes, each keeping its cores' free-times sorted
 * ascending, so the earliest-free core is always lane 0 and starting
 * a request is one branch-free SIMD pass that drops lane 0 and
 * inserts the completion at its rank, instead of a heap sift or a
 * linear scan over every core. Service times are drawn in speculative
 * chunks (one batched sampling pass per ~64 requests, unconsumed draws
 * rolled back exactly), new arrivals are dispatched straight from the
 * sorted arrival array instead of round-tripping through the backlog
 * ring, and the QoS window is an incrementally maintained
 * stats::WindowedQuantile whose per-interval tails are only as deep as
 * the p99 rank. run() asks for the window p99 first, so the interval's
 * own p99 is a lookup in the tail that query built.
 *
 * A queue object holds only what carries between intervals: the
 * backlog ring, the QoS window and the RNG. Everything run() rebuilds
 * each interval (the three classes' lanes, the arrival and sort
 * buffers, the draw chunk and the returned result) is one scratch per
 * thread, shared by every queue that thread steps, so a fleet pays for
 * one scratch per stepping thread instead of one per queue. Each
 * buffer is rewritten before it is read, and a class rewrites every
 * lane its insert reads, +inf padding included, so no queue can see
 * another's values.
 *
 * Results are bit-identical to the seed's algorithm (concatenate-then-
 * sort window, linear-scan dispatch), which the tests keep as
 * oracle::ReferenceQueueSim (tests/oracle/): both consume the RNG
 * stream in the same order.
 */

#ifndef TWIG_SIM_QUEUE_SIM_HH
#define TWIG_SIM_QUEUE_SIM_HH

#include <cstddef>
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
     * The returned reference points at this thread's scratch: it stays
     * valid until the next run() of *any* queue on the same thread.
     * Copy it if you need it longer.
     *
     * @param rps        offered load
     * @param assignment cores granted this interval
     * @param inflation  interference service-time inflation (>= 1)
     */
    const QueueIntervalResult &run(double t0, double dt, double rps,
                                   const CoreAssignment &assignment,
                                   double inflation);

    std::size_t backlog() const { return pendingCount_; }
    const ServiceProfile &profile() const { return profile_; }

  private:
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

    stats::WindowedQuantile window_;
};

} // namespace twig::sim

#endif // TWIG_SIM_QUEUE_SIM_HH
