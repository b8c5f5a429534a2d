#include "oracle/reference_queue_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace twig::oracle {

namespace {

/** One logical server: next-free time plus a speed factor (< 1 for
 * time-shared cores). */
struct LogicalCore
{
    double freeAt;
    double speed;
    /** Fraction of the physical core this service occupies while the
     * request runs (1 for dedicated, 1/shareCount for shared). */
    double occupancy;
};

/**
 * The seed's percentileOf: copy the samples, fully std::sort them,
 * interpolate between closest ranks. The library percentileOf selects
 * instead of sorting; sort and selection return identical values over
 * the same multiset.
 */
double
percentileSortRef(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    if (p <= 0.0)
        return *std::min_element(values.begin(), values.end());
    if (p >= 100.0)
        return *std::max_element(values.begin(), values.end());

    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= values.size())
        return values.back();
    return values[lo] + frac * (values[lo + 1] - values[lo]);
}

} // namespace

ReferenceQueueSim::ReferenceQueueSim(const sim::ServiceProfile &profile,
                                     common::Rng rng, double ref_freq_ghz,
                                     std::size_t max_pending,
                                     double service_rate_scale)
    : profile_(profile), rng_(rng), refFreqGhz_(ref_freq_ghz),
      rateScale_(service_rate_scale), maxPending_(max_pending)
{
    common::fatalIf(profile.baseServiceTimeMs <= 0.0,
                    "service ", profile.name,
                    ": base service time must be > 0");
    common::fatalIf(ref_freq_ghz <= 0.0, "reference frequency must be > 0");
    common::fatalIf(service_rate_scale <= 0.0,
                    "service rate scale must be > 0");
}

std::size_t
ReferenceQueueSim::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda > 64.0) {
        const double n = rng_.normal(lambda, std::sqrt(lambda));
        return n <= 0.0 ? 0 : static_cast<std::size_t>(n + 0.5);
    }
    // Knuth's method for small rates.
    const double limit = std::exp(-lambda);
    double p = 1.0;
    std::size_t k = 0;
    do {
        ++k;
        p *= rng_.uniform();
    } while (p > limit);
    return k - 1;
}

const sim::QueueIntervalResult &
ReferenceQueueSim::run(double t0, double dt, double rps,
                       const sim::CoreAssignment &assignment,
                       double inflation)
{
    common::fatalIf(dt <= 0.0, "queue sim: interval must be > 0");
    common::fatalIf(inflation < 1.0, "queue sim: inflation must be >= 1");
    common::fatalIf(assignment.freqGhz <= 0.0,
                    "queue sim: frequency must be > 0");

    sim::QueueIntervalResult &res = result_;
    res = sim::QueueIntervalResult{};
    const double t_end = t0 + dt;

    // New Poisson arrivals, uniform within the interval, sorted and
    // pushed through the backlog queue.
    const std::size_t n_new = poisson(rps * dt);
    res.arrivals = n_new;
    std::vector<double> arrivals(n_new);
    for (auto &a : arrivals)
        a = t0 + rng_.uniform() * dt;
    std::sort(arrivals.begin(), arrivals.end());
    for (double a : arrivals) {
        if (pending_.size() >= maxPending_) {
            ++res.dropped;
            continue;
        }
        pending_.push_back(a);
    }

    // Build the logical server set for this interval.
    std::vector<LogicalCore> cores;
    cores.reserve(assignment.totalCoreIds());
    for (std::size_t i = 0; i < assignment.dedicatedCores.size(); ++i)
        cores.push_back({t0, 1.0, 1.0});
    const double shared_freq_gain = std::pow(
        assignment.sharedFreqGhz / assignment.freqGhz,
        profile_.freqExponent);
    double usable = assignment.usableSharedCores();
    while (usable >= 1.0) {
        cores.push_back({t0, shared_freq_gain, 1.0});
        usable -= 1.0;
    }
    if (usable > 0.05)
        cores.push_back({t0, shared_freq_gain * usable, usable});
    if (cores.empty()) {
        res.queuedAtEnd = pending_.size();
        res.p99Ms = pending_.empty()
            ? 0.0
            : (t_end - pending_.front()) * 1000.0;
        return res;
    }

    const double freq_scale = std::pow(refFreqGhz_ / assignment.freqGhz,
                                       profile_.freqExponent);
    const double mean_service_s =
        profile_.baseServiceTimeMs * 1e-3 * freq_scale * inflation /
        rateScale_;

    // FCFS dispatch: linear scan over every logical core per request.
    const double timeout_s = profile_.timeoutMs * 1e-3;
    while (!pending_.empty()) {
        const double arrival = pending_.front();
        auto it = cores.begin();
        double best_completion = 1e300;
        for (auto c = cores.begin(); c != cores.end(); ++c) {
            const double s = std::max(arrival, c->freeAt);
            const double completion = s + mean_service_s / c->speed;
            if (completion < best_completion) {
                best_completion = completion;
                it = c;
            }
        }
        const double start = std::max(arrival, it->freeAt);
        if (start >= t_end)
            break;
        pending_.pop_front();

        // Client abandons requests that waited past the timeout; the
        // measured latency is censored at the timeout value.
        if (timeout_s > 0.0 && start - arrival > timeout_s) {
            ++res.dropped;
            res.latenciesMs.push_back(profile_.timeoutMs);
            continue;
        }

        const double raw =
            rng_.lognormalMean(mean_service_s, profile_.serviceTimeCv);
        const double on_core = raw / it->speed;
        const double completion = start + on_core;
        it->freeAt = completion;

        const double latency_ms = (completion - arrival) * 1000.0;
        res.latenciesMs.push_back(latency_ms);
        res.busyCoreSeconds += on_core * it->occupancy;
        ++res.completed;
    }

    res.queuedAtEnd = pending_.size();

    // Measured QoS: p99 over the trailing window, concatenate-then-sort.
    recentLatencies_.push_back(res.latenciesMs);
    while (recentLatencies_.size() > sim::kQosWindowIntervals)
        recentLatencies_.pop_front();
    std::vector<double> window;
    for (const auto &v : recentLatencies_)
        window.insert(window.end(), v.begin(), v.end());

    if (!res.latenciesMs.empty())
        res.p99InstantMs = percentileSortRef(res.latenciesMs, 99.0);

    if (!window.empty()) {
        res.p99Ms = percentileSortRef(std::move(window), 99.0);
    } else if (!pending_.empty()) {
        // Saturated and stalled: report the age of the oldest request
        // so the tail latency keeps growing across intervals.
        res.p99Ms = (t_end - pending_.front()) * 1000.0;
    }
    if (!pending_.empty()) {
        // Never let a stale window mask a currently-growing backlog.
        const double oldest_ms = (t_end - pending_.front()) * 1000.0;
        res.p99Ms = std::max(res.p99Ms, oldest_ms);
        res.p99InstantMs = std::max(res.p99InstantMs, oldest_ms);
    }
    if (res.latenciesMs.empty() && pending_.empty())
        res.p99InstantMs = res.p99Ms;
    return res;
}

} // namespace twig::oracle
