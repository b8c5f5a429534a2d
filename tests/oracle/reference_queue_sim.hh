/**
 * @file
 * The seed's per-service queue simulator, kept as a test oracle for
 * sim::RequestQueueSim.
 *
 * Same constructor and run() contract as RequestQueueSim, and the same
 * Poisson, uniform and lognormalMean draws in the same order, so two
 * same-seeded instances driven through the same schedule must agree
 * bit for bit. The algorithm is the original one: every accepted
 * arrival passes through a std::deque backlog, each request scans
 * every logical core for the earliest completion, arrivals are
 * comparison-sorted, and the trailing p99 window is rebuilt each
 * interval by concatenating the per-interval latencies and sorting the
 * copy. tests/test_dispatch_diff.cc and bench/fig_dispatch.cc compare
 * the two; nothing under src/ links this library.
 */

#ifndef TWIG_ORACLE_REFERENCE_QUEUE_SIM_HH
#define TWIG_ORACLE_REFERENCE_QUEUE_SIM_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "common/rng.hh"
#include "sim/machine.hh"
#include "sim/queue_sim.hh"
#include "sim/service_profile.hh"

namespace twig::oracle {

class ReferenceQueueSim
{
  public:
    /** Parameters as sim::RequestQueueSim's constructor. */
    ReferenceQueueSim(const sim::ServiceProfile &profile, common::Rng rng,
                      double ref_freq_ghz, std::size_t max_pending = 200000,
                      double service_rate_scale = 1.0);

    /** Simulate [t0, t0+dt), as sim::RequestQueueSim::run. */
    const sim::QueueIntervalResult &
    run(double t0, double dt, double rps,
        const sim::CoreAssignment &assignment, double inflation);

    std::size_t backlog() const { return pending_.size(); }

  private:
    /** Draw a Poisson count (normal approximation above lambda = 64). */
    std::size_t poisson(double lambda);

    sim::ServiceProfile profile_;
    common::Rng rng_;
    double refFreqGhz_;
    double rateScale_;
    std::size_t maxPending_;
    /** Arrival times of unstarted requests, FIFO. */
    std::deque<double> pending_;
    /** Latency samples of the last sim::kQosWindowIntervals
     * intervals. */
    std::deque<std::vector<double>> recentLatencies_;
    sim::QueueIntervalResult result_;
};

} // namespace twig::oracle

#endif // TWIG_ORACLE_REFERENCE_QUEUE_SIM_HH
