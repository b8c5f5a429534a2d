/**
 * @file
 * Twig's system monitor (paper §III-B1): gathers per-service PMCs each
 * interval, smooths each aggregated counter with a weighted sum over
 * the last eta time steps, and feature-scales the result to [0, 1] by
 * max-value normalisation (ceilings from the calibration
 * microbenchmarks).
 */

#ifndef TWIG_CORE_MONITOR_HH
#define TWIG_CORE_MONITOR_HH

#include <array>
#include <cstddef>
#include <vector>

#include "sim/pmc.hh"

namespace twig::core {

/** Smoothed, normalised state of one service (values in [0, 1]). */
using ServiceState = std::array<float, sim::kNumPmcs>;

/** Per-service smoothing + normalisation of the PMC stream. Keeps a
 * fixed eta-deep ring of snapshots per service, so recording and
 * reading the state allocate nothing. */
class SystemMonitor
{
  public:
    /**
     * @param num_services number of monitored services
     * @param maxima       per-counter normalisation ceilings
     * @param eta          smoothing window (paper: eta = 5)
     */
    SystemMonitor(std::size_t num_services, const sim::PmcVector &maxima,
                  std::size_t eta = 5);

    /** Record the latest raw counters of service @p idx. */
    void update(std::size_t idx, const sim::PmcVector &raw);

    /** Most recent smoothed, normalised state of service @p idx (zeros
     * before the first update). */
    ServiceState state(std::size_t idx) const;

    /** Write the concatenated state of all services (the joint BDQ
     * input) into @p out, resized to numServices() * kNumPmcs. */
    void jointStateInto(std::vector<float> &out) const;

    /** Reset service @p idx's history (service swap). */
    void reset(std::size_t idx);

    std::size_t numServices() const { return history_.size(); }
    std::size_t eta() const { return eta_; }

  private:
    /** Up to eta normalised snapshots of one service in a ring. */
    struct History
    {
        std::vector<sim::PmcVector> ring; ///< eta slots
        std::size_t newest = 0;           ///< slot of the newest
        std::size_t count = 0;            ///< snapshots held (<= eta)
    };

    /** state() into @p out (kNumPmcs floats). */
    void stateInto(std::size_t idx, float *out) const;

    sim::PmcVector maxima_;
    std::size_t eta_;
    std::vector<History> history_;
};

} // namespace twig::core

#endif // TWIG_CORE_MONITOR_HH
