/**
 * @file
 * Shared-resource interference between colocated services.
 *
 * Two mechanisms, following the contention behaviour the paper leans on
 * (§V-B2: "Moses has a high demand for cache capacity and memory
 * bandwidth, while Masstree is extremely sensitive to memory bandwidth
 * interference"):
 *
 *  * Memory bandwidth: each service demands rps * memTrafficPerReqMB of
 *    bandwidth. When aggregate demand exceeds the socket's sustainable
 *    bandwidth, every service's service time inflates proportionally to
 *    its bwSensitivity and the oversubscription ratio.
 *
 *  * LLC capacity: when the summed footprints exceed the LLC, each
 *    service's miss rate rises by the overcommit ratio weighted by how
 *    much of its footprint it loses, inflating service time via
 *    llcSensitivity and raising the LLC_MISSES counter.
 */

#ifndef TWIG_SIM_INTERFERENCE_HH
#define TWIG_SIM_INTERFERENCE_HH

#include <cstddef>
#include <vector>

#include "sim/machine.hh"
#include "sim/service_profile.hh"

namespace twig::sim {

/** Per-service interference outcome for one interval. */
struct InterferenceEffect
{
    /** Service-time multiplication factor (>= 1). */
    double serviceTimeInflation = 1.0;
    /** LLC miss-rate multiplication factor (>= 1). */
    double llcMissFactor = 1.0;
    /** Fraction of cycles stalled on memory (feeds IPC in the PMC
     * model). */
    double memStallFraction = 0.0;
};

/** Inputs describing one service's demand during the interval. */
struct InterferenceDemand
{
    const ServiceProfile *profile;
    double offeredRps;
};

/** Computes per-service interference effects for one interval. */
class InterferenceModel
{
  public:
    explicit InterferenceModel(const MachineConfig &machine)
        : machine_(machine)
    {
    }

    /**
     * @param demands  one entry per colocated service
     * @param effects  per-service effects, same order as @p demands
     *                 (no allocation once its capacity covers the
     *                 service count)
     */
    void evaluateInto(const std::vector<InterferenceDemand> &demands,
                      std::vector<InterferenceEffect> &effects) const;

  private:
    MachineConfig machine_;
};

} // namespace twig::sim

#endif // TWIG_SIM_INTERFERENCE_HH
