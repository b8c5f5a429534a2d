#include "sim/interference.hh"

#include <algorithm>
#include <cmath>

namespace twig::sim {

void
InterferenceModel::evaluateInto(
    const std::vector<InterferenceDemand> &demands,
    std::vector<InterferenceEffect> &effects) const
{
    effects.assign(demands.size(), InterferenceEffect{});

    // Aggregate demand on the shared resources.
    double total_bw = 0.0;
    double total_footprint = 0.0;
    for (const auto &d : demands) {
        total_bw += d.offeredRps * d.profile->memTrafficPerReqMB;
        total_footprint += d.profile->llcFootprintMB;
    }

    // Bandwidth pressure: queueing at the memory controller grows
    // superlinearly as utilisation rises, then linearly once the bus is
    // oversubscribed.
    const double bw_util = total_bw / machine_.memBandwidthMBs;
    const double bw_pressure = 0.4 * bw_util * bw_util * bw_util +
        std::max(0.0, bw_util - 1.0);

    // LLC pressure: thrashing sets in as the summed footprints approach
    // and exceed the cache size.
    const double llc_ratio = total_footprint / machine_.llcSizeMB;
    const double llc_pressure = std::max(0.0, llc_ratio - 0.85);

    for (std::size_t i = 0; i < demands.size(); ++i) {
        const ServiceProfile &p = *demands[i].profile;
        InterferenceEffect &e = effects[i];

        const double bw_penalty = p.bwSensitivity * bw_pressure;

        // A service with a larger share of the total footprint suffers
        // more evictions when the cache overcommits.
        const double llc_share = total_footprint > 0.0
            ? p.llcFootprintMB / total_footprint
            : 0.0;
        const double llc_penalty =
            p.llcSensitivity * llc_pressure * (0.5 + llc_share);

        e.llcMissFactor = 1.0 + 2.0 * llc_pressure * (0.5 + llc_share);
        e.serviceTimeInflation = 1.0 + bw_penalty + llc_penalty;
        // The extra time is memory stall: cycles grow, instructions do
        // not, so IPC drops under contention.
        e.memStallFraction =
            (e.serviceTimeInflation - 1.0) / e.serviceTimeInflation;
    }
}

} // namespace twig::sim
