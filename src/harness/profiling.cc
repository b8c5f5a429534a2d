#include "harness/profiling.hh"

#include <memory>

#include "core/mapper.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

namespace twig::harness {

std::vector<core::PowerSample>
profileServicePower(const sim::ServiceProfile &profile,
                    const sim::MachineConfig &machine,
                    const PowerProfilingOptions &options,
                    std::uint64_t seed)
{
    std::vector<core::PowerSample> samples;
    core::Mapper mapper(machine);

    for (double load : options.loadLevels) {
        for (std::size_t cores : options.coreCounts) {
            if (cores > machine.numCores)
                continue;
            for (std::size_t dvfs : options.dvfsStates) {
                if (dvfs >= machine.dvfs.numStates())
                    continue;

                // Fresh server per configuration point so queue backlog
                // from an undersized configuration cannot leak into the
                // next measurement.
                sim::Server server(machine, seed ^ (cores * 131 + dvfs));
                server.addService(
                    profile, std::make_unique<sim::FixedLoad>(
                                 profile.maxLoadRps, load));

                const auto assignment =
                    mapper.map({core::ResourceRequest{cores, dvfs}});

                double power = 0.0;
                bool saturated = false;
                for (std::size_t i = 0; i < options.intervalsPerConfig;
                     ++i) {
                    const auto &stats = server.runInterval(assignment);
                    const auto &svc = stats.services[0];
                    power += svc.attributedPowerW;
                    // An undersized configuration piles up a backlog;
                    // its power says nothing about steady operation,
                    // so the campaign drops the point (the paper
                    // profiles working configurations) at its first
                    // saturated interval. The server is private to
                    // the point, so stopping early changes no sample.
                    if (svc.dropped > 0 ||
                        svc.queuedAtEnd >
                            svc.arrivals / 5 + 10) {
                        saturated = true;
                        break;
                    }
                }
                if (saturated)
                    continue;
                power /=
                    static_cast<double>(options.intervalsPerConfig);

                samples.push_back({load, static_cast<double>(cores),
                                   machine.dvfs.freq(dvfs), power});
            }
        }
    }
    return samples;
}

core::TwigServiceSpec
makeDeployedTwigSpec(const sim::ServiceProfile &profile)
{
    return {profile.name, profile.qosTargetMs, profile.maxLoadRps,
            std::nullopt};
}

core::TwigServiceSpec
makeTwigSpec(const sim::ServiceProfile &profile,
             const sim::MachineConfig &machine, std::uint64_t seed)
{
    core::TwigServiceSpec spec = makeDeployedTwigSpec(profile);
    const auto samples =
        profileServicePower(profile, machine, {}, seed);
    common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    spec.powerModel.emplace().fit(samples, rng);
    return spec;
}

baselines::BaselineServiceSpec
makeBaselineSpec(const sim::ServiceProfile &profile)
{
    return {profile.name, profile.qosTargetMs, profile.maxLoadRps};
}

} // namespace twig::harness
