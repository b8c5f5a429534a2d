/**
 * @file
 * Custom-service example: Twig is service-agnostic — to manage a new
 * workload you only describe its simulated behaviour (service time,
 * memory traffic, cache footprint, instruction mix) and give Twig its
 * QoS target; no Twig code changes.
 *
 * This example models a hypothetical gRPC API gateway, derives its
 * capacity and a QoS target with the paper's methodology (load sweep
 * at full allocation), then lets Twig-S manage it under a diurnal
 * load.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/mapper.hh"
#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "services/microbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"
#include "stats/summary.hh"

using namespace twig;

namespace {

/** Describe the new workload to the simulator. */
sim::ServiceProfile
apiGateway()
{
    sim::ServiceProfile p;
    p.name = "api-gateway";
    p.maxLoadRps = 3200.0;      // placeholder; re-derived below
    p.baseServiceTimeMs = 5.0;  // JSON parse + routing + auth
    p.serviceTimeCv = 0.8;
    p.freqExponent = 0.9;
    p.memTrafficPerReqMB = 3.0;
    p.bwSensitivity = 0.8;
    p.llcFootprintMB = 14.0;
    p.llcSensitivity = 0.4;
    p.instructionsPerReqM = 12.0;
    p.uopsPerInstr = 1.25;
    p.branchFraction = 0.22;
    p.branchMissRate = 0.018;
    p.l1dPerInstr = 0.40;
    p.l1iPerInstr = 0.09;
    p.llcAccessPerInstr = 0.022;
    p.llcBaseMissRate = 0.45;
    p.timeoutMs = 300.0;
    p.qosTargetMs = 50.0; // placeholder; re-derived below
    return p;
}

} // namespace

int
main()
{
    const sim::MachineConfig machine;
    auto profile = apiGateway();

    // 1. Derive capacity and QoS target with the paper's methodology:
    //    sweep the load at full allocation until latency blows up; set
    //    the target above the p99 observed near the knee.
    core::Mapper mapper(machine);
    const auto full = mapper.map({core::ResourceRequest{
        machine.numCores, machine.dvfs.maxIndex()}});
    const double capacity = 0.9 * static_cast<double>(machine.numCores) /
        (profile.baseServiceTimeMs * 1e-3);
    profile.maxLoadRps = capacity;

    sim::Server probe(machine, 21);
    probe.addService(profile, std::make_unique<sim::FixedLoad>(
                                  profile.maxLoadRps, 0.9));
    std::vector<double> p99s;
    for (int i = 0; i < 60; ++i) {
        const auto s = probe.runInterval({full});
        if (i >= 5)
            p99s.push_back(s.services[0].p99Ms);
    }
    profile.qosTargetMs = stats::percentileOf(p99s, 99.0) * 1.3;
    profile.timeoutMs = profile.qosTargetMs * 6.0;
    std::printf("%s: derived max load %.0f RPS, QoS target %.1f ms\n",
                profile.name.c_str(), profile.maxLoadRps,
                profile.qosTargetMs);

    // 2. Fit its Eq. 2 power model and hand everything to Twig.
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto spec = harness::makeTwigSpec(profile, machine, 22);

    // 3. Manage it under a diurnal load (a day = 400 steps here).
    const std::size_t steps = 1600;
    sim::Server server(machine, 23);
    server.addService(profile,
                      std::make_unique<sim::DiurnalLoad>(
                          profile.maxLoadRps, 0.2, 0.85, 400));
    core::TwigManager twig(core::TwigConfig::fast(steps), machine,
                           maxima, {spec}, 24);
    harness::ExperimentRunner runner(server, twig);
    harness::RunOptions opt;
    opt.steps = steps;
    opt.summaryWindow = 400; // one full diurnal period
    opt.onStep = [&](std::size_t step,
                     const sim::ServerIntervalStats &stats) {
        if ((step + 1) % 200 == 0) {
            std::printf("  step %4zu  load %4.0f%%  p99 %6.1f ms  "
                        "cores %4.1f @ %.1f GHz  %5.1f W\n",
                        step + 1,
                        100.0 * stats.services[0].offeredRps /
                            profile.maxLoadRps,
                        stats.services[0].p99Ms,
                        stats.services[0].effectiveCores,
                        stats.services[0].freqGhz,
                        stats.socketPowerW);
        }
    };
    const auto metrics = runner.run(opt);
    std::printf("\nlast diurnal period: QoS guarantee %.1f%%, mean "
                "power %.1f W\n",
                metrics.services[0].qosGuaranteePct,
                metrics.meanPowerW);
    return 0;
}
