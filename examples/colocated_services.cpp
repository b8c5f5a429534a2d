/**
 * @file
 * Colocation example: Twig-C managing two latency-critical services
 * (Masstree + Moses) that contend for memory bandwidth and LLC
 * capacity — the scenario the paper's introduction motivates.
 *
 * Shows the full Twig-C flow: per-service power-model fitting, the
 * multi-agent learning loop, the resource-arbitration behaviour when
 * the agents' requests collide, and the final per-service QoS/energy
 * summary.
 *
 * Usage: colocated_services [steps]   (default 1500)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;

int
main(int argc, char **argv)
{
    const std::size_t steps =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1500;

    const sim::MachineConfig machine;
    const auto masstree = services::masstree();
    const auto moses = services::moses();
    std::printf("colocating %s (QoS %.0f ms) and %s (QoS %.0f ms) on "
                "%zu cores\n",
                masstree.name.c_str(), masstree.qosTargetMs,
                moses.name.c_str(), moses.qosTargetMs,
                machine.numCores);

    // Twig needs a fitted Eq. 2 power model per service (the reward's
    // power term) and the PMC normalisation ceilings.
    const auto maxima = services::calibrateCounterMaxima(machine);
    std::vector<core::TwigServiceSpec> specs = {
        harness::makeTwigSpec(masstree, machine, 1),
        harness::makeTwigSpec(moses, machine, 2),
    };

    // Masstree at 30 % of max, Moses at 50 %: enough joint pressure
    // that the agents must coordinate through the shared trunk.
    sim::Server server(machine, 3);
    server.addService(masstree, std::make_unique<sim::FixedLoad>(
                                    masstree.maxLoadRps, 0.3));
    server.addService(moses, std::make_unique<sim::FixedLoad>(
                                 moses.maxLoadRps, 0.5));

    core::TwigManager twig(core::TwigConfig::fast(steps), machine,
                           maxima, std::move(specs), 4);

    harness::ExperimentRunner runner(server, twig);
    harness::RunOptions opt;
    opt.steps = steps;
    opt.summaryWindow = steps / 5;
    opt.onStep = [&](std::size_t step,
                     const sim::ServerIntervalStats &stats) {
        if ((step + 1) % (steps / 8) == 0) {
            std::printf("  step %5zu  masstree %5.1f ms (%4.1f cores) "
                        "| moses %5.1f ms (%4.1f cores) | %5.1f W\n",
                        step + 1, stats.services[0].p99Ms,
                        stats.services[0].effectiveCores,
                        stats.services[1].p99Ms,
                        stats.services[1].effectiveCores,
                        stats.socketPowerW);
        }
    };

    const auto metrics = runner.run(opt);
    std::printf("\nover the last %zu steps:\n",
                metrics.windowSteps);
    for (const auto &svc : metrics.services) {
        std::printf("  %-9s QoS guarantee %5.1f%%  mean tardiness "
                    "%.2f\n",
                    svc.name.c_str(), svc.qosGuaranteePct,
                    svc.meanTardiness);
    }
    std::printf("  socket power %.1f W\n", metrics.meanPowerW);
    return 0;
}
