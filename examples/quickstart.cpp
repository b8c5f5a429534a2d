/**
 * @file
 * Quickstart: manage a single latency-critical service (Masstree at
 * 50 % load) with Twig-S on the simulated server.
 *
 * Walks through the full public API:
 *   1. describe the machine and pick a service from the catalogue;
 *   2. calibrate the PMC normalisation ceilings (microbenchmarks);
 *   3. profile and fit the per-service power model (paper Eq. 2);
 *   4. run the Twig-S learning loop and watch the QoS guarantee rise
 *      and the energy drop as epsilon anneals.
 *
 * Usage: quickstart [steps]   (default 1500)
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

    // 1. The machine (defaults mirror one Xeon E5-2695v4 socket) and
    //    the service under management.
    const sim::MachineConfig machine;
    const sim::ServiceProfile service = services::masstree();
    std::printf("service %s: QoS target %.1f ms, max load %.0f RPS\n",
                service.name.c_str(), service.qosTargetMs,
                service.maxLoadRps);

    // 2. PMC normalisation ceilings from the calibration
    //    microbenchmarks (cpu-max, branchy, stream).
    const sim::PmcVector maxima =
        services::calibrateCounterMaxima(machine);

    // 3. Fit the Eq. 2 power model from a profiling campaign
    //    (random grid search + 5-fold cross-validation).
    const core::TwigServiceSpec spec =
        harness::makeTwigSpec(service, machine, /*seed=*/1);
    std::printf("power model: kappa=%.2f sigma=%.2f omega=%.2f\n",
                spec.powerModel->kappa(), spec.powerModel->sigma(),
                spec.powerModel->omega());

    // 4. Host the service at 50 % load and let Twig-S manage it.
    sim::Server server(machine, /*seed=*/2);
    server.addService(service, std::make_unique<sim::FixedLoad>(
                                   service.maxLoadRps, 0.5));

    core::TwigManager twig(core::TwigConfig::fast(steps), machine, maxima,
                           {spec}, /*seed=*/3);

    harness::ExperimentRunner runner(server, twig);
    harness::RunOptions options;
    options.steps = steps;
    options.summaryWindow = steps / 5;
    options.onStep = [&](std::size_t step,
                         const sim::ServerIntervalStats &stats) {
        if ((step + 1) % (steps / 10) == 0) {
            std::printf("  step %5zu  eps=%.2f  p99=%7.1f ms  "
                        "power=%5.1f W  cores=%4.1f @ %.1f GHz\n",
                        step + 1, twig.learner().epsilon(),
                        stats.services[0].p99Ms, stats.socketPowerW,
                        stats.services[0].effectiveCores,
                        stats.services[0].freqGhz);
        }
    };

    const auto metrics = runner.run(options);
    const auto &m = metrics.services[0];
    std::printf("\nover the last %zu steps:\n", metrics.windowSteps);
    std::printf("  QoS guarantee : %.1f %%\n", m.qosGuaranteePct);
    std::printf("  mean tardiness: %.2f\n", m.meanTardiness);
    std::printf("  mean power    : %.1f W\n", metrics.meanPowerW);
    std::printf("  energy        : %.0f J\n", metrics.energyJoules);
    return 0;
}
