/**
 * @file
 * Transfer-learning example (paper §IV): train Twig-S on one service,
 * then swap the service at runtime. Twig keeps the trunk weights,
 * re-initialises the specialised output layers and re-anneals epsilon
 * over a short window, adapting far faster than learning from scratch.
 *
 * Usage: transfer_learning [learn_steps] [adapt_steps]
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
    const std::size_t learn_steps =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1500;
    const std::size_t adapt_steps =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 400;

    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto masstree = services::masstree();
    const auto moses = services::moses();

    // Phase 1: learn to manage Masstree at 50 % load.
    sim::Server server(machine, 10);
    server.addService(masstree, std::make_unique<sim::FixedLoad>(
                                    masstree.maxLoadRps, 0.5));
    core::TwigManager twig(
        core::TwigConfig::fast(learn_steps), machine, maxima,
        {harness::makeTwigSpec(masstree, machine, 11)}, 12);

    harness::ExperimentRunner runner(server, twig);
    harness::RunOptions learn;
    learn.steps = learn_steps;
    learn.summaryWindow = learn_steps / 5;
    const auto before = runner.run(learn);
    std::printf("after learning %s: QoS guarantee %.1f%%, power "
                "%.1f W\n",
                masstree.name.c_str(),
                before.services[0].qosGuaranteePct,
                before.meanPowerW);

    // Phase 2: the operator deploys Moses in Masstree's slot. Twig
    // transfers: trunk kept, output layers re-initialised, epsilon
    // re-annealed over a short window.
    server.replaceService(0, moses, std::make_unique<sim::FixedLoad>(
                                        moses.maxLoadRps, 0.5));
    twig.transferService(0, harness::makeTwigSpec(moses, machine, 13),
                         /*reexplore_steps=*/adapt_steps / 6);
    std::printf("\nswapped %s -> %s (transfer learning, epsilon back "
                "to %.2f)\n",
                masstree.name.c_str(), moses.name.c_str(),
                twig.learner().epsilon());

    harness::RunOptions adapt;
    adapt.steps = adapt_steps;
    adapt.summaryWindow = adapt_steps / 4;
    std::size_t met = 0, n = 0;
    adapt.onStep = [&](std::size_t step,
                       const sim::ServerIntervalStats &stats) {
        met += stats.services[0].p99Ms <= moses.qosTargetMs ? 1 : 0;
        ++n;
        if ((step + 1) % (adapt_steps / 8) == 0) {
            std::printf("  adapt step %4zu  QoS so far %5.1f%%  p99 "
                        "%.1f ms\n",
                        step + 1, 100.0 * met / n,
                        stats.services[0].p99Ms);
        }
    };
    const auto after = runner.run(adapt);
    std::printf("\nafter %zu adaptation steps on %s: QoS guarantee "
                "%.1f%% (window), power %.1f W\n",
                adapt_steps, moses.name.c_str(),
                after.services[0].qosGuaranteePct,
                after.meanPowerW);
    std::printf("(a fresh agent needs its whole learning schedule to "
                "reach this; see bench/fig08)\n");
    return 0;
}
