/**
 * @file
 * Ablations of Twig's empirically-set design knobs (the paper states
 * that theta = 0.5, eta = 5 and prioritised replay "yielded the best
 * energy efficiency while improving the QoS guarantee" without showing
 * the sweeps; this bench regenerates them):
 *
 *  1. reward balance theta — trades QoS guarantee against energy;
 *  2. monitor smoothing window eta — state stability vs staleness;
 *  3. prioritised vs uniform replay (alpha = 0.6 vs 0) — learning
 *     speed on the same budget.
 *
 * Each row is a Twig-S run on Masstree at 50 % load with one knob
 * changed from the default configuration. The manager is hand-built
 * (this bench's historical seeding predates the registry convention)
 * and injected into the scenario engine via managerOverride; the
 * workload itself is a ScenarioSpec.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/profiling.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

struct Row
{
    double qosPct;
    double powerW;
};

Row
runWith(const core::TwigConfig &cfg, std::uint64_t seed,
        std::size_t steps)
{
    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto twig_spec = harness::makeTwigSpec(profile, machine, seed);
    core::TwigManager twig(cfg, machine, maxima, {twig_spec}, seed + 2);

    harness::ScenarioSpec spec;
    spec.name = "abl";
    harness::ServiceLoadSpec svc;
    svc.service = profile.name;
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.steps = steps;
    spec.window = steps / 6;
    spec.seed = seed + 1;

    harness::EngineOptions opts;
    opts.managerOverride = &twig;
    const auto result = harness::Engine(opts).run(spec);
    return {result.single.metrics.services[0].qosGuaranteePct,
            result.single.metrics.meanPowerW};
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.parseOrExit(argc, argv);
    const std::size_t steps = full ? 10000 : 1500;

    bench::banner("Ablations: reward theta, monitor eta, prioritised "
                  "replay (Masstree @ 50%)");

    std::printf("\n1. reward balance theta (paper default 0.5):\n");
    std::printf("%-8s %12s %12s\n", "theta", "QoS", "power");
    for (double theta : {0.0, 0.25, 0.5, 1.0, 2.0}) {
        auto cfg = core::TwigConfig::fast(steps);
        cfg.reward.theta = theta;
        const auto r = runWith(cfg, seed, steps);
        std::printf("%-8.2f %11.1f%% %10.1f W\n", theta, r.qosPct,
                    r.powerW);
    }
    std::printf("(theta = 0 removes the power incentive: safest but "
                "wasteful; large theta trades QoS\nmargin for "
                "energy)\n");

    std::printf("\n2. monitor smoothing window eta (paper default "
                "5):\n");
    std::printf("%-8s %12s %12s\n", "eta", "QoS", "power");
    for (std::size_t eta : {1, 3, 5, 9}) {
        auto cfg = core::TwigConfig::fast(steps);
        cfg.eta = eta;
        const auto r = runWith(cfg, seed + 10, steps);
        std::printf("%-8zu %11.1f%% %10.1f W\n", eta, r.qosPct,
                    r.powerW);
    }

    std::printf("\n3. prioritised vs uniform replay (paper: alpha = "
                "0.6):\n");
    std::printf("%-10s %12s %12s\n", "alpha", "QoS", "power");
    for (double alpha : {0.0, 0.6}) {
        auto cfg = core::TwigConfig::fast(steps);
        cfg.learner.replay.alpha = alpha;
        const auto r = runWith(cfg, seed + 20, steps);
        std::printf("%-10.1f %11.1f%% %10.1f W\n", alpha, r.qosPct,
                    r.powerW);
    }
    return 0;
}
