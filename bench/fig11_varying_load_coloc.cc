/**
 * @file
 * Fig. 11 reproduction: Twig-C under dynamic load — Moses ramps from
 * 20 % to 100 % of max load while Masstree holds at 20 %. The
 * learn-on-diurnal / evaluate-on-ramp sequence is one ScenarioSpec
 * with a load-change event between the two segments.
 *
 * Expected shape: after learning, Twig-C jumps directly to the core
 * configuration appropriate for each load level (no gradual walk like
 * PARTIES) and prefers finer DVFS adaptions, which are cheaper than
 * core migrations.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "services/tailbench.hh"
#include "sim/machine.hh"

using namespace twig;

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    bench::addJobsFlag(flags, &jobs);
    flags.parseOrExit(argc, argv);
    const std::size_t learn_steps = full ? 10000 : 2200;
    const std::size_t ramp_steps = full ? 2000 : 400;
    const auto mo = services::moses();
    const auto mt = services::masstree();
    // The ramp tops out at the pair's colocated max (paper §V-B2).
    const double coloc =
        harness::colocatedMaxFraction(mo, mt, seed ^ 3, jobs);

    bench::banner("Fig. 11: Twig-C with Moses ramping 20->100% while "
                  "Masstree holds 20%");

    // Learn on a diurnal Moses load so the agent has seen every level,
    // then switch to the evaluation ramp.
    harness::ScenarioSpec spec;
    spec.name = "fig11";
    {
        harness::ServiceLoadSpec moses;
        moses.service = mo.name;
        moses.pattern = "diurnal";
        moses.fraction = 1.0;
        moses.lowFraction = 0.2;
        moses.periodSteps = learn_steps / 6;
        moses.maxScale = coloc;
        spec.services.push_back(moses);

        harness::ServiceLoadSpec masstree;
        masstree.service = mt.name;
        masstree.fraction = 0.2;
        masstree.maxScale = coloc;
        spec.services.push_back(masstree);
    }
    spec.manager = "twig";
    spec.paper = full;
    spec.managerSeed = seed;
    spec.steps = ramp_steps;
    spec.window = ramp_steps;
    spec.horizon = learn_steps;
    spec.seed = seed + 1; // learning-phase server

    harness::ScenarioEvent ramp;
    ramp.afterSteps = learn_steps;
    {
        harness::ServiceLoadSpec moses;
        moses.service = mo.name;
        moses.pattern = "ramp";
        moses.fraction = 1.0;
        moses.lowFraction = 0.2;
        moses.periodSteps = ramp_steps;
        moses.maxScale = coloc;
        ramp.services.push_back(moses);

        harness::ServiceLoadSpec masstree;
        masstree.service = mt.name;
        masstree.fraction = 0.2;
        masstree.maxScale = coloc;
        ramp.services.push_back(masstree);
    }
    ramp.serverSeed = seed + 2; // evaluation server
    spec.events.push_back(ramp);

    harness::EngineOptions opts;
    opts.recordTrace = true;
    const auto result = harness::Engine(opts).run(spec).single;

    const std::size_t stride = ramp_steps / 16;
    const sim::DvfsLadder ladder;
    std::printf("%-7s %10s | %-18s | %-18s | %7s\n", "step",
                "moses load", "moses (cores@GHz)", "masstree",
                "power");
    for (std::size_t i = 0; i < result.trace.size(); i += stride) {
        const auto &r = result.trace[i];
        std::printf("%-7zu %9.0f%% | %7zu @ %.1f       | %7zu @ %.1f  "
                    "     | %6.1fW\n",
                    r.step, 100.0 * r.offeredRps[0] / (mo.maxLoadRps * coloc),
                    r.cores[0], ladder.freq(r.dvfs[0]), r.cores[1],
                    ladder.freq(r.dvfs[1]), r.socketPowerW);
    }
    std::printf("\nQoS guarantee over the ramp: moses %.1f%%, "
                "masstree %.1f%%\n",
                result.metrics.services[0].qosGuaranteePct,
                result.metrics.services[1].qosGuaranteePct);
    std::printf("(PARTIES is omitted as in the paper: \"inclusion of "
                "PARTIES renders plot illegible\";\nfig12 compares the "
                "two directly at fixed load.)\n");
    return 0;
}
