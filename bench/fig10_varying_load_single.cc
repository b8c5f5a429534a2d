/**
 * @file
 * Fig. 10 reproduction: resource allocation under varying load for
 * Img-dnn with Twig-S, Hipster and Heracles. Each manager's run is
 * one ScenarioSpec (step-wise load pattern) executed by the scenario
 * engine with trace recording on.
 *
 * Load profile (paper): step-wise monotonic, change factor 20 %,
 * changing every 200 s from the minimum up to max load and back.
 *
 * Expected shape: Heracles holds ~100 % QoS by swinging the core count
 * at a fixed (max) DVFS state, with ~2.3x more migrations and ~18 %
 * more energy than Twig-S; Hipster fails to track high load; Twig-S
 * adjusts cores and DVFS together and keeps a ~99 % guarantee.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/sweep.hh"
#include "services/tailbench.hh"
#include "sim/machine.hh"

using namespace twig;

namespace {

struct Outcome
{
    double qosPct;
    double energyJ;
    std::size_t migrations;
    /** Mean cores/DVFS at each load fraction seen in the window. */
    std::map<int, std::pair<double, double>> allocByLoad;
    std::map<int, int> samplesByLoad;
};

Outcome
analyse(const harness::EngineResult::Single &result,
        const sim::ServiceProfile &profile, std::size_t steps,
        std::size_t window)
{
    Outcome out{};
    out.qosPct = result.metrics.services[0].qosGuaranteePct;
    out.energyJ = result.metrics.energyJoules;
    const std::size_t start = steps - window;
    for (std::size_t i = start; i < result.trace.size(); ++i) {
        const auto &r = result.trace[i];
        const int load_pct = static_cast<int>(
            100.0 * r.offeredRps[0] / profile.maxLoadRps + 0.5);
        auto &[cores, dvfs] = out.allocByLoad[load_pct];
        cores += static_cast<double>(r.cores[0]);
        dvfs += sim::DvfsLadder{}.freq(r.dvfs[0]);
        ++out.samplesByLoad[load_pct];
        if (i > start && r.cores[0] != result.trace[i - 1].cores[0])
            ++out.migrations;
    }
    return out;
}

void
report(const char *name, const Outcome &o, double base_energy)
{
    std::printf("\n--- %s ---\n", name);
    std::printf("QoS guarantee %.1f%%, energy %.2fx Twig-S, "
                "migrations %zu\n",
                o.qosPct, o.energyJ / base_energy, o.migrations);
    std::printf("allocation by load level:");
    for (const auto &[load, acc] : o.allocByLoad) {
        const int n = o.samplesByLoad.at(load);
        std::printf("  %d%%:(%.1fc@%.1fGHz)", load, acc.first / n,
                    acc.second / n);
    }
    std::printf("\n");
}

} // namespace

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
    // Paper: 200 s load periods, results after the first 10 000 s.
    const std::size_t period = full ? 200 : 40;
    const std::size_t steps = full ? 12000 : 2600;
    const std::size_t window = full ? 2000 : 640; // full up/down
    const auto profile = services::imgdnn();

    bench::banner("Fig. 10: varying load (img-dnn), Twig-S vs Hipster "
                  "vs Heracles");

    // Three independent (manager, same-workload) runs; fan across
    // --jobs threads. Every manager sees the identical load trace
    // (server seeded by --seed + 1, as before).
    const std::vector<std::string> managers = {"twig", "hipster",
                                               "heracles"};
    harness::SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    sweep_opts.baseSeed = seed;
    const harness::ParallelSweep sweep(sweep_opts);
    const auto outcomes = sweep.map<Outcome>(
        managers.size(), [&](std::size_t idx, std::uint64_t run_seed) {
            harness::ScenarioSpec spec;
            spec.name = "fig10";
            harness::ServiceLoadSpec svc;
            svc.service = profile.name;
            svc.pattern = "step";
            svc.fraction = 1.0; // climbs from the floor to max load
            svc.lowFraction = 0.2;
            svc.periodSteps = period;
            spec.services.push_back(svc);
            spec.manager = managers[idx];
            spec.paper = full;
            spec.managerSeed = run_seed;
            spec.steps = steps;
            spec.window = window;
            spec.horizon = steps - window;
            spec.seed = seed + 1;

            harness::EngineOptions opts;
            opts.recordTrace = true;
            const auto result = harness::Engine(opts).run(spec);
            return analyse(result.single, profile, steps, window);
        });
    const Outcome &t = outcomes[0];
    const Outcome &h = outcomes[1];
    const Outcome &he = outcomes[2];

    report("Twig-S", t, t.energyJ);
    report("Hipster", h, t.energyJ);
    report("Heracles", he, t.energyJ);

    std::printf("\npaper shape: Heracles ~100%% QoS but ~2.3x the "
                "migrations and ~18%% more energy\nthan Twig-S; "
                "Hipster cannot track the load at the high levels; "
                "Twig-S holds ~99%%.\n");
    return 0;
}
