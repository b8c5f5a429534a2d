/**
 * @file
 * Fig. 6 reproduction: core-mapping decisions and QoS-tardiness
 * histogram for Heracles, Hipster and Twig-S managing Masstree at 50 %
 * of its maximum load. Each manager's run is one ScenarioSpec executed
 * by the scenario engine with trace recording on.
 *
 * Expected shape (paper): Heracles oscillates between ~12-13 cores at
 * 2 GHz holding latency at ~85 % of the target; Hipster sits at fewer
 * cores with a lower QoS guarantee (~81 %) and more migrations; Twig-S
 * holds a stable allocation that just meets the target with the lowest
 * energy, with 2.3x fewer migrations than Hipster.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "services/tailbench.hh"
#include "sim/machine.hh"
#include "stats/histogram.hh"

using namespace twig;

namespace {

void
report(const char *name, const harness::EngineResult::Single &result,
       const sim::ServiceProfile &profile, std::size_t window)
{
    // Core-allocation distribution over the trailing window.
    std::map<std::pair<std::size_t, std::size_t>, int> alloc;
    stats::Histogram tardiness(0.0, 2.0, 20);
    std::size_t migrations = 0;
    const std::size_t start = result.trace.size() > window
        ? result.trace.size() - window
        : 0;
    for (std::size_t i = start; i < result.trace.size(); ++i) {
        const auto &r = result.trace[i];
        ++alloc[{r.cores[0], r.dvfs[0]}];
        tardiness.add(r.p99Ms[0] / profile.qosTargetMs);
        if (i > start && r.cores[0] != result.trace[i - 1].cores[0])
            ++migrations;
    }

    std::printf("\n--- %s ---\n", name);
    std::printf("core-mapping distribution (cores @ GHz : share of "
                "window):\n");
    std::vector<std::pair<int, std::pair<std::size_t, std::size_t>>>
        sorted;
    for (const auto &[cfg, n] : alloc)
        sorted.push_back({n, cfg});
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, sorted.size());
         ++i) {
        const auto &[n, cfg] = sorted[i];
        std::printf("  %2zu cores @ %.1f GHz : %4.1f%%\n", cfg.first,
                    sim::DvfsLadder{}.freq(cfg.second),
                    100.0 * n / static_cast<double>(window));
    }
    std::printf("migrations in window: %zu\n", migrations);
    std::printf("QoS guarantee %.1f%%, mean power %.1f W\n",
                result.metrics.services[0].qosGuaranteePct,
                result.metrics.meanPowerW);
    std::printf("tardiness histogram (ratio of measured p99 to "
                "target):\n%s",
                tardiness.ascii(30).c_str());
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
    const auto schedule = harness::Schedule::pick(full, 2000, 300);
    const auto profile = services::masstree();

    bench::banner("Fig. 6: core mapping + tardiness histogram, "
                  "Masstree @ 50% load");

    auto run = [&](const std::string &manager,
                   std::uint64_t manager_seed) {
        harness::ScenarioSpec spec;
        spec.name = "fig06";
        harness::ServiceLoadSpec svc;
        svc.service = profile.name;
        svc.fraction = 0.5;
        spec.services.push_back(svc);
        spec.manager = manager;
        spec.paper = full;
        spec.managerSeed = manager_seed;
        spec.steps = schedule.steps;
        spec.window = schedule.summaryWindow;
        spec.horizon = schedule.horizon;
        spec.seed = seed; // every manager watches the same workload

        harness::EngineOptions opts;
        opts.recordTrace = true;
        return harness::Engine(opts).run(spec).single;
    };

    report("Heracles", run("heracles", seed), profile,
           schedule.summaryWindow);
    report("Hipster", run("hipster", seed + 1), profile,
           schedule.summaryWindow);
    report("Twig-S", run("twig", seed + 2), profile,
           schedule.summaryWindow);
    return 0;
}
