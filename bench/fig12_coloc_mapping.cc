/**
 * @file
 * Fig. 12 reproduction: core-mapping distribution for PARTIES and
 * Twig-C with Masstree at 20 % and Moses at 80 % of max load,
 * summarised over 600 s. Each manager's run is one ScenarioSpec
 * executed by the scenario engine with trace recording on.
 *
 * Expected shape: PARTIES continuously nudges allocations (ping-pong,
 * one resource at a time) while Twig-C holds a stable mapping using
 * fewer resources at equal QoS — which is where its energy saving
 * comes from.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

void
report(const char *name, const harness::EngineResult::Single &result,
       std::size_t window)
{
    const std::size_t start = result.trace.size() - window;
    std::map<std::size_t, int> mt_cores, mo_cores;
    std::size_t changes = 0;
    for (std::size_t i = start; i < result.trace.size(); ++i) {
        const auto &r = result.trace[i];
        ++mt_cores[r.cores[0]];
        ++mo_cores[r.cores[1]];
        if (i > start &&
            (r.cores[0] != result.trace[i - 1].cores[0] ||
             r.cores[1] != result.trace[i - 1].cores[1]))
            ++changes;
    }

    auto histo = [&](const char *svc, std::map<std::size_t, int> &h) {
        std::printf("  %-9s cores:", svc);
        for (const auto &[c, n] : h) {
            std::printf(" %zu:%d%%", c,
                        static_cast<int>(100.0 * n / window + 0.5));
        }
        std::printf("\n");
    };
    std::printf("\n--- %s ---\n", name);
    histo("masstree", mt_cores);
    histo("moses", mo_cores);
    std::printf("  allocation changes in window: %zu\n", changes);
    std::printf("  QoS guarantee: masstree %.1f%%, moses %.1f%%; mean "
                "power %.1f W\n",
                result.metrics.services[0].qosGuaranteePct,
                result.metrics.services[1].qosGuaranteePct,
                result.metrics.meanPowerW);
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
    // Paper summarises this comparison over 600 s (PARTIES samples
    // every 2 s).
    const std::size_t window = full ? 600 : 300;
    const std::size_t steps = full ? 10600 : 2300;
    const auto mt = services::masstree();
    const auto mo = services::moses();
    // 20% / 80% apply to the pair's colocated max load (paper §V-B2).
    const double coloc =
        harness::colocatedMaxFraction(mt, mo, seed ^ 3);

    bench::banner("Fig. 12: mapping distribution, PARTIES vs Twig-C "
                  "(masstree 20% + moses 80%)");

    auto run = [&](const std::string &manager,
                   std::uint64_t manager_seed) {
        harness::ScenarioSpec spec;
        spec.name = "fig12";
        harness::ServiceLoadSpec masstree;
        masstree.service = mt.name;
        masstree.fraction = 0.2;
        masstree.maxScale = coloc;
        spec.services.push_back(masstree);
        harness::ServiceLoadSpec moses;
        moses.service = mo.name;
        moses.fraction = 0.8;
        moses.maxScale = coloc;
        spec.services.push_back(moses);
        spec.manager = manager;
        spec.paper = full;
        spec.managerSeed = manager_seed;
        spec.steps = steps;
        spec.window = window;
        spec.horizon = steps - window;
        spec.seed = seed; // both managers watch the same workload

        harness::EngineOptions opts;
        opts.recordTrace = true;
        return harness::Engine(opts).run(spec).single;
    };

    report("PARTIES", run("parties", seed + 1), window);
    report("Twig-C", run("twig", seed + 2), window);

    std::printf("\npaper shape: PARTIES makes continuous minor mapping "
                "changes; Twig-C is stable and\nuses fewer resources "
                "at the same QoS.\n");
    return 0;
}
