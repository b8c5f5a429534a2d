/**
 * @file
 * Fig. 5 reproduction: Twig-S vs Hipster, Heracles and the static
 * mapping, per service at fixed loads of 20/50/80 % of max.
 *
 * Reports the QoS guarantee and the energy usage normalised to the
 * static mapping, summarised over the trailing window after the
 * learning phase (paper: after the first 10 000 s, over 300 s).
 * Every cell is one harness::ScenarioSpec run through the scenario
 * engine — the same run `twig_sim --scenario scenarios/fig05.json`
 * performs.
 *
 * Expected shape: all managers keep a similar (high) QoS guarantee;
 * Twig-S uses the least energy, Hipster is in between, Heracles burns
 * the most of the adaptive managers (paper: Twig-S beats Hipster by
 * ~11.8 % and Heracles by ~38 % on average).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "harness/sweep.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

struct Cell
{
    double qosPct = 0.0;
    double energyJ = 0.0;
};

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
    const auto schedule = harness::Schedule::pick(full, 2000, 300);

    bench::banner("Fig. 5: Twig-S vs Hipster/Heracles/static, fixed "
                  "loads (QoS %, energy normalised to static)");
    std::printf("%-10s %5s | %-17s %-17s %-17s %-17s\n", "service",
                "load", "static", "heracles", "hipster", "Twig-S");

    // One sweep config per (service, load, manager) triple; every run
    // is independent, so the whole figure fans across --jobs threads.
    const auto catalogue = services::tailbenchCatalogue();
    const std::vector<double> loads = {0.2, 0.5, 0.8};
    const std::vector<std::string> managers = {"static", "heracles",
                                               "hipster", "twig"};

    harness::SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    sweep_opts.baseSeed = seed;
    const harness::ParallelSweep sweep(sweep_opts);

    const std::size_t count =
        catalogue.size() * loads.size() * managers.size();
    const auto cells = sweep.map<Cell>(
        count, [&](std::size_t idx, std::uint64_t run_seed) {
            const std::size_t mgr_kind = idx % managers.size();
            const std::size_t pair = idx / managers.size();

            harness::ScenarioSpec spec;
            spec.name = "fig05";
            harness::ServiceLoadSpec svc;
            svc.service = catalogue[pair / loads.size()].name;
            svc.fraction = loads[pair % loads.size()];
            spec.services.push_back(svc);
            spec.manager = managers[mgr_kind];
            spec.paper = full;
            spec.managerSeed = run_seed;
            spec.steps = schedule.steps;
            spec.window = schedule.summaryWindow;
            spec.horizon = schedule.horizon;
            // All managers of one (service, load) pair face the same
            // workload: the server seed depends on the pair alone;
            // the manager is seeded from the per-run seed.
            spec.seed = common::sweepSeed(seed, pair);

            const auto result = harness::Engine().run(spec);
            return Cell{
                result.single.metrics.services[0].qosGuaranteePct,
                result.single.metrics.energyJoules};
        });

    struct Avg
    {
        double qos = 0.0, energy = 0.0;
        int n = 0;
    };
    Avg avg_static, avg_heracles, avg_hipster, avg_twig;

    for (std::size_t svc = 0; svc < catalogue.size(); ++svc) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const std::size_t pair = svc * loads.size() + li;
            const Cell &s = cells[pair * managers.size() + 0];
            const Cell &h = cells[pair * managers.size() + 1];
            const Cell &hi = cells[pair * managers.size() + 2];
            const Cell &t = cells[pair * managers.size() + 3];

            auto cell = [&](const Cell &c) {
                std::printf("%5.1f%% / E=%.2f   ", c.qosPct,
                            c.energyJ / s.energyJ);
            };
            std::printf("%-10s %4.0f%% | ",
                        catalogue[svc].name.c_str(), 100 * loads[li]);
            cell(s);
            cell(h);
            cell(hi);
            cell(t);
            std::printf("\n");

            auto add = [&](Avg &a, const Cell &c) {
                a.qos += c.qosPct;
                a.energy += c.energyJ / s.energyJ;
                ++a.n;
            };
            add(avg_static, s);
            add(avg_heracles, h);
            add(avg_hipster, hi);
            add(avg_twig, t);
        }
    }

    auto row = [](const char *name, const Avg &a) {
        std::printf("%-10s QoS %.1f%%  energy %.3f\n", name,
                    a.qos / a.n, a.energy / a.n);
    };
    std::printf("\naverages (energy normalised to static):\n");
    row("static", avg_static);
    row("heracles", avg_heracles);
    row("hipster", avg_hipster);
    row("Twig-S", avg_twig);
    std::printf("\npaper shape: Twig-S energy ~11.8%% below Hipster "
                "and ~38%% below Heracles at similar QoS.\n");
    return 0;
}
