/**
 * @file
 * Table I reproduction: the PMC selection pipeline (paper §III-B1).
 *
 * Methodology: run each LC service at every core/DVFS combination
 * gathering all candidate counters at a fixed sampling interval (the
 * paper profiles 1000 s per combination), build the Pearson correlation
 * matrix between counters and tail latency, keep principal components
 * covering >= 95 % of the covariance, and rank counters by importance.
 *
 * The output reprints Table I's counters with the reproduced importance
 * ranking next to the paper's.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "core/counter_selection.hh"
#include "core/mapper.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.parseOrExit(argc, argv);
    const sim::MachineConfig machine;
    const std::size_t intervals_per_cfg = full ? 40 : 6;

    bench::banner("Table I: PMC selection (correlation + PCA "
                  "importance)");

    // Profile every Table II service across alternate core counts and
    // DVFS states at a mid load, collecting all candidate counters.
    std::vector<std::vector<double>> columns(sim::kNumPmcs);
    std::vector<double> latency;
    core::Mapper mapper(machine);

    for (const auto &profile : services::tailbenchCatalogue()) {
        for (std::size_t cores = 6; cores <= machine.numCores;
             cores += 4) {
            for (std::size_t dvfs = 0; dvfs < machine.dvfs.numStates();
                 dvfs += 2) {
                sim::Server server(machine,
                                   seed ^ (cores * 37 + dvfs));
                server.addService(
                    profile, std::make_unique<sim::FixedLoad>(
                                 profile.maxLoadRps, 0.5));
                const auto assignment = mapper.map(
                    {core::ResourceRequest{cores, dvfs}});
                for (std::size_t i = 0; i < intervals_per_cfg; ++i) {
                    const auto stats = server.runInterval(assignment);
                    const auto &svc = stats.services[0];
                    for (std::size_t c = 0; c < sim::kNumPmcs; ++c)
                        columns[c].push_back(svc.pmcs[c]);
                    latency.push_back(svc.p99Ms);
                }
            }
        }
    }

    std::vector<std::string> names;
    for (std::size_t c = 0; c < sim::kNumPmcs; ++c)
        names.push_back(sim::pmcName(static_cast<sim::Pmc>(c)));

    const auto sel =
        core::selectCounters(names, columns, latency, 0.95, 11);

    // Paper Table I importance per counter (1 = most important).
    const std::vector<int> paper_rank = {10, 6, 9, 11, 7, 3, 8, 1, 2,
                                         4, 5};

    std::printf("%zu samples; %zu principal components cover 95%% of "
                "the covariance\n\n",
                latency.size(), sel.componentsKept);
    std::printf("%-30s %10s %12s %6s | %s\n", "counter", "corr(lat)",
                "importance", "rank", "paper rank");

    std::vector<std::size_t> rank_of(sim::kNumPmcs);
    for (std::size_t pos = 0; pos < sel.ranking.size(); ++pos)
        rank_of[sel.ranking[pos]] = pos + 1;

    for (std::size_t c = 0; c < sim::kNumPmcs; ++c) {
        std::printf("%-30s %10.3f %12.4f %6zu | %d\n",
                    names[c].c_str(), sel.latencyCorrelation[c],
                    sel.importance[c], rank_of[c], paper_rank[c]);
    }
    std::printf("\nAll 11 counters are selected (as in the paper); the "
                "ranking depends on the\nworkload mix and platform, so "
                "agreement is expected in broad strokes only\n(cycle/"
                "utilisation counters informative, plus workload-mix "
                "counters).\n");
    return 0;
}
