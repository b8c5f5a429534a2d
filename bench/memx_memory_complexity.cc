/**
 * @file
 * Memory-complexity comparison (paper §V-B1 "Memory Complexity
 * Impact"): the memory a Hipster-style Q-table needs versus Twig's
 * function approximator.
 *
 * Paper scenario: D = 3 action dimensions, N = 30 discrete actions per
 * dimension, state quantised into b = 25 buckets. The table needs
 * b x N^D entries (terabytes); Twig's network stays under 5 MB.
 */

#include <cstdio>
#include <cmath>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "nn/bdq.hh"
#include "rl/qtable.hh"
#include "sim/machine.hh"

using namespace twig;

namespace {

double
tableBytes(std::size_t buckets, std::size_t actions_per_dim,
           std::size_t dims)
{
    return static_cast<double>(buckets) *
        std::pow(static_cast<double>(actions_per_dim),
                 static_cast<double>(dims)) *
        sizeof(double);
}

std::size_t
twigBytes(std::size_t dims, std::size_t actions_per_dim)
{
    common::Rng rng(1);
    nn::BdqConfig cfg; // paper-size network (512/256 trunk, 128 heads)
    cfg.numAgents = 1;
    cfg.stateDimPerAgent = 11;
    cfg.trunkHidden = {512, 256};
    cfg.agentHeadHidden = 128;
    cfg.branchHidden = 128;
    cfg.branchActions.assign(dims, actions_per_dim);
    cfg.dropoutRate = 0.5f;
    nn::MultiAgentBdq net(cfg, rng);
    return net.paramCount() * sizeof(float);
}

std::string
human(double bytes)
{
    char buf[64];
    const char *unit[] = {"B", "KB", "MB", "GB", "TB", "PB"};
    int u = 0;
    while (bytes >= 1024.0 && u < 5) {
        bytes /= 1024.0;
        ++u;
    }
    std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, unit[u]);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    common::FlagParser().parseOrExit(argc, argv);
    bench::banner("Memory complexity: Hipster Q-table vs Twig "
                  "function approximator");

    // The paper's headline scenario. Note a quirk: §V-B1 counts
    // "25 x 3^30 array entries" (b x D^N, petabytes); the
    // combinatorial size of a joint action table with D dimensions of
    // N discrete actions is b x N^D (megabytes at D=3). We report
    // both; either way the table grows exponentially with the number
    // of knobs while the network grows linearly.
    std::printf("paper scenario (b=25 buckets, N=30 actions/dim):\n");
    std::printf("%-6s %16s %18s %16s\n", "dims", "table b*N^D",
                "paper's b*D^N", "Twig network");
    for (std::size_t d = 1; d <= 4; ++d) {
        std::printf("%-6zu %16s %18s %16s\n", d,
                    human(tableBytes(25, 30, d)).c_str(),
                    human(25.0 * std::pow(static_cast<double>(d), 30) *
                          sizeof(double))
                        .c_str(),
                    human(static_cast<double>(twigBytes(d, 30)))
                        .c_str());
    }
    std::printf("\npaper: D=3 needs a table 'in the order of TBs' "
                "(b*D^N gives %s) vs 'under 5 MB' for\nTwig "
                "(%s here with the paper-sized network).\n",
                human(25.0 * std::pow(3.0, 30) * sizeof(double))
                    .c_str(),
                human(static_cast<double>(twigBytes(3, 30))).c_str());

    // And the concrete configuration both systems manage in this repo.
    const sim::MachineConfig machine;
    rl::QTableConfig qc;
    qc.numStates = 26; // 4% load buckets
    qc.numActions = machine.numCores * machine.dvfs.numStates();
    const rl::QTable table(qc);
    std::printf("\nthis repo's evaluation platform (18 cores x 9 DVFS "
                "states):\n");
    std::printf("  Hipster table: %s\n",
                human(static_cast<double>(table.memoryBytes())).c_str());
    std::printf("  Twig network : %s\n",
                human(static_cast<double>(twigBytes(2, 18))).c_str());
    std::printf("  (the table wins at this tiny scale — the explosion "
                "is in the exponent D)\n");
    return 0;
}
