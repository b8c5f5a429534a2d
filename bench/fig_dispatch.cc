/**
 * @file
 * Dispatch microbenchmark: cycles per request through the sorted-lane
 * dispatch core across backlog depths, core counts and burstiness.
 *
 * fig_sim_throughput measures whole configurations (server, cluster,
 * interference, power); this bench isolates sim::RequestQueueSim so a
 * dispatch regression shows up as cycles/request on the exact code
 * path, not as noise in an end-to-end number. Each cell runs the
 * optimized simulator and the seed's (oracle::ReferenceQueueSim,
 * tests/oracle/) under identical seeds and arrival schedules and
 * exact-compares their telemetry, so the grid doubles as a coarse
 * differential check (tests/test_dispatch_diff.cc is the fine-grained
 * one).
 *
 * Grid: cores x arrival pattern:
 *   steady70   fixed offered load at 70% of capacity (shallow queue)
 *   steady110  fixed 110% (overload: the backlog deepens every
 *              interval, queue-position dispatch dominates)
 *   bursty     4-interval period, one 280% burst then three empty
 *              intervals (mean 70%): exercises burst absorption and
 *              the empty-interval fast path
 *
 * Results merge into BENCH_sim.json (--out PATH) under
 * "dispatch_microbench", next to fig_sim_throughput's configs, so the
 * artifact trail carries both views of the hot path.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/sim_counters.hh"
#include "harness/sim_profile.hh"
#include "oracle/reference_queue_sim.hh"
#include "services/tailbench.hh"
#include "sim/machine.hh"
#include "sim/queue_sim.hh"

using namespace twig;

namespace {

/** Arrival-rate schedule of one grid cell. */
struct Pattern
{
    const char *name;
    /** Offered load (fraction of capacity) for interval @p i. */
    double (*load)(std::size_t i);
};

double
steady70(std::size_t)
{
    return 0.7;
}

double
steady110(std::size_t)
{
    return 1.1;
}

double
bursty(std::size_t i)
{
    return i % 4 == 0 ? 2.8 : 0.0;
}

/** Measured outcome of one (cell, path) run. */
struct PathStats
{
    double cycles = 0.0;   ///< rdtsc over every run() call
    double requests = 0.0; ///< completions over the timed intervals
    double backlogSum = 0.0;
    double checksum = 0.0;
};

struct Cell
{
    std::size_t cores;
    const Pattern *pattern;
    PathStats opt;
    PathStats ref;
    /** Dispatch-phase-only cycles/request (optimized path). */
    double dispatchCycPerReq = 0.0;
    std::size_t intervals = 0;
    bool match = false;

    double optCycPerReq() const { return opt.cycles / opt.requests; }
    double refCycPerReq() const { return ref.cycles / ref.requests; }
    double speedup() const { return ref.cycles / opt.cycles; }
    double meanBacklog() const
    {
        return opt.backlogSum / static_cast<double>(intervals);
    }
};

sim::CoreAssignment
dedicated(std::size_t n)
{
    sim::CoreAssignment a;
    for (std::size_t i = 0; i < n; ++i)
        a.dedicatedCores.push_back(i);
    a.freqGhz = 2.0;
    a.sharedFreqGhz = 2.0;
    return a;
}

/** Run one cell on @p Sim: sim::RequestQueueSim or the oracle. */
template <typename Sim>
PathStats
runPath(std::size_t cores, const Pattern &pattern, std::size_t warmup,
        std::size_t intervals, std::uint64_t seed)
{
    const auto profile = services::masstree();
    Sim sim(profile, common::Rng(seed), 2.0);
    const auto assignment = dedicated(cores);
    // Offered load is per-core service rate times core count: the
    // pattern's load fraction is utilisation, not a share of the
    // profile's machine-level maxLoadRps.
    const double per_core_rps = 1000.0 / profile.baseServiceTimeMs;
    const double capacity = per_core_rps * static_cast<double>(cores);

    PathStats stats;
    double t0 = 0.0;
    for (std::size_t i = 0; i < warmup + intervals; ++i, t0 += 1.0) {
        const double rps = capacity * pattern.load(i);
        const std::uint64_t start = common::simprof::now();
        const auto &res = sim.run(t0, 1.0, rps, assignment, 1.0);
        const std::uint64_t cyc = common::simprof::now() - start;
        if (i < warmup)
            continue;
        stats.cycles += static_cast<double>(cyc);
        stats.requests += static_cast<double>(res.completed);
        stats.backlogSum += static_cast<double>(res.queuedAtEnd);
        stats.checksum += res.p99Ms + res.p99InstantMs +
            res.busyCoreSeconds +
            static_cast<double>(res.completed + res.arrivals +
                                res.dropped + res.queuedAtEnd);
    }
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_sim.json";
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_sim.json)");
    flags.parseOrExit(argc, argv);

    bench::banner("Dispatch microbenchmark: cycles/request across "
                  "backlog depth, core count, burstiness");

    const std::size_t intervals = full ? 1000 : 150;
    const std::size_t warmup = 20;

    const Pattern patterns[] = {{"steady70", steady70},
                                {"steady110", steady110},
                                {"bursty", bursty}};
    const std::size_t core_counts[] = {2, 8, 18, 64};

    std::vector<Cell> cells;
    for (const std::size_t cores : core_counts) {
        for (const Pattern &pattern : patterns) {
            Cell cell;
            cell.cores = cores;
            cell.pattern = &pattern;
            cell.intervals = intervals;

            // Optimized pass under the phase profiler to split out
            // the dispatch-phase-only cost.
            harness::SimProfile::reset();
            harness::SimProfile::enable();
            const auto before = harness::SimProfile::snapshot();
            cell.opt = runPath<sim::RequestQueueSim>(
                cores, pattern, warmup, intervals, seed);
            const auto prof =
                harness::SimProfile::snapshot().since(before);
            harness::SimProfile::disable();
            cell.dispatchCycPerReq =
                static_cast<double>(
                    prof.phase(common::simprof::Phase::Dispatch)
                        .cycles) /
                cell.opt.requests;

            cell.ref = runPath<oracle::ReferenceQueueSim>(
                cores, pattern, warmup, intervals, seed);
            cell.match = cell.opt.checksum == cell.ref.checksum;
            cells.push_back(cell);
        }
    }

    std::printf("%5s %-10s %10s %10s %13s %13s %13s %8s %6s\n",
                "cores", "pattern", "req/intv", "backlog",
                "opt disp c/r", "opt c/r", "ref c/r", "speedup",
                "match");
    bool all_match = true;
    for (const auto &c : cells) {
        std::printf("%5zu %-10s %10.0f %10.1f %13.1f %13.1f %13.1f "
                    "%7.2fx %6s\n",
                    c.cores, c.pattern->name,
                    c.opt.requests / static_cast<double>(c.intervals),
                    c.meanBacklog(), c.dispatchCycPerReq,
                    c.optCycPerReq(), c.refCycPerReq(), c.speedup(),
                    c.match ? "yes" : "NO");
        all_match = all_match && c.match;
    }
    if (!all_match) {
        std::fprintf(stderr, "fig_dispatch: optimized and reference "
                             "checksums diverge\n");
        return 1;
    }

    // Merge into the simulation bench artifact (fig_sim_throughput
    // writes the same file first in bench runs; start fresh when
    // absent so the bench also works standalone).
    common::Json root = common::Json::object();
    if (std::ifstream probe(out_path); probe.good())
        root = common::Json::parseFile(out_path);
    common::Json rows = common::Json::array();
    for (const auto &c : cells) {
        common::Json row = common::Json::object();
        row.set("cores", c.cores);
        row.set("pattern", c.pattern->name);
        row.set("intervals", c.intervals);
        row.set("requests_per_interval",
                c.opt.requests / static_cast<double>(c.intervals));
        row.set("mean_backlog", c.meanBacklog());
        row.set("optimized_dispatch_cycles_per_req",
                c.dispatchCycPerReq);
        row.set("optimized_cycles_per_req", c.optCycPerReq());
        row.set("reference_cycles_per_req", c.refCycPerReq());
        row.set("speedup", c.speedup());
        row.set("checksums_match", c.match);
        rows.push(std::move(row));
    }
    root.set("dispatch_microbench", std::move(rows));
    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << root.dump(2) << "\n";
    out.close();
    std::printf("\nmerged dispatch_microbench into %s\n",
                out_path.c_str());
    return 0;
}
