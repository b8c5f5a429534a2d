/**
 * @file
 * Simulation hot-path throughput bench: steps/sec of the per-interval
 * loop on three configurations:
 *
 *   single_high_rps  one masstree replica near saturation (per-request
 *                    cost dominates: arrivals + dispatch + quantiles)
 *   colocated_4svc   four Tailbench services on oversubscribed cores
 *                    (shared-pool arbitration and interference on)
 *   fleet_8node      8-node ClusterManager with static routing and
 *                    static per-node managers (histogram merge path)
 *
 * For each it reports steps/sec, heap allocations per step (global
 * operator new/delete instrumented, as in tests/test_alloc.cc) and the
 * per-phase cycle breakdown from harness::SimProfile. Emits a table
 * plus BENCH_sim.json (--out PATH).
 *
 * The outputs themselves are pinned elsewhere: tests/test_sim_ab.cc
 * hashes these three runs (default seed, default schedule) against
 * goldens recorded when they still matched the seed algorithm live.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "baselines/static_manager.hh"
#include "bench/bench_util.hh"
#include "cluster/cluster_manager.hh"
#include "core/mapper.hh"
#include "harness/sim_profile.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "sim/server.hh"

namespace {

std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocAligned(std::size_t n, std::align_val_t al)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, (n + a - 1) / a * a);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAllocAligned(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAllocAligned(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace twig;

namespace {

double
nowSeconds()
{
    using namespace std::chrono;
    return static_cast<double>(
               duration_cast<nanoseconds>(
                   steady_clock::now().time_since_epoch())
                   .count()) *
        1e-9;
}

/** Measured outcome of one config. */
struct ConfigResult
{
    std::string name;
    std::size_t steps = 0;
    double stepsPerSec = 0.0;
    double allocsPerStep = 0.0;
    /** Phase breakdown of the whole run (setup, warm-up, timed). */
    harness::SimProfile profile;
};

/** Warm up, then time res.steps invocations of @p body, counting heap
 * allocations. */
template <typename Body>
void
timeSteps(std::size_t warmup, ConfigResult &res, Body &&body)
{
    for (std::size_t i = 0; i < warmup; ++i)
        body();
    g_alloc_count.store(0);
    g_counting.store(true);
    const double start = nowSeconds();
    for (std::size_t i = 0; i < res.steps; ++i)
        body();
    const double wall_seconds = nowSeconds() - start;
    g_counting.store(false);
    const auto steps = static_cast<double>(res.steps);
    res.allocsPerStep = static_cast<double>(g_alloc_count.load()) / steps;
    res.stepsPerSec = steps / std::max(wall_seconds, 1e-12);
}

/** Single-server configs: services at a fixed load fraction under a
 * fixed (possibly oversubscribed) core split. */
void
runServerConfig(const std::vector<sim::ServiceProfile> &profiles,
                double load_fraction,
                const std::vector<core::ResourceRequest> &requests,
                std::size_t warmup, std::uint64_t seed, ConfigResult &res)
{
    sim::MachineConfig machine;
    sim::Server server(machine, seed);
    for (const auto &profile : profiles)
        server.addService(profile, std::make_unique<sim::FixedLoad>(
                                       profile.maxLoadRps,
                                       load_fraction));
    core::Mapper mapper(machine);
    std::vector<sim::CoreAssignment> assignments;
    mapper.mapInto(requests, assignments);

    timeSteps(warmup, res, [&] { server.runInterval(assignments); });
}

/** 8-node fleet with static routing and static per-node managers. */
void
runFleetConfig(std::size_t nodes, std::size_t warmup, std::uint64_t seed,
               ConfigResult &res)
{
    const auto masstree = services::masstree();
    const auto xapian = services::xapian();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    cfg.jobs = 1; // serial: measure the hot path, not the thread pool
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<sim::FixedLoad>(
        masstree.maxLoadRps * static_cast<double>(nodes), 0.5));
    loads.push_back(std::make_unique<sim::FixedLoad>(
        xapian.maxLoadRps * static_cast<double>(nodes), 0.5));
    cluster::ClusterManager fleet(cfg, {masstree, xapian},
                                  std::move(loads), seed);
    const auto factory = [](const sim::MachineConfig &machine,
                            const std::vector<sim::ServiceProfile> &,
                            std::uint64_t)
        -> std::unique_ptr<core::TaskManager> {
        return std::make_unique<baselines::StaticManager>(machine);
    };
    for (std::size_t n = 0; n < nodes; ++n)
        fleet.addNode(sim::MachineConfig{}, factory);

    timeSteps(warmup, res, [&] { fleet.step(); });
}

/** Run @p runner under the phase profiler (cycle counters are
 * negligible next to an interval's work). */
template <typename Runner>
ConfigResult
benchConfig(const std::string &name, std::size_t steps,
            const Runner &runner)
{
    ConfigResult res;
    res.name = name;
    res.steps = steps;
    harness::SimProfile::reset();
    harness::SimProfile::enable();
    const auto before = harness::SimProfile::snapshot();
    runner(res);
    res.profile = harness::SimProfile::snapshot().since(before);
    harness::SimProfile::disable();
    return res;
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

    bench::banner("Simulation hot-path throughput: per-interval loop");

    const std::size_t steps = full ? 2000 : 300;
    const std::size_t warmup = 50;

    std::vector<ConfigResult> results;

    results.push_back(benchConfig(
        "single_high_rps", steps, [&](ConfigResult &res) {
            const sim::MachineConfig machine;
            runServerConfig({services::masstree()}, 0.9,
                            {{machine.numCores, machine.dvfs.maxIndex()}},
                            warmup, seed, res);
        }));

    results.push_back(benchConfig(
        "colocated_4svc", steps, [&](ConfigResult &res) {
            const sim::MachineConfig machine;
            const std::size_t top = machine.dvfs.maxIndex();
            // 4 x 8 cores on an 18-core socket: heavy shared pool.
            runServerConfig({services::masstree(), services::xapian(),
                             services::moses(), services::silo()},
                            0.6, {{8, top}, {8, top}, {8, top}, {8, top}},
                            warmup, seed, res);
        }));

    results.push_back(benchConfig(
        "fleet_8node", steps / 2, [&](ConfigResult &res) {
            runFleetConfig(8, warmup, seed, res);
        }));

    std::printf("%-16s %7s %14s %12s\n", "config", "steps", "steps/s",
                "alloc/step");
    for (const auto &r : results) {
        std::printf("%-16s %7zu %14.1f %12.1f\n", r.name.c_str(),
                    r.steps, r.stepsPerSec, r.allocsPerStep);
    }

    bool zero_alloc = true;
    for (const auto &r : results) {
        zero_alloc = zero_alloc && r.allocsPerStep == 0.0;
        std::printf("\nphase breakdown (%s):\n", r.name.c_str());
        r.profile.print(stdout);
    }
    if (!zero_alloc) {
        std::fprintf(stderr, "fig_sim_throughput: the hot path "
                             "allocated in steady state\n");
        return 1;
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"configs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"steps\": %zu,\n"
                     "     \"optimized_steps_per_sec\": %.1f,\n"
                     "     \"optimized_allocs_per_step\": %.3f,\n"
                     "     \"phases\":\n",
                     r.name.c_str(), r.steps, r.stepsPerSec,
                     r.allocsPerStep);
        r.profile.writeJson(f, "     ");
        std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
