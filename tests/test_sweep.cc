/** @file Determinism tests for the parallel experiment sweep. */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/static_manager.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::harness;
using twig::common::sweepSeed;

namespace {

/** A real (small) experiment: one service under static management. */
RunMetrics
runExperiment(std::size_t index, std::uint64_t seed)
{
    sim::MachineConfig machine;
    sim::Server server(machine, static_cast<unsigned>(seed));
    const auto p =
        index % 2 == 0 ? services::masstree() : services::xapian();
    server.addService(
        p, std::make_unique<sim::FixedLoad>(
               p.maxLoadRps, 0.2 + 0.1 * static_cast<double>(index % 3)));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);
    RunOptions opt;
    opt.steps = 15;
    opt.summaryWindow = 10;
    return runner.run(opt);
}

void
expectIdentical(const RunMetrics &a, const RunMetrics &b)
{
    // Bit-identical: every double compared with ==, not a tolerance.
    ASSERT_EQ(a.services.size(), b.services.size());
    for (std::size_t s = 0; s < a.services.size(); ++s) {
        EXPECT_EQ(a.services[s].name, b.services[s].name);
        EXPECT_EQ(a.services[s].qosGuaranteePct,
                  b.services[s].qosGuaranteePct);
        EXPECT_EQ(a.services[s].meanTardiness, b.services[s].meanTardiness);
        EXPECT_EQ(a.services[s].maxTardiness, b.services[s].maxTardiness);
        EXPECT_EQ(a.services[s].meanP99Ms, b.services[s].meanP99Ms);
        EXPECT_EQ(a.services[s].samples, b.services[s].samples);
    }
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.meanPowerW, b.meanPowerW);
    EXPECT_EQ(a.windowSteps, b.windowSteps);
}

} // namespace

TEST(SweepSeed, DependsOnlyOnBaseAndIndex)
{
    EXPECT_EQ(sweepSeed(42, 0), sweepSeed(42, 0));
    EXPECT_NE(sweepSeed(42, 0), sweepSeed(42, 1));
    EXPECT_NE(sweepSeed(42, 0), sweepSeed(43, 0));
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 1000; ++i)
        seen.insert(sweepSeed(7, i));
    EXPECT_EQ(seen.size(), 1000u) << "per-index seeds must not collide";
}

TEST(ParallelSweep, SerialAndParallelRunsAreBitIdentical)
{
    constexpr std::size_t kRuns = 6;

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    serial_opts.baseSeed = 1234;
    ParallelSweep serial(serial_opts);

    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    parallel_opts.baseSeed = 1234;
    ParallelSweep parallel(parallel_opts);

    const auto serial_results = serial.map<RunMetrics>(
        kRuns, [](std::size_t i, std::uint64_t seed) {
            return runExperiment(i, seed);
        });
    const auto parallel_results = parallel.map<RunMetrics>(
        kRuns, [](std::size_t i, std::uint64_t seed) {
            return runExperiment(i, seed);
        });

    ASSERT_EQ(serial_results.size(), kRuns);
    ASSERT_EQ(parallel_results.size(), kRuns);
    for (std::size_t i = 0; i < kRuns; ++i)
        expectIdentical(serial_results[i], parallel_results[i]);
}

TEST(ParallelSweep, RepeatedParallelRunsAreStable)
{
    SweepOptions opts;
    opts.jobs = 3;
    opts.baseSeed = 99;
    ParallelSweep sweep(opts);
    auto once = sweep.map<RunMetrics>(
        4, [](std::size_t i, std::uint64_t s) { return runExperiment(i, s); });
    auto twice = sweep.map<RunMetrics>(
        4, [](std::size_t i, std::uint64_t s) { return runExperiment(i, s); });
    for (std::size_t i = 0; i < once.size(); ++i)
        expectIdentical(once[i], twice[i]);
}

TEST(ParallelSweep, RunOrdersResultsByTaskIndex)
{
    SweepOptions opts;
    opts.jobs = 4;
    ParallelSweep sweep(opts);
    const auto results = sweep.map<RunMetrics>(
        5, [](std::size_t i, std::uint64_t) {
            RunMetrics m;
            m.windowSteps = i; // marker for ordering
            return m;
        });
    ASSERT_EQ(results.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(results[i].windowSteps, i);
}

TEST(ParallelSweep, MapWithMoreJobsThanTasks)
{
    SweepOptions opts;
    opts.jobs = 16;
    ParallelSweep sweep(opts);
    const auto out = sweep.map<int>(
        3, [](std::size_t i, std::uint64_t) { return static_cast<int>(i); });
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 1);
    EXPECT_EQ(out[2], 2);
}
