/** @file Unit tests for the experiment harness. */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/static_manager.hh"
#include "common/hash.hh"
#include "harness/engine.hh"
#include "harness/metrics.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::harness;

TEST(Metrics, AccumulatorComputesGuaranteeAndTardiness)
{
    MetricsAccumulator acc({"svc"}, {10.0});
    acc.add({5.0}, 100.0, 1.0);  // met, tardiness 0.5
    acc.add({20.0}, 100.0, 1.0); // violated, tardiness 2.0
    acc.add({10.0}, 50.0, 1.0);  // met (== target), tardiness 1.0
    const auto m = acc.finish();
    ASSERT_EQ(m.services.size(), 1u);
    EXPECT_NEAR(m.services[0].qosGuaranteePct, 200.0 / 3.0, 1e-9);
    EXPECT_NEAR(m.services[0].meanTardiness, 3.5 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.services[0].maxTardiness, 2.0);
    EXPECT_NEAR(m.services[0].meanP99Ms, 35.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.energyJoules, 250.0);
    EXPECT_NEAR(m.meanPowerW, 250.0 / 3.0, 1e-9);
    EXPECT_EQ(m.windowSteps, 3u);
}

TEST(Metrics, MultiServiceAverage)
{
    MetricsAccumulator acc({"a", "b"}, {10.0, 100.0});
    acc.add({5.0, 200.0}, 10.0, 1.0); // a met, b violated
    const auto m = acc.finish();
    EXPECT_DOUBLE_EQ(m.services[0].qosGuaranteePct, 100.0);
    EXPECT_DOUBLE_EQ(m.services[1].qosGuaranteePct, 0.0);
    EXPECT_DOUBLE_EQ(m.avgQosGuaranteePct(), 50.0);
}

TEST(Metrics, Validation)
{
    EXPECT_THROW(MetricsAccumulator({"a"}, {1.0, 2.0}),
                 twig::common::FatalError);
    EXPECT_THROW(MetricsAccumulator({}, {}), twig::common::FatalError);
    MetricsAccumulator acc({"a"}, {1.0});
    EXPECT_THROW(acc.add({1.0, 2.0}, 1.0, 1.0),
                 twig::common::FatalError);
}

TEST(Runner, StaticManagerMeetsQosAtModerateLoad)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 21);
    const auto p = services::masstree();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.5));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    RunOptions opt;
    opt.steps = 30;
    opt.summaryWindow = 20;
    const auto metrics = runner.run(opt);
    EXPECT_EQ(metrics.windowSteps, 20u);
    EXPECT_GT(metrics.services[0].qosGuaranteePct, 90.0);
    EXPECT_GT(metrics.energyJoules, 0.0);
}

namespace {

/** One service at a fixed load under the static manager. */
ScenarioSpec
staticSpec(const char *service, double fraction, std::size_t steps,
           std::uint64_t seed)
{
    ScenarioSpec spec;
    spec.name = "runner";
    ServiceLoadSpec svc;
    svc.service = service;
    svc.fraction = fraction;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = steps;
    spec.window = steps;
    spec.seed = seed;
    return spec;
}

} // namespace

TEST(Runner, TraceRecordsEveryStep)
{
    // The kept trace (EngineOptions::recordTrace) holds one record per
    // interval of the measured segment.
    EngineOptions opts;
    opts.recordTrace = true;
    const auto trace =
        Engine(opts).run(staticSpec("xapian", 0.2, 12, 22)).single.trace;
    const sim::MachineConfig machine;
    ASSERT_EQ(trace.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(trace[i].step, i);
        ASSERT_EQ(trace[i].cores.size(), 1u);
        EXPECT_EQ(trace[i].cores[0], machine.numCores);
        EXPECT_GT(trace[i].socketPowerW, 0.0);
    }
}

TEST(Runner, OnStepHookFires)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 23);
    const auto p = services::moses();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.2));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    std::size_t calls = 0;
    RunOptions opt;
    opt.steps = 7;
    opt.summaryWindow = 7;
    opt.onStep = [&calls](std::size_t,
                          const sim::ServerIntervalStats &) { ++calls; };
    runner.run(opt);
    EXPECT_EQ(calls, 7u);
}

TEST(Runner, OnStepOrderingAndTraceContentsAgree)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 24);
    const auto p = services::masstree();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.4));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);

    // The hook fires once per interval, in step order, with the stats
    // of the interval that just ran and the requests it ran with.
    std::vector<std::size_t> hook_steps, hook_cores, hook_dvfs;
    std::vector<double> hook_p99, hook_rps, hook_power;
    RunOptions opt;
    opt.steps = 9;
    opt.summaryWindow = 9;
    opt.onStep = [&](std::size_t step,
                     const sim::ServerIntervalStats &stats) {
        hook_steps.push_back(step);
        ASSERT_EQ(stats.services.size(), 1u);
        hook_p99.push_back(stats.services[0].p99Ms);
        hook_rps.push_back(stats.services[0].offeredRps);
        hook_power.push_back(stats.socketPowerW);
        hook_cores.push_back(runner.requests()[0].numCores);
        hook_dvfs.push_back(runner.requests()[0].dvfsIndex);
    };
    runner.run(opt);

    // The engine's kept trace of the same run holds what the hook saw.
    EngineOptions opts;
    opts.recordTrace = true;
    const auto trace =
        Engine(opts).run(staticSpec("masstree", 0.4, 9, 24)).single.trace;

    ASSERT_EQ(hook_steps.size(), 9u);
    ASSERT_EQ(trace.size(), 9u);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(hook_steps[i], i);
        const auto &rec = trace[i];
        EXPECT_EQ(rec.step, i);
        EXPECT_EQ(rec.p99Ms[0], hook_p99[i]);
        EXPECT_EQ(rec.offeredRps[0], hook_rps[i]);
        EXPECT_EQ(rec.socketPowerW, hook_power[i]);
        ASSERT_EQ(rec.cores.size(), 1u);
        ASSERT_EQ(rec.dvfs.size(), 1u);
        EXPECT_EQ(rec.cores[0], hook_cores[i]);
        EXPECT_EQ(rec.dvfs[0], hook_dvfs[i]);
        // The static manager requests everything, every interval.
        EXPECT_EQ(hook_cores[i], machine.numCores);
        EXPECT_EQ(hook_dvfs[i], machine.dvfs.maxIndex());
    }
}

TEST(Runner, SummaryWindowLargerThanRunIsWholeRun)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 24);
    const auto p = services::imgdnn();
    server.addService(p,
                      std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.2));
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);
    RunOptions opt;
    opt.steps = 5;
    opt.summaryWindow = 100;
    EXPECT_EQ(runner.run(opt).windowSteps, 5u);
}

TEST(Runner, Validation)
{
    sim::MachineConfig machine;
    sim::Server server(machine, 25);
    baselines::StaticManager mgr(machine);
    ExperimentRunner runner(server, mgr);
    RunOptions opt;
    opt.steps = 0;
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
    opt.steps = 5;
    opt.summaryWindow = 0;
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
    opt.summaryWindow = 5;
    // Server hosts no services.
    EXPECT_THROW(runner.run(opt), twig::common::FatalError);
}

TEST(Profiling, CampaignCoversTheGrid)
{
    sim::MachineConfig machine;
    PowerProfilingOptions opt;
    opt.loadLevels = {0.2, 0.5};
    opt.coreCounts = {4, 12};
    opt.dvfsStates = {0, 8};
    opt.intervalsPerConfig = 2;
    const auto samples = profileServicePower(services::masstree(),
                                             machine, opt, 31);
    // Saturated configurations are dropped (4 cores at 1.2 GHz cannot
    // sustain 50% of masstree's max load), so the grid is an upper
    // bound.
    EXPECT_LE(samples.size(), 2u * 2u * 2u);
    EXPECT_GE(samples.size(), 4u);
    for (const auto &s : samples) {
        EXPECT_GT(s.dynamicPowerW, 0.0);
        EXPECT_GE(s.numCores, 4.0);
        EXPECT_LE(s.numCores, 12.0);
    }
}

TEST(Profiling, PowerGrowsWithCoresAndDvfs)
{
    sim::MachineConfig machine;
    PowerProfilingOptions opt;
    opt.loadLevels = {0.5};
    opt.coreCounts = {4, 16};
    opt.dvfsStates = {0, 8};
    opt.intervalsPerConfig = 3;
    const auto samples = profileServicePower(services::moses(),
                                             machine, opt, 32);
    auto find = [&](double cores,
                    double ghz) -> const core::PowerSample * {
        for (const auto &s : samples) {
            if (s.numCores == cores && std::abs(s.dvfsGhz - ghz) < 1e-9)
                return &s;
        }
        return nullptr;
    };
    const auto *lo = find(16, 1.2);
    const auto *hi = find(16, 2.0);
    ASSERT_NE(lo, nullptr);
    ASSERT_NE(hi, nullptr);
    EXPECT_LT(lo->dynamicPowerW, hi->dynamicPowerW);
}

TEST(Profiling, MakeTwigSpecProducesUsableModel)
{
    sim::MachineConfig machine;
    const auto spec = makeTwigSpec(services::masstree(), machine, 33);
    EXPECT_EQ(spec.name, "masstree");
    EXPECT_DOUBLE_EQ(spec.qosTargetMs, 36.0);
    ASSERT_TRUE(spec.powerModel.has_value());
    const double p = spec.powerModel->predict(0.5, 10.0, 1.8);
    EXPECT_GT(p, 5.0);
    EXPECT_LT(p, 120.0);
}

namespace {

/** A fixed (service, machine shape, seed) campaign with its recorded
 * outputs, all exact: makeTwigSpec's Eq. 2 coefficients as hex floats,
 * an FNV-1a checksum over the raw profiling-sample bytes, and the
 * cross-validation score of a fit of those samples with Rng(seed). */
struct GoldenFit
{
    const char *service;
    std::size_t cores;
    std::uint64_t seed;
    double kappa;
    double sigma;
    double omega;
    std::size_t samples;
    std::uint64_t sampleFnv;
    double cvMse;
};

const GoldenFit kGoldenFits[] = {
    {"masstree", 18, 33, 0x1.2f33c22538112p+6, 0x1.6081589694d26p-4,
     0x1.15440133c1b56p+1, 71, 0xc2b43d843df35f4bULL,
     0x1.067ce90bf9806p+6},
    {"masstree", 6, 33, 0x1.a27f1c99b868cp+1, 0x1.851ccd99e6634p-4,
     0x1.915c519d070bdp+1, 8, 0xda27979967142936ULL,
     0x1.7494e3e67e2eap+0},
    {"img-dnn", 6, 5, 0x1.125916d7cf2a2p+1, 0x1.db22ad43c065cp-4,
     0x1.98cc6323bf955p+1, 8, 0x7c30dfdafed4e05eULL,
     0x1.a7eb60a35208p+0},
    {"xapian", 18, 7, 0x1.2fd60d5746f34p+6, 0x1.29d257aedf16p-3,
     0x1.e992263a0b68ap+0, 71, 0x29cb9d77862c0a26ULL,
     0x1.e7a4092d4ba42p+5},
};

sim::MachineConfig
machineWithCores(std::size_t cores)
{
    sim::MachineConfig machine;
    machine.numCores = cores;
    return machine;
}

} // namespace

TEST(Profiling, CampaignSamplesAndCvScoreMatchGoldens)
{
    // Saturated points are dropped at their first saturated interval;
    // every point runs on its own server, so the samples are exactly
    // those of a campaign that ran every interval. The CV score pins
    // the in-place fold scoring's summation order.
    for (const auto &g : kGoldenFits) {
        const auto samples = profileServicePower(
            services::byName(g.service), machineWithCores(g.cores), {},
            g.seed);
        EXPECT_EQ(samples.size(), g.samples) << g.service << ' ' << g.cores;
        EXPECT_EQ(common::fnv1a(samples.data(),
                                samples.size() * sizeof(samples[0])),
                  g.sampleFnv)
            << g.service << ' ' << g.cores;
        common::Rng rng(g.seed);
        core::ServicePowerModel model;
        EXPECT_EQ(model.fit(samples, rng).crossValidationMse, g.cvMse)
            << g.service << ' ' << g.cores;
    }
}

TEST(Profiling, MakeTwigSpecCoefficientsMatchGoldenBits)
{
    for (const auto &g : kGoldenFits) {
        const auto spec = makeTwigSpec(services::byName(g.service),
                                       machineWithCores(g.cores), g.seed);
        ASSERT_TRUE(spec.powerModel.has_value());
        EXPECT_EQ(spec.powerModel->kappa(), g.kappa)
            << g.service << ' ' << g.cores;
        EXPECT_EQ(spec.powerModel->sigma(), g.sigma)
            << g.service << ' ' << g.cores;
        EXPECT_EQ(spec.powerModel->omega(), g.omega)
            << g.service << ' ' << g.cores;
    }
}

TEST(Profiling, MakeDeployedTwigSpecCarriesNoModel)
{
    const auto spec = makeDeployedTwigSpec(services::masstree());
    EXPECT_EQ(spec.name, "masstree");
    EXPECT_DOUBLE_EQ(spec.qosTargetMs, 36.0);
    EXPECT_DOUBLE_EQ(spec.maxLoadRps, services::masstree().maxLoadRps);
    EXPECT_FALSE(spec.powerModel.has_value());
}

TEST(Profiling, MakeBaselineSpecCopiesFields)
{
    const auto spec = makeBaselineSpec(services::xapian());
    EXPECT_EQ(spec.name, "xapian");
    EXPECT_DOUBLE_EQ(spec.qosTargetMs, 136.0);
    EXPECT_DOUBLE_EQ(spec.maxLoadRps, 1000.0);
}
