/** @file Integration tests: full Twig-S / Twig-C loops on the
 * simulated server, plus end-to-end determinism. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_manager.hh"
#include "common/hash.hh"
#include "core/mapper.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/profiling.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "oracle/golden_hash.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::core;
using namespace twig::harness;

namespace {

TwigServiceSpec
quickSpec(const sim::ServiceProfile &p)
{
    // A hand-set Eq. 2 model of roughly the right scale, so the
    // integration tests do not pay for a profiling campaign.
    TwigServiceSpec spec;
    spec.name = p.name;
    spec.qosTargetMs = p.qosTargetMs;
    spec.maxLoadRps = p.maxLoadRps;
    spec.powerModel = ServicePowerModel(11.0, 0.9, 2.3);
    return spec;
}

/**
 * A trained Twig-S policy restored into a learning-built manager that
 * first runs exploit-only for 20 intervals, then learns for 300 (after
 * swapping masstree for moses with transfer learning, if @p transfer).
 * The learner's first transition comes long after construction, so
 * this pins the target network and replay buffer that the first
 * training call builds. Returns the FNV-1a of every interval's
 * resource requests, then of the final checkpoint payload.
 */
std::uint64_t
resumedLearningHash(bool transfer)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto mt = services::masstree();
    sim::Server server(machine, 111);
    server.addService(
        mt, std::make_unique<sim::FixedLoad>(mt.maxLoadRps, 0.5));
    Mapper mapper(machine);

    std::uint64_t h = common::kFnvOffsetBasis;
    std::vector<ResourceRequest> reqs = {{machine.numCores / 2, 0}};
    auto run = [&](TwigManager &twig, std::size_t steps) {
        for (std::size_t i = 0; i < steps; ++i) {
            twig.decideInto(server.runInterval(mapper.map(reqs)), reqs);
            for (const ResourceRequest &r : reqs) {
                h = common::fnv1aValue(r.numCores, h);
                h = common::fnv1aValue(r.dvfsIndex, h);
            }
        }
    };

    TwigManager donor(TwigConfig::fast(300), machine, maxima,
                      {quickSpec(mt)}, 112);
    run(donor, 200);

    TwigManager twig(TwigConfig::fast(300), machine, maxima,
                     {quickSpec(mt)}, 113);
    twig.restore(donor.checkpoint());
    twig.setExploitOnly(true);
    run(twig, 20);
    if (transfer) {
        const auto mo = services::moses();
        server.replaceService(
            0, mo, std::make_unique<sim::FixedLoad>(mo.maxLoadRps, 0.5));
        twig.transferService(0, quickSpec(mo), 60);
    }
    twig.setExploitOnly(false);
    run(twig, 300);

    const std::string bytes = twig.checkpoint().bytes().substr(8);
    return common::fnv1a(bytes.data(), bytes.size(), h);
}

} // namespace

TEST(Integration, TwigSLearnsToMeetQos)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto profile = services::masstree();

    sim::Server server(machine, 101);
    server.addService(profile, std::make_unique<sim::FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    TwigManager twig(TwigConfig::fast(900), machine, maxima,
                     {quickSpec(profile)}, 102);
    ExperimentRunner runner(server, twig);

    RunOptions opt;
    opt.steps = 900;
    opt.summaryWindow = 150;
    const auto metrics = runner.run(opt);
    // After the compressed learning schedule the QoS guarantee must be
    // high and power below the static allocation (~91 W at this load).
    EXPECT_GT(metrics.services[0].qosGuaranteePct, 80.0);
    EXPECT_LT(metrics.meanPowerW, 100.0);
}

TEST(Integration, TwigCManagesTwoServices)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto mt = services::masstree();
    const auto xa = services::xapian();

    sim::Server server(machine, 103);
    server.addService(
        mt, std::make_unique<sim::FixedLoad>(mt.maxLoadRps, 0.3));
    server.addService(
        xa, std::make_unique<sim::FixedLoad>(xa.maxLoadRps, 0.3));

    TwigManager twig(TwigConfig::fast(700), machine, maxima,
                     {quickSpec(mt), quickSpec(xa)}, 104);
    ExperimentRunner runner(server, twig);

    RunOptions opt;
    opt.steps = 700;
    opt.summaryWindow = 120;
    const auto metrics = runner.run(opt);
    ASSERT_EQ(metrics.services.size(), 2u);
    EXPECT_GT(metrics.avgQosGuaranteePct(), 70.0);
}

TEST(Integration, FullRunIsDeterministic)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto profile = services::moses();

    auto run_once = [&]() {
        sim::Server server(machine, 105);
        server.addService(profile, std::make_unique<sim::FixedLoad>(
                                       profile.maxLoadRps, 0.4));
        TwigManager twig(TwigConfig::fast(120), machine, maxima,
                         {quickSpec(profile)}, 106);
        ExperimentRunner runner(server, twig);
        RunOptions opt;
        opt.steps = 120;
        opt.summaryWindow = 40;
        return runner.run(opt);
    };

    const auto a = run_once();
    const auto b = run_once();
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_DOUBLE_EQ(a.services[0].qosGuaranteePct,
                     b.services[0].qosGuaranteePct);
    EXPECT_DOUBLE_EQ(a.services[0].meanTardiness,
                     b.services[0].meanTardiness);
}

TEST(Integration, TwigSTrainingRunMatchesGolden)
{
    // twig_sim --service masstree --manager twig --steps 1000: Twig-S
    // on the fast preset, training long enough that Adam's moments for
    // actions the minibatches stop carrying decay past FLT_MIN. Pinned
    // by an FNV-1a hash of every step's p99 and power plus the final
    // checkpoint bytes, recorded before Linear::adamStep flushed
    // subnormal moments, when this run ended with subnormal moments
    // in its output layers (DESIGN.md section 7). BDQ rounding makes
    // the constant hold on AVX2+FMA hosts (DESIGN.md section 8).
    ScenarioSpec spec;
    spec.name = "cli";
    ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = 0.5;
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = 1000;
    spec.seed = 42;

    // The context harness::Engine builds the manager from.
    ManagerContext ctx;
    ctx.machine.numCores = spec.machineCores;
    ctx.profiles = {services::masstree()};
    ctx.schedule = Schedule{spec.steps, spec.resolvedWindow(),
                            spec.resolvedHorizon()};
    ctx.seed = spec.seed + 1;
    auto manager = ManagerRegistry::builtin().make(spec.manager, ctx);
    auto *twig = dynamic_cast<TwigManager *>(manager.get());
    ASSERT_NE(twig, nullptr);

    EngineOptions opts;
    opts.managerOverride = twig;
    opts.recordTrace = true;
    const auto result = Engine(opts).run(spec);
    ASSERT_EQ(result.single.trace.size(), spec.steps);

    std::uint64_t h = common::kFnvOffsetBasis;
    for (const auto &rec : result.single.trace) {
        h = oracle::hashDoubles(rec.p99Ms, h);
        h = oracle::hashDouble(rec.socketPowerW, h);
    }
    // The checkpoint payload: everything after its checksum.
    const std::string bytes = twig->checkpoint().bytes().substr(8);
    h = common::fnv1a(bytes.data(), bytes.size(), h);
    EXPECT_EQ(h, 0x008d8e72a0eb07e5ULL);

    // The run went through the flush: no output-layer moment is left
    // subnormal.
    auto &net = twig->learner().onlineNetwork();
    auto expect_normal_moments = [](const nn::Linear &layer) {
        for (const nn::Matrix *m : {&layer.adamMWeight(), &layer.adamVWeight()})
            for (float x : m->raw())
                EXPECT_NE(std::fpclassify(x), FP_SUBNORMAL);
    };
    for (std::size_t k = 0; k < net.config().numAgents; ++k)
        expect_normal_moments(net.valueOutputLayer(k));
    for (std::size_t d = 0; d < net.config().numBranches(); ++d)
        expect_normal_moments(net.advantageOutputLayer(d));
}

TEST(Integration, RestoredPolicyResumesLearningMatchesGolden)
{
    // Recorded when the learner built its target network and replay
    // at construction. BDQ rounding makes the constant hold on
    // AVX2+FMA hosts (DESIGN.md section 8).
    EXPECT_EQ(resumedLearningHash(false), 0xda25a5d0b8271435ULL);
}

TEST(Integration, RestoredPolicyTransfersThenLearnsMatchesGolden)
{
    EXPECT_EQ(resumedLearningHash(true), 0x93f5a01bcb90927aULL);
}

TEST(Integration, TwigBeatsStaticOnEnergyAtLowLoad)
{
    // The headline claim, scaled down: at low load an adaptive manager
    // must burn meaningfully less energy than the static mapping while
    // keeping the QoS guarantee high.
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto profile = services::imgdnn();

    auto run_with = [&](core::TaskManager &mgr, std::uint64_t seed) {
        sim::Server server(machine, seed);
        server.addService(profile, std::make_unique<sim::FixedLoad>(
                                       profile.maxLoadRps, 0.2));
        ExperimentRunner runner(server, mgr);
        RunOptions opt;
        opt.steps = 1300;
        opt.summaryWindow = 200;
        return runner.run(opt);
    };

    baselines::StaticManager static_mgr(machine);
    const auto static_result = run_with(static_mgr, 107);

    TwigManager twig(TwigConfig::fast(1300), machine, maxima,
                     {quickSpec(profile)}, 108);
    const auto twig_result = run_with(twig, 107);

    EXPECT_GT(twig_result.services[0].qosGuaranteePct, 75.0);
    // The simulator's savings ceiling vs static at 20% load is ~20%
    // (constant uncore power + idle-core leakage floor); a compressed
    // run reliably captures over half of it.
    EXPECT_LT(twig_result.meanPowerW,
              0.90 * static_result.meanPowerW);
}

TEST(Integration, TransferAdaptsAfterServiceSwap)
{
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto mt = services::masstree();
    const auto mo = services::moses();

    sim::Server server(machine, 109);
    server.addService(
        mt, std::make_unique<sim::FixedLoad>(mt.maxLoadRps, 0.5));
    TwigManager twig(TwigConfig::fast(600), machine, maxima,
                     {quickSpec(mt)}, 110);
    ExperimentRunner runner(server, twig);
    RunOptions learn;
    learn.steps = 600;
    learn.summaryWindow = 100;
    runner.run(learn);

    // Swap masstree -> moses with transfer learning.
    server.replaceService(
        0, mo, std::make_unique<sim::FixedLoad>(mo.maxLoadRps, 0.5));
    twig.transferService(0, quickSpec(mo), 60);

    RunOptions adapt;
    adapt.steps = 200;
    adapt.summaryWindow = 80;
    const auto metrics = runner.run(adapt);
    EXPECT_GT(metrics.services[0].qosGuaranteePct, 60.0);
}

TEST(Integration, TwigRecoversFromLoadSpike)
{
    // Failure injection: a trained Twig-S hit by a sudden 3x load
    // spike must recover its QoS within a bounded number of intervals
    // (the timeout bounds backlog; the policy must re-provision).
    const sim::MachineConfig machine;
    const auto maxima = services::calibrateCounterMaxima(machine);
    const auto profile = services::masstree();

    // A load generator that spikes from 25% to 75% at a known step.
    class SpikeLoad : public sim::LoadGenerator
    {
      public:
        SpikeLoad(double max, std::size_t at) : max_(max), at_(at) {}
        double
        rps(std::size_t step) const override
        {
            return max_ * (step < at_ ? 0.25 : 0.75);
        }

      private:
        double max_;
        std::size_t at_;
    };

    const std::size_t spike_at = 700;
    sim::Server server(machine, 201);
    server.addService(profile, std::make_unique<SpikeLoad>(
                                   profile.maxLoadRps, spike_at));
    // Learn on a diurnal profile first? Keep it simple: the learning
    // phase runs at the low level, the spike lands post-annealing.
    TwigManager twig(TwigConfig::fast(700), machine, maxima,
                     {quickSpec(profile)}, 202);
    ExperimentRunner runner(server, twig);

    std::size_t recovered_at = 0;
    std::size_t consecutive_ok = 0;
    RunOptions opt;
    opt.steps = 900;
    opt.summaryWindow = 100;
    opt.onStep = [&](std::size_t step,
                     const sim::ServerIntervalStats &stats) {
        if (step < spike_at || recovered_at)
            return;
        if (stats.services[0].p99Ms <= profile.qosTargetMs) {
            if (++consecutive_ok >= 5)
                recovered_at = step;
        } else {
            consecutive_ok = 0;
        }
    };
    runner.run(opt);

    ASSERT_GT(recovered_at, 0u) << "never recovered from the spike";
    EXPECT_LT(recovered_at - spike_at, 120u);
}
