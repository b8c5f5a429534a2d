/** @file Unit tests for the TwigManager facade. */

#include <gtest/gtest.h>

#include <memory>

#include "core/mapper.hh"
#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::core;

namespace {

TwigServiceSpec
specFor(const sim::ServiceProfile &p)
{
    TwigServiceSpec spec;
    spec.name = p.name;
    spec.qosTargetMs = p.qosTargetMs;
    spec.maxLoadRps = p.maxLoadRps;
    spec.powerModel = ServicePowerModel(10.0, 1.0, 2.0);
    return spec;
}

struct Fixture
{
    sim::MachineConfig machine;
    sim::PmcVector maxima = services::calibrateCounterMaxima(machine);
    sim::Server server{machine, 11};
    Mapper mapper{machine};

    Fixture()
    {
        const auto p = services::masstree();
        server.addService(
            p, std::make_unique<sim::FixedLoad>(p.maxLoadRps, 0.5));
    }

    sim::ServerIntervalStats
    step(TaskManager &, const std::vector<ResourceRequest> &reqs)
    {
        return server.runInterval(mapper.map(reqs));
    }
};

} // namespace

TEST(TwigManager, NameReflectsVariant)
{
    Fixture f;
    TwigManager single(TwigConfig::fast(100), f.machine, f.maxima,
                       {specFor(services::masstree())}, 1);
    EXPECT_EQ(single.name(), "Twig-S");

    TwigManager coloc(TwigConfig::fast(100), f.machine, f.maxima,
                      {specFor(services::masstree()),
                       specFor(services::moses())},
                      2);
    EXPECT_EQ(coloc.name(), "Twig-C");
}

TEST(TwigManager, DecideReturnsValidRequests)
{
    Fixture f;
    TwigManager twig(TwigConfig::fast(100), f.machine, f.maxima,
                     {specFor(services::masstree())}, 3);
    auto reqs = twig.initialRequests(1, f.machine);
    for (int i = 0; i < 10; ++i) {
        const auto stats = f.step(twig, reqs);
        reqs = twig.decide(stats);
        ASSERT_EQ(reqs.size(), 1u);
        EXPECT_GE(reqs[0].numCores, 1u);
        EXPECT_LE(reqs[0].numCores, f.machine.numCores);
        EXPECT_LE(reqs[0].dvfsIndex, f.machine.dvfs.maxIndex());
    }
}

TEST(TwigManager, TransitionsFeedTheLearner)
{
    Fixture f;
    TwigManager twig(TwigConfig::fast(100), f.machine, f.maxima,
                     {specFor(services::masstree())}, 4);
    auto reqs = twig.initialRequests(1, f.machine);
    auto stats = f.step(twig, reqs);
    reqs = twig.decide(stats); // first decide: no transition yet
    EXPECT_EQ(twig.learner().step(), 0u);
    stats = f.step(twig, reqs);
    twig.decide(stats); // second decide closes one transition
    EXPECT_EQ(twig.learner().step(), 1u);
}

TEST(TwigManager, RewardSignMatchesQoS)
{
    Fixture f;
    TwigManager twig(TwigConfig::fast(100), f.machine, f.maxima,
                     {specFor(services::masstree())}, 5);
    auto reqs = twig.initialRequests(1, f.machine);
    auto stats = f.step(twig, reqs);
    twig.decide(stats);

    // Force a generous allocation: QoS met -> positive reward.
    std::vector<ResourceRequest> generous = {
        {f.machine.numCores, f.machine.dvfs.maxIndex()}};
    stats = f.step(twig, generous);
    // Overwrite the manager's notion of what it asked for by deciding
    // directly on generous telemetry (prevActions were its own, but
    // the QoS reward sign depends only on measured latency).
    twig.decide(stats);
    // The one transition learned so far carries that reward.
    auto &replay = twig.learner().replay();
    ASSERT_EQ(replay.size(), 1u);
    EXPECT_GT(replay.at(0).rewards[0], 0.0);
}

TEST(TwigManager, ExploitOnlySkipsLearning)
{
    Fixture f;
    auto cfg = TwigConfig::fast(100);
    cfg.exploitOnly = true;
    TwigManager twig(cfg, f.machine, f.maxima,
                     {specFor(services::masstree())}, 6);
    auto reqs = twig.initialRequests(1, f.machine);
    for (int i = 0; i < 5; ++i) {
        const auto stats = f.step(twig, reqs);
        reqs = twig.decide(stats);
    }
    EXPECT_EQ(twig.learner().step(), 0u);
}

TEST(TwigManager, TransferServiceSwapsSpecAndReanneals)
{
    Fixture f;
    TwigManager twig(TwigConfig::fast(200), f.machine, f.maxima,
                     {specFor(services::masstree())}, 7);
    auto reqs = twig.initialRequests(1, f.machine);
    for (int i = 0; i < 30; ++i) {
        const auto stats = f.step(twig, reqs);
        reqs = twig.decide(stats);
    }
    twig.transferService(0, specFor(services::xapian()), 20);
    EXPECT_NEAR(twig.learner().epsilon(), 0.1, 1e-9);
    // Next decide must not crash and must not create a cross-service
    // transition (prev state was cleared).
    const std::size_t steps_before = twig.learner().step();
    const auto stats = f.step(twig, reqs);
    twig.decide(stats);
    EXPECT_EQ(twig.learner().step(), steps_before);
}

TEST(TwigManager, Validation)
{
    Fixture f;
    EXPECT_THROW(TwigManager(TwigConfig::fast(100), f.machine, f.maxima,
                             {}, 8),
                 twig::common::FatalError);

    TwigManager twig(TwigConfig::fast(100), f.machine, f.maxima,
                     {specFor(services::masstree()),
                      specFor(services::moses())},
                     9);
    // Telemetry for one service, manager expects two.
    sim::ServerIntervalStats stats;
    stats.services.resize(1);
    EXPECT_THROW(twig.decide(stats), twig::common::FatalError);
    EXPECT_THROW(twig.transferService(7, specFor(services::moses())),
                 twig::common::FatalError);
}

TEST(TwigManager, LearningRequiresAPowerModel)
{
    Fixture f;
    const auto deployed = harness::makeDeployedTwigSpec(services::masstree());
    ASSERT_FALSE(deployed.powerModel.has_value());
    EXPECT_THROW(TwigManager(TwigConfig::fast(100), f.machine, f.maxima,
                             {specFor(services::moses()), deployed}, 12),
                 twig::common::FatalError);

    // Exploit-only needs no model, and decides without one.
    auto cfg = TwigConfig::fast(100);
    cfg.exploitOnly = true;
    TwigManager twig(cfg, f.machine, f.maxima, {deployed}, 13);
    auto reqs = twig.initialRequests(1, f.machine);
    for (int i = 0; i < 3; ++i)
        reqs = twig.decide(f.step(twig, reqs));
    EXPECT_EQ(twig.learner().step(), 0u);
}

TEST(TwigManager, CannotStartLearningWithoutAPowerModel)
{
    Fixture f;
    auto cfg = TwigConfig::fast(100);
    cfg.exploitOnly = true;
    TwigManager twig(
        cfg, f.machine, f.maxima,
        {harness::makeDeployedTwigSpec(services::masstree())}, 14);
    EXPECT_THROW(twig.setExploitOnly(false), twig::common::FatalError);
    EXPECT_TRUE(twig.exploitOnly());
    twig.setExploitOnly(true);

    // Once every service has a model again, learning may resume.
    twig.transferService(0, specFor(services::xapian()));
    twig.setExploitOnly(false);
    EXPECT_FALSE(twig.exploitOnly());
}

TEST(TwigManager, LearningTransferRequiresAPowerModel)
{
    Fixture f;
    const auto deployed = harness::makeDeployedTwigSpec(services::xapian());
    TwigManager learning(TwigConfig::fast(100), f.machine, f.maxima,
                         {specFor(services::masstree())}, 15);
    EXPECT_THROW(learning.transferService(0, deployed),
                 twig::common::FatalError);

    auto cfg = TwigConfig::fast(100);
    cfg.exploitOnly = true;
    TwigManager exploiting(cfg, f.machine, f.maxima,
                           {specFor(services::masstree())}, 16);
    exploiting.transferService(0, deployed);
    EXPECT_THROW(exploiting.setExploitOnly(false),
                 twig::common::FatalError);
}

TEST(TwigManager, FastPresetScalesWithHorizon)
{
    const auto cfg = TwigConfig::fast(1000);
    EXPECT_EQ(cfg.learner.epsilonMidStep, 500u);
    EXPECT_EQ(cfg.learner.epsilonFinalStep, 800u);
    EXPECT_THROW(TwigConfig::fast(5), twig::common::FatalError);
}

TEST(TwigManager, PaperPresetMatchesSectionFour)
{
    const auto cfg = TwigConfig::paper();
    EXPECT_EQ(cfg.learner.net.trunkHidden,
              (std::vector<std::size_t>{512, 256}));
    EXPECT_EQ(cfg.learner.net.branchHidden, 128u);
    EXPECT_FLOAT_EQ(cfg.learner.net.dropoutRate, 0.5f);
    EXPECT_FLOAT_EQ(cfg.learner.net.adam.learningRate, 0.0025f);
    EXPECT_EQ(cfg.learner.minibatch, 64u);
    EXPECT_DOUBLE_EQ(cfg.learner.discount, 0.99);
    EXPECT_EQ(cfg.learner.targetUpdateInterval, 150u);
    EXPECT_EQ(cfg.learner.epsilonMidStep, 10000u);
    EXPECT_EQ(cfg.learner.epsilonFinalStep, 25000u);
    EXPECT_EQ(cfg.learner.replay.capacity, 1000000u);
    EXPECT_DOUBLE_EQ(cfg.learner.replay.alpha, 0.6);
    EXPECT_EQ(cfg.eta, 5u);
}

TEST(TwigManager, ModelSaveLoadTransfersThePolicy)
{
    Fixture f;
    TwigManager trained(TwigConfig::fast(300), f.machine, f.maxima,
                        {specFor(services::masstree())}, 31);
    auto reqs = trained.initialRequests(1, f.machine);
    for (int i = 0; i < 60; ++i) {
        const auto stats = f.step(trained, reqs);
        reqs = trained.decide(stats);
    }

    const rl::Checkpoint model = trained.checkpoint();

    auto cfg = TwigConfig::fast(300);
    cfg.exploitOnly = true;
    TwigManager deployed(cfg, f.machine, f.maxima,
                         {specFor(services::masstree())}, 32);
    deployed.restore(model);

    // Identical greedy policies on an arbitrary state.
    std::vector<float> state(sim::kNumPmcs, 0.4f);
    EXPECT_EQ(trained.learner().greedyActions(state),
              deployed.learner().greedyActions(state));
}
