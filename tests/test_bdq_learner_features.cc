/** @file Unit tests for the BDQ learner's robustness features:
 * reward scaling/clipping, Huber TD clipping, explore holds and the
 * sticky argmax. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "rl/bdq_learner.hh"

using namespace twig::rl;
using twig::common::Rng;

namespace {

BdqLearnerConfig
smallLearner()
{
    BdqLearnerConfig cfg;
    cfg.net.numAgents = 1;
    cfg.net.stateDimPerAgent = 3;
    cfg.net.trunkHidden = {16};
    cfg.net.agentHeadHidden = 8;
    cfg.net.branchHidden = 8;
    cfg.net.branchActions = {4, 3};
    cfg.net.dropoutRate = 0.0f;
    cfg.minibatch = 8;
    cfg.minReplayBeforeTraining = 8;
    cfg.replay.capacity = 512;
    cfg.epsilonMidStep = 100;
    cfg.epsilonFinalStep = 200;
    return cfg;
}

Transition
transition(double reward)
{
    Transition t;
    t.state = {0.5f, 0.5f, 0.5f};
    t.actions = {{1, 1}};
    t.rewards = {reward};
    t.nextState = {0.5f, 0.5f, 0.5f};
    return t;
}

/** Eval Q-values of one state: a forward over a one-row matrix. */
twig::nn::BdqOutput
qValues(BdqLearner &learner, const std::vector<float> &state)
{
    twig::nn::Matrix x(1, state.size());
    std::copy(state.begin(), state.end(), x.rowPtr(0));
    twig::nn::BdqOutput out;
    learner.onlineNetwork().forward(x, out, false);
    return out;
}

} // namespace

TEST(LearnerFeatures, RewardClipBoundsTheTarget)
{
    // With scale 0.1 and clip at -2, a -1000 reward behaves exactly
    // like a -20 reward: identical training trajectories.
    auto cfg = smallLearner();
    cfg.rewardScale = 0.1;
    cfg.rewardClipMin = -2.0;

    Rng r1(5), r2(5);
    BdqLearner a(cfg, r1), b(cfg, r2);
    for (int i = 0; i < 64; ++i) {
        a.observe(transition(-1000.0));
        b.observe(transition(-20.0));
    }
    const std::vector<float> s = {0.5f, 0.5f, 0.5f};
    const auto qa = qValues(a, s);
    const auto qb = qValues(b, s);
    for (std::size_t d = 0; d < 2; ++d)
        for (std::size_t i = 0; i < qa.q[0][d].size(); ++i)
            EXPECT_FLOAT_EQ(qa.q[0][d].raw()[i], qb.q[0][d].raw()[i]);
}

TEST(LearnerFeatures, HuberBoundsTheGradientStep)
{
    // A single gigantic TD error must not blow up the network: with
    // Huber clipping the Q values stay finite and bounded.
    auto cfg = smallLearner();
    cfg.huberDelta = 1.0;
    cfg.net.adam.learningRate = 0.01f;
    Rng rng(6);
    BdqLearner learner(cfg, rng);
    for (int i = 0; i < 16; ++i)
        learner.observe(transition(0.0));
    learner.observe(transition(1e9));
    for (int i = 0; i < 32; ++i)
        learner.observe(transition(0.0));

    const std::vector<float> s = {0.5f, 0.5f, 0.5f};
    const auto q = qValues(learner, s);
    for (std::size_t d = 0; d < 2; ++d)
        for (float v : q.q[0][d].raw())
            EXPECT_TRUE(std::isfinite(v));
}

TEST(LearnerFeatures, ExploreHoldRepeatsTheRandomAction)
{
    auto cfg = smallLearner();
    cfg.exploreHoldSteps = 4;
    // Epsilon stays 1.0 for the whole test window.
    cfg.epsilonMidStep = 1000;
    cfg.epsilonFinalStep = 2000;
    Rng rng(7);
    BdqLearner learner(cfg, rng);
    const std::vector<float> s = {0.1f, 0.2f, 0.3f};

    // With eps = 1 every non-held step starts a new hold; actions must
    // therefore repeat in blocks of exploreHoldSteps.
    std::vector<twig::nn::BranchActions> seq;
    for (int i = 0; i < 16; ++i)
        seq.push_back(learner.selectActions(s)[0]);
    for (int block = 0; block < 16; block += 4) {
        for (int i = 1; i < 4; ++i)
            EXPECT_EQ(seq[block + i], seq[block]) << "block " << block;
    }
}

TEST(LearnerFeatures, HoldsDisabledAtLowEpsilon)
{
    auto cfg = smallLearner();
    cfg.exploreHoldSteps = 4;
    cfg.epsilonMidStep = 10;
    cfg.epsilonFinalStep = 20;
    cfg.epsilonFinal = 0.01;
    Rng rng(8);
    BdqLearner learner(cfg, rng);
    for (int i = 0; i < 30; ++i)
        learner.observe(transition(0.0));
    EXPECT_LT(learner.epsilon(), 0.05);
    // At eps = 0.01 the greedy action dominates; with holds disabled
    // the sequence should be overwhelmingly the greedy action, i.e.
    // no 4-step random blocks. Just exercise the code path and check
    // the actions stay in range.
    const std::vector<float> s = {0.1f, 0.2f, 0.3f};
    for (int i = 0; i < 50; ++i) {
        const auto a = learner.selectActions(s)[0];
        EXPECT_LT(a[0], 4u);
        EXPECT_LT(a[1], 3u);
    }
}

TEST(LearnerFeatures, StickyArgmaxSuppressesNearTieFlips)
{
    auto cfg = smallLearner();
    cfg.actionStickiness = 1e6; // absurdly sticky: never change
    cfg.epsilonMidStep = 1000;  // but force greedy by...
    cfg.epsilonFinalStep = 2000;
    Rng rng(9);
    BdqLearner learner(cfg, rng);

    // Drive epsilon to ~1; use greedyActions for the pure policy and
    // selectActions' sticky layer via epsilon 0 by re-making config.
    auto cfg2 = smallLearner();
    cfg2.actionStickiness = 1e6;
    cfg2.epsilonMidStep = 1;
    cfg2.epsilonFinalStep = 2;
    cfg2.epsilonMid = 0.0;
    cfg2.epsilonFinal = 0.0;
    Rng rng2(10);
    BdqLearner sticky(cfg2, rng2);
    for (int i = 0; i < 5; ++i)
        sticky.observe(transition(0.0));

    const std::vector<float> s1 = {0.1f, 0.2f, 0.3f};
    const std::vector<float> s2 = {0.9f, 0.8f, 0.7f};
    const auto first = sticky.selectActions(s1);
    // Even on a different state (different argmax), an infinitely
    // sticky policy keeps its previous choice.
    const auto second = sticky.selectActions(s2);
    EXPECT_EQ(first, second);
}

TEST(LearnerFeatures, ZeroStickinessTracksTheArgmax)
{
    auto cfg = smallLearner();
    cfg.actionStickiness = 0.0;
    cfg.epsilonMidStep = 1;
    cfg.epsilonFinalStep = 2;
    cfg.epsilonMid = 0.0;
    cfg.epsilonFinal = 0.0;
    Rng rng(11);
    BdqLearner learner(cfg, rng);
    for (int i = 0; i < 5; ++i)
        learner.observe(transition(0.0));
    const std::vector<float> s = {0.3f, 0.6f, 0.9f};
    EXPECT_EQ(learner.selectActions(s), learner.greedyActions(s));
}

TEST(LearnerFeatures, GradientStepsPerTrainMultipliesUpdates)
{
    auto base = smallLearner();
    base.gradientStepsPerTrain = 1;
    auto heavy = smallLearner();
    heavy.gradientStepsPerTrain = 4;

    Rng r1(12), r2(12);
    BdqLearner a(base, r1), b(heavy, r2);
    // Feed a constant positive reward for one specific action pair;
    // the heavier trainer should move its Q estimate further in the
    // same number of environment steps.
    const std::vector<float> s = {0.5f, 0.5f, 0.5f};
    const float qa0 = qValues(a, s).q[0][0](0, 1);
    for (int i = 0; i < 40; ++i) {
        a.observe(transition(5.0));
        b.observe(transition(5.0));
    }
    const float qa = qValues(a, s).q[0][0](0, 1);
    const float qb = qValues(b, s).q[0][0](0, 1);
    EXPECT_GT(qb - qa0, qa - qa0);
}
