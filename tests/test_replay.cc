/** @file Unit tests for the sum tree and prioritised replay buffer. */

#include <gtest/gtest.h>

#include <map>

#include "common/error.hh"
#include "common/rng.hh"
#include "rl/replay.hh"

using namespace twig::rl;
using twig::common::Rng;

namespace {

Transition
makeTransition(float tag)
{
    Transition t;
    t.state = {tag, tag};
    t.actions = {{0, 0}};
    t.rewards = {static_cast<double>(tag)};
    t.nextState = {tag + 1, tag + 1};
    return t;
}

ReplaySample
sample(const PrioritizedReplay &buf, std::size_t n, double beta, Rng &rng)
{
    ReplaySample out;
    buf.sampleInto(n, beta, rng, out);
    return out;
}

} // namespace

TEST(SumTree, SetGetTotal)
{
    SumTree tree(5);
    tree.set(0, 1.0);
    tree.set(3, 2.5);
    EXPECT_DOUBLE_EQ(tree.get(0), 1.0);
    EXPECT_DOUBLE_EQ(tree.get(3), 2.5);
    EXPECT_DOUBLE_EQ(tree.get(1), 0.0);
    EXPECT_DOUBLE_EQ(tree.total(), 3.5);
}

TEST(SumTree, OverwriteUpdatesTotal)
{
    SumTree tree(4);
    tree.set(2, 5.0);
    tree.set(2, 1.0);
    EXPECT_DOUBLE_EQ(tree.total(), 1.0);
}

TEST(SumTree, FindSelectsByPrefixSum)
{
    SumTree tree(4);
    tree.set(0, 1.0);
    tree.set(1, 2.0);
    tree.set(2, 3.0);
    tree.set(3, 4.0);
    EXPECT_EQ(tree.find(0.5), 0u);
    EXPECT_EQ(tree.find(1.5), 1u);
    EXPECT_EQ(tree.find(2.999), 1u);
    EXPECT_EQ(tree.find(3.0), 2u);
    EXPECT_EQ(tree.find(9.99), 3u);
}

TEST(SumTree, FindSkipsZeroPriorityLeaves)
{
    SumTree tree(4);
    tree.set(1, 1.0);
    tree.set(3, 1.0);
    EXPECT_EQ(tree.find(0.5), 1u);
    EXPECT_EQ(tree.find(1.5), 3u);
}

TEST(SumTree, Validation)
{
    SumTree tree(3);
    EXPECT_THROW(tree.set(3, 1.0), twig::common::FatalError);
    EXPECT_THROW(tree.set(0, -1.0), twig::common::FatalError);
    EXPECT_THROW(tree.get(5), twig::common::FatalError);
    EXPECT_THROW(SumTree(0), twig::common::FatalError);
}

TEST(Replay, AddAndSize)
{
    ReplayConfig cfg;
    cfg.capacity = 8;
    PrioritizedReplay buf(cfg);
    EXPECT_TRUE(buf.empty());
    buf.add(makeTransition(1));
    buf.add(makeTransition(2));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_FLOAT_EQ(buf.at(0).state[0], 1.0f);
    EXPECT_FLOAT_EQ(buf.at(1).state[0], 2.0f);
}

TEST(Replay, CircularOverwrite)
{
    ReplayConfig cfg;
    cfg.capacity = 3;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 5; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    EXPECT_EQ(buf.size(), 3u);
    // Slots 0 and 1 hold the newest items (3, 4); slot 2 holds 2.
    EXPECT_FLOAT_EQ(buf.at(0).state[0], 3.0f);
    EXPECT_FLOAT_EQ(buf.at(1).state[0], 4.0f);
    EXPECT_FLOAT_EQ(buf.at(2).state[0], 2.0f);
}

TEST(Replay, SampleReturnsValidIndicesAndWeights)
{
    ReplayConfig cfg;
    cfg.capacity = 64;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 20; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    Rng rng(3);
    const auto s = sample(buf, 16, 0.5, rng);
    ASSERT_EQ(s.indices.size(), 16u);
    ASSERT_EQ(s.weights.size(), 16u);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_LT(s.indices[i], 20u);
        EXPECT_GT(s.weights[i], 0.0);
        EXPECT_LE(s.weights[i], 1.0 + 1e-12);
    }
}

TEST(Replay, HighPriorityItemsSampledMoreOften)
{
    ReplayConfig cfg;
    cfg.capacity = 16;
    cfg.alpha = 1.0;
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 10; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    // Give index 7 a huge TD error, everything else tiny.
    std::vector<std::size_t> idx;
    std::vector<double> td;
    for (std::size_t i = 0; i < 10; ++i) {
        idx.push_back(i);
        td.push_back(i == 7 ? 50.0 : 0.01);
    }
    buf.updatePriorities(idx, td);

    Rng rng(4);
    std::map<std::size_t, int> counts;
    for (int round = 0; round < 200; ++round) {
        const auto s = sample(buf, 8, 0.4, rng);
        for (auto i : s.indices)
            ++counts[i];
    }
    int other_max = 0;
    for (const auto &[i, c] : counts)
        if (i != 7)
            other_max = std::max(other_max, c);
    EXPECT_GT(counts[7], 10 * other_max);
}

TEST(Replay, UniformWhenAlphaZero)
{
    ReplayConfig cfg;
    cfg.capacity = 16;
    cfg.alpha = 0.0; // priority^0 = 1: uniform sampling
    PrioritizedReplay buf(cfg);
    for (int i = 0; i < 8; ++i)
        buf.add(makeTransition(static_cast<float>(i)));
    buf.updatePriorities({0}, {1000.0});

    Rng rng(5);
    std::map<std::size_t, int> counts;
    for (int round = 0; round < 500; ++round)
        for (auto i : sample(buf, 8, 1.0, rng).indices)
            ++counts[i];
    // All eight indices drawn with similar frequency.
    for (const auto &[i, c] : counts)
        EXPECT_NEAR(c, 500, 200) << "index " << i;
}

TEST(Replay, WeightsCompensatePriority)
{
    ReplayConfig cfg;
    cfg.capacity = 8;
    cfg.alpha = 1.0;
    PrioritizedReplay buf(cfg);
    buf.add(makeTransition(0));
    buf.add(makeTransition(1));
    buf.updatePriorities({0, 1}, {10.0, 1.0});

    Rng rng(6);
    const auto s = sample(buf, 64, 1.0, rng);
    double w_high = 0.0, w_low = 0.0;
    for (std::size_t i = 0; i < s.indices.size(); ++i) {
        (s.indices[i] == 0 ? w_high : w_low) = s.weights[i];
    }
    // Full importance correction: frequently-sampled item gets the
    // smaller weight.
    EXPECT_LT(w_high, w_low);
}

TEST(Replay, SampleFromEmptyThrows)
{
    PrioritizedReplay buf({});
    Rng rng(7);
    EXPECT_THROW(sample(buf, 4, 0.4, rng), twig::common::FatalError);
}

TEST(Replay, UpdateValidation)
{
    PrioritizedReplay buf({});
    buf.add(makeTransition(0));
    EXPECT_THROW(buf.updatePriorities({0, 1}, {1.0}),
                 twig::common::FatalError);
}
