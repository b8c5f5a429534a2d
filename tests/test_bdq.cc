/** @file Unit tests for the multi-agent branching dueling Q-network. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hh"
#include "common/rng.hh"
#include "nn/bdq.hh"

using namespace twig::nn;
using twig::common::Rng;

namespace {

BdqConfig
smallConfig(std::size_t agents = 2)
{
    BdqConfig cfg;
    cfg.numAgents = agents;
    cfg.stateDimPerAgent = 4;
    cfg.trunkHidden = {16, 12};
    cfg.agentHeadHidden = 8;
    cfg.branchHidden = 8;
    cfg.branchActions = {5, 3};
    cfg.dropoutRate = 0.0f;
    return cfg;
}

Matrix
randomBatch(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix x(rows, cols);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return x;
}

/** Greedy actions of one joint state: a one-row greedyActionsRows. */
std::vector<BranchActions>
greedyOne(MultiAgentBdq &net, const std::vector<float> &state)
{
    Matrix x(1, state.size());
    std::copy(state.begin(), state.end(), x.rowPtr(0));
    BdqOutput q;
    std::vector<std::vector<BranchActions>> actions;
    net.greedyActionsRows(x, q, actions);
    return actions[0];
}

} // namespace

TEST(Bdq, OutputShapes)
{
    Rng rng(1);
    const auto cfg = smallConfig(3);
    MultiAgentBdq net(cfg, rng);
    const Matrix x = randomBatch(7, cfg.inputDim(), rng);
    BdqOutput out;
    net.forward(x, out, false);
    ASSERT_EQ(out.q.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        ASSERT_EQ(out.q[k].size(), 2u);
        EXPECT_EQ(out.q[k][0].rows(), 7u);
        EXPECT_EQ(out.q[k][0].cols(), 5u);
        EXPECT_EQ(out.q[k][1].cols(), 3u);
    }
}

TEST(Bdq, DuelingIdentityBranchMeansEqualStateValue)
{
    // Q_{k,d}(a) = V_k + A_d(a) - mean(A_d), so mean_a Q_{k,d}(a) = V_k
    // for every branch: the per-branch means must agree across branches.
    Rng rng(2);
    const auto cfg = smallConfig(2);
    MultiAgentBdq net(cfg, rng);
    const Matrix x = randomBatch(4, cfg.inputDim(), rng);
    BdqOutput out;
    net.forward(x, out, false);
    for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t i = 0; i < 4; ++i) {
            double mean0 = 0.0, mean1 = 0.0;
            for (std::size_t a = 0; a < 5; ++a)
                mean0 += out.q[k][0](i, a);
            mean0 /= 5.0;
            for (std::size_t a = 0; a < 3; ++a)
                mean1 += out.q[k][1](i, a);
            mean1 /= 3.0;
            EXPECT_NEAR(mean0, mean1, 1e-4);
        }
    }
}

TEST(Bdq, AgentsProduceDistinctValues)
{
    Rng rng(3);
    const auto cfg = smallConfig(2);
    MultiAgentBdq net(cfg, rng);
    const Matrix x = randomBatch(1, cfg.inputDim(), rng);
    BdqOutput out;
    net.forward(x, out, false);
    // Different agent heads -> different Q surfaces (with random init).
    bool any_diff = false;
    for (std::size_t a = 0; a < 5; ++a)
        any_diff |=
            std::abs(out.q[0][0](0, a) - out.q[1][0](0, a)) > 1e-6;
    EXPECT_TRUE(any_diff);
}

TEST(Bdq, GreedyActionsMatchArgmax)
{
    Rng rng(4);
    const auto cfg = smallConfig(2);
    MultiAgentBdq net(cfg, rng);
    std::vector<float> state(cfg.inputDim());
    for (auto &v : state)
        v = static_cast<float>(rng.uniform(0.0, 1.0));

    Matrix x(1, state.size());
    std::copy(state.begin(), state.end(), x.rowPtr(0));
    BdqOutput out;
    net.forward(x, out, false);

    const auto actions = greedyOne(net, state);
    ASSERT_EQ(actions.size(), 2u);
    for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t d = 0; d < 2; ++d) {
            const Matrix &q = out.q[k][d];
            for (std::size_t a = 0; a < q.cols(); ++a)
                EXPECT_LE(q(0, a), q(0, actions[k][d]) + 1e-6f);
        }
    }
}

TEST(Bdq, GreedyActionsRowsMatchPerRowGreedyActionsExactly)
{
    // The cluster's batched-inference contract: one forward over a
    // [batch x inputDim] matrix must produce, for every row, exactly
    // the actions (and Q-values) the per-sample path picks — not
    // approximately, bitwise. Each GEMM output element accumulates
    // over the reduction dimension in a fixed order independent of the
    // batch size, and the argmax tie-break (first maximum) matches.
    Rng rng(11);
    const auto cfg = smallConfig(3);
    MultiAgentBdq net(cfg, rng);
    const std::size_t batch = 16;
    const Matrix x = randomBatch(batch, cfg.inputDim(), rng);

    BdqOutput batched_out;
    std::vector<std::vector<BranchActions>> batched;
    net.greedyActionsRows(x, batched_out, batched);
    ASSERT_EQ(batched.size(), batch);

    for (std::size_t i = 0; i < batch; ++i) {
        std::vector<float> state(x.rowPtr(i), x.rowPtr(i) + x.cols());
        EXPECT_EQ(batched[i], greedyOne(net, state))
            << "row " << i;

        Matrix single(1, state.size());
        std::copy(state.begin(), state.end(), single.rowPtr(0));
        BdqOutput single_out;
        net.forward(single, single_out, false);
        for (std::size_t k = 0; k < cfg.numAgents; ++k) {
            for (std::size_t d = 0; d < cfg.branchActions.size(); ++d) {
                for (std::size_t a = 0;
                     a < cfg.branchActions[d]; ++a) {
                    // Bitwise equality of every Q-value.
                    EXPECT_EQ(batched_out.q[k][d](i, a),
                              single_out.q[k][d](0, a))
                        << "row " << i << " agent " << k << " branch "
                        << d << " action " << a;
                }
            }
        }
    }
}

TEST(Bdq, GreedyActionsRowsRejectsWrongWidth)
{
    Rng rng(12);
    MultiAgentBdq net(smallConfig(2), rng);
    Matrix bad(3, 5); // inputDim is 8
    BdqOutput out;
    std::vector<std::vector<BranchActions>> actions;
    EXPECT_THROW(net.greedyActionsRows(bad, out, actions),
                 twig::common::FatalError);
}

TEST(Bdq, SupervisedTrainingConverges)
{
    // Regress fixed random Q targets; exercises the full backward path
    // (dueling combine, shared advantage modules, trunk rescaling).
    Rng rng(5);
    auto cfg = smallConfig(2);
    cfg.adam.learningRate = 0.01f;
    MultiAgentBdq net(cfg, rng);

    const Matrix x = randomBatch(8, cfg.inputDim(), rng);
    std::vector<std::vector<Matrix>> target(2);
    for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t d = 0; d < 2; ++d) {
            target[k].push_back(
                randomBatch(8, cfg.branchActions[d], rng));
        }
    }

    double first = 0.0, last = 0.0;
    for (int it = 0; it < 500; ++it) {
        BdqOutput out;
        net.forward(x, out, true);
        std::vector<std::vector<Matrix>> dq(2);
        double loss = 0.0;
        for (std::size_t k = 0; k < 2; ++k) {
            for (std::size_t d = 0; d < 2; ++d) {
                Matrix g(8, cfg.branchActions[d]);
                for (std::size_t i = 0; i < g.size(); ++i) {
                    const float e = out.q[k][d].raw()[i] -
                        target[k][d].raw()[i];
                    loss += e * e;
                    g.raw()[i] = 2.0f * e / 8.0f;
                }
                dq[k].push_back(std::move(g));
            }
        }
        if (it == 0)
            first = loss;
        last = loss;
        net.backward(dq);
        net.adamStep();
    }
    // The dueling structure cannot express arbitrary targets exactly
    // (branch means are tied to V), but the error must shrink a lot.
    EXPECT_LT(last, 0.3 * first);
}

TEST(Bdq, CopyParamsMakesNetworksIdentical)
{
    Rng rng(6);
    const auto cfg = smallConfig(2);
    MultiAgentBdq a(cfg, rng), b(cfg, rng);
    b.copyParamsFrom(a);
    std::vector<float> state(cfg.inputDim(), 0.3f);
    const auto qa = greedyOne(a, state);
    const auto qb = greedyOne(b, state);
    EXPECT_EQ(qa, qb);

    Matrix x(2, cfg.inputDim(), 0.25f);
    BdqOutput oa, ob;
    a.forward(x, oa, false);
    b.forward(x, ob, false);
    for (std::size_t k = 0; k < 2; ++k)
        for (std::size_t d = 0; d < 2; ++d)
            for (std::size_t i = 0; i < oa.q[k][d].size(); ++i)
                EXPECT_FLOAT_EQ(oa.q[k][d].raw()[i],
                                ob.q[k][d].raw()[i]);
}

TEST(Bdq, SaveLoadRoundTrip)
{
    Rng rng(7);
    const auto cfg = smallConfig(1);
    MultiAgentBdq a(cfg, rng), b(cfg, rng);
    std::stringstream ss;
    a.save(ss);
    b.load(ss);
    Matrix x(3, cfg.inputDim(), -0.4f);
    BdqOutput oa, ob;
    a.forward(x, oa, false);
    b.forward(x, ob, false);
    for (std::size_t i = 0; i < oa.q[0][0].size(); ++i)
        EXPECT_FLOAT_EQ(oa.q[0][0].raw()[i], ob.q[0][0].raw()[i]);
}

TEST(Bdq, TransferReinitChangesOutputsOnly)
{
    Rng rng(8);
    const auto cfg = smallConfig(2);
    MultiAgentBdq net(cfg, rng);
    Matrix x(1, cfg.inputDim(), 0.5f);
    BdqOutput before;
    net.forward(x, before, false);

    Rng reinit_rng(99);
    net.reinitializeOutputLayers(reinit_rng);
    BdqOutput after;
    net.forward(x, after, false);

    // Q values change because the specialised output layers were reset.
    bool changed = false;
    for (std::size_t i = 0; i < before.q[0][0].size(); ++i)
        changed |= before.q[0][0].raw()[i] != after.q[0][0].raw()[i];
    EXPECT_TRUE(changed);
    EXPECT_EQ(net.paramCount(),
              MultiAgentBdq(cfg, rng).paramCount());
}

TEST(Bdq, ParamCountFormula)
{
    Rng rng(9);
    BdqConfig cfg;
    cfg.numAgents = 2;
    cfg.stateDimPerAgent = 3;
    cfg.trunkHidden = {4};
    cfg.agentHeadHidden = 5;
    cfg.branchHidden = 6;
    cfg.branchActions = {7};
    MultiAgentBdq net(cfg, rng);
    // trunk: 6*4+4 = 28
    // agents: 2 * [(4*5+5) + (5*1+1)] = 2 * 31 = 62
    // branch: (5*6+6) + (6*7+7) = 36 + 49 = 85
    EXPECT_EQ(net.paramCount(), 28u + 62u + 85u);
}

TEST(Bdq, DeterministicGivenSeed)
{
    const auto cfg = smallConfig(2);
    Rng r1(42), r2(42);
    MultiAgentBdq a(cfg, r1), b(cfg, r2);
    std::vector<float> state(cfg.inputDim(), 0.1f);
    EXPECT_EQ(greedyOne(a, state), greedyOne(b, state));
}

TEST(Bdq, InvalidConfigThrows)
{
    Rng rng(10);
    auto cfg = smallConfig();
    cfg.numAgents = 0;
    EXPECT_THROW(MultiAgentBdq(cfg, rng), twig::common::FatalError);

    cfg = smallConfig();
    cfg.branchActions = {};
    EXPECT_THROW(MultiAgentBdq(cfg, rng), twig::common::FatalError);

    cfg = smallConfig();
    cfg.branchActions = {4, 0};
    EXPECT_THROW(MultiAgentBdq(cfg, rng), twig::common::FatalError);

    cfg = smallConfig();
    cfg.trunkHidden = {};
    EXPECT_THROW(MultiAgentBdq(cfg, rng), twig::common::FatalError);
}

TEST(Bdq, ForwardRejectsWrongWidth)
{
    Rng rng(11);
    const auto cfg = smallConfig(2);
    MultiAgentBdq net(cfg, rng);
    Matrix x(1, cfg.inputDim() + 1);
    BdqOutput out;
    EXPECT_THROW(net.forward(x, out, false), twig::common::FatalError);
}

TEST(Bdq, BackwardRequiresTrainForward)
{
    Rng rng(12);
    const auto cfg = smallConfig(1);
    MultiAgentBdq net(cfg, rng);
    Matrix x(1, cfg.inputDim(), 0.1f);
    BdqOutput out;
    net.forward(x, out, false); // eval mode
    std::vector<std::vector<Matrix>> dq(1);
    dq[0] = {Matrix(1, 5, 0.0f), Matrix(1, 3, 0.0f)};
    EXPECT_THROW(net.backward(dq), twig::common::PanicError);
}

namespace {

/** Loss = sum over agents/branches/actions of Q^2 / 2 on one state. */
double
halfSquaredQ(MultiAgentBdq &net, const Matrix &x)
{
    BdqOutput out;
    net.forward(x, out, false);
    double loss = 0.0;
    for (const auto &per_agent : out.q)
        for (const auto &q : per_agent)
            for (float v : q.raw())
                loss += 0.5 * static_cast<double>(v) * v;
    return loss;
}

} // namespace

TEST(Bdq, OutputLayerGradientsMatchFiniteDifferences)
{
    // The backward pass delivers exact gradients to the advantage- and
    // value-output layers (the paper's 1/K and 1/D rescaling applies
    // only upstream). Check them against central finite differences of
    // L = sum Q^2 / 2, whose dL/dQ = Q.
    Rng rng(21);
    auto cfg = smallConfig(2);
    cfg.dropoutRate = 0.0f;
    MultiAgentBdq net(cfg, rng);
    Matrix x = randomBatch(3, cfg.inputDim(), rng);

    // Analytic pass.
    BdqOutput out;
    net.forward(x, out, true);
    std::vector<std::vector<Matrix>> dq(cfg.numAgents);
    for (std::size_t k = 0; k < cfg.numAgents; ++k)
        for (std::size_t d = 0; d < cfg.numBranches(); ++d)
            dq[k].push_back(out.q[k][d]); // dL/dQ = Q
    net.backward(dq);

    const float eps = 1e-2f;
    // Check several weights of each branch's advantage output layer.
    for (std::size_t d = 0; d < cfg.numBranches(); ++d) {
        Linear &layer = net.advantageOutputLayer(d);
        for (std::size_t probe = 0; probe < 6; ++probe) {
            const std::size_t idx =
                (probe * 37) % layer.mutableWeight().size();
            float &w = layer.mutableWeight().raw()[idx];
            const float orig = w;
            w = orig + eps;
            const double lp = halfSquaredQ(net, x);
            w = orig - eps;
            const double lm = halfSquaredQ(net, x);
            w = orig;
            const double numeric = (lp - lm) / (2.0 * eps);
            const double analytic = layer.gradWeight().raw()[idx];
            EXPECT_NEAR(analytic, numeric,
                        0.05 * std::abs(numeric) + 0.05)
                << "branch " << d << " weight " << idx;
        }
    }
    // And each agent's state-value output layer.
    for (std::size_t k = 0; k < cfg.numAgents; ++k) {
        Linear &layer = net.valueOutputLayer(k);
        for (std::size_t probe = 0; probe < 4; ++probe) {
            const std::size_t idx =
                (probe * 3) % layer.mutableWeight().size();
            float &w = layer.mutableWeight().raw()[idx];
            const float orig = w;
            w = orig + eps;
            const double lp = halfSquaredQ(net, x);
            w = orig - eps;
            const double lm = halfSquaredQ(net, x);
            w = orig;
            const double numeric = (lp - lm) / (2.0 * eps);
            const double analytic = layer.gradWeight().raw()[idx];
            EXPECT_NEAR(analytic, numeric,
                        0.05 * std::abs(numeric) + 0.05)
                << "agent " << k << " weight " << idx;
        }
    }
}
