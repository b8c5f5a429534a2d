#include "nn/bdq.hh"

#include <algorithm>
#include <utility>

#include "nn/kernels.hh"

namespace twig::nn {

MultiAgentBdq::MultiAgentBdq(const BdqConfig &cfg, common::Rng &rng)
    : cfg_(cfg), rng_(rng.fork())
{
    common::fatalIf(cfg.numAgents == 0, "BDQ: need at least one agent");
    common::fatalIf(cfg.stateDimPerAgent == 0, "BDQ: empty state");
    common::fatalIf(cfg.branchActions.empty(), "BDQ: need >= 1 branch");
    for (std::size_t n : cfg.branchActions)
        common::fatalIf(n == 0, "BDQ: branch with zero actions");
    common::fatalIf(cfg.trunkHidden.empty(), "BDQ: trunk must be non-empty");

    std::size_t prev = cfg.inputDim();
    for (std::size_t h : cfg.trunkHidden) {
        trunk_.emplace_back(prev, h, cfg.dropoutRate, rng_);
        prev = h;
    }
    for (std::size_t k = 0; k < cfg.numAgents; ++k)
        agents_.emplace_back(prev, cfg.agentHeadHidden, rng_);
    for (std::size_t n : cfg.branchActions) {
        branches_.emplace_back(cfg.agentHeadHidden, cfg.branchHidden, n,
                               cfg.dropoutRate, rng_);
    }
}

void
MultiAgentBdq::forward(const Matrix &x, BdqOutput &out, bool train)
{
    common::fatalIf(x.cols() != cfg_.inputDim(),
                    "BDQ::forward: joint state width ", x.cols(),
                    " != expected ", cfg_.inputDim());
    const std::size_t batch = x.rows();
    lastBatch_ = batch;
    lastTrain_ = train;

    // Shared trunk (linear+ReLU fused per stage). Each layer reads the
    // previous one's activations in place, which stay put until
    // backward().
    const Matrix *cur = &x;
    for (auto &stage : trunk_) {
        stage.linear.forwardRelu(*cur, stage.reluOut, stage.relu);
        cur = &stage.dropout.forward(stage.reluOut, stage.dropOut, train,
                                     rng_);
    }
    const Matrix &h = *cur;

    // Per-agent state heads.
    const std::size_t hw = cfg_.agentHeadHidden;
    stackedEmbeds_.resize(cfg_.numAgents * batch, hw);
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        auto &agent = agents_[k];
        agent.embed.forwardRelu(h, agent.embedAct, agent.relu);
        agent.valueOut.forward(agent.embedAct, agent.value);
        for (std::size_t i = 0; i < batch; ++i) {
            std::copy_n(agent.embedAct.rowPtr(i), hw,
                        stackedEmbeds_.rowPtr(k * batch + i));
        }
    }

    // Per-branch advantage modules over the stacked embeddings.
    // Reshape the output in place: the nested vectors and matrices
    // keep their buffers across calls, so steady-state forward passes
    // do not allocate.
    if (out.q.size() != cfg_.numAgents)
        out.q.resize(cfg_.numAgents);
    for (auto &per_agent : out.q) {
        if (per_agent.size() != cfg_.numBranches())
            per_agent.resize(cfg_.numBranches());
    }
    for (std::size_t d = 0; d < branches_.size(); ++d) {
        auto &br = branches_[d];
        br.hidden.forwardRelu(stackedEmbeds_, br.hidAct, br.relu);
        br.advOut.forward(
            br.dropout.forward(br.hidAct, br.hidDrop, train, rng_), br.adv);

        const std::size_t n = cfg_.branchActions[d];
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            Matrix &q = out.q[k][d];
            q.resize(batch, n);
            for (std::size_t i = 0; i < batch; ++i) {
                const float *adv_row = br.adv.rowPtr(k * batch + i);
                float mean = 0.0f;
                for (std::size_t a = 0; a < n; ++a)
                    mean += adv_row[a];
                mean /= static_cast<float>(n);
                const float v = agents_[k].value(i, 0);
                float *q_row = q.rowPtr(i);
                for (std::size_t a = 0; a < n; ++a)
                    q_row[a] = v + adv_row[a] - mean;
            }
        }
    }
}

void
MultiAgentBdq::backward(const std::vector<std::vector<Matrix>> &dq)
{
    common::panicIf(!lastTrain_,
                    "BDQ::backward without a train-mode forward");
    common::fatalIf(dq.size() != cfg_.numAgents,
                    "BDQ::backward: wrong agent count");
    const std::size_t batch = lastBatch_;
    const std::size_t hw = cfg_.agentHeadHidden;
    const float inv_k = 1.0f / static_cast<float>(cfg_.numAgents);
    const float inv_d = 1.0f / static_cast<float>(cfg_.numBranches());

    // Gradient wrt the stacked embeddings, accumulated over branches.
    Matrix &d_stacked = bwdStacked_;
    d_stacked.resize(cfg_.numAgents * batch, hw);
    d_stacked.zero();
    Matrix &d_adv = bwdAdv_;
    Matrix &g1 = bwdG1_, &g2 = bwdG2_, &g3 = bwdG3_, &g4 = bwdG4_;
    for (std::size_t d = 0; d < branches_.size(); ++d) {
        auto &br = branches_[d];
        const std::size_t n = cfg_.branchActions[d];

        // Dueling combine backward:
        //   Q(i,a) = V(i) + A(i,a) - mean_b A(i,b)
        //   dA(i,a) = dQ(i,a) - (1/n) sum_b dQ(i,b)
        d_adv.resize(cfg_.numAgents * batch, n);
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            const Matrix &dqkd = dq[k][d];
            common::fatalIf(dqkd.rows() != batch || dqkd.cols() != n,
                            "BDQ::backward: dq shape mismatch");
            for (std::size_t i = 0; i < batch; ++i) {
                const float *src = dqkd.rowPtr(i);
                float row_sum = 0.0f;
                for (std::size_t a = 0; a < n; ++a)
                    row_sum += src[a];
                const float mean = row_sum / static_cast<float>(n);
                float *dst = d_adv.rowPtr(k * batch + i);
                for (std::size_t a = 0; a < n; ++a)
                    dst[a] = src[a] - mean;
            }
        }

        br.advOut.backward(d_adv, g1);
        // Paper: rescale the combined gradient by 1/K before it enters
        // the deepest layer in the advantage dimension.
        g1.scaleInPlace(inv_k);
        br.relu.backward(br.dropout.backward(g1, g2), g3);
        br.hidden.backward(g3, g4);
        d_stacked.addInPlace(g4);
    }

    // Per-agent heads: value path plus the agent's slice of d_stacked.
    const std::size_t trunk_out = cfg_.trunkHidden.back();
    Matrix &d_h = bwdDh_;
    d_h.resize(batch, trunk_out);
    d_h.zero();
    Matrix &dv = bwdDv_, &gv = bwdGv_, &ge = bwdGe_, &gh = bwdGh_;
    dv.resize(batch, 1);
    for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
        auto &agent = agents_[k];
        for (std::size_t i = 0; i < batch; ++i) {
            float s = 0.0f;
            for (std::size_t d = 0; d < cfg_.numBranches(); ++d) {
                const float *row = dq[k][d].rowPtr(i);
                for (std::size_t a = 0; a < cfg_.branchActions[d]; ++a)
                    s += row[a];
            }
            dv(i, 0) = s;
        }
        agent.valueOut.backward(dv, gv);
        // d(embedding) = value-path gradient + this agent's rows of
        // d_stacked, summed in place into gv ([batch x hw]).
        kernels::addInPlace(gv.data(), d_stacked.rowPtr(k * batch),
                            batch * hw);
        agent.relu.backward(gv, ge);
        agent.embed.backward(ge, gh);
        d_h.addInPlace(gh);
    }

    // Paper: rescale the combined gradient for the shared representation
    // by 1/D (number of action dimensions).
    d_h.scaleInPlace(inv_d);

    // Trunk backward (deepest stage last), ping-ponging two buffers:
    // *grad holds the gradient entering each stage.
    Matrix *grad = &d_h, *tmp = &bwdTmp_;
    for (std::size_t s = trunk_.size(); s-- > 0;) {
        auto &stage = trunk_[s];
        if (&stage.dropout.backward(*grad, *tmp) == tmp)
            std::swap(grad, tmp);
        stage.relu.backward(*grad, *tmp);
        if (s == 0)
            stage.linear.backwardNoInputGrad(*tmp);
        else
            stage.linear.backward(*tmp, *grad);
    }
}

void
MultiAgentBdq::adamStep()
{
    ++adamT_;
    forEachLinear([this](Linear &l) { l.adamStep(cfg_.adam, adamT_); });
}

void
MultiAgentBdq::greedyActionsRows(
    const Matrix &x, BdqOutput &scratch,
    std::vector<std::vector<BranchActions>> &out)
{
    common::fatalIf(x.cols() != cfg_.inputDim(),
                    "greedyActionsRows: wrong joint-state width");
    forward(x, scratch, false);

    const std::size_t batch = x.rows();
    out.resize(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        out[b].resize(cfg_.numAgents);
        for (std::size_t k = 0; k < cfg_.numAgents; ++k) {
            out[b][k].resize(cfg_.numBranches());
            for (std::size_t d = 0; d < cfg_.numBranches(); ++d) {
                const Matrix &q = scratch.q[k][d];
                std::size_t best = 0;
                for (std::size_t a = 1; a < q.cols(); ++a) {
                    if (q(b, a) > q(b, best))
                        best = a;
                }
                out[b][k][d] = best;
            }
        }
    }
}

void
MultiAgentBdq::forEachLinear(const std::function<void(Linear &)> &fn)
{
    for (auto &stage : trunk_)
        fn(stage.linear);
    for (auto &agent : agents_) {
        fn(agent.embed);
        fn(agent.valueOut);
    }
    for (auto &br : branches_) {
        fn(br.hidden);
        fn(br.advOut);
    }
}

void
MultiAgentBdq::forEachLinear(
    const std::function<void(const Linear &)> &fn) const
{
    for (const auto &stage : trunk_)
        fn(stage.linear);
    for (const auto &agent : agents_) {
        fn(agent.embed);
        fn(agent.valueOut);
    }
    for (const auto &br : branches_) {
        fn(br.hidden);
        fn(br.advOut);
    }
}

void
MultiAgentBdq::copyParamsFrom(const MultiAgentBdq &other)
{
    // Layer by layer in place: a target sync allocates nothing.
    common::fatalIf(trunk_.size() != other.trunk_.size() ||
                        agents_.size() != other.agents_.size() ||
                        branches_.size() != other.branches_.size(),
                    "copyParamsFrom: incompatible networks");
    for (std::size_t s = 0; s < trunk_.size(); ++s)
        trunk_[s].linear.copyParamsFrom(other.trunk_[s].linear);
    for (std::size_t k = 0; k < agents_.size(); ++k) {
        agents_[k].embed.copyParamsFrom(other.agents_[k].embed);
        agents_[k].valueOut.copyParamsFrom(other.agents_[k].valueOut);
    }
    for (std::size_t d = 0; d < branches_.size(); ++d) {
        branches_[d].hidden.copyParamsFrom(other.branches_[d].hidden);
        branches_[d].advOut.copyParamsFrom(other.branches_[d].advOut);
    }
}

void
MultiAgentBdq::reinitializeOutputLayers(common::Rng &rng)
{
    for (auto &agent : agents_)
        agent.valueOut.reinitialize(rng);
    for (auto &br : branches_)
        br.advOut.reinitialize(rng);
}

Linear &
MultiAgentBdq::advantageOutputLayer(std::size_t d)
{
    common::fatalIf(d >= branches_.size(), "bad branch index");
    return branches_[d].advOut;
}

Linear &
MultiAgentBdq::valueOutputLayer(std::size_t k)
{
    common::fatalIf(k >= agents_.size(), "bad agent index");
    return agents_[k].valueOut;
}

std::size_t
MultiAgentBdq::paramCount() const
{
    std::size_t n = 0;
    forEachLinear([&n](const Linear &l) { n += l.paramCount(); });
    return n;
}

void
MultiAgentBdq::save(std::ostream &os) const
{
    forEachLinear([&os](const Linear &l) { l.save(os); });
}

void
MultiAgentBdq::load(std::istream &is)
{
    forEachLinear([&is](Linear &l) { l.load(is); });
}

} // namespace twig::nn
