#include "rl/bdq_learner.hh"

#include <cmath>

#include "common/error.hh"
#include "common/sim_counters.hh"

namespace twig::rl {

using common::simprof::Phase;
using common::simprof::ScopedPhaseTimer;

BdqLearner::BdqLearner(const BdqLearnerConfig &cfg, common::Rng &rng)
    : cfg_(cfg), rng_(rng.fork()), online_(cfg.net, rng_),
      target_(cfg.net, rng_), replay_(cfg.replay),
      epsilonSchedule_(makeEpsilonSchedule(cfg.epsilonMidStep,
                                           cfg.epsilonFinalStep,
                                           cfg.epsilonMid,
                                           cfg.epsilonFinal)),
      betaSchedule_(makeBetaSchedule(cfg.betaAnnealSteps))
{
    common::fatalIf(cfg.minibatch == 0, "BdqLearner: zero minibatch");
    common::fatalIf(cfg.discount < 0.0 || cfg.discount >= 1.0,
                    "BdqLearner: discount must be in [0, 1)");
    // Both networks start from identical weights (paper footnote 1).
    target_.copyParamsFrom(online_);
}

std::vector<nn::BranchActions>
BdqLearner::selectActions(const std::vector<float> &joint_state)
{
    ScopedPhaseTimer timer(Phase::Decide);
    const double eps = epsilon();
    auto actions = online_.greedyActions(joint_state);

    // Sticky argmax: a converged policy has many near-tie Q values;
    // keep the previous choice unless a strictly better one appears.
    if (cfg_.actionStickiness > 0.0 &&
        lastGreedy_.size() == actions.size()) {
        const auto q = online_.qValues(joint_state);
        for (std::size_t k = 0; k < actions.size(); ++k) {
            for (std::size_t d = 0; d < actions[k].size(); ++d) {
                const auto prev = lastGreedy_[k][d];
                const auto best = actions[k][d];
                if (q.q[k][d](0, prev) + cfg_.actionStickiness >=
                    q.q[k][d](0, best)) {
                    actions[k][d] = prev;
                }
            }
        }
    }
    lastGreedy_ = actions;

    holdRemaining_.resize(actions.size(), 0);
    heldAction_.resize(actions.size());
    for (std::size_t k = 0; k < actions.size(); ++k) {
        if (holdRemaining_[k] > 0) {
            // Continue a held exploratory action.
            --holdRemaining_[k];
            actions[k] = heldAction_[k];
        } else if (rng_.uniform() < eps) {
            for (std::size_t d = 0; d < actions[k].size(); ++d) {
                actions[k][d] =
                    rng_.uniformInt(cfg_.net.branchActions[d]);
            }
            // Hold exploratory actions only while still learning
            // broadly: late in the run a multi-step hold of a random
            // action turns into a needless violation burst.
            if (cfg_.exploreHoldSteps > 1 && eps > 0.05) {
                heldAction_[k] = actions[k];
                holdRemaining_[k] = cfg_.exploreHoldSteps - 1;
            }
        }
    }
    return actions;
}

std::vector<nn::BranchActions>
BdqLearner::greedyActions(const std::vector<float> &joint_state)
{
    ScopedPhaseTimer timer(Phase::Decide);
    return online_.greedyActions(joint_state);
}

std::optional<TrainStats>
BdqLearner::observe(Transition t)
{
    common::fatalIf(t.state.size() != cfg_.net.inputDim() ||
                        t.nextState.size() != cfg_.net.inputDim(),
                    "observe: joint-state size mismatch");
    common::fatalIf(t.actions.size() != cfg_.net.numAgents ||
                        t.rewards.size() != cfg_.net.numAgents,
                    "observe: agent count mismatch");
    {
        ScopedPhaseTimer timer(Phase::Replay);
        replay_.add(std::move(t));
    }
    ++step_;

    std::optional<TrainStats> stats;
    if (replay_.size() >= cfg_.minReplayBeforeTraining &&
        step_ % cfg_.trainEvery == 0) {
        for (std::size_t g = 0; g < cfg_.gradientStepsPerTrain; ++g)
            stats = trainStep();
    }

    if (++stepsSinceTargetUpdate_ >= cfg_.targetUpdateInterval) {
        ScopedPhaseTimer timer(Phase::TargetSync);
        target_.copyParamsFrom(online_);
        stepsSinceTargetUpdate_ = 0;
    }
    return stats;
}

TrainStats
BdqLearner::trainStep()
{
    const std::size_t batch = std::min(cfg_.minibatch, replay_.size());
    const std::size_t in = cfg_.net.inputDim();
    const std::size_t K = cfg_.net.numAgents;
    const std::size_t D = cfg_.net.numBranches();
    ReplaySample &sample = sampleScratch_;
    nn::Matrix &states = statesScratch_;
    nn::Matrix &next_states = nextStatesScratch_;
    {
        ScopedPhaseTimer timer(Phase::Replay);
        const double beta = betaSchedule_.at(step_);
        replay_.sampleInto(batch, beta, rng_, sample);
        states.resize(batch, in);
        next_states.resize(batch, in);
        for (std::size_t i = 0; i < batch; ++i) {
            const Transition &t = replay_.at(sample.indices[i]);
            std::copy(t.state.begin(), t.state.end(), states.rowPtr(i));
            std::copy(t.nextState.begin(), t.nextState.end(),
                      next_states.rowPtr(i));
        }
    }

    ScopedPhaseTimer forward_timer(Phase::TrainForward);
    // Double DQN: online net picks the next action, target net values it.
    nn::BdqOutput &next_online = nextOnlineScratch_;
    nn::BdqOutput &next_target = nextTargetScratch_;
    online_.forward(next_states, next_online, false);
    target_.forward(next_states, next_target, false);

    // TD target per agent: y_k = r_k + gamma * (1/D) sum_d
    //     Q_target_{k,d}(s', argmax_a Q_online_{k,d}(s', a))
    std::vector<std::vector<double>> &targets = targetsScratch_;
    if (targets.size() != K)
        targets.resize(K);
    for (auto &per_agent : targets)
        per_agent.assign(batch, 0.0);
    for (std::size_t k = 0; k < K; ++k) {
        for (std::size_t i = 0; i < batch; ++i) {
            const Transition &t = replay_.at(sample.indices[i]);
            double bootstrap = 0.0;
            if (!t.done) {
                for (std::size_t d = 0; d < D; ++d) {
                    const nn::Matrix &qo = next_online.q[k][d];
                    std::size_t best = 0;
                    for (std::size_t a = 1; a < qo.cols(); ++a) {
                        if (qo(i, a) > qo(i, best))
                            best = a;
                    }
                    bootstrap += next_target.q[k][d](i, best);
                }
                bootstrap /= static_cast<double>(D);
            }
            const double r = std::clamp(
                cfg_.rewardScale * t.rewards[k], cfg_.rewardClipMin,
                cfg_.rewardClipMax);
            targets[k][i] = r + cfg_.discount * bootstrap;
        }
    }

    // Forward the sampled states in train mode, build the Q gradients.
    nn::BdqOutput &out = outScratch_;
    online_.forward(states, out, true);

    std::vector<std::vector<nn::Matrix>> &dq = dqScratch_;
    if (dq.size() != K)
        dq.resize(K);
    std::vector<double> &td_for_priority = tdPriorityScratch_;
    td_for_priority.assign(batch, 0.0);
    double loss = 0.0;
    double abs_td = 0.0;
    const float grad_scale =
        2.0f / static_cast<float>(batch * D);
    for (std::size_t k = 0; k < K; ++k) {
        if (dq[k].size() != D)
            dq[k].resize(D);
        for (std::size_t d = 0; d < D; ++d) {
            const std::size_t n = cfg_.net.branchActions[d];
            dq[k][d].resize(batch, n);
            dq[k][d].fill(0.0f);
        }
        for (std::size_t i = 0; i < batch; ++i) {
            const Transition &t = replay_.at(sample.indices[i]);
            const double w = sample.weights[i];
            double agent_td = 0.0;
            for (std::size_t d = 0; d < D; ++d) {
                const std::size_t a = t.actions[k][d];
                const double q = out.q[k][d](i, a);
                const double td = q - targets[k][i];
                agent_td += std::abs(td);
                // Huber loss: quadratic core, linear tails.
                const double h = cfg_.huberDelta;
                const double abs_td = std::abs(td);
                loss += w / static_cast<double>(D) *
                    (abs_td <= h ? td * td
                                 : h * (2.0 * abs_td - h));
                const double clipped =
                    std::clamp(td, -h, h);
                dq[k][d](i, a) =
                    static_cast<float>(w * clipped) * grad_scale;
            }
            // Clip the replay priority as well, so violation-heavy
            // transitions cannot monopolise the sampling distribution.
            agent_td = std::min(agent_td / static_cast<double>(D),
                                cfg_.huberDelta);
            td_for_priority[i] += agent_td / static_cast<double>(K);
            abs_td += agent_td / static_cast<double>(K);
        }
    }
    loss /= static_cast<double>(batch * K);
    abs_td /= static_cast<double>(batch);
    forward_timer.stop();

    {
        ScopedPhaseTimer timer(Phase::Backward);
        online_.backward(dq);
    }
    {
        ScopedPhaseTimer timer(Phase::Adam);
        online_.adamStep();
    }
    {
        ScopedPhaseTimer timer(Phase::Replay);
        replay_.updatePriorities(sample.indices, td_for_priority);
    }
    return TrainStats{loss, abs_td};
}

void
BdqLearner::beginTransfer(std::size_t reexplore_steps, double eps_start)
{
    online_.reinitializeOutputLayers(rng_);
    target_.copyParamsFrom(online_);
    stepsSinceTargetUpdate_ = 0;
    // Short re-exploration window starting at the *current* step.
    epsilonSchedule_ = PiecewiseLinearSchedule(
        {{step_, eps_start},
         {step_ + std::max<std::size_t>(reexplore_steps, 1),
          cfg_.epsilonFinal}});
}

} // namespace twig::rl
