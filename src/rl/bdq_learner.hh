/**
 * @file
 * Deep Q-learning driver around the multi-agent BDQ network
 * (paper Algorithm 1 + §IV "Neural Network Parameters").
 *
 * Owns the online and target networks ("there are two networks with the
 * same initial weights that are updated periodically"), the prioritised
 * replay buffer, the epsilon/beta schedules, and the TD-target logic
 * (double-DQN action selection, mean operator across branches).
 */

#ifndef TWIG_RL_BDQ_LEARNER_HH
#define TWIG_RL_BDQ_LEARNER_HH

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "nn/bdq.hh"
#include "rl/replay.hh"
#include "rl/schedule.hh"

namespace twig::rl {

/** Hyper-parameters (defaults are the paper's, §IV). */
struct BdqLearnerConfig
{
    nn::BdqConfig net;
    ReplayConfig replay;
    std::size_t minibatch = 64;
    double discount = 0.99;
    /** Hard target-network update interval (paper: 150 steps). */
    std::size_t targetUpdateInterval = 150;
    /** Epsilon annealing knots (paper: 0.1 @ 10000 s, 0.01 @ 25000 s). */
    std::size_t epsilonMidStep = 10000;
    std::size_t epsilonFinalStep = 25000;
    double epsilonMid = 0.1;
    double epsilonFinal = 0.01;
    /** Beta (importance-weight) annealing horizon. */
    std::size_t betaAnnealSteps = 25000;
    /** Minimum buffered transitions before gradient steps begin. */
    std::size_t minReplayBeforeTraining = 64;
    /** Run a gradient step every N observed transitions. */
    std::size_t trainEvery = 1;
    /** Gradient steps per training event (replay allows re-use). */
    std::size_t gradientStepsPerTrain = 1;
    /** Huber-style TD-error clipping (Mnih et al. 2015, which the
     * paper's epsilon-annealing cites): the loss is quadratic within
     * +/- huberDelta and linear outside, bounding the gradient of the
     * large violation penalties so they cannot wash out the fine
     * distinctions between QoS-feasible allocations. */
    double huberDelta = 5.0;
    /** Uniform reward scaling applied before the TD update (the DQN
     * lineage clips rewards to [-1, 1] for the same reason: Adam's
     * per-parameter step is ~learningRate, so Q-values spanning
     * hundreds of units take ~10^5 updates to represent). Scaling is
     * monotone, so the learned policy ordering is unchanged. */
    double rewardScale = 1.0;
    /** Clamp range for the scaled reward (DQN-style reward clipping).
     * Ranking *among deep violations* is lost beyond the clip, which
     * is irrelevant to the policy — any violation must be escaped. */
    double rewardClipMin = -1e30;
    double rewardClipMax = 1e30;
    /** Keep the previous greedy action when its Q-value is within
     * this margin of the argmax (in network Q units). Near-ties are
     * ubiquitous once the policy has converged; without stickiness the
     * argmax flips between equivalent allocations and inflates the
     * migration count for no reward. 0 disables. */
    double actionStickiness = 0.0;
    /** Hold an exploratory action for this many consecutive steps.
     * The measured tail latency trails the allocation by a couple of
     * control intervals (queue drain + trailing QoS window), so a
     * one-step random action never exhibits its clean steady-state
     * outcome; holding it yields unbiased counterfactual evidence. */
    std::size_t exploreHoldSteps = 1;
};

/** Summary of one gradient step (for diagnostics and tests). */
struct TrainStats
{
    double loss = 0.0;
    double meanAbsTdError = 0.0;
};

/** The learning agent of Twig: epsilon-greedy control + DQN updates. */
class BdqLearner
{
  public:
    BdqLearner(const BdqLearnerConfig &cfg, common::Rng &rng);

    const BdqLearnerConfig &config() const { return cfg_; }

    /** Exploration epsilon at the current step. */
    double epsilon() const { return epsilonSchedule_.at(step_); }

    /** Number of observed transitions so far. */
    std::size_t step() const { return step_; }

    /**
     * Choose actions for all agents for the next interval:
     * with probability epsilon a uniformly random action per branch
     * (per agent), otherwise the network's greedy action.
     */
    std::vector<nn::BranchActions>
    selectActions(const std::vector<float> &joint_state);

    /** Greedy (exploitation-only) actions; used after learning. */
    std::vector<nn::BranchActions>
    greedyActions(const std::vector<float> &joint_state);

    /** Batched greedyActions over the rows of @p x — one fused forward
     * for a whole replica cohort (cluster batched-inference path);
     * out[row] equals greedyActions(row) exactly. */
    void
    greedyActionsRows(const nn::Matrix &x, nn::BdqOutput &scratch,
                      std::vector<std::vector<nn::BranchActions>> &out)
    {
        online_.greedyActionsRows(x, scratch, out);
    }

    /**
     * Record a completed transition; trains every cfg.trainEvery steps
     * once the buffer holds cfg.minReplayBeforeTraining transitions,
     * and refreshes the target network every targetUpdateInterval.
     *
     * @return stats of the gradient step, if one ran
     */
    std::optional<TrainStats> observe(Transition t);

    /** Force one gradient step (used by tests/benches). */
    TrainStats trainStep();

    /**
     * Transfer learning (paper §IV): keep the trunk/hidden weights,
     * re-initialise the specialised output layers, reset the epsilon
     * schedule to a short re-exploration window.
     *
     * @param reexplore_steps  length of the new annealing window
     * @param eps_start        initial epsilon of the window
     */
    void beginTransfer(std::size_t reexplore_steps, double eps_start = 0.1);

    /** Serialise the online network's parameters (the target network
     * and optimiser state are reconstructed on load). */
    void save(std::ostream &os) const { online_.save(os); }

    /** Load parameters into both networks (deploy a trained model). */
    void
    load(std::istream &is)
    {
        online_.load(is);
        target_.copyParamsFrom(online_);
    }

    nn::MultiAgentBdq &onlineNetwork() { return online_; }
    const nn::MultiAgentBdq &onlineNetwork() const { return online_; }
    PrioritizedReplay &replay() { return replay_; }

  private:
    BdqLearnerConfig cfg_;
    common::Rng rng_;
    nn::MultiAgentBdq online_;
    nn::MultiAgentBdq target_;
    PrioritizedReplay replay_;
    PiecewiseLinearSchedule epsilonSchedule_;
    PiecewiseLinearSchedule betaSchedule_;
    std::size_t step_ = 0;
    std::size_t stepsSinceTargetUpdate_ = 0;
    /** Per-agent exploration hold state. */
    std::vector<std::size_t> holdRemaining_;
    std::vector<nn::BranchActions> heldAction_;
    /** Previous greedy choice (sticky argmax). */
    std::vector<nn::BranchActions> lastGreedy_;

    // trainStep() scratch, sized on the first gradient step and then
    // reused: the steady-state training step performs zero heap
    // allocations (verified by tests/test_alloc.cc).
    ReplaySample sampleScratch_;
    nn::Matrix statesScratch_, nextStatesScratch_;
    nn::BdqOutput nextOnlineScratch_, nextTargetScratch_, outScratch_;
    std::vector<std::vector<double>> targetsScratch_;
    std::vector<std::vector<nn::Matrix>> dqScratch_;
    std::vector<double> tdPriorityScratch_;
};

} // namespace twig::rl

#endif // TWIG_RL_BDQ_LEARNER_HH
