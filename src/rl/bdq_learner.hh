/**
 * @file
 * Deep Q-learning driver around the multi-agent BDQ network
 * (paper Algorithm 1 + §IV "Neural Network Parameters").
 *
 * Owns the online and target networks ("there are two networks with the
 * same initial weights that are updated periodically"), the prioritised
 * replay buffer, the epsilon/beta schedules, and the TD-target logic
 * (double-DQN action selection, mean operator across branches). The
 * target network and the replay buffer are built by the first training
 * call, so a deployed (exploit-only) learner holds only its policy.
 * The target network's weights change only at a sync, so each replay
 * slot keeps the target Q-values of its next state until the next one.
 */

#ifndef TWIG_RL_BDQ_LEARNER_HH
#define TWIG_RL_BDQ_LEARNER_HH

#include <cstddef>
#include <iosfwd>
#include <numeric>
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
    /** Floor for the scaled reward (DQN-style reward clipping; the
     * positive side needs no clip, rewards are bounded above).
     * Ranking *among deep violations* is lost beyond the clip, which
     * is irrelevant to the policy — any violation must be escaped. */
    double rewardClipMin = -1e30;
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
    void load(std::istream &is);

    nn::MultiAgentBdq &onlineNetwork() { return online_; }
    const nn::MultiAgentBdq &onlineNetwork() const { return online_; }
    /** The replay buffer (built, empty, by the first call if need be),
     * for reading: transitions enter through observe(), which keeps
     * each slot's cached target values in step with its transition. */
    PrioritizedReplay &replay() { return training().replay; }

  private:
    /**
     * What only training reads: the target network and the replay
     * buffer, built by training() at the first observe(), trainStep()
     * or replay() call with the target a copy of the online network.
     * Before that call only the constructor, load() and
     * beginTransfer() write the online parameters, and each of them
     * would have synchronised an eagerly built target, so the late
     * target holds what an early one would.
     */
    struct Training
    {
        nn::MultiAgentBdq target;
        PrioritizedReplay replay;
        /** Bumped by every syncTarget(); the target network's weights
         * are constant within one epoch. */
        std::size_t epoch = 0;
        /** Floats per slot in cachedQ: K x sum of n_d. */
        std::size_t width;
        /** Per filled replay slot, the target network's Q-values of its
         * next state (the q[k][d] rows, agent-major), valid while the
         * slot's stamp equals epoch. Both grow with the replay's filled
         * size, never its capacity. */
        std::vector<float> cachedQ;
        std::vector<std::size_t> stamps;
        Training(const BdqLearnerConfig &cfg, common::Rng &rng)
            : target(cfg.net, rng), replay(cfg.replay),
              width(cfg.net.numAgents *
                    std::reduce(cfg.net.branchActions.begin(),
                                cfg.net.branchActions.end()))
        {
        }
    };
    Training &training();

    /** Copy the online network into the target and open a new target
     * epoch, which makes every slot's cached target values stale. */
    void syncTarget();

    /**
     * Bring the cached target values of every slot in @p slots up to
     * the current epoch by forwarding the stale ones, each once however
     * often it was drawn, through the target network together. A row's
     * Q-values do not depend on the rows forwarded with it (DESIGN.md
     * section 7), so the cache holds what a full-minibatch forward
     * would, bit for bit.
     */
    void refreshTargetValues(const std::vector<std::size_t> &slots);

    BdqLearnerConfig cfg_;
    common::Rng rng_;
    nn::MultiAgentBdq online_;
    /** The target network's stream, forked from rng_ at construction
     * so that every later draw from rng_ is where it would be with the
     * target built there. */
    common::Rng targetRng_;
    std::optional<Training> training_;
    PiecewiseLinearSchedule epsilonSchedule_;
    PiecewiseLinearSchedule betaSchedule_;
    std::size_t step_ = 0;
    std::size_t stepsSinceTargetUpdate_ = 0;
    /** Per-agent exploration hold state. */
    std::vector<std::size_t> holdRemaining_;
    std::vector<nn::BranchActions> heldAction_;
    /** Previous greedy choice (sticky argmax). */
    std::vector<nn::BranchActions> lastGreedy_;

    /**
     * One eval forward of @p joint_state into the decide scratch
     * below: returns the greedy (first-maximum) actions and leaves
     * the Q-values they were taken from in decideQ_. An eval forward
     * draws no randomness, so one pass serves both the argmax and the
     * sticky comparison.
     */
    const std::vector<nn::BranchActions> &
    decideGreedy(const std::vector<float> &joint_state);
    nn::Matrix decideState_;
    nn::BdqOutput decideQ_;
    std::vector<std::vector<nn::BranchActions>> decideActions_;

    // trainStep() scratch, sized on the first gradient step and then
    // reused: the steady-state training step performs zero heap
    // allocations (verified by tests/test_alloc.cc).
    ReplaySample sampleScratch_;
    nn::Matrix statesScratch_, nextStatesScratch_, missStatesScratch_;
    std::vector<std::size_t> missSlotsScratch_;
    nn::BdqOutput nextOnlineScratch_, missTargetScratch_, outScratch_;
    std::vector<std::vector<double>> targetsScratch_;
    std::vector<std::vector<nn::Matrix>> dqScratch_;
    std::vector<double> tdPriorityScratch_;
};

} // namespace twig::rl

#endif // TWIG_RL_BDQ_LEARNER_HH
