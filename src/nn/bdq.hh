/**
 * @file
 * Multi-agent branching dueling Q-network (paper §III-A).
 *
 * Architecture (one network instance manages K services):
 *
 *   joint state  x = concat(state_1 .. state_K)            [B x K*S]
 *        |
 *   shared trunk: Linear+ReLU+Dropout x len(trunkHidden)   [B x T]
 *        |
 *   per-agent "state agent" head k:  Linear+ReLU  -> e_k   [B x H]
 *        |                            Linear(H,1) -> V_k   [B x 1]
 *        |
 *   per-branch advantage module d (weights SHARED across agents),
 *   applied to the stacked embeddings of all agents:
 *        Linear+ReLU+Dropout, Linear(H, n_d)  -> A_d       [K*B x n_d]
 *
 *   Q_{k,d}(a) = V_k + A_d(e_k, a) - mean_a' A_d(e_k, a')
 *
 * Gradient rescaling per the paper: the combined gradient is scaled by
 * 1/K before entering the deepest advantage layer (it accumulates the
 * contributions of all K agents), and by 1/D before entering the shared
 * trunk (it accumulates the contributions of all D branches).
 */

#ifndef TWIG_NN_BDQ_HH
#define TWIG_NN_BDQ_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <vector>

#include "common/rng.hh"
#include "nn/layers.hh"

namespace twig::nn {

/** Hyper-parameters of the multi-agent BDQ (defaults follow paper §IV). */
struct BdqConfig
{
    /** Number of learning agents K (one per LC service). */
    std::size_t numAgents = 1;
    /** State variables per agent (11 PMCs in the paper). */
    std::size_t stateDimPerAgent = 11;
    /** Shared-representation hidden sizes (paper: 512, 256). */
    std::vector<std::size_t> trunkHidden = {512, 256};
    /** Per-agent state-head width (embedding + state value). */
    std::size_t agentHeadHidden = 128;
    /** Advantage-module hidden width (paper: 128). */
    std::size_t branchHidden = 128;
    /** Discrete action count per branch, e.g. {cores, DVFS} = {18, 9}. */
    std::vector<std::size_t> branchActions = {18, 9};
    /** Dropout after each hidden fully-connected layer (paper: 0.5). */
    float dropoutRate = 0.5f;
    AdamConfig adam;

    std::size_t inputDim() const { return numAgents * stateDimPerAgent; }
    std::size_t numBranches() const { return branchActions.size(); }
};

/** Q-values produced by one forward pass. q[k][d] is [batch x n_d]. */
struct BdqOutput
{
    std::vector<std::vector<Matrix>> q;
};

/** One action per branch for one agent. */
using BranchActions = std::vector<std::size_t>;

/**
 * The multi-agent BDQ function approximator.
 *
 * Holds parameters and provides forward / backward / optimiser-step.
 * Training logic (TD targets, replay) lives in rl::BdqLearner.
 */
class MultiAgentBdq
{
  public:
    MultiAgentBdq(const BdqConfig &cfg, common::Rng &rng);

    const BdqConfig &config() const { return cfg_; }

    /**
     * Forward pass.
     *
     * @param x      joint states, [batch x inputDim()]
     * @param out    per-agent per-branch Q-values
     * @param train  enable dropout and cache activations for backward()
     */
    void forward(const Matrix &x, BdqOutput &out, bool train);

    /**
     * Backward pass from per-agent, per-branch Q-value gradients.
     * Must follow a forward(..., train = true) on the same batch.
     * Accumulates parameter gradients (with the 1/K and 1/D rescaling).
     */
    void backward(const std::vector<std::vector<Matrix>> &dq);

    /** Apply one Adam step to every parameter and clear gradients. */
    void adamStep();

    /**
     * Greedy per-agent actions for every row of @p x (eval mode): one
     * batched forward — one fused GEMM per layer — instead of
     * x.rows() single-state passes. Exactly equal to a one-row call
     * on each row: every Q entry accumulates over the input dimension
     * in the same order regardless of the batch size, and the argmax
     * takes the first maximum. @p scratch
     * holds the Q-values between calls so steady-state batched
     * inference does not allocate.
     */
    void greedyActionsRows(const Matrix &x, BdqOutput &scratch,
                           std::vector<std::vector<BranchActions>> &out);

    /** Copy all parameters from another (identically-shaped) network. */
    void copyParamsFrom(const MultiAgentBdq &other);

    /**
     * Transfer learning (paper §IV): re-initialise the most specialised
     * (output) layers — every branch's advantage output and every agent's
     * state-value output — keeping the trunk/head/hidden weights.
     */
    void reinitializeOutputLayers(common::Rng &rng);

    /** Total number of parameters. */
    std::size_t paramCount() const;

    /**
     * Introspection (tests, diagnostics): the advantage-output layer of
     * branch @p d and the state-value output layer of agent @p k. The
     * backward pass delivers *exact* loss gradients to these layers
     * (the paper's 1/K and 1/D rescaling applies only upstream of
     * them), so they are where gradient checking is meaningful.
     */
    Linear &advantageOutputLayer(std::size_t d);
    Linear &valueOutputLayer(std::size_t k);

    /** Serialise / deserialise all parameters. */
    void save(std::ostream &os) const;
    void load(std::istream &is);

  private:
    struct TrunkStage
    {
        Linear linear;
        ReLU relu;
        Dropout dropout;
        // Cached activations; the linear+ReLU pair is fused, so only
        // the post-ReLU activations materialise, and the post-dropout
        // ones only when dropout drops.
        Matrix reluOut, dropOut;
        TrunkStage(std::size_t in, std::size_t out, float rate,
                   common::Rng &rng)
            : linear(in, out, rng), dropout(rate)
        {
        }
    };

    struct AgentHead
    {
        Linear embed;    // trunk -> H
        ReLU relu;
        Linear valueOut; // H -> 1
        Matrix embedAct, value; // cached (embed+ReLU fused)
        AgentHead(std::size_t trunk_out, std::size_t h, common::Rng &rng)
            : embed(trunk_out, h, rng), valueOut(h, 1, rng)
        {
        }
    };

    struct BranchModule
    {
        Linear hidden;  // H -> branchHidden (deepest advantage layer)
        ReLU relu;
        Dropout dropout;
        Linear advOut;  // branchHidden -> n_d
        Matrix hidAct, hidDrop, adv; // cached ([K*B x ...], fused;
                                     // hidDrop only when dropping)
        BranchModule(std::size_t h, std::size_t hidden_w, std::size_t n,
                     float rate, common::Rng &rng)
            : hidden(h, hidden_w, rng), dropout(rate),
              advOut(hidden_w, n, rng)
        {
        }
    };

    void forEachLinear(const std::function<void(Linear &)> &fn);
    void forEachLinear(const std::function<void(const Linear &)> &fn) const;

    BdqConfig cfg_;
    common::Rng rng_;
    std::vector<TrunkStage> trunk_;
    std::vector<AgentHead> agents_;
    std::vector<BranchModule> branches_;

    // Cached batch state for backward().
    Matrix stackedEmbeds_; // [K*B x H]
    std::size_t lastBatch_ = 0;
    bool lastTrain_ = false;
    std::size_t adamT_ = 0;

    // Backward-pass scratch, sized on first use and reused so a
    // steady-state training step performs no heap allocation.
    Matrix bwdStacked_;  // d(stacked embeddings), accumulated
    Matrix bwdAdv_;      // dueling-combine gradient per branch
    Matrix bwdG1_, bwdG2_, bwdG3_, bwdG4_;
    Matrix bwdDh_;       // d(trunk output), accumulated over agents
    Matrix bwdDv_, bwdGv_, bwdGe_, bwdGh_;
    Matrix bwdTmp_;      // trunk ping-pong buffer
};

} // namespace twig::nn

#endif // TWIG_NN_BDQ_HH
