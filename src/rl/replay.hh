/**
 * @file
 * Experience replay: transitions, a sum-tree, and prioritised sampling
 * (Schaul et al. 2015), as used by Twig (paper §IV: buffer 10^6,
 * alpha = 0.6, beta annealed 0.4 -> 1).
 */

#ifndef TWIG_RL_REPLAY_HH
#define TWIG_RL_REPLAY_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"

namespace twig::rl {

/** One multi-agent environment transition. */
struct Transition
{
    /** Joint normalised state at time t (all agents concatenated). */
    std::vector<float> state;
    /** actions[k][d]: action index of agent k on branch d. */
    std::vector<std::vector<std::size_t>> actions;
    /** Per-agent reward received after the interval. */
    std::vector<double> rewards;
    /** Joint state at time t+1. */
    std::vector<float> nextState;
    /** Terminal flag (always false in the continuing task; kept for
     * generality and tested). */
    bool done = false;
};

/**
 * Binary-indexed sum tree over leaf priorities, supporting O(log n)
 * updates and prefix-sum sampling.
 */
class SumTree
{
  public:
    explicit SumTree(std::size_t capacity);

    std::size_t capacity() const { return capacity_; }

    /** Set leaf @p idx priority. */
    void set(std::size_t idx, double priority);

    /** Priority of leaf @p idx. */
    double get(std::size_t idx) const;

    /** Total priority mass. */
    double total() const;

    /**
     * Find the leaf whose cumulative-priority interval contains
     * @p mass (0 <= mass < total()).
     */
    std::size_t find(double mass) const;

  private:
    std::size_t capacity_;
    std::size_t leafBase_;
    std::vector<double> nodes_;
};

/** Configuration of the prioritised replay buffer. */
struct ReplayConfig
{
    std::size_t capacity = 1000000;
    double alpha = 0.6;          ///< priority exponent (paper: 0.6)
    double epsilonPriority = 1e-3; ///< keeps every priority non-zero
};

/** Result of sampling a minibatch. */
struct ReplaySample
{
    std::vector<std::size_t> indices;
    std::vector<double> weights; ///< normalised importance weights
};

/**
 * Proportional prioritised experience replay over a circular buffer.
 */
class PrioritizedReplay
{
  public:
    explicit PrioritizedReplay(const ReplayConfig &cfg);

    /** Add a transition with max-seen priority (so it is replayed
     * soon), overwriting the oldest once full; returns its slot. */
    std::size_t add(Transition t);

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cfg_.capacity; }
    bool empty() const { return size_ == 0; }

    /**
     * Sample @p n indices proportionally to priority^alpha into @p out
     * and compute importance weights (w_i = (N * P(i))^-beta,
     * normalised by max w), reusing @p out's buffers so that the
     * steady-state training loop does not allocate.
     */
    void sampleInto(std::size_t n, double beta, common::Rng &rng,
                    ReplaySample &out) const;

    /** Update priorities after a training step (|TD error| based). */
    void updatePriorities(const std::vector<std::size_t> &indices,
                          const std::vector<double> &td_errors);

    const Transition &at(std::size_t idx) const { return buffer_[idx]; }

  private:
    ReplayConfig cfg_;
    std::vector<Transition> buffer_;
    SumTree tree_;
    std::size_t next_ = 0;
    std::size_t size_ = 0;
    double maxPriority_ = 1.0;
};

} // namespace twig::rl

#endif // TWIG_RL_REPLAY_HH
