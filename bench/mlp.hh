/**
 * @file
 * A plain multi-layer perceptron for regression.
 *
 * Learns tail latency as a function of PMCs for paper Fig. 1
 * (fig01_pmc_vs_ipc), built from the nn layers the BDQ uses. ReLU
 * hidden layers, linear output, MSE loss, Adam. Only that bench and
 * its tests link it; the programs never do.
 */

#ifndef TWIG_BENCH_MLP_HH
#define TWIG_BENCH_MLP_HH

#include <cstddef>
#include <vector>

#include "common/rng.hh"
#include "nn/layers.hh"

namespace twig::nn {

/** Configuration of an Mlp. */
struct MlpConfig
{
    std::size_t inputDim = 1;
    std::vector<std::size_t> hidden = {64, 32};
    std::size_t outputDim = 1;
    float dropoutRate = 0.0f;
    AdamConfig adam;
};

/** Feed-forward regressor: Linear+ReLU(+Dropout) stacks, linear output. */
class Mlp
{
  public:
    Mlp(const MlpConfig &cfg, common::Rng &rng);

    /** Forward pass (evaluation mode, no dropout). */
    void predict(const Matrix &x, Matrix &y);

    /**
     * One SGD step on a minibatch: forward (train mode), MSE loss,
     * backward, Adam update.
     *
     * @return the minibatch MSE before the update
     */
    float trainStep(const Matrix &x, const Matrix &target);

    /** Convenience: predict a single vector. */
    std::vector<float> predictOne(const std::vector<float> &x);

    std::size_t paramCount() const;

    const MlpConfig &config() const { return cfg_; }

  private:
    void forwardImpl(const Matrix &x, Matrix &y, bool train);

    MlpConfig cfg_;
    common::Rng rng_;
    std::vector<Linear> linears_;
    std::vector<ReLU> relus_;
    std::vector<Dropout> dropouts_;
    // Scratch activations, read in place by the next layer until
    // backward; a dropout that drops nothing leaves its slot unused.
    std::vector<Matrix> acts_;
    // trainStep scratch: sized on first use, then reused so a
    // steady-state training step performs no heap allocation.
    Matrix trainY_, trainDy_, gradA_, gradB_;
    std::size_t step_ = 0;
};

} // namespace twig::nn

#endif // TWIG_BENCH_MLP_HH
