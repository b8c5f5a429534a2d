/**
 * @file
 * Neural-network layers: Linear (with Adam state), ReLU, Dropout.
 *
 * Layers process batches (Matrix [batch x features]) and keep what they
 * need for the backward pass; a Linear layer reads its input in place
 * (see Linear::forward). Each Linear layer owns its gradient and
 * Adam moment buffers so an optimiser step is a single call on the
 * layer; a layer that never trains never allocates them.
 */

#ifndef TWIG_NN_LAYERS_HH
#define TWIG_NN_LAYERS_HH

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "nn/matrix.hh"

namespace twig::nn {

class ReLU;

/** Hyper-parameters of the Adam optimiser (paper: lr = 0.0025). */
struct AdamConfig
{
    float learningRate = 0.0025f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
};

/**
 * Fully-connected layer y = x W + b with gradient accumulation and an
 * embedded Adam optimiser state. The gradients and both moments are
 * created, zeroed, by the first backward, scaleGrad() or adamStep():
 * a layer that only runs forward (a target network, a deployed
 * policy) holds just its weights and bias.
 */
class Linear
{
  public:
    /**
     * @param in   input feature count
     * @param out  output feature count
     * @param rng  used for He-uniform weight initialisation
     */
    Linear(std::size_t in, std::size_t out, common::Rng &rng);

    /**
     * Forward pass (fused GEMM+bias). The layer keeps a pointer to
     * @p x for backward(), which reads it in place: @p x must stay
     * alive and unchanged until then.
     */
    void forward(const Matrix &x, Matrix &y);

    /**
     * Fused forward through this layer and a ReLU: y = relu(x W + b)
     * in one kernel pass, without materialising the pre-activation.
     * @p relu receives the activation mask exactly as if
     * forward() + relu.forward() had run, so its backward() works
     * unchanged. @p x is kept as in forward().
     */
    void forwardRelu(const Matrix &x, Matrix &y, ReLU &relu);

    /**
     * Backward pass: accumulates weight/bias gradients from @p dy and
     * produces the input gradient in @p dx.
     *
     * Gradients accumulate across multiple backward() calls until
     * adamStep() or zeroGrad() — this is what lets the BDQ share one
     * advantage module across several agents.
     */
    void backward(const Matrix &dy, Matrix &dx);

    /** As backward(), but discards dx (first layer of a network). */
    void backwardNoInputGrad(const Matrix &dy);

    /** Scale the accumulated gradients (for 1/K and 1/D rescaling). */
    void scaleGrad(float factor);

    /** Apply one Adam update using the accumulated gradients, then zero
     * them. @p t is the global step counter (for bias correction). */
    void adamStep(const AdamConfig &cfg, std::size_t t);

    /** Zero accumulated gradients without updating parameters. */
    void zeroGrad();

    /** Copy parameters (not optimiser state) from another layer. */
    void copyParamsFrom(const Linear &other);

    /** Re-initialise parameters randomly and zero the Adam moments,
     * if any (transfer learning). */
    void reinitialize(common::Rng &rng);

    /** L2 norm of the accumulated gradient, 0 before the first
     * backward (diagnostics / tests). */
    float gradNorm() const;

    /** Number of parameters (weights + biases). */
    std::size_t paramCount() const { return weight_.size() + bias_.size(); }

    const Matrix &weight() const { return weight_; }
    const std::vector<float> &bias() const { return bias_; }
    /** Accumulated gradients (introspection / gradient checking);
     * std::bad_optional_access before the first backward. */
    const Matrix &gradWeight() const { return train_.value().gradWeight; }
    const std::vector<float> &gradBias() const
    {
        return train_.value().gradBias;
    }
    /** Adam's first (m) and second (v) moments (introspection), as
     * above. */
    const Matrix &adamMWeight() const { return train_.value().mWeight; }
    const Matrix &adamVWeight() const { return train_.value().vWeight; }
    const std::vector<float> &adamMBias() const
    {
        return train_.value().mBias;
    }
    const std::vector<float> &adamVBias() const
    {
        return train_.value().vBias;
    }
    Matrix &mutableWeight() { return weight_; }
    std::vector<float> &mutableBias() { return bias_; }

    /** Serialise / deserialise parameters (binary, little-endian host). */
    void save(std::ostream &os) const;
    void load(std::istream &is);

  private:
    /** What only training reads: the accumulated gradients and Adam's
     * moments, each shaped like the parameter it belongs to. */
    struct Training
    {
        Matrix gradWeight, mWeight, vWeight;
        std::vector<float> gradBias, mBias, vBias;
        Training(std::size_t in, std::size_t out);
    };

    /** The training state, built zeroed on first use. */
    Training &training();

    Matrix weight_; // [in x out]
    std::vector<float> bias_;
    /** The last forward's input, read in place by backward(). */
    const Matrix *input_ = nullptr;
    std::optional<Training> train_;
};

/** Rectified linear unit; caches the mask for backward. */
class ReLU
{
  public:
    void forward(const Matrix &x, Matrix &y);
    /** dx = dy where the forward input was positive, else 0; @p dx
     * must not be @p dy. */
    void backward(const Matrix &dy, Matrix &dx) const;

    /**
     * For fused producers (Linear::forwardRelu): size the cached mask
     * for a [rows x cols] activation and hand it to the kernel to
     * fill. backward() then behaves as after a normal forward().
     */
    std::vector<unsigned char> &
    primeMask(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        if (mask_.size() != rows * cols)
            mask_.resize(rows * cols);
        return mask_;
    }

  private:
    std::vector<unsigned char> mask_;
    std::size_t rows_ = 0, cols_ = 0;
};

/**
 * Inverted dropout. Active only when `train` is true in forward() and
 * the rate is positive; otherwise it is the identity and copies
 * nothing: forward() returns its input and backward() its gradient.
 */
class Dropout
{
  public:
    explicit Dropout(float rate) : rate_(rate) {}

    float rate() const { return rate_; }

    /** The activations: @p y when dropping, else @p x itself. */
    const Matrix &forward(const Matrix &x, Matrix &y, bool train,
                          common::Rng &rng);
    /** The input gradient: @p dx when the forward dropped, else @p dy
     * itself. */
    const Matrix &backward(const Matrix &dy, Matrix &dx) const;

  private:
    float rate_;
    std::vector<float> mask_;
    bool wasTrain_ = false;
    std::size_t rows_ = 0, cols_ = 0;
};

} // namespace twig::nn

#endif // TWIG_NN_LAYERS_HH
