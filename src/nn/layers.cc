#include "nn/layers.hh"

#include <cmath>
#include <istream>
#include <ostream>

#include "nn/kernels.hh"

namespace twig::nn {

namespace {

void
writeFloats(std::ostream &os, const float *data, std::size_t n)
{
    os.write(reinterpret_cast<const char *>(data),
             static_cast<std::streamsize>(n * sizeof(float)));
}

void
readFloats(std::istream &is, float *data, std::size_t n)
{
    is.read(reinterpret_cast<char *>(data),
            static_cast<std::streamsize>(n * sizeof(float)));
    common::fatalIf(!is, "Linear::load: truncated stream");
}

} // namespace

Linear::Training::Training(std::size_t in, std::size_t out)
    : gradWeight(in, out), mWeight(in, out), vWeight(in, out),
      gradBias(out, 0.0f), mBias(out, 0.0f), vBias(out, 0.0f)
{
}

Linear::Linear(std::size_t in, std::size_t out, common::Rng &rng)
    : weight_(in, out), bias_(out, 0.0f)
{
    common::fatalIf(in == 0 || out == 0, "Linear: zero-sized layer");
    reinitialize(rng);
}

Linear::Training &
Linear::training()
{
    if (!train_)
        train_.emplace(weight_.rows(), weight_.cols());
    return *train_;
}

void
Linear::reinitialize(common::Rng &rng)
{
    // He-uniform initialisation, appropriate for ReLU activations.
    const float limit = std::sqrt(
        6.0f / static_cast<float>(weight_.rows()));
    for (std::size_t i = 0; i < weight_.size(); ++i) {
        weight_.raw()[i] =
            static_cast<float>(rng.uniform(-limit, limit));
    }
    std::fill(bias_.begin(), bias_.end(), 0.0f);
    if (train_) {
        train_->mWeight.fill(0.0f);
        train_->vWeight.fill(0.0f);
        std::fill(train_->mBias.begin(), train_->mBias.end(), 0.0f);
        std::fill(train_->vBias.begin(), train_->vBias.end(), 0.0f);
    }
}

void
Linear::forward(const Matrix &x, Matrix &y)
{
    common::panicIf(x.cols() != weight_.rows(),
                    "Linear::forward: input width mismatch");
    input_ = &x;
    matmulBias(x, weight_, bias_, y);
}

void
Linear::forwardRelu(const Matrix &x, Matrix &y, ReLU &relu)
{
    common::panicIf(x.cols() != weight_.rows(),
                    "Linear::forwardRelu: input width mismatch");
    input_ = &x;
    matmulBiasRelu(x, weight_, bias_, y,
                   relu.primeMask(x.rows(), weight_.cols()));
}

void
Linear::backward(const Matrix &dy, Matrix &dx)
{
    backwardNoInputGrad(dy);
    matmulTransposeB(dy, weight_, dx);
}

void
Linear::backwardNoInputGrad(const Matrix &dy)
{
    common::panicIf(input_ == nullptr || dy.rows() != input_->rows(),
                    "Linear::backward: batch mismatch");
    common::panicIf(dy.cols() != weight_.cols(),
                    "Linear::backward: output width mismatch");
    // gradW += x^T dy, fused into the kernel: no scratch matrix, no
    // second pass over the gradient.
    Training &tr = training();
    matmulTransposeAAccum(*input_, dy, tr.gradWeight);
    kernels::addColumnSums(dy.data(), dy.rows(), dy.cols(),
                           tr.gradBias.data());
}

void
Linear::scaleGrad(float factor)
{
    Training &tr = training();
    tr.gradWeight.scaleInPlace(factor);
    kernels::scaleInPlace(tr.gradBias.data(), factor, tr.gradBias.size());
}

void
Linear::adamStep(const AdamConfig &cfg, std::size_t t)
{
    common::panicIf(t == 0, "adamStep: step counter must start at 1");
    const kernels::AdamStep step{
        cfg.learningRate,
        cfg.beta1,
        cfg.beta2,
        cfg.epsilon,
        1.0f - std::pow(cfg.beta1, static_cast<float>(t)),
        1.0f - std::pow(cfg.beta2, static_cast<float>(t)),
    };
    Training &tr = training();
    kernels::adam(weight_.data(), tr.mWeight.data(), tr.vWeight.data(),
                  tr.gradWeight.data(), weight_.size(), step);
    kernels::adam(bias_.data(), tr.mBias.data(), tr.vBias.data(),
                  tr.gradBias.data(), bias_.size(), step);
    zeroGrad();
}

void
Linear::zeroGrad()
{
    if (!train_)
        return;
    train_->gradWeight.fill(0.0f);
    std::fill(train_->gradBias.begin(), train_->gradBias.end(), 0.0f);
}

void
Linear::copyParamsFrom(const Linear &other)
{
    common::panicIf(weight_.rows() != other.weight_.rows() ||
                        weight_.cols() != other.weight_.cols(),
                    "copyParamsFrom: shape mismatch");
    weight_ = other.weight_;
    bias_ = other.bias_;
}

float
Linear::gradNorm() const
{
    if (!train_)
        return 0.0f;
    double s = 0.0;
    for (float g : train_->gradWeight.raw())
        s += static_cast<double>(g) * g;
    for (float g : train_->gradBias)
        s += static_cast<double>(g) * g;
    return static_cast<float>(std::sqrt(s));
}

void
Linear::save(std::ostream &os) const
{
    writeFloats(os, weight_.data(), weight_.size());
    writeFloats(os, bias_.data(), bias_.size());
}

void
Linear::load(std::istream &is)
{
    readFloats(is, weight_.data(), weight_.size());
    readFloats(is, bias_.data(), bias_.size());
}

void
ReLU::forward(const Matrix &x, Matrix &y)
{
    unsigned char *mask = primeMask(x.rows(), x.cols()).data();
    y.resize(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const float v = x.raw()[i];
        const bool pos = v > 0.0f;
        mask[i] = pos ? 1 : 0;
        y.raw()[i] = pos ? v : 0.0f;
    }
}

void
ReLU::backward(const Matrix &dy, Matrix &dx) const
{
    common::panicIf(dy.rows() != rows_ || dy.cols() != cols_,
                    "ReLU::backward: shape mismatch with forward");
    dx.resize(rows_, cols_);
    kernels::reluBackward(dy.data(), mask_.data(), dx.data(), dy.size());
}

const Matrix &
Dropout::forward(const Matrix &x, Matrix &y, bool train, common::Rng &rng)
{
    rows_ = x.rows();
    cols_ = x.cols();
    wasTrain_ = train && rate_ > 0.0f;
    if (!wasTrain_)
        return x;
    y.resize(x.rows(), x.cols());
    const float keep = 1.0f - rate_;
    if (mask_.size() != x.size())
        mask_.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (rng.uniform() < keep) {
            mask_[i] = 1.0f / keep;
            y.raw()[i] = x.raw()[i] * mask_[i];
        } else {
            mask_[i] = 0.0f;
            y.raw()[i] = 0.0f;
        }
    }
    return y;
}

const Matrix &
Dropout::backward(const Matrix &dy, Matrix &dx) const
{
    common::panicIf(dy.rows() != rows_ || dy.cols() != cols_,
                    "Dropout::backward: shape mismatch with forward");
    if (!wasTrain_)
        return dy;
    dx.resize(rows_, cols_);
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx.raw()[i] = dy.raw()[i] * mask_[i];
    return dx;
}

} // namespace twig::nn
