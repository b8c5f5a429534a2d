#include "nn/layers.hh"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

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

/**
 * Adam moment below FLT_MIN -> 0. The moments of a column that stops
 * receiving gradient (a BDQ action no minibatch took) decay into
 * subnormals, and every later step would take the CPU's slow path on
 * them. The update a subnormal moment makes is far below half an ulp
 * of any weight, so the flush leaves every weight's bits unchanged,
 * without touching the FP environment (DESIGN.md section 7, "Adam
 * moment flush").
 */
float
flushSubnormal(float x)
{
    return std::fabs(x) < std::numeric_limits<float>::min() ? 0.0f : x;
}

} // namespace

Linear::Linear(std::size_t in, std::size_t out, common::Rng &rng)
    : weight_(in, out), bias_(out, 0.0f), gradWeight_(in, out),
      gradBias_(out, 0.0f), mWeight_(in, out), vWeight_(in, out),
      mBias_(out, 0.0f), vBias_(out, 0.0f)
{
    common::fatalIf(in == 0 || out == 0, "Linear: zero-sized layer");
    reinitialize(rng);
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
    mWeight_.fill(0.0f);
    vWeight_.fill(0.0f);
    std::fill(mBias_.begin(), mBias_.end(), 0.0f);
    std::fill(vBias_.begin(), vBias_.end(), 0.0f);
}

void
Linear::forward(const Matrix &x, Matrix &y)
{
    common::panicIf(x.cols() != weight_.rows(),
                    "Linear::forward: input width mismatch");
    cachedInput_ = x;
    matmulBias(x, weight_, bias_, y);
}

void
Linear::forwardRelu(const Matrix &x, Matrix &y, ReLU &relu)
{
    common::panicIf(x.cols() != weight_.rows(),
                    "Linear::forwardRelu: input width mismatch");
    cachedInput_ = x;
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
    common::panicIf(dy.rows() != cachedInput_.rows(),
                    "Linear::backward: batch mismatch");
    common::panicIf(dy.cols() != weight_.cols(),
                    "Linear::backward: output width mismatch");
    // gradW += x^T dy, fused into the kernel: no scratch matrix, no
    // second pass over the gradient.
    matmulTransposeAAccum(cachedInput_, dy, gradWeight_);
    for (std::size_t r = 0; r < dy.rows(); ++r) {
        const float *row = dy.rowPtr(r);
        for (std::size_t c = 0; c < dy.cols(); ++c)
            gradBias_[c] += row[c];
    }
}

void
Linear::scaleGrad(float factor)
{
    gradWeight_.scaleInPlace(factor);
    for (auto &g : gradBias_)
        g *= factor;
}

void
Linear::adamStep(const AdamConfig &cfg, std::size_t t)
{
    common::panicIf(t == 0, "adamStep: step counter must start at 1");
    const float b1t = 1.0f - std::pow(cfg.beta1, static_cast<float>(t));
    const float b2t = 1.0f - std::pow(cfg.beta2, static_cast<float>(t));

    for (std::size_t i = 0; i < weight_.size(); ++i) {
        const float g = gradWeight_.raw()[i];
        float &m = mWeight_.raw()[i];
        float &v = vWeight_.raw()[i];
        m = flushSubnormal(cfg.beta1 * m + (1.0f - cfg.beta1) * g);
        v = flushSubnormal(cfg.beta2 * v + (1.0f - cfg.beta2) * g * g);
        const float mhat = m / b1t;
        const float vhat = v / b2t;
        weight_.raw()[i] -=
            cfg.learningRate * mhat / (std::sqrt(vhat) + cfg.epsilon);
    }
    for (std::size_t i = 0; i < bias_.size(); ++i) {
        const float g = gradBias_[i];
        float &m = mBias_[i];
        float &v = vBias_[i];
        m = flushSubnormal(cfg.beta1 * m + (1.0f - cfg.beta1) * g);
        v = flushSubnormal(cfg.beta2 * v + (1.0f - cfg.beta2) * g * g);
        const float mhat = m / b1t;
        const float vhat = v / b2t;
        bias_[i] -=
            cfg.learningRate * mhat / (std::sqrt(vhat) + cfg.epsilon);
    }
    zeroGrad();
}

void
Linear::zeroGrad()
{
    gradWeight_.fill(0.0f);
    std::fill(gradBias_.begin(), gradBias_.end(), 0.0f);
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
    double s = 0.0;
    for (float g : gradWeight_.raw())
        s += static_cast<double>(g) * g;
    for (float g : gradBias_)
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
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx.raw()[i] = mask_[i] ? dy.raw()[i] : 0.0f;
}

void
Dropout::forward(const Matrix &x, Matrix &y, bool train, common::Rng &rng)
{
    rows_ = x.rows();
    cols_ = x.cols();
    wasTrain_ = train && rate_ > 0.0f;
    y.resize(x.rows(), x.cols());
    if (!wasTrain_) {
        y = x;
        return;
    }
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
}

void
Dropout::backward(const Matrix &dy, Matrix &dx) const
{
    common::panicIf(dy.rows() != rows_ || dy.cols() != cols_,
                    "Dropout::backward: shape mismatch with forward");
    dx.resize(rows_, cols_);
    if (!wasTrain_) {
        dx = dy;
        return;
    }
    for (std::size_t i = 0; i < dy.size(); ++i)
        dx.raw()[i] = dy.raw()[i] * mask_[i];
}

} // namespace twig::nn
