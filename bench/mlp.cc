#include "bench/mlp.hh"

#include <utility>

namespace twig::nn {

Mlp::Mlp(const MlpConfig &cfg, common::Rng &rng) : cfg_(cfg), rng_(rng.fork())
{
    common::fatalIf(cfg.inputDim == 0 || cfg.outputDim == 0,
                    "Mlp: zero-sized input/output");
    std::size_t prev = cfg.inputDim;
    for (std::size_t h : cfg.hidden) {
        linears_.emplace_back(prev, h, rng_);
        relus_.emplace_back();
        dropouts_.emplace_back(cfg.dropoutRate);
        prev = h;
    }
    linears_.emplace_back(prev, cfg.outputDim, rng_);
    // Two scratch activations per hidden stage: the fused
    // linear+ReLU output and the dropout output.
    acts_.resize(2 * cfg_.hidden.size());
}

void
Mlp::forwardImpl(const Matrix &x, Matrix &y, bool train)
{
    const Matrix *cur = &x;
    std::size_t slot = 0;
    for (std::size_t i = 0; i < cfg_.hidden.size(); ++i) {
        Matrix &relu_out = acts_[slot++];
        linears_[i].forwardRelu(*cur, relu_out, relus_[i]);
        Matrix &drop_out = acts_[slot++];
        cur = &dropouts_[i].forward(relu_out, drop_out, train, rng_);
    }
    linears_.back().forward(*cur, y);
}

void
Mlp::predict(const Matrix &x, Matrix &y)
{
    forwardImpl(x, y, false);
}

float
Mlp::trainStep(const Matrix &x, const Matrix &target)
{
    common::fatalIf(x.rows() != target.rows(),
                    "Mlp::trainStep: batch size mismatch");
    Matrix &y = trainY_;
    forwardImpl(x, y, true);
    common::panicIf(y.cols() != target.cols(),
                    "Mlp::trainStep: target width mismatch");

    // dL/dy for MSE = 2 (y - t) / (batch * outDim); also compute the loss.
    trainDy_.resize(y.rows(), y.cols());
    float loss = 0.0f;
    const float scale =
        2.0f / static_cast<float>(y.rows() * y.cols());
    for (std::size_t i = 0; i < y.size(); ++i) {
        const float e = y.raw()[i] - target.raw()[i];
        loss += e * e;
        trainDy_.raw()[i] = scale * e;
    }
    loss /= static_cast<float>(y.size());

    // Backward through the stack, ping-ponging two scratch matrices.
    Matrix *grad = &gradA_, *tmp = &gradB_;
    linears_.back().backward(trainDy_, *grad);
    for (std::size_t i = cfg_.hidden.size(); i-- > 0;) {
        if (&dropouts_[i].backward(*grad, *tmp) == tmp)
            std::swap(grad, tmp);
        relus_[i].backward(*grad, *tmp);
        std::swap(grad, tmp);
        if (i == 0) {
            linears_[i].backwardNoInputGrad(*grad);
        } else {
            linears_[i].backward(*grad, *tmp);
            std::swap(grad, tmp);
        }
    }
    ++step_;
    for (auto &l : linears_)
        l.adamStep(cfg_.adam, step_);
    return loss;
}

std::vector<float>
Mlp::predictOne(const std::vector<float> &x)
{
    common::fatalIf(x.size() != cfg_.inputDim,
                    "Mlp::predictOne: wrong input size");
    Matrix in(1, x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        in(0, i) = x[i];
    Matrix out;
    predict(in, out);
    std::vector<float> result(out.cols());
    for (std::size_t i = 0; i < out.cols(); ++i)
        result[i] = out(0, i);
    return result;
}

std::size_t
Mlp::paramCount() const
{
    std::size_t n = 0;
    for (const auto &l : linears_)
        n += l.paramCount();
    return n;
}

} // namespace twig::nn
