/** @file Unit tests for NN layers, including numerical gradient checks. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/hash.hh"
#include "common/rng.hh"
#include "nn/layers.hh"

using namespace twig::nn;
using twig::common::Rng;

namespace {

/** Scalar loss L = sum of squares of the layer output (for checks). */
float
sumSquares(const Matrix &y)
{
    float s = 0.0f;
    for (float v : y.raw())
        s += v * v;
    return s;
}

/** dL/dy for the sum-of-squares loss. */
Matrix
sumSquaresGrad(const Matrix &y)
{
    Matrix dy(y.rows(), y.cols());
    for (std::size_t i = 0; i < y.size(); ++i)
        dy.raw()[i] = 2.0f * y.raw()[i];
    return dy;
}

} // namespace

TEST(Linear, ForwardMatchesManualComputation)
{
    Rng rng(1);
    Linear lin(2, 2, rng);
    lin.mutableWeight()(0, 0) = 1.0f;
    lin.mutableWeight()(0, 1) = 2.0f;
    lin.mutableWeight()(1, 0) = 3.0f;
    lin.mutableWeight()(1, 1) = 4.0f;
    lin.mutableBias() = {0.5f, -0.5f};

    Matrix x(1, 2), y;
    x(0, 0) = 1.0f;
    x(0, 1) = 2.0f;
    lin.forward(x, y);
    // y = x W + b = [1*1+2*3+0.5, 1*2+2*4-0.5] = [7.5, 9.5]
    EXPECT_FLOAT_EQ(y(0, 0), 7.5f);
    EXPECT_FLOAT_EQ(y(0, 1), 9.5f);
}

TEST(Linear, InputGradientMatchesNumerical)
{
    Rng rng(2);
    Linear lin(4, 3, rng);
    Matrix x(2, 4);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix y;
    lin.forward(x, y);
    Matrix dx;
    lin.backward(sumSquaresGrad(y), dx);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < x.size(); ++i) {
        Matrix xp = x, xm = x;
        xp.raw()[i] += eps;
        xm.raw()[i] -= eps;
        Matrix yp, ym;
        lin.forward(xp, yp);
        const float lp = sumSquares(yp);
        lin.forward(xm, ym);
        const float lm = sumSquares(ym);
        const float numeric = (lp - lm) / (2.0f * eps);
        EXPECT_NEAR(dx.raw()[i], numeric, 2e-2f)
            << "input grad mismatch at " << i;
    }
}

TEST(Linear, WeightGradientMatchesNumerical)
{
    Rng rng(3);
    Linear lin(3, 2, rng);
    Matrix x(2, 3);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    // Analytic weight gradient via a probe: perturb each weight and
    // compare against dL/dW = x^T dy accumulated by backward().
    Matrix y;
    lin.forward(x, y);
    Matrix dx;
    lin.backward(sumSquaresGrad(y), dx);
    // Recover the accumulated gradient through a unit Adam-free probe:
    // gradNorm is > 0 and finite.
    EXPECT_GT(lin.gradNorm(), 0.0f);

    const float eps = 1e-3f;
    // Check one representative weight numerically.
    Matrix &w = lin.mutableWeight();
    const float orig = w(1, 0);
    w(1, 0) = orig + eps;
    Matrix yp;
    lin.forward(x, yp);
    const float lp = sumSquares(yp);
    w(1, 0) = orig - eps;
    Matrix ym;
    lin.forward(x, ym);
    const float lm = sumSquares(ym);
    w(1, 0) = orig;
    const float numeric = (lp - lm) / (2.0f * eps);

    // Extract the analytic value: re-run forward/backward from clean
    // gradients so the accumulator holds exactly one pass.
    lin.zeroGrad();
    Matrix y2;
    lin.forward(x, y2);
    Matrix dx2;
    lin.backward(sumSquaresGrad(y2), dx2);
    // dL/dW[1][0] = sum_batch x[:,1] * dy[:,0]
    const Matrix dy = sumSquaresGrad(y2);
    float analytic = 0.0f;
    for (std::size_t r = 0; r < x.rows(); ++r)
        analytic += x(r, 1) * dy(r, 0);
    EXPECT_NEAR(analytic, numeric, 2e-2f);
}

TEST(Linear, GradientsAccumulateAcrossBackwardCalls)
{
    Rng rng(4);
    Linear lin(2, 2, rng);
    Matrix x(1, 2, 1.0f), y, dx;
    lin.forward(x, y);
    Matrix dy(1, 2, 1.0f);
    lin.backward(dy, dx);
    const float norm1 = lin.gradNorm();
    lin.forward(x, y);
    lin.backward(dy, dx);
    EXPECT_NEAR(lin.gradNorm(), 2.0f * norm1, 1e-4f);
}

TEST(Linear, ScaleGradHalvesNorm)
{
    Rng rng(5);
    Linear lin(2, 2, rng);
    Matrix x(1, 2, 1.0f), y, dx;
    lin.forward(x, y);
    Matrix dy(1, 2, 1.0f);
    lin.backward(dy, dx);
    const float norm = lin.gradNorm();
    lin.scaleGrad(0.5f);
    EXPECT_NEAR(lin.gradNorm(), 0.5f * norm, 1e-5f);
}

TEST(Linear, ZeroGradClears)
{
    Rng rng(6);
    Linear lin(2, 2, rng);
    Matrix x(1, 2, 1.0f), y, dx;
    lin.forward(x, y);
    Matrix dy(1, 2, 1.0f);
    lin.backward(dy, dx);
    lin.zeroGrad();
    EXPECT_FLOAT_EQ(lin.gradNorm(), 0.0f);
}

TEST(Linear, AdamStepReducesQuadraticLoss)
{
    // Minimise ||x W + b - t||^2 for fixed x, t.
    Rng rng(7);
    Linear lin(3, 2, rng);
    Matrix x(4, 3);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    Matrix target(4, 2);
    for (std::size_t i = 0; i < target.size(); ++i)
        target.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));

    AdamConfig adam;
    adam.learningRate = 0.05f;
    float first_loss = 0.0f, last_loss = 0.0f;
    for (std::size_t t = 1; t <= 200; ++t) {
        Matrix y, dx;
        lin.forward(x, y);
        Matrix dy(y.rows(), y.cols());
        float loss = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i) {
            const float e = y.raw()[i] - target.raw()[i];
            loss += e * e;
            dy.raw()[i] = 2.0f * e;
        }
        if (t == 1)
            first_loss = loss;
        last_loss = loss;
        lin.backward(dy, dx);
        lin.adamStep(adam, t);
    }
    EXPECT_LT(last_loss, 0.01f * first_loss);
}

TEST(Linear, AdamFlushesSubnormalMomentsWithoutMovingWeights)
{
    // Input column 2 goes to zero after step 5, so row 2 of the weight
    // gradient is exactly zero from then on and its first moment
    // decays geometrically. Without the flush it reaches the subnormal
    // range after ~800 steps and sticks there (0.9 * m rounds back to
    // m for the smallest subnormals); the flush sends it to zero.
    Rng rng(21);
    Linear lin(3, 2, rng);
    AdamConfig adam;
    adam.learningRate = 0.01f;
    Matrix x(4, 3), y, dy(4, 2), dx;
    for (std::size_t t = 1; t <= 1500; ++t) {
        for (std::size_t i = 0; i < x.size(); ++i)
            x.raw()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (t > 5) {
            for (std::size_t r = 0; r < x.rows(); ++r)
                x(r, 2) = 0.0f;
        }
        lin.forward(x, y);
        for (std::size_t i = 0; i < y.size(); ++i) {
            const float target = static_cast<float>(rng.uniform(-1.0, 1.0));
            dy.raw()[i] = 2.0f * (y.raw()[i] - target);
        }
        lin.backward(dy, dx);
        lin.adamStep(adam, t);
    }

    auto subnormals = [](const float *v, std::size_t n) {
        std::size_t count = 0;
        for (std::size_t i = 0; i < n; ++i)
            count += std::fpclassify(v[i]) == FP_SUBNORMAL;
        return count;
    };
    EXPECT_EQ(subnormals(lin.adamMWeight().data(), lin.adamMWeight().size()),
              0u);
    EXPECT_EQ(subnormals(lin.adamVWeight().data(), lin.adamVWeight().size()),
              0u);
    EXPECT_EQ(subnormals(lin.adamMBias().data(), lin.adamMBias().size()), 0u);
    EXPECT_EQ(subnormals(lin.adamVBias().data(), lin.adamVBias().size()), 0u);
    EXPECT_EQ(lin.adamMWeight()(2, 0), 0.0f);
    EXPECT_EQ(lin.adamMWeight()(2, 1), 0.0f);

    // Recorded before the flush existed, when row 2's first moments
    // ended the run subnormal: the weights kept every bit.
    std::uint64_t h = twig::common::fnv1a(
        lin.weight().data(), lin.weight().size() * sizeof(float));
    h = twig::common::fnv1a(lin.bias().data(),
                            lin.bias().size() * sizeof(float), h);
    EXPECT_EQ(h, 0x63c3867f643c1675ULL);
}

TEST(Linear, CopyParamsMakesOutputsEqual)
{
    Rng rng(8);
    Linear a(3, 3, rng), b(3, 3, rng);
    b.copyParamsFrom(a);
    Matrix x(2, 3, 0.7f), ya, yb;
    a.forward(x, ya);
    b.forward(x, yb);
    for (std::size_t i = 0; i < ya.size(); ++i)
        EXPECT_FLOAT_EQ(ya.raw()[i], yb.raw()[i]);
}

TEST(Linear, ReinitializeChangesWeights)
{
    Rng rng(9);
    Linear lin(4, 4, rng);
    const Matrix before = lin.weight();
    lin.reinitialize(rng);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i)
        changed += before.raw()[i] != lin.weight().raw()[i];
    EXPECT_GT(changed, before.size() / 2);
}

TEST(Linear, SaveLoadRoundTrip)
{
    Rng rng(10);
    Linear a(3, 2, rng), b(3, 2, rng);
    std::stringstream ss;
    a.save(ss);
    b.load(ss);
    Matrix x(1, 3, 0.3f), ya, yb;
    a.forward(x, ya);
    b.forward(x, yb);
    for (std::size_t i = 0; i < ya.size(); ++i)
        EXPECT_FLOAT_EQ(ya.raw()[i], yb.raw()[i]);
}

TEST(Linear, LoadTruncatedStreamThrows)
{
    Rng rng(11);
    Linear a(3, 2, rng);
    std::stringstream ss("short");
    EXPECT_THROW(a.load(ss), twig::common::FatalError);
}

TEST(ReLU, ForwardClampsNegatives)
{
    ReLU relu;
    Matrix x(1, 4), y;
    x(0, 0) = -1.0f;
    x(0, 1) = 0.0f;
    x(0, 2) = 2.0f;
    x(0, 3) = -0.1f;
    relu.forward(x, y);
    EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(y(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(y(0, 3), 0.0f);
}

TEST(ReLU, BackwardMasksGradient)
{
    ReLU relu;
    Matrix x(1, 3), y;
    x(0, 0) = -1.0f;
    x(0, 1) = 1.0f;
    x(0, 2) = 3.0f;
    relu.forward(x, y);
    Matrix dy(1, 3, 5.0f), dx;
    relu.backward(dy, dx);
    EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx(0, 1), 5.0f);
    EXPECT_FLOAT_EQ(dx(0, 2), 5.0f);
}

TEST(Dropout, IdentityInEvalMode)
{
    Rng rng(12);
    Dropout drop(0.5f);
    Matrix x(2, 3, 1.5f), y;
    drop.forward(x, y, false, rng);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.raw()[i], 1.5f);
}

TEST(Dropout, ZeroRateIsIdentityEvenInTrain)
{
    Rng rng(13);
    Dropout drop(0.0f);
    Matrix x(2, 3, 2.0f), y;
    drop.forward(x, y, true, rng);
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_FLOAT_EQ(y.raw()[i], 2.0f);
}

TEST(Dropout, PreservesExpectedValue)
{
    Rng rng(14);
    Dropout drop(0.4f);
    Matrix x(1, 10000, 1.0f), y;
    drop.forward(x, y, true, rng);
    double sum = 0.0;
    std::size_t zeros = 0;
    for (float v : y.raw()) {
        sum += v;
        zeros += v == 0.0f;
    }
    // Inverted dropout: mean preserved, ~40% of entries zeroed.
    EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
    EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
}

TEST(Dropout, BackwardUsesSameMask)
{
    Rng rng(15);
    Dropout drop(0.5f);
    Matrix x(1, 100, 1.0f), y;
    drop.forward(x, y, true, rng);
    Matrix dy(1, 100, 1.0f), dx;
    drop.backward(dy, dx);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_FLOAT_EQ(dx(0, i), y(0, i)); // same mask & scale
}
