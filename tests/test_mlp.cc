/** @file Unit tests for the MLP regressor. */

#include <gtest/gtest.h>

#include <cmath>

#include "bench/mlp.hh"
#include "common/error.hh"
#include "common/rng.hh"

using namespace twig::nn;
using twig::common::Rng;

TEST(Mlp, FitsLinearFunction)
{
    Rng rng(1);
    MlpConfig cfg;
    cfg.inputDim = 1;
    cfg.hidden = {16};
    cfg.outputDim = 1;
    cfg.adam.learningRate = 0.01f;
    Mlp mlp(cfg, rng);

    Matrix x(32, 1), t(32, 1);
    float last = 1e30f;
    for (int epoch = 0; epoch < 400; ++epoch) {
        for (std::size_t i = 0; i < 32; ++i) {
            const float xi = static_cast<float>(rng.uniform(-1.0, 1.0));
            x(i, 0) = xi;
            t(i, 0) = 2.0f * xi + 1.0f;
        }
        last = mlp.trainStep(x, t);
    }
    EXPECT_LT(last, 0.01f);
    const auto y = mlp.predictOne({0.5f});
    EXPECT_NEAR(y[0], 2.0f, 0.3f);
}

TEST(Mlp, FitsNonlinearFunction)
{
    Rng rng(2);
    MlpConfig cfg;
    cfg.inputDim = 2;
    cfg.hidden = {32, 16};
    cfg.outputDim = 1;
    cfg.adam.learningRate = 0.005f;
    Mlp mlp(cfg, rng);

    // XOR-like target: sign(x0) * sign(x1).
    Matrix x(64, 2), t(64, 1);
    float loss = 1e30f;
    for (int epoch = 0; epoch < 1500; ++epoch) {
        for (std::size_t i = 0; i < 64; ++i) {
            const float a = static_cast<float>(rng.uniform(-1.0, 1.0));
            const float b = static_cast<float>(rng.uniform(-1.0, 1.0));
            x(i, 0) = a;
            x(i, 1) = b;
            t(i, 0) = (a > 0) == (b > 0) ? 1.0f : -1.0f;
        }
        loss = mlp.trainStep(x, t);
    }
    EXPECT_LT(loss, 0.15f);
    EXPECT_GT(mlp.predictOne({0.8f, 0.8f})[0], 0.4f);
    EXPECT_LT(mlp.predictOne({0.8f, -0.8f})[0], -0.4f);
}

TEST(Mlp, PredictIsDeterministic)
{
    Rng rng(3);
    MlpConfig cfg;
    cfg.inputDim = 3;
    cfg.hidden = {8};
    cfg.outputDim = 2;
    cfg.dropoutRate = 0.5f; // must not fire in eval mode
    Mlp mlp(cfg, rng);
    const auto y1 = mlp.predictOne({0.1f, 0.2f, 0.3f});
    const auto y2 = mlp.predictOne({0.1f, 0.2f, 0.3f});
    ASSERT_EQ(y1.size(), 2u);
    EXPECT_FLOAT_EQ(y1[0], y2[0]);
    EXPECT_FLOAT_EQ(y1[1], y2[1]);
}

TEST(Mlp, ParamCountMatchesArchitecture)
{
    Rng rng(4);
    MlpConfig cfg;
    cfg.inputDim = 5;
    cfg.hidden = {7, 3};
    cfg.outputDim = 2;
    Mlp mlp(cfg, rng);
    // (5*7+7) + (7*3+3) + (3*2+2) = 42 + 24 + 8 = 74
    EXPECT_EQ(mlp.paramCount(), 74u);
}

TEST(Mlp, NoHiddenLayersIsLinearModel)
{
    Rng rng(5);
    MlpConfig cfg;
    cfg.inputDim = 1;
    cfg.hidden = {};
    cfg.outputDim = 1;
    cfg.adam.learningRate = 0.05f;
    Mlp mlp(cfg, rng);
    Matrix x(16, 1), t(16, 1);
    float loss = 1e30f;
    for (int epoch = 0; epoch < 300; ++epoch) {
        for (std::size_t i = 0; i < 16; ++i) {
            const float xi = static_cast<float>(rng.uniform(-1.0, 1.0));
            x(i, 0) = xi;
            t(i, 0) = -3.0f * xi + 0.5f;
        }
        loss = mlp.trainStep(x, t);
    }
    EXPECT_LT(loss, 1e-3f);
}

TEST(Mlp, InputValidation)
{
    Rng rng(6);
    MlpConfig cfg;
    cfg.inputDim = 0;
    EXPECT_THROW(Mlp(cfg, rng), twig::common::FatalError);

    MlpConfig ok;
    ok.inputDim = 2;
    Mlp mlp(ok, rng);
    EXPECT_THROW(mlp.predictOne({1.0f}), twig::common::FatalError);

    Matrix x(2, 2), t(3, 1);
    EXPECT_THROW(mlp.trainStep(x, t), twig::common::FatalError);
}
