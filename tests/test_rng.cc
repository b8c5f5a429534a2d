/** @file Unit tests for common::Rng (determinism and distributions). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"

using twig::common::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const auto x0 = a();
    const auto x1 = a();
    a.reseed(7);
    EXPECT_EQ(a(), x0);
    EXPECT_EQ(a(), x1);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 2.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 2.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(6);
        EXPECT_LT(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntClosedRange)
{
    Rng rng(17);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-2, 3);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMoments)
{
    Rng rng(19);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShifted)
{
    Rng rng(23);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, LognormalMeanAndCv)
{
    Rng rng(31);
    const int n = 200000;
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = rng.lognormalMean(5.0, 0.8);
        EXPECT_GT(x, 0.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(std::sqrt(var) / mean, 0.8, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(37);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(41);
    Rng b = a.fork();
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a() == b();
    EXPECT_LT(equal, 3);
}

class RngUniformIntBound : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RngUniformIntBound, NeverReachesBound)
{
    Rng rng(GetParam() * 1000 + 1);
    const std::uint64_t n = GetParam();
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.uniformInt(n), n);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformIntBound,
                         ::testing::Values(1, 2, 3, 7, 18, 100, 1 << 20));
