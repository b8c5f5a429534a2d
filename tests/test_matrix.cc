/** @file Unit tests for the dense matrix primitives. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "nn/matrix.hh"
#include "oracle/matrix_ref.hh"

using namespace twig::nn;

namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, twig::common::Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.raw()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    return m;
}

void
expectNear(const Matrix &got, const Matrix &want, double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got.raw()[i], want.raw()[i], tol)
            << "element " << i;
}

} // namespace

TEST(Matrix, ConstructAndIndex)
{
    Matrix m(2, 3, 1.5f);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
    m(0, 1) = 7.0f;
    EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
}

TEST(Matrix, FillAndScale)
{
    Matrix m(2, 2);
    m.fill(3.0f);
    m.scaleInPlace(0.5f);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_FLOAT_EQ(m.raw()[i], 1.5f);
}

TEST(Matrix, AddInPlace)
{
    Matrix a(2, 2, 1.0f), b(2, 2, 2.0f);
    a.addInPlace(b);
    EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(a(1, 1), 3.0f);
}

TEST(Matrix, AddShapeMismatchPanics)
{
    Matrix a(2, 2), b(2, 3);
    EXPECT_THROW(a.addInPlace(b), twig::common::PanicError);
}

TEST(Matrix, RowPtrPointsIntoStorage)
{
    Matrix m(3, 4);
    m(2, 1) = 9.0f;
    EXPECT_FLOAT_EQ(m.rowPtr(2)[1], 9.0f);
}

TEST(Matmul, KnownProduct)
{
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    Matrix a(2, 2), b(2, 2), out;
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
    b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
    matmul(a, b, out);
    EXPECT_FLOAT_EQ(out(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(out(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(out(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(out(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes)
{
    Matrix a(1, 3, 1.0f), b(3, 2, 2.0f), out;
    matmul(a, b, out);
    EXPECT_EQ(out.rows(), 1u);
    EXPECT_EQ(out.cols(), 2u);
    EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
}

TEST(Matmul, InnerDimensionMismatchPanics)
{
    Matrix a(2, 3), b(2, 2), out;
    EXPECT_THROW(matmul(a, b, out), twig::common::PanicError);
}

TEST(Matmul, TransposeBMatchesExplicit)
{
    // a [2x3] * b^T where b is [4x3].
    Matrix a(2, 3), b(4, 3), expect, bt(3, 4), out;
    float v = 0.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        a.raw()[i] = v += 1.0f;
    for (std::size_t i = 0; i < b.size(); ++i)
        b.raw()[i] = v -= 0.5f;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            bt(c, r) = b(r, c);
    matmul(a, bt, expect);
    matmulTransposeB(a, b, out);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out.raw()[i], expect.raw()[i], 1e-4);
}

TEST(Matmul, TransposeAMatchesExplicit)
{
    // a^T [3x2] * b [3x4] where a is [3x2].
    Matrix a(3, 2), b(3, 4), at(2, 3), expect, out;
    float v = 1.0f;
    for (std::size_t i = 0; i < a.size(); ++i)
        a.raw()[i] = v *= 1.1f;
    for (std::size_t i = 0; i < b.size(); ++i)
        b.raw()[i] = v -= 0.2f;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            at(c, r) = a(r, c);
    matmul(at, b, expect);
    matmulTransposeA(a, b, out);
    ASSERT_EQ(out.rows(), 2u);
    ASSERT_EQ(out.cols(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_NEAR(out.raw()[i], expect.raw()[i], 1e-4);
}

TEST(Matmul, OutputIsOverwrittenNotAccumulated)
{
    Matrix a(1, 1), b(1, 1), out(1, 1, 99.0f);
    a(0, 0) = 2.0f;
    b(0, 0) = 3.0f;
    matmul(a, b, out);
    EXPECT_FLOAT_EQ(out(0, 0), 6.0f);
}

TEST(MatrixResize, KeepsCapacityAndSkipsZeroFill)
{
    Matrix m(8, 8, 7.0f);
    const float *storage = m.data();
    // Shrinking must not reallocate: scratch matrices cycle between
    // steady-state shapes without touching the heap.
    m.resize(4, 4);
    EXPECT_EQ(m.data(), storage);
    EXPECT_EQ(m.rows(), 4u);
    EXPECT_EQ(m.cols(), 4u);
    // Contents are unspecified, but the old storage was NOT zeroed —
    // that is the contract change callers rely on for speed.
    EXPECT_FLOAT_EQ(m.raw()[0], 7.0f);
    // Growing back within capacity must not reallocate either.
    m.resize(8, 8);
    EXPECT_EQ(m.data(), storage);
    // Explicit zeroing is the caller's job now.
    m.zero();
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_FLOAT_EQ(m.raw()[i], 0.0f);
}

// ---------------------------------------------------------------------------
// Randomized equivalence of the tiled kernels against the naive
// reference implementation, over shapes chosen to hit every edge of
// the register tiling: 1x1, tall-skinny, wide, and dims that are not
// multiples of the 6x16 tile.
// ---------------------------------------------------------------------------

struct Shape
{
    std::size_t m, k, n;
};

class TiledKernelEquivalence : public ::testing::TestWithParam<Shape>
{
};

TEST_P(TiledKernelEquivalence, MatmulMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 73856093 + k * 19349663 + n * 83492791);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(k, n, rng);
    Matrix want, got(3, 3, 42.0f); // stale shape/content must not leak
    reference::matmul(a, b, want);
    matmul(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, TransposeBMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 2654435761 + k * 40503 + n);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(n, k, rng);
    Matrix want, got;
    reference::matmulTransposeB(a, b, want);
    matmulTransposeB(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, TransposeAMatchesReference)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m * 31 + k * 37 + n * 41);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(m, n, rng);
    Matrix want, got;
    reference::matmulTransposeA(a, b, want);
    matmulTransposeA(a, b, got);
    expectNear(got, want, 1e-3);
}

TEST_P(TiledKernelEquivalence, SparseAMatchesReferenceOnOneHotRows)
{
    const auto [m, k, n] = GetParam();
    twig::common::Rng rng(m + k + n);
    // One-hot rows (one-hot state slices): the reference kernel skips
    // their zeros, the tiled kernel multiplies through them.
    Matrix a(m, k, 0.0f);
    for (std::size_t i = 0; i < m; ++i)
        a(i, rng.uniformInt(k)) = 1.0f;
    const Matrix b = randomMatrix(k, n, rng);
    Matrix want, got;
    reference::matmul(a, b, want);
    matmul(a, b, got);
    expectNear(got, want, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledKernelEquivalence,
    ::testing::Values(Shape{1, 1, 1},        // degenerate
                      Shape{1, 7, 1},        // single dot product
                      Shape{5, 3, 2},        // below one tile
                      Shape{6, 8, 16},       // exactly one row-tile
                      Shape{7, 11, 17},      // one past the tile edges
                      Shape{64, 1, 64},      // K=1
                      Shape{129, 2, 3},      // tall-skinny
                      Shape{3, 2, 130},      // short-wide
                      Shape{64, 512, 256},   // BDQ trunk shape
                      Shape{37, 61, 43}),    // odd everything
    [](const ::testing::TestParamInfo<Shape> &info) {
        return std::to_string(info.param.m) + "x" +
            std::to_string(info.param.k) + "x" +
            std::to_string(info.param.n);
    });

TEST(FusedKernels, TransposeAAccumAddsIntoOut)
{
    twig::common::Rng rng(99);
    const Matrix a = randomMatrix(13, 9, rng);
    const Matrix b = randomMatrix(13, 21, rng);
    Matrix grad(9, 21, 1.25f); // pre-existing gradient accumulation
    Matrix product;
    reference::matmulTransposeA(a, b, product);
    matmulTransposeAAccum(a, b, grad);
    for (std::size_t i = 0; i < grad.size(); ++i)
        ASSERT_NEAR(grad.raw()[i], 1.25f + product.raw()[i], 1e-3);
}

TEST(FusedKernels, TransposeAAccumRejectsWrongShape)
{
    Matrix a(4, 3), b(4, 5), out(2, 5);
    EXPECT_THROW(matmulTransposeAAccum(a, b, out),
                 twig::common::PanicError);
}

TEST(FusedKernels, MatmulBiasMatchesSeparatePasses)
{
    twig::common::Rng rng(7);
    const Matrix x = randomMatrix(19, 23, rng);
    const Matrix w = randomMatrix(23, 33, rng);
    std::vector<float> bias(33);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix want;
    reference::matmul(x, w, want);
    for (std::size_t r = 0; r < want.rows(); ++r)
        for (std::size_t c = 0; c < want.cols(); ++c)
            want(r, c) += bias[c];

    Matrix got;
    matmulBias(x, w, bias, got);
    expectNear(got, want, 1e-3);
}

TEST(FusedKernels, MatmulBiasReluClampsAndRecordsMask)
{
    twig::common::Rng rng(11);
    const Matrix x = randomMatrix(18, 10, rng);
    const Matrix w = randomMatrix(10, 27, rng);
    std::vector<float> bias(27);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix pre;
    matmulBias(x, w, bias, pre);

    Matrix got;
    std::vector<unsigned char> mask;
    matmulBiasRelu(x, w, bias, got, mask);
    ASSERT_EQ(mask.size(), pre.size());
    for (std::size_t i = 0; i < pre.size(); ++i) {
        const float v = pre.raw()[i];
        ASSERT_FLOAT_EQ(got.raw()[i], v > 0.0f ? v : 0.0f);
        ASSERT_EQ(mask[i], v > 0.0f ? 1 : 0);
    }
}

// ---------------------------------------------------------------------------
// Tile-position exactness. The goldens and batched cohort inference
// rely on an element's bits not depending on which tile computed it:
// a full 6-row block, an m % 6 edge block, a full 16-column tile or
// the padded n % 16 edge. So every row of each product must be
// bit-equal to the 1-row product of that row, and every column to the
// product against a one-column slice of B, on every ISA version of the
// kernel.
// ---------------------------------------------------------------------------

namespace {

Matrix
rowOf(const Matrix &m, std::size_t r)
{
    Matrix out(1, m.cols());
    std::copy_n(m.rowPtr(r), m.cols(), out.rowPtr(0));
    return out;
}

Matrix
colOf(const Matrix &m, std::size_t c)
{
    Matrix out(m.rows(), 1);
    for (std::size_t r = 0; r < m.rows(); ++r)
        out(r, 0) = m(r, c);
    return out;
}

/** Row r of @p whole must carry exactly the bits of @p single. */
void
expectRowBits(const Matrix &whole, std::size_t r, const Matrix &single)
{
    ASSERT_EQ(single.rows(), 1u);
    ASSERT_EQ(single.cols(), whole.cols());
    EXPECT_EQ(std::memcmp(whole.rowPtr(r), single.data(),
                          single.size() * sizeof(float)),
              0)
        << "row " << r;
}

/** Column c of @p whole must carry exactly the bits of @p single. */
void
expectColBits(const Matrix &whole, std::size_t c, const Matrix &single)
{
    ASSERT_EQ(single.rows(), whole.rows());
    ASSERT_EQ(single.cols(), 1u);
    const Matrix col = colOf(whole, c);
    EXPECT_EQ(std::memcmp(col.data(), single.data(),
                          single.size() * sizeof(float)),
              0)
        << "column " << c;
}

template <typename T>
std::vector<T>
sliceOf(const std::vector<T> &v, std::size_t from, std::size_t n)
{
    return std::vector<T>(v.begin() + from, v.begin() + from + n);
}

} // namespace

class TileExactness
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>>
{
};

TEST_P(TileExactness, RowsAndColumnsMatchSlices)
{
    const auto [m, n, k] = GetParam();
    twig::common::Rng rng(m * 1000003 + n * 1009 + k);
    const Matrix a = randomMatrix(m, k, rng);
    const Matrix b = randomMatrix(k, n, rng);
    std::vector<float> bias(n);
    for (auto &v : bias)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));

    Matrix got, one;
    std::vector<unsigned char> mask, one_mask;

    // matmul
    matmul(a, b, got);
    for (std::size_t r = 0; r < m; ++r) {
        matmul(rowOf(a, r), b, one);
        expectRowBits(got, r, one);
    }
    for (std::size_t c = 0; c < n; ++c) {
        matmul(a, colOf(b, c), one);
        expectColBits(got, c, one);
    }

    // matmulBias
    matmulBias(a, b, bias, got);
    for (std::size_t r = 0; r < m; ++r) {
        matmulBias(rowOf(a, r), b, bias, one);
        expectRowBits(got, r, one);
    }
    for (std::size_t c = 0; c < n; ++c) {
        matmulBias(a, colOf(b, c), sliceOf(bias, c, 1), one);
        expectColBits(got, c, one);
    }

    // matmulBiasRelu: values and mask
    matmulBiasRelu(a, b, bias, got, mask);
    for (std::size_t r = 0; r < m; ++r) {
        matmulBiasRelu(rowOf(a, r), b, bias, one, one_mask);
        expectRowBits(got, r, one);
        EXPECT_EQ(sliceOf(mask, r * n, n), one_mask) << "mask row " << r;
    }
    for (std::size_t c = 0; c < n; ++c) {
        matmulBiasRelu(a, colOf(b, c), sliceOf(bias, c, 1), one,
                       one_mask);
        expectColBits(got, c, one);
        for (std::size_t r = 0; r < m; ++r)
            EXPECT_EQ(mask[r * n + c], one_mask[r]) << "mask " << r << ","
                                                    << c;
    }

    // matmulTransposeB: out = a * bt^T with bt [n x k]
    Matrix bt(n, k);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < k; ++c)
            bt(r, c) = b(c, r);
    matmulTransposeB(a, bt, got);
    for (std::size_t r = 0; r < m; ++r) {
        matmulTransposeB(rowOf(a, r), bt, one);
        expectRowBits(got, r, one);
    }
    for (std::size_t c = 0; c < n; ++c) {
        matmulTransposeB(a, rowOf(bt, c), one);
        expectColBits(got, c, one);
    }

    // matmulTransposeAAccum: out += at^T * b with at [k x m], into a
    // nonzero out.
    Matrix at(k, m);
    for (std::size_t r = 0; r < k; ++r)
        for (std::size_t c = 0; c < m; ++c)
            at(r, c) = a(c, r);
    const Matrix init = randomMatrix(m, n, rng);
    got = init;
    matmulTransposeAAccum(at, b, got);
    for (std::size_t r = 0; r < m; ++r) {
        one = rowOf(init, r);
        matmulTransposeAAccum(colOf(at, r), b, one);
        expectRowBits(got, r, one);
    }
    for (std::size_t c = 0; c < n; ++c) {
        one = colOf(init, c);
        matmulTransposeAAccum(at, colOf(b, c), one);
        expectColBits(got, c, one);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TileExactness,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 3, 4, 5, 6, 7, 12, 13, 32, 37),
        ::testing::Values<std::size_t>(1, 2, 9, 15, 16, 17, 18, 32, 33,
                                       64),
        ::testing::Values<std::size_t>(1, 11, 32, 64)),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "x" +
            std::to_string(std::get<1>(info.param)) + "x" +
            std::to_string(std::get<2>(info.param));
    });
