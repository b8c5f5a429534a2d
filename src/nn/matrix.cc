/**
 * @file
 * Register-blocked, cache-tiled GEMM kernels.
 *
 * One micro-kernel, tile<W, R, Edge>, computes an R x NR block of
 * C (+)= A * B (1 <= R <= MR). Its accumulators are W-float vector
 * values (GCC vector extensions) that stay in registers across the
 * whole K extent, and the epilogue (plain store, bias, bias+ReLU with
 * mask, or accumulate into C) is applied to them before the tile's
 * single store. The m % MR rows instantiate the tile for their own row
 * count; the n % NR columns run the same full-width tile over a
 * zero-padded copy of B's last columns and store only the live ones.
 * A is read through a row and a column stride, so A^T needs no
 * packing; matmulTransposeB packs B^T into a per-thread panel.
 *
 * Tiling parameters (see DESIGN.md "Performance architecture"):
 *  - MR=6 rows of A per tile: each loaded B row is reused six times
 *    from registers, cutting B traffic 6x versus the row-at-a-time
 *    reference kernel.
 *  - NR=16 columns: one AVX-512 register or two AVX2 registers per
 *    accumulator row, so 6 rows take 6 of AVX-512's 32 registers or
 *    12 of AVX2's 16 (plus the B row and the broadcast A element).
 *  - No K blocking: every GEMM in this repository has K <= 512, so the
 *    B panel a tile streams ([K x NR] <= 32 KiB) stays cache-resident;
 *    deeper blocking would add packing cost for nothing.
 *
 * The kernel has one version per ISA level, each at its own register
 * width (gemmKernel below): the binary stays portable (SSE2 baseline)
 * and the loader picks the AVX2/FMA or AVX-512 version at runtime.
 * Bits: every C element accumulates a[i][p] * b[p][j] for p ascending
 * from zero, one multiply-add per step, whichever tile computes it.
 * The v3/v4 versions fuse each multiply-add; the baseline version has
 * no FMA and rounds the product first.
 */

#include "nn/matrix.hh"

#include <algorithm>
#include <cstring>

#include "common/isa.hh"
#include "nn/kernels.hh"

namespace twig::nn {

namespace {

constexpr std::size_t MR = 6;  ///< register-tile rows
constexpr std::size_t NR = 16; ///< register-tile columns

/**
 * The vector types of a kernel version whose registers hold W floats
 * (GCC vector extensions). A tile row is NR / W such vectors.
 */
template <std::size_t W>
struct Simd
{
    static_assert(NR % W == 0);
    static constexpr std::size_t kPerRow = NR / W;
    typedef float Vec __attribute__((vector_size(W * sizeof(float))));
    /** Lane mask of a Vec comparison (all ones where true). */
    typedef int Mask __attribute__((vector_size(W * sizeof(int))));
    typedef unsigned char Bytes __attribute__((vector_size(W)));
    // Unaligned, aliasing views of float and byte arrays (as GCC's own
    // __m512_u): a tile row of B or C starts at any float.
    typedef float VecU __attribute__((vector_size(W * sizeof(float)),
                                      aligned(1), may_alias));
    typedef int MaskU
        __attribute__((vector_size(W * sizeof(int)), aligned(1), may_alias));
    typedef unsigned char BytesU
        __attribute__((vector_size(W), aligned(1), may_alias));
};

/** Lane numbers 0 .. NR - 1, loaded W at a time to mask the column edge. */
alignas(64) constexpr int kLane[NR] = {0, 1, 2,  3,  4,  5,  6,  7,
                                       8, 9, 10, 11, 12, 13, 14, 15};

/** Epilogue applied when a C tile row leaves the accumulators. */
struct Epilogue
{
    bool accumulate = false;          ///< C += acc instead of C = acc
    const float *bias = nullptr;      ///< add bias[j] per column
    unsigned char *reluMask = nullptr; ///< clamp at 0, record mask
};

/**
 * One GEMM: C (+)= A[m x k] * B[k x n]. B and C are row-major with
 * leading dimensions ldb/ldc; A is read through two strides, so A^T
 * needs no packing: A[r][p] = a[r * aRow + p * aCol].
 */
struct Operands
{
    std::size_t m, n, k;
    const float *a;
    std::size_t aRow, aCol;
    const float *b;
    std::size_t ldb;
    /** [k x NR] scratch for B's last n % NR columns (fillEdge). */
    float *edge;
    float *c;
    std::size_t ldc;
    Epilogue ep;
};

/**
 * Copy n < NR elements with fixed-size moves: two possibly overlapping
 * blocks of the largest power of two <= n, so no memcpy call is made.
 */
template <typename T>
__attribute__((always_inline)) inline void
copyShort(const T *src, std::size_t n, T *dst)
{
    static_assert(NR == 16);
    if (n >= 8) {
        std::memcpy(dst, src, 8 * sizeof(T));
        std::memcpy(dst + n - 8, src + n - 8, 8 * sizeof(T));
    } else if (n >= 4) {
        std::memcpy(dst, src, 4 * sizeof(T));
        std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(T));
    } else if (n >= 2) {
        std::memcpy(dst, src, 2 * sizeof(T));
        std::memcpy(dst + n - 2, src + n - 2, 2 * sizeof(T));
    } else if (n == 1) {
        *dst = *src;
    }
}

/**
 * Apply the epilogue to one tile row of accumulators and store its NR
 * columns at @p crow (its ReLU mask at @p mrow). @p bias points at the
 * tile's NR bias columns. Every operand stays in vector registers.
 */
template <std::size_t W>
__attribute__((always_inline)) inline void
storeRow(const typename Simd<W>::Vec (&acc)[Simd<W>::kPerRow], float *crow,
         unsigned char *mrow, const float *bias, const Epilogue &ep)
{
    typedef Simd<W> S;
    typedef typename S::Vec Vec;
    typedef typename S::VecU VecU;
#pragma GCC unroll 4
    for (std::size_t s = 0; s < S::kPerRow; ++s) {
        Vec out = acc[s];
        VecU *cs = reinterpret_cast<VecU *>(crow + s * W);
        if (ep.accumulate) {
            out = *cs + out;
        } else if (ep.reluMask != nullptr) {
            const Vec v =
                out + *reinterpret_cast<const VecU *>(bias + s * W);
            const typename S::Mask pos = v > Vec{};
            out = pos ? v : Vec{};
            *reinterpret_cast<typename S::BytesU *>(mrow + s * W) =
                __builtin_convertvector(pos & 1, typename S::Bytes);
        } else if (ep.bias != nullptr) {
            out = out + *reinterpret_cast<const VecU *>(bias + s * W);
        }
        *cs = out;
    }
}

/**
 * The micro-kernel: rows [i, i + R) x columns [j, j + NR) of C, from
 * the NR-wide panel @p b of B (leading dimension @p ldb) and the
 * tile's NR bias columns. The R x NR accumulators are an array of
 * W-float vectors indexed only by constants once the unroll pragmas
 * have unrolled the r and s loops, so GCC's scalar replacement keeps
 * each in a register across the whole k loop. Each starts at zero and
 * takes one multiply-add per k step, so an element's bits depend on
 * neither R nor the tile's position.
 *
 * An Edge tile holds only the first @p nr < NR columns of C: it runs
 * the same epilogue on a stack copy of its rows, copying C's live
 * columns in (when accumulating) and out with inline moves. All of it
 * follows the k loop, so the loop keeps only its own operands in
 * registers.
 */
template <std::size_t W, std::size_t R, bool Edge>
__attribute__((always_inline)) inline void
tile(const Operands &op, std::size_t i, std::size_t j, const float *b,
     std::size_t ldb, const float *bias, std::size_t nr)
{
    static_assert(R >= 1 && R <= MR);
    typedef Simd<W> S;
    typedef typename S::Vec Vec;
    // The k loop walks one pointer each through A's columns and B's
    // rows and ends on B's: few enough registers that no loop operand
    // is reloaded from the stack.
    const float *a = op.a + i * op.aRow;
    const float *const b_end = b + op.k * ldb;
    Vec acc[R][S::kPerRow] = {};
    for (; b != b_end; b += ldb, a += op.aCol) {
        Vec bp[S::kPerRow];
#pragma GCC unroll 4
        for (std::size_t s = 0; s < S::kPerRow; ++s)
            bp[s] = *reinterpret_cast<const typename S::VecU *>(b + s * W);
#pragma GCC unroll 6
        for (std::size_t r = 0; r < R; ++r) {
            const float av = a[r * op.aRow];
#pragma GCC unroll 4
            for (std::size_t s = 0; s < S::kPerRow; ++s)
                acc[r][s] += av * bp[s];
        }
    }

    float *const crow = op.c + i * op.ldc + j;
    unsigned char *const mrow =
        op.ep.reluMask != nullptr ? op.ep.reluMask + i * op.ldc + j
                                  : nullptr;
    float stage[Edge ? R : 1][NR] = {};
    unsigned char stage_mask[Edge ? R : 1][NR];
    float *c = Edge ? &stage[0][0] : crow;
    unsigned char *mask = Edge && mrow != nullptr ? &stage_mask[0][0] : mrow;
    const std::size_t ldc = Edge ? NR : op.ldc;
    if (Edge && op.ep.accumulate) {
        for (std::size_t r = 0; r < R; ++r)
            copyShort(crow + r * op.ldc, nr, c + r * ldc);
    }
#pragma GCC unroll 6
    for (std::size_t r = 0; r < R; ++r) {
        storeRow<W>(acc[r], c + r * ldc,
                    mask != nullptr ? mask + r * ldc : nullptr, bias,
                    op.ep);
    }
    if (Edge) {
        for (std::size_t r = 0; r < R; ++r) {
            copyShort(c + r * ldc, nr, crow + r * op.ldc);
            if (mask != nullptr)
                copyShort(mask + r * ldc, nr, mrow + r * op.ldc);
        }
    }
}

/** Rows [i, i + R) of C: the full NR-wide tiles, then the column edge
 * over the padded panel. */
template <std::size_t W, std::size_t R>
__attribute__((always_inline)) inline void
rowBlock(const Operands &op, std::size_t i, const float *edge_bias)
{
    const std::size_t nfull = op.n - op.n % NR;
    for (std::size_t j = 0; j < nfull; j += NR) {
        tile<W, R, false>(op, i, j, op.b + j, op.ldb,
                          op.ep.bias != nullptr ? op.ep.bias + j : nullptr,
                          NR);
    }
    if (nfull < op.n) {
        tile<W, R, true>(op, i, nfull, op.edge, NR, edge_bias,
                         op.n - nfull);
    }
}

/**
 * Copy B's last nr = n - nfull < NR columns into the [k x NR] edge
 * panel with the other NR - nr columns zero, so the column edge runs
 * through the full-width tile without reading past B. A row is copied
 * with full-width loads while they stay inside B (the lanes past nr
 * read the start of B's next row and are replaced by zeros); the last
 * rows, where a full-width load would pass B's end, lane by lane.
 */
template <std::size_t W>
__attribute__((always_inline)) inline void
fillEdge(const Operands &op, std::size_t nfull)
{
    typedef Simd<W> S;
    typedef typename S::Vec Vec;
    typedef typename S::VecU VecU;
    if (op.k == 0)
        return;
    const std::size_t nr = op.n - nfull;
    const float *src = op.b + nfull;
    const std::size_t end = (op.k - 1) * op.ldb + nr; // src[0, end) is B
    std::size_t p = 0;
    for (; p < op.k && p * op.ldb + NR <= end; ++p) {
#pragma GCC unroll 4
        for (std::size_t s = 0; s < S::kPerRow; ++s) {
            const Vec v =
                *reinterpret_cast<const VecU *>(src + p * op.ldb + s * W);
            const typename S::Mask live =
                *reinterpret_cast<const typename S::MaskU *>(kLane + s * W) <
                static_cast<int>(nr);
            *reinterpret_cast<VecU *>(op.edge + p * NR + s * W) =
                live ? v : Vec{};
        }
    }
    for (; p < op.k; ++p) {
        float *row = op.edge + p * NR;
#pragma GCC unroll 4
        for (std::size_t s = 0; s < S::kPerRow; ++s)
            *reinterpret_cast<VecU *>(row + s * W) = Vec{};
        for (std::size_t q = 0; q < nr; ++q)
            row[q] = src[p * op.ldb + q];
    }
}

/** The whole GEMM at vector width W: MR-row blocks, then the m % MR
 * rows in one block of their own height. */
template <std::size_t W>
__attribute__((always_inline)) inline void
gemmTiles(const Operands &op)
{
    const std::size_t nfull = op.n - op.n % NR;
    float edge_bias[NR] = {};
    if (nfull < op.n) {
        fillEdge<W>(op, nfull);
        if (op.ep.bias != nullptr)
            std::copy(op.ep.bias + nfull, op.ep.bias + op.n, edge_bias);
    }
    std::size_t i = 0;
    for (; i + MR <= op.m; i += MR)
        rowBlock<W, MR>(op, i, edge_bias);
    switch (op.m - i) {
    case 1: rowBlock<W, 1>(op, i, edge_bias); break;
    case 2: rowBlock<W, 2>(op, i, edge_bias); break;
    case 3: rowBlock<W, 3>(op, i, edge_bias); break;
    case 4: rowBlock<W, 4>(op, i, edge_bias); break;
    case 5: rowBlock<W, 5>(op, i, edge_bias); break;
    default: break;
    }
}

// The canonical kernel, one version per ISA level, each at its own
// register width (C++ function multiversioning: the loader's ifunc
// picks the widest the CPU supports). target_clones would compile one
// width into every clone, and a 64-byte vector has no register in the
// AVX2 or SSE2 clones, so it would live on the stack there.
#if TWIG_ISA_VERSIONS
__attribute__((target("arch=x86-64-v4"))) void
gemmKernel(const Operands &op)
{
    gemmTiles<16>(op);
}

__attribute__((target("arch=x86-64-v3"))) void
gemmKernel(const Operands &op)
{
    gemmTiles<8>(op);
}

__attribute__((target("default")))
#endif
void
gemmKernel(const Operands &op)
{
    gemmTiles<4>(op);
}

/**
 * A per-thread [k x NR] scratch panel for the column edge. It grows to
 * the largest k seen by this thread and is then reused: zero
 * allocations at steady state, and safe under the thread pool because
 * each worker owns its own panel.
 */
float *
edgePanel(std::size_t k)
{
    thread_local std::vector<float> panel;
    if (panel.size() < k * NR)
        panel.resize(k * NR);
    return panel.data();
}

/**
 * C (+)= A[m x k] * B[k x n] through the versioned kernel, with
 * A[r][p] = a[r * a_row + p * a_col].
 */
void
gemm(std::size_t m, std::size_t n, std::size_t k, const float *a,
     std::size_t a_row, std::size_t a_col, const float *b, std::size_t ldb,
     float *c, std::size_t ldc, const Epilogue &ep)
{
    float *edge = n % NR != 0 ? edgePanel(k) : nullptr;
    gemmKernel(
        Operands{m, n, k, a, a_row, a_col, b, ldb, edge, c, ldc, ep});
}

/**
 * Pack src^T ([rows x cols] -> [cols x rows]) into a per-thread scratch
 * panel. The buffer grows to the largest shape seen by this thread and
 * is then reused: zero allocations at steady state, and safe under the
 * thread pool because each worker owns its own panel.
 */
const float *
packTranspose(const Matrix &src)
{
    thread_local std::vector<float> panel;
    const std::size_t rows = src.rows(), cols = src.cols();
    if (panel.size() < rows * cols)
        panel.resize(rows * cols);
    float *dst = panel.data();
    for (std::size_t r = 0; r < rows; ++r) {
        const float *srow = src.rowPtr(r);
        for (std::size_t c = 0; c < cols; ++c)
            dst[c * rows + r] = srow[c];
    }
    return dst;
}

} // namespace

void
Matrix::addInPlace(const Matrix &other)
{
    common::panicIf(rows_ != other.rows_ || cols_ != other.cols_,
                    "Matrix::addInPlace shape mismatch");
    kernels::addInPlace(data_.data(), other.data_.data(), data_.size());
}

void
Matrix::scaleInPlace(float s)
{
    kernels::scaleInPlace(data_.data(), s, data_.size());
}

void
matmul(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.rows(), "matmul: inner dims differ");
    out.resize(a.rows(), b.cols());
    gemm(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1, b.data(),
         b.cols(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.cols(), "matmulTransposeB: dims differ");
    out.resize(a.rows(), b.rows());
    const float *bt = packTranspose(b); // [k x n]
    gemm(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), 1, bt,
         b.rows(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(), "matmulTransposeA: dims differ");
    out.resize(a.cols(), b.cols());
    // A^T[r][p] = a[p][r]: read a through swapped strides.
    gemm(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(), b.data(),
         b.cols(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeAAccum(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(),
                    "matmulTransposeAAccum: dims differ");
    common::panicIf(out.rows() != a.cols() || out.cols() != b.cols(),
                    "matmulTransposeAAccum: out must be [k x n]");
    Epilogue ep;
    ep.accumulate = true;
    gemm(a.cols(), b.cols(), a.rows(), a.data(), 1, a.cols(), b.data(),
         b.cols(), out.data(), out.cols(), ep);
}

void
matmulBias(const Matrix &a, const Matrix &w,
           const std::vector<float> &bias, Matrix &out)
{
    common::panicIf(a.cols() != w.rows(), "matmulBias: inner dims differ");
    common::panicIf(bias.size() != w.cols(),
                    "matmulBias: bias width mismatch");
    out.resize(a.rows(), w.cols());
    Epilogue ep;
    ep.bias = bias.data();
    gemm(a.rows(), w.cols(), a.cols(), a.data(), a.cols(), 1, w.data(),
         w.cols(), out.data(), out.cols(), ep);
}

void
matmulBiasRelu(const Matrix &a, const Matrix &w,
               const std::vector<float> &bias, Matrix &out,
               std::vector<unsigned char> &mask)
{
    common::panicIf(a.cols() != w.rows(),
                    "matmulBiasRelu: inner dims differ");
    common::panicIf(bias.size() != w.cols(),
                    "matmulBiasRelu: bias width mismatch");
    out.resize(a.rows(), w.cols());
    if (mask.size() != out.size())
        mask.resize(out.size());
    Epilogue ep;
    ep.bias = bias.data();
    ep.reluMask = mask.data();
    gemm(a.rows(), w.cols(), a.cols(), a.data(), a.cols(), 1, w.data(),
         w.cols(), out.data(), out.cols(), ep);
}

} // namespace twig::nn
