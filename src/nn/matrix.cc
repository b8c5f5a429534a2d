/**
 * @file
 * Register-blocked, cache-tiled GEMM kernels.
 *
 * One canonical inner kernel computes C (+)= A * B for row-major
 * operands, walking MR x NR register tiles of C and streaming the full
 * K extent through each tile so the accumulators never leave
 * registers. The transpose entry points pack the transposed operand
 * into a per-thread scratch panel and reuse the same kernel, and the
 * fused epilogues (bias, bias+ReLU) are applied at tile-store time so
 * a Linear layer's forward pass is a single memory pass.
 *
 * Tiling parameters (see DESIGN.md "Performance architecture"):
 *  - MR=6 rows of A per tile: each loaded B row is reused six times
 *    from registers, cutting B traffic 6x versus the row-at-a-time
 *    reference kernel.
 *  - NR=16 columns: 6x16 accumulators fit the 16 vector registers of
 *    AVX2 (12 accumulators + B + broadcast) and divide evenly into
 *    SSE/AVX/AVX-512 lanes.
 *  - No K blocking: every GEMM in this repository has K <= 512, so the
 *    B panel a tile streams ([K x NR] <= 32 KiB) stays cache-resident;
 *    deeper blocking would add packing cost for nothing.
 *
 * The kernel is compiled once per ISA level via GCC function
 * multiversioning (target_clones) where available: the binary stays
 * portable (SSE2 baseline) and the loader picks the AVX2/FMA or
 * AVX-512 clone at runtime.
 */

#include "nn/matrix.hh"

#include <algorithm>

namespace twig::nn {

namespace {

// ThreadSanitizer instruments the ifunc resolver target_clones
// emits, and resolvers run during relocation — before the TSan
// runtime's thread state exists — so any TSan build that links the
// kernel would crash before main. Under TSan the default-ISA kernel
// is used instead.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define TWIG_KERNEL_CLONES                                                  \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",        \
                                 "default")))
#else
#define TWIG_KERNEL_CLONES
#endif

constexpr std::size_t MR = 6;  ///< register-tile rows
constexpr std::size_t NR = 16; ///< register-tile columns

/** Epilogue applied when a C tile row leaves the accumulators. */
struct Epilogue
{
    bool accumulate = false;          ///< C += acc instead of C = acc
    const float *bias = nullptr;      ///< add bias[j] per column
    unsigned char *reluMask = nullptr; ///< clamp at 0, record mask
};

/**
 * Store one accumulator row into C, applying the epilogue. Kept
 * always_inline so it is compiled inside each ISA clone of the kernel
 * rather than as a separate default-ISA function; the hot path calls
 * it with the literal NR so every store loop has a constant trip
 * count (a runtime bound here demotes the whole tile to narrow
 * vectors — measured 10x slower).
 */
__attribute__((always_inline)) inline void
storeRow(float *__restrict crow, const float *__restrict acc,
         std::size_t j0, std::size_t nr, std::size_t row_index,
         std::size_t ldc, const Epilogue &ep)
{
    if (ep.accumulate) {
        for (std::size_t q = 0; q < nr; ++q)
            crow[q] += acc[q];
        return;
    }
    if (ep.reluMask != nullptr) {
        unsigned char *mrow = ep.reluMask + row_index * ldc + j0;
        for (std::size_t q = 0; q < nr; ++q) {
            const float v = acc[q] + ep.bias[j0 + q];
            const bool pos = v > 0.0f;
            mrow[q] = pos ? 1 : 0;
            crow[q] = pos ? v : 0.0f;
        }
        return;
    }
    if (ep.bias != nullptr) {
        for (std::size_t q = 0; q < nr; ++q)
            crow[q] = acc[q] + ep.bias[j0 + q];
        return;
    }
    for (std::size_t q = 0; q < nr; ++q)
        crow[q] = acc[q];
}

/**
 * The canonical kernel: C (+)= A[m x k] * B[k x n], all row-major with
 * leading dimensions lda/ldb/ldc. Every public GEMM below lands here.
 *
 * The full-tile block is kept entirely free of runtime trip counts
 * (loop bounds are the constants MR/NR, remainders live in their own
 * blocks): that is what lets the auto-vectoriser keep the 6x16
 * accumulator in vector registers across the whole K extent.
 */
TWIG_KERNEL_CLONES void
gemmKernel(std::size_t m, std::size_t n, std::size_t k,
           const float *__restrict a, std::size_t lda,
           const float *__restrict b, std::size_t ldb,
           float *__restrict c, std::size_t ldc, const Epilogue ep)
{
    std::size_t i = 0;
    // Full MR-row blocks.
    for (; i + MR <= m; i += MR) {
        const float *ap = a + i * lda;
        std::size_t j = 0;
        // Hot path: all trip counts constant; acc stays in registers
        // across all of K.
        for (; j + NR <= n; j += NR) {
            float acc[MR][NR] = {};
            const float *bp = b + j;
            for (std::size_t p = 0; p < k; ++p) {
                const float *__restrict brow = bp + p * ldb;
                for (std::size_t r = 0; r < MR; ++r) {
                    const float av = ap[r * lda + p];
                    for (std::size_t q = 0; q < NR; ++q)
                        acc[r][q] += av * brow[q];
                }
            }
            for (std::size_t r = 0; r < MR; ++r)
                storeRow(c + (i + r) * ldc + j, acc[r], j, NR, i + r,
                         ldc, ep);
        }
        // Column remainder (n % NR) for this row block.
        if (j < n) {
            const std::size_t nr = n - j;
            float acc[MR][NR] = {};
            for (std::size_t p = 0; p < k; ++p) {
                const float *__restrict brow = b + p * ldb + j;
                for (std::size_t r = 0; r < MR; ++r) {
                    const float av = ap[r * lda + p];
                    for (std::size_t q = 0; q < nr; ++q)
                        acc[r][q] += av * brow[q];
                }
            }
            for (std::size_t r = 0; r < MR; ++r)
                storeRow(c + (i + r) * ldc + j, acc[r], j, nr, i + r,
                         ldc, ep);
        }
    }
    // Remainder rows (m % MR), one row of register tiles at a time.
    for (; i < m; ++i) {
        const float *ap = a + i * lda;
        std::size_t j = 0;
        for (; j + NR <= n; j += NR) {
            float acc[NR] = {};
            for (std::size_t p = 0; p < k; ++p) {
                const float av = ap[p];
                const float *__restrict brow = b + p * ldb + j;
                for (std::size_t q = 0; q < NR; ++q)
                    acc[q] += av * brow[q];
            }
            storeRow(c + i * ldc + j, acc, j, NR, i, ldc, ep);
        }
        if (j < n) {
            const std::size_t nr = n - j;
            float acc[NR] = {};
            for (std::size_t p = 0; p < k; ++p) {
                const float av = ap[p];
                const float *__restrict brow = b + p * ldb + j;
                for (std::size_t q = 0; q < nr; ++q)
                    acc[q] += av * brow[q];
            }
            storeRow(c + i * ldc + j, acc, j, nr, i, ldc, ep);
        }
    }
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
matmul(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.rows(), "matmul: inner dims differ");
    out.resize(a.rows(), b.cols());
    gemmKernel(a.rows(), b.cols(), a.cols(), a.data(), a.cols(),
               b.data(), b.cols(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.cols(), "matmulTransposeB: dims differ");
    out.resize(a.rows(), b.rows());
    const float *bt = packTranspose(b); // [k x n]
    gemmKernel(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), bt,
               b.rows(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(), "matmulTransposeA: dims differ");
    out.resize(a.cols(), b.cols());
    const float *at = packTranspose(a); // [k x m]
    gemmKernel(a.cols(), b.cols(), a.rows(), at, a.rows(), b.data(),
               b.cols(), out.data(), out.cols(), Epilogue{});
}

void
matmulTransposeAAccum(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(),
                    "matmulTransposeAAccum: dims differ");
    common::panicIf(out.rows() != a.cols() || out.cols() != b.cols(),
                    "matmulTransposeAAccum: out must be [k x n]");
    const float *at = packTranspose(a);
    Epilogue ep;
    ep.accumulate = true;
    gemmKernel(a.cols(), b.cols(), a.rows(), at, a.rows(), b.data(),
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
    gemmKernel(a.rows(), w.cols(), a.cols(), a.data(), a.cols(),
               w.data(), w.cols(), out.data(), out.cols(), ep);
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
    gemmKernel(a.rows(), w.cols(), a.cols(), a.data(), a.cols(),
               w.data(), w.cols(), out.data(), out.cols(), ep);
}

} // namespace twig::nn
