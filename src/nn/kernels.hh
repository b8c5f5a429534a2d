/**
 * @file
 * Elementwise kernels of the BDQ train step: Adam, ReLU backward, the
 * in-place add and scale, and the bias-gradient column sum.
 *
 * Each kernel is compiled once per ISA level (TWIG_KERNEL_CLONES), like
 * the GEMM in matrix.cc, and performs per element exactly the
 * operations of a scalar loop built for baseline x86-64: kernels.cc is
 * compiled without floating-point contraction, so no clone fuses a
 * multiply into an add, and without errno-setting math, so sqrt is the
 * bare IEEE instruction (DESIGN.md section 7, "Elementwise kernels").
 */

#ifndef TWIG_NN_KERNELS_HH
#define TWIG_NN_KERNELS_HH

#include <cstddef>

#include "common/isa.hh"

// Where per-ISA versions are built (common/isa.hh), each kernel is
// cloned per ISA level; the GEMM (matrix.cc) declares its versions by
// hand.
#if TWIG_ISA_VERSIONS
#define TWIG_KERNEL_CLONES                                                  \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",        \
                                 "default")))
#else
#define TWIG_KERNEL_CLONES
#endif

// The arrays passed to one call must not overlap (the definitions take
// them __restrict).
namespace twig::nn::kernels {

/** x[i] += y[i] for i < n. */
void addInPlace(float *x, const float *y, std::size_t n);

/** x[i] *= s for i < n. */
void scaleInPlace(float *x, float s, std::size_t n);

/** dx[i] = mask[i] ? dy[i] : 0 for i < n. */
void reluBackward(const float *dy, const unsigned char *mask, float *dx,
                  std::size_t n);

/**
 * sums[c] += x[r][c] over the rows of the row-major [rows x cols]
 * matrix @p x, rows ascending (the bias gradient of a Linear layer).
 */
void addColumnSums(const float *x, std::size_t rows, std::size_t cols,
                   float *sums);

/** The per-step constants of one Adam update. */
struct AdamStep
{
    float learningRate;
    float beta1, beta2;
    float epsilon;
    float b1t; ///< bias correction 1 - beta1^t
    float b2t; ///< bias correction 1 - beta2^t
};

/**
 * One Adam update of @p n parameters from their gradients. Moments
 * that fall below FLT_MIN are flushed to zero (DESIGN.md section 7,
 * "Adam moment flush").
 */
void adam(float *param, float *m, float *v, const float *grad,
          std::size_t n, const AdamStep &s);

} // namespace twig::nn::kernels

#endif // TWIG_NN_KERNELS_HH
