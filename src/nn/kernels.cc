/**
 * @file
 * Elementwise kernels (see kernels.hh). Plain loops over __restrict
 * pointers, left to GCC's vectoriser in each ISA clone. The CMake
 * options of this file turn contraction and errno-setting math off;
 * both are what keep every clone's bits equal to the baseline
 * scalar loop.
 */

#include "nn/kernels.hh"

#include <cmath>
#include <limits>

namespace twig::nn::kernels {

TWIG_KERNEL_CLONES void
addInPlace(float *__restrict x, const float *__restrict y, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] += y[i];
}

TWIG_KERNEL_CLONES void
scaleInPlace(float *__restrict x, float s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] *= s;
}

TWIG_KERNEL_CLONES void
reluBackward(const float *__restrict dy,
             const unsigned char *__restrict mask, float *__restrict dx,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float g = dy[i];
        dx[i] = mask[i] ? g : 0.0f;
    }
}

TWIG_KERNEL_CLONES void
addColumnSums(const float *__restrict x, std::size_t rows,
              std::size_t cols, float *__restrict sums)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const float *__restrict row = x + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            sums[c] += row[c];
    }
}

namespace {

/**
 * Adam moment below FLT_MIN -> 0. The moments of a column that stops
 * receiving gradient (a BDQ action no minibatch took) decay into
 * subnormals, and every later step would take the CPU's slow path on
 * them. The update a subnormal moment makes is far below half an ulp
 * of any weight, so the flush leaves every weight's bits unchanged,
 * without touching the FP environment (DESIGN.md section 7, "Adam
 * moment flush").
 */
inline float
flushSubnormal(float x)
{
    return std::fabs(x) < std::numeric_limits<float>::min() ? 0.0f : x;
}

} // namespace

TWIG_KERNEL_CLONES void
adam(float *__restrict param, float *__restrict m, float *__restrict v,
     const float *__restrict grad, std::size_t n, const AdamStep &s)
{
    const float beta1 = s.beta1, beta2 = s.beta2;
    const float one_minus_beta1 = 1.0f - beta1;
    const float one_minus_beta2 = 1.0f - beta2;
    const float b1t = s.b1t, b2t = s.b2t;
    const float lr = s.learningRate, eps = s.epsilon;
    for (std::size_t i = 0; i < n; ++i) {
        const float g = grad[i];
        const float mi = flushSubnormal(beta1 * m[i] + one_minus_beta1 * g);
        const float vi =
            flushSubnormal(beta2 * v[i] + one_minus_beta2 * g * g);
        m[i] = mi;
        v[i] = vi;
        const float mhat = mi / b1t;
        const float vhat = vi / b2t;
        param[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
}

} // namespace twig::nn::kernels
