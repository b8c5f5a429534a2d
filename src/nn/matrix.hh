/**
 * @file
 * Dense row-major matrix of floats — the numeric workhorse of the NN
 * library. Deliberately small: just the operations the layers need,
 * all bounds-checked in debug via assertions.
 *
 * The GEMM entry points below all share one register-blocked,
 * cache-tiled micro-kernel (see matrix.cc), which reads A^T in place
 * and packs B^T into a per-thread scratch buffer, so the same
 * canonical kernel serves all data layouts. Fused epilogues
 * (bias add, bias+ReLU) exist so a Linear layer's forward pass is a
 * single kernel call with no intermediate matrix.
 */

#ifndef TWIG_NN_MATRIX_HH
#define TWIG_NN_MATRIX_HH

#include <cstddef>
#include <vector>

#include "common/error.hh"

namespace twig::nn {

/**
 * Row-major dense matrix. A batch of vectors is stored as one row per
 * batch element ([batch x features]).
 */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix initialised to @p fill. */
    Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &
    operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    float
    operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float *rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const float *
    rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Reset every element to @p value. */
    void
    fill(float value)
    {
        std::fill(data_.begin(), data_.end(), value);
    }

    /** Reset every element to zero. */
    void zero() { fill(0.0f); }

    /**
     * Resize; contents are unspecified afterwards. Capacity is kept, so
     * resizing a scratch matrix between steady-state shapes performs no
     * allocation and no redundant zero-write. Callers that need zeroed
     * storage must call zero() explicitly.
     */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        if (data_.size() != rows * cols)
            data_.resize(rows * cols);
    }

    /** this += other (same shape, distinct storage). */
    void addInPlace(const Matrix &other);

    /** this *= scalar. */
    void scaleInPlace(float s);

    const std::vector<float> &raw() const { return data_; }
    std::vector<float> &raw() { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** out = a * b ([m x k] * [k x n] -> [m x n]); out is resized. */
void matmul(const Matrix &a, const Matrix &b, Matrix &out);

/** out = a * b^T ([m x k] * [n x k]^T -> [m x n]); out is resized. */
void matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out);

/** out = a^T * b ([m x k]^T * [m x n] -> [k x n]); out is resized. */
void matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out);

/**
 * out += a^T * b, accumulating into @p out which must already have
 * shape [k x n]. This is the gradient-accumulation primitive
 * (gradW += x^T dy) — fusing the add avoids a scratch matrix and a
 * second pass over the gradient.
 */
void matmulTransposeAAccum(const Matrix &a, const Matrix &b, Matrix &out);

/**
 * Fused linear forward: out = a * w + bias (bias broadcast over rows);
 * bias.size() must equal w.cols(). One kernel pass, no intermediate.
 */
void matmulBias(const Matrix &a, const Matrix &w,
                const std::vector<float> &bias, Matrix &out);

/**
 * Fused linear + ReLU forward: out = relu(a * w + bias). @p mask is
 * resized to out.size() and mask[i] is set to 1 where the
 * pre-activation was positive (the backward pass needs exactly this).
 */
void matmulBiasRelu(const Matrix &a, const Matrix &w,
                    const std::vector<float> &bias, Matrix &out,
                    std::vector<unsigned char> &mask);

} // namespace twig::nn

#endif // TWIG_NN_MATRIX_HH
