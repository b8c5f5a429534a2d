#include "oracle/matrix_ref.hh"

namespace twig::nn::reference {

void
matmul(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.rows(), "matmul: inner dims differ");
    out.resize(a.rows(), b.cols());
    out.zero();
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        float *out_row = out.rowPtr(i);
        const float *a_row = a.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a_row[p];
            if (av == 0.0f)
                continue;
            const float *b_row = b.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

void
matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.cols() != b.cols(), "matmulTransposeB: dims differ");
    out.resize(a.rows(), b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    for (std::size_t i = 0; i < m; ++i) {
        const float *a_row = a.rowPtr(i);
        float *out_row = out.rowPtr(i);
        for (std::size_t j = 0; j < n; ++j) {
            const float *b_row = b.rowPtr(j);
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += a_row[p] * b_row[p];
            out_row[j] = acc;
        }
    }
}

void
matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out)
{
    common::panicIf(a.rows() != b.rows(), "matmulTransposeA: dims differ");
    out.resize(a.cols(), b.cols());
    out.zero();
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    for (std::size_t i = 0; i < m; ++i) {
        const float *a_row = a.rowPtr(i);
        const float *b_row = b.rowPtr(i);
        for (std::size_t p = 0; p < k; ++p) {
            const float av = a_row[p];
            if (av == 0.0f)
                continue;
            float *out_row = out.rowPtr(p);
            for (std::size_t j = 0; j < n; ++j)
                out_row[j] += av * b_row[j];
        }
    }
}

} // namespace twig::nn::reference
