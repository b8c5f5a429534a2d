/**
 * @file
 * Reference GEMM kernels: the seed's naive triple-loop implementations,
 * verbatim, kept as a test oracle for the tiled kernels in
 * src/nn/matrix.cc. They live in their own translation unit, compiled
 * at the project's default optimisation level, so that (a) the
 * randomized equivalence tests check the tiled kernels against
 * independently compiled code, and (b) bench/perf_kernels measures
 * speedup against exactly what the seed shipped.
 */

#ifndef TWIG_ORACLE_MATRIX_REF_HH
#define TWIG_ORACLE_MATRIX_REF_HH

#include "nn/matrix.hh"

namespace twig::nn::reference {

void matmul(const Matrix &a, const Matrix &b, Matrix &out);
void matmulTransposeB(const Matrix &a, const Matrix &b, Matrix &out);
void matmulTransposeA(const Matrix &a, const Matrix &b, Matrix &out);

} // namespace twig::nn::reference

#endif // TWIG_ORACLE_MATRIX_REF_HH
