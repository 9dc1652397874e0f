// Householder-QR linear least squares, used by the Levenberg-Marquardt
// inner step, the NNLS passive-set solves and linear calibration utilities.
#pragma once

#include "hslb/linalg/matrix.hpp"

namespace hslb::linalg {

/// Result of an unconstrained linear least-squares solve min ||Ax - b||^2.
struct LeastSquaresResult {
  Vector x;            ///< minimizer
  double residual_norm = 0.0;  ///< ||A x - b||
  bool full_rank = true;       ///< false if A was rank-deficient (minimum-norm-ish fallback used)
};

/// Solve min ||A x - b||_2 via Householder QR with column norm checks.
/// Requires rows >= cols.  On rank deficiency, small pivots are regularized
/// and `full_rank` is cleared.
LeastSquaresResult solve_least_squares(const Matrix& a,
                                       std::span<const double> b);

/// The Householder QR solve behind solve_least_squares, in place and
/// allocation-free.  `a` holds an m x n row-major matrix (m >= n) and is
/// overwritten by R in its upper triangle; `qtb` holds b (m entries) and is
/// overwritten by Q^T b; `v` is scratch of at least m entries; `x` receives
/// the n-entry minimizer.  Returns false on rank deficiency, as
/// `LeastSquaresResult::full_rank` does.
bool householder_solve(std::size_t m, std::size_t n, std::span<double> a,
                       std::span<double> qtb, std::span<double> v,
                       std::span<double> x);

}  // namespace hslb::linalg
