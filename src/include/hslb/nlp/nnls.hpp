// Non-negative least squares (Lawson-Hanson active set).
//
// Used by the variable-projection fitter: for a fixed exponent c, the
// Table II model  T(n) = a/n + b n^c + d  is linear in (a, b, d) with the
// paper's positivity constraint a, b, d >= 0 -- exactly an NNLS problem.
#pragma once

#include "hslb/linalg/matrix.hpp"

namespace hslb::nlp {

struct NnlsResult {
  linalg::Vector x;            ///< minimizer, elementwise >= 0
  double residual_norm = 0.0;  ///< ||A x - b||_2
  /// False whenever the solve stops without meeting KKT at its tolerance:
  /// early, at a fixed point (an iteration that leaves x and the passive
  /// set as they were, so every later one would repeat it), or at the cap.
  bool converged = true;
  int iterations = 0;
};

/// Solve  min ||A x - b||_2  subject to  x >= 0.  The KKT tolerance is
/// absolute, 1e-10 max(1, ||A||_F); on badly scaled columns a fixed-point
/// stop can leave x far from the optimum (`converged` is false then).
[[nodiscard]] NnlsResult solve_nnls(const linalg::Matrix& a,
                                    std::span<const double> b,
                                    int max_iterations = 200);

}  // namespace hslb::nlp
