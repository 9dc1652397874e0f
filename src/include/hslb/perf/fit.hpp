// The HSLB "Fit" step (Table II, line 10):
//
//   min_{a,b,c,d >= 0}  sum_i ( y_i - a/n_i - b n_i^c - d )^2
//
// Two strategies are provided and combined:
//   * Variable projection (VarPro): for a fixed exponent c the model is
//     linear in (a, b, d), so an NNLS solve gives the constrained optimum;
//     a golden-section-refined grid search over c picks the best exponent.
//     Derivative-free in c and immune to the local minima the paper
//     mentions.  The NNLS tolerance is absolute, so at large c (a huge
//     n^c column) it can stop at a fixed point far from the optimum; see
//     nlp/nnls.hpp.
//   * Levenberg-Marquardt polish over all four parameters from the VarPro
//     point (and optionally from multiple random starts).
#pragma once

#include "hslb/common/rng.hpp"
#include "hslb/perf/perf_model.hpp"

namespace hslb::perf {

struct FitOptions {
  /// Minimum allowed exponent.  The default 1.0 keeps the fitted function
  /// convex so the MINLP outer approximation is exact (the paper's fits had
  /// b, c ~ 0 so this does not change the curves materially; set to a
  /// smaller value to reproduce an unconstrained-curvature fit).
  double c_min = 1.0;
  double c_max = 3.0;
  int c_grid = 48;            ///< VarPro grid resolution over [c_min, c_max]
  bool lm_polish = true;      ///< refine with Levenberg-Marquardt
  int multistart = 0;         ///< extra random LM starts (0 = VarPro only)
  std::uint64_t seed = 42;    ///< for multistart
  /// Weight each residual by 1/y_i (minimize *relative* error).  The paper
  /// minimizes the plain sum of squares (Table II line 10), which is the
  /// default here; relative weighting trades accuracy at small node counts
  /// for accuracy across the whole range.
  bool relative_weighting = false;
  /// Robust (Huber/IRLS) loss for the LM polish, bounding the influence of
  /// corrupt samples -- the right setting for fault-injected campaigns and
  /// the noisy CICE curves.  Off by default: plain least squares, exactly
  /// the paper's Table II objective.
  bool robust_loss = false;
  /// Huber transition point in robust-sigma (MAD) units.
  double huber_delta = 1.345;
};

struct FitResult {
  PerfModel model;
  double r_squared = 0.0;
  double rmse = 0.0;          ///< root mean squared residual
  double sse = 0.0;           ///< sum of squared residuals
  bool converged = false;
  /// Gauss-Newton parameter covariance sigma^2 (J^T J)^-1 at the solution
  /// (4x4 over a, b, c, d); empty when the fit is exactly determined or the
  /// Jacobian is rank deficient.
  linalg::Matrix covariance;
  int degrees_of_freedom = 0;  ///< samples minus fitted parameters
};

/// 1-sigma uncertainty of the fitted curve's prediction at node count n
/// (delta method over the parameter covariance).  Returns 0 when no
/// covariance is available.
double prediction_stddev(const FitResult& fit_result, double n);

/// Fit the Table II model to (nodes[i], times[i]) samples.
/// Requires at least 3 samples with distinct positive node counts (the
/// paper recommends > 4).
[[nodiscard]] FitResult fit(std::span<const double> nodes,
                            std::span<const double> times,
                            const FitOptions& options = {});

}  // namespace hslb::perf
