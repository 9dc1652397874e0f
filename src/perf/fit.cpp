#include "hslb/perf/fit.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"
#include "hslb/linalg/factor.hpp"
#include "hslb/nlp/levenberg_marquardt.hpp"
#include "hslb/nlp/nnls.hpp"
#include "hslb/obs/obs.hpp"

namespace hslb::perf {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// The VarPro design for one series: columns (w/n, w n^c, w) and rhs w y.
/// Only the middle column depends on the exponent c.
struct VarproDesign {
  Matrix a;
  Vector rhs;

  VarproDesign(std::span<const double> nodes, std::span<const double> times,
               std::span<const double> weights)
      : a(nodes.size(), 3), rhs(nodes.size()) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      a(i, 0) = weights[i] / nodes[i];
      a(i, 2) = weights[i];
      rhs[i] = weights[i] * times[i];
    }
  }
};

/// For a fixed exponent c, solve the (a, b, d) >= 0 subproblem by NNLS and
/// return the sum of squared residuals.
double varpro_at(double c, std::span<const double> nodes,
                 std::span<const double> weights, VarproDesign& design,
                 PerfParams* best) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    design.a(i, 1) = weights[i] * std::pow(nodes[i], c);
  }
  const auto r = nlp::solve_nnls(design.a, design.rhs);
  if (best) {
    best->a = r.x[0];
    best->b = r.x[1];
    best->c = c;
    best->d = r.x[2];
  }
  return r.residual_norm * r.residual_norm;
}

double sse_of(const PerfParams& p, std::span<const double> nodes,
              std::span<const double> times,
              std::span<const double> weights) {
  const PerfModel model(p);
  double sse = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const double r = weights[i] * (times[i] - model(nodes[i]));
    sse += r * r;
  }
  return sse;
}

/// Huber cost with a MAD-adaptive transition, matching the LM fitter's IRLS
/// weighting: candidate fits are compared under the same robust objective
/// they were polished against.
double huber_cost_of(const PerfParams& p, std::span<const double> nodes,
                     std::span<const double> times,
                     std::span<const double> weights, double delta) {
  const PerfModel model(p);
  Vector r(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    r[i] = weights[i] * (times[i] - model(nodes[i]));
  }
  Vector magnitudes(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    magnitudes[i] = std::fabs(r[i]);
  }
  Vector sorted(magnitudes);
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double threshold = delta * std::max(1.4826 * median, 1e-12);
  double cost = 0.0;
  for (const double m : magnitudes) {
    cost += m <= threshold ? 0.5 * m * m
                           : threshold * (m - 0.5 * threshold);
  }
  return cost;
}

}  // namespace

FitResult fit(std::span<const double> nodes, std::span<const double> times,
              const FitOptions& opts) {
  HSLB_REQUIRE(nodes.size() == times.size(), "fit: series size mismatch");
  HSLB_REQUIRE(nodes.size() >= 3, "fit needs at least 3 samples");
  HSLB_REQUIRE(opts.c_min >= 0.0 && opts.c_min < opts.c_max,
               "fit: invalid exponent range");
  for (const double n : nodes) {
    HSLB_REQUIRE(n > 0.0, "fit: node counts must be positive");
  }

  HSLB_SPAN("perf.fit");
  HSLB_COUNT("perf.fit.calls", 1);

  // Residual weights: 1 (plain SSE, the paper's choice) or 1/y_i.
  Vector weights(nodes.size(), 1.0);
  if (opts.relative_weighting) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      HSLB_REQUIRE(times[i] > 0.0,
                   "relative weighting needs positive observed times");
      weights[i] = 1.0 / times[i];
    }
  }

  // --- VarPro grid over the exponent. --------------------------------------
  VarproDesign design(nodes, times, weights);
  PerfParams best;
  double best_sse = lp::kInf;
  for (int k = 0; k <= opts.c_grid; ++k) {
    const double c =
        opts.c_min + (opts.c_max - opts.c_min) * k / std::max(1, opts.c_grid);
    PerfParams p;
    const double sse = varpro_at(c, nodes, weights, design, &p);
    if (sse < best_sse) {
      best_sse = sse;
      best = p;
    }
  }

  // Golden-section refinement of c around the best grid cell.
  {
    const double step = (opts.c_max - opts.c_min) / std::max(1, opts.c_grid);
    double lo = std::max(opts.c_min, best.c - step);
    double hi = std::min(opts.c_max, best.c + step);
    constexpr double kGolden = 0.6180339887498949;
    for (int it = 0; it < 40 && hi - lo > 1e-7; ++it) {
      const double c1 = hi - kGolden * (hi - lo);
      const double c2 = lo + kGolden * (hi - lo);
      PerfParams p1;
      PerfParams p2;
      const double s1 = varpro_at(c1, nodes, weights, design, &p1);
      const double s2 = varpro_at(c2, nodes, weights, design, &p2);
      if (s1 <= s2) {
        hi = c2;
        if (s1 < best_sse) {
          best_sse = s1;
          best = p1;
        }
      } else {
        lo = c1;
        if (s2 < best_sse) {
          best_sse = s2;
          best = p2;
        }
      }
    }
  }

  // --- Optional LM polish over all four parameters. -------------------------
  const auto residual_fn = [&](std::span<const double> theta, Vector& r,
                               Matrix* jac) {
    const double a = theta[0];
    const double b = theta[1];
    const double c = theta[2];
    const double d = theta[3];
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const double n = nodes[i];
      const double nc = std::pow(n, c);
      const double w = weights[i];
      r[i] = w * (a / n + b * nc + d - times[i]);
      if (jac) {
        (*jac)(i, 0) = w / n;
        (*jac)(i, 1) = w * nc;
        (*jac)(i, 2) = w * b * nc * std::log(n);
        (*jac)(i, 3) = w;
      }
    }
  };

  if (opts.lm_polish) {
    const Vector lower{0.0, 0.0, opts.c_min, 0.0};
    const Vector upper{lp::kInf, lp::kInf, opts.c_max, lp::kInf};

    nlp::LmOptions lm_options;
    if (opts.robust_loss) {
      lm_options.loss = nlp::LmLoss::kHuber;
      lm_options.huber_delta = opts.huber_delta;
    }

    std::vector<Vector> starts;
    starts.push_back({best.a, best.b, best.c, best.d});
    common::Rng rng(opts.seed);
    const double y_scale =
        *std::max_element(times.begin(), times.end());
    const double n_max = *std::max_element(nodes.begin(), nodes.end());
    for (int s = 0; s < opts.multistart; ++s) {
      starts.push_back({rng.uniform(0.0, y_scale * n_max),
                        rng.uniform(0.0, y_scale / n_max),
                        rng.uniform(opts.c_min, opts.c_max),
                        rng.uniform(0.0, y_scale)});
    }
    // Candidates compete under the objective that was optimized: plain SSE
    // normally, the MAD-adaptive Huber cost in robust mode (an outlier-
    // chasing low-SSE fit must not beat a robust one there).
    double best_score =
        opts.robust_loss
            ? huber_cost_of(best, nodes, times, weights, opts.huber_delta)
            : best_sse;
    for (const Vector& start : starts) {
      const auto lm = nlp::minimize_lm(residual_fn, start, lower, upper,
                                       nodes.size(), lm_options);
      const PerfParams p{lm.theta[0], lm.theta[1], lm.theta[2], lm.theta[3]};
      const double score =
          opts.robust_loss
              ? huber_cost_of(p, nodes, times, weights, opts.huber_delta)
              : sse_of(p, nodes, times, weights);
      if (score < best_score) {
        best_score = score;
        best = p;
        best_sse = sse_of(p, nodes, times, weights);
      }
    }
  }

  FitResult out;
  out.model = PerfModel(best);
  // Report sse/rmse in plain (unweighted) units regardless of weighting.
  {
    const Vector unit(nodes.size(), 1.0);
    out.sse = sse_of(best, nodes, times, unit);
  }
  out.rmse = std::sqrt(out.sse / static_cast<double>(nodes.size()));
  Vector predicted(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    predicted[i] = out.model(nodes[i]);
  }
  out.r_squared = r_squared(times, predicted);
  out.converged = true;

  // Parameter covariance for prediction intervals: sigma^2 (J^T J)^{-1}
  // with J the (unweighted) Jacobian of the model at the solution.  Columns
  // of parameters pinned at zero (b, and c whenever b == 0) are dropped --
  // they would make J^T J singular -- and their covariance rows stay zero.
  std::vector<std::size_t> active{0, 3};  // a and d always move
  if (best.b > 1e-12) {
    active.push_back(1);
    active.push_back(2);
  }
  out.degrees_of_freedom =
      static_cast<int>(nodes.size()) - static_cast<int>(active.size());
  if (out.degrees_of_freedom > 0) {
    const auto column_of = [&](std::size_t param, double n) {
      const double nc = std::pow(n, best.c);
      switch (param) {
        case 0:
          return 1.0 / n;
        case 1:
          return nc;
        case 2:
          return best.b * nc * std::log(n);
        default:
          return 1.0;
      }
    };
    Matrix jac(nodes.size(), active.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        jac(i, k) = column_of(active[k], nodes[i]);
      }
    }
    const Matrix jtj = linalg::gram(jac);
    if (const auto lu = linalg::LuFactor::compute(jtj)) {
      const double sigma2 = out.sse / out.degrees_of_freedom;
      out.covariance = Matrix(4, 4);
      for (std::size_t col = 0; col < active.size(); ++col) {
        Vector e(active.size(), 0.0);
        e[col] = 1.0;
        const Vector column = lu->solve(e);
        for (std::size_t row = 0; row < active.size(); ++row) {
          out.covariance(active[row], active[col]) = sigma2 * column[row];
        }
      }
    }
  }
  return out;
}

double prediction_stddev(const FitResult& fit_result, double n) {
  HSLB_REQUIRE(n > 0.0, "prediction_stddev needs n > 0");
  if (fit_result.covariance.empty()) {
    return 0.0;
  }
  const PerfParams& p = fit_result.model.params();
  const double nc = std::pow(n, p.c);
  const Vector g{1.0 / n, nc, p.b * nc * std::log(n), 1.0};
  const Vector cg = linalg::matvec(fit_result.covariance, g);
  const double variance = linalg::dot(g, cg);
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

}  // namespace hslb::perf
