#include "hslb/nlp/barrier.hpp"

#include <algorithm>
#include <cmath>

#include "hslb/common/error.hpp"
#include "hslb/linalg/factor.hpp"

namespace hslb::nlp {
namespace {

using expr::Expr;
using linalg::Matrix;
using linalg::Vector;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One inequality row of the folded system (user constraint or box side).
struct Inequality {
  enum class Kind { kExpr, kLower, kUpper } kind = Kind::kExpr;
  std::size_t index = 0;  ///< constraint index or variable index

  /// g(x): the constraint value (<= 0 feasible).
  double value(const NlpProblem& p, const Vector& x) const {
    switch (kind) {
      case Kind::kExpr:
        return expr::eval(p.constraints[index], x);
      case Kind::kLower:
        return p.lower[index] - x[index];
      case Kind::kUpper:
        return x[index] - p.upper[index];
    }
    return 0.0;
  }
};

struct KktResiduals {
  Vector dual;            // grad f + J^T z
  Vector primal;          // g + s (raw, used by the Newton rhs)
  Vector primal_scaled;   // (g + s) / (1 + s): immune to the float
                          // cancellation noise of far-away slack rows
  double gap = 0.0;       // s.z / m
  double norm() const {
    return std::max(linalg::norm_inf(dual),
                    linalg::norm_inf(primal_scaled));
  }
};

/// Full iterate state.
struct State {
  Vector x, s, z;
};

class PrimalDualSolver {
 public:
  PrimalDualSolver(const NlpProblem& p, const BarrierOptions& opts)
      : p_(p), opts_(opts), n_(p.num_vars) {
    for (std::size_t i = 0; i < p.constraints.size(); ++i) {
      rows_.push_back({Inequality::Kind::kExpr, i});
    }
    for (std::size_t j = 0; j < n_; ++j) {
      if (std::isfinite(p.lower[j])) {
        rows_.push_back({Inequality::Kind::kLower, j});
      }
      if (std::isfinite(p.upper[j])) {
        rows_.push_back({Inequality::Kind::kUpper, j});
      }
    }
    m_ = rows_.size();
  }

  NlpResult run(Vector x0) {
    NlpResult out;
    State st;
    st.x = std::move(x0);
    clamp_into_box(st.x);
    st.s.assign(m_, 1.0);
    st.z.assign(m_, 1.0);
    for (std::size_t i = 0; i < m_; ++i) {
      st.s[i] = std::max(-rows_[i].value(p_, st.x), 1.0);
    }

    if (m_ == 0) {
      return solve_unconstrained(std::move(st.x));
    }

    double mu = dot_gap(st);
    int iter = 0;
    for (; iter < opts_.max_iterations; ++iter) {
      const KktResiduals res = residuals(st);
      const double f_scale =
          1.0 + linalg::norm_inf(objective_gradient(st.x));
      if (res.norm() <= opts_.residual_tol * f_scale &&
          res.gap <= std::max(opts_.gap_tol, 1e-11 * f_scale)) {
        out.status = NlpStatus::kOptimal;
        break;
      }

      mu = std::max(opts_.sigma * dot_gap(st), 0.1 * opts_.gap_tol);

      // Assemble and solve the condensed Newton system:
      //   (W + J^T S^{-1} Z J) dx = -(r_d + J^T S^{-1} (Z r_p - r_c))
      // with r_c = S Z e - mu e.
      Matrix jac(m_, n_);
      Matrix w = objective_hessian(st.x);
      Vector rhs(n_, 0.0);
      for (std::size_t j = 0; j < n_; ++j) {
        rhs[j] = -res.dual[j];
      }
      for (std::size_t i = 0; i < m_; ++i) {
        const Vector grad_i = row_gradient(i, st.x, st.z[i], &w);
        for (std::size_t j = 0; j < n_; ++j) {
          jac(i, j) = grad_i[j];
        }
        const double rc = st.s[i] * st.z[i] - mu;
        const double coeff =
            (st.z[i] * res.primal[i] - rc) / st.s[i];
        for (std::size_t j = 0; j < n_; ++j) {
          rhs[j] -= grad_i[j] * coeff;
        }
        const double ratio = st.z[i] / st.s[i];
        for (std::size_t a = 0; a < n_; ++a) {
          if (grad_i[a] == 0.0) {
            continue;
          }
          for (std::size_t b = 0; b < n_; ++b) {
            w(a, b) += ratio * grad_i[a] * grad_i[b];
          }
        }
      }
      const auto chol = linalg::CholeskyFactor::compute(w);
      if (!chol) {
        break;  // numerically dead; report best effort below
      }
      const Vector dx = chol->solve(rhs);

      // Recover ds, dz.
      Vector ds(m_), dz(m_);
      for (std::size_t i = 0; i < m_; ++i) {
        double jdx = 0.0;
        for (std::size_t j = 0; j < n_; ++j) {
          jdx += jac(i, j) * dx[j];
        }
        ds[i] = -res.primal[i] - jdx;
        const double rc = st.s[i] * st.z[i] - mu;
        dz[i] = (-rc - st.z[i] * ds[i]) / st.s[i];
      }

      // Fraction-to-boundary step lengths.
      constexpr double kTau = 0.995;
      double alpha = 1.0;
      for (std::size_t i = 0; i < m_; ++i) {
        if (ds[i] < 0.0) {
          alpha = std::min(alpha, -kTau * st.s[i] / ds[i]);
        }
        if (dz[i] < 0.0) {
          alpha = std::min(alpha, -kTau * st.z[i] / dz[i]);
        }
      }

      // Residual-norm backtracking (keeps the infeasible-start iteration
      // globally stable on nonquadratic constraints).  The per-row scaling
      // weights are FROZEN at the current iterate: weights that move with
      // the trial slack would turn genuine Newton descent directions into
      // merit ascent whenever a violated row's slack shrinks quickly.
      Vector weights(m_);
      for (std::size_t i = 0; i < m_; ++i) {
        weights[i] = 1.0 / (1.0 + st.s[i]);
      }
      const double merit0 = merit(st, mu, weights);
      bool moved = false;
      for (int ls = 0; ls < 30 && alpha > 1e-14; ++ls) {
        State trial;
        trial.x = st.x;
        trial.s = st.s;
        trial.z = st.z;
        linalg::axpy(alpha, dx, trial.x);
        linalg::axpy(alpha, ds, trial.s);
        linalg::axpy(alpha, dz, trial.z);
        clamp_into_box(trial.x);
        if (merit(trial, mu, weights) <= merit0 * (1.0 - 1e-4 * alpha) + 1e-14) {
          st = std::move(trial);
          moved = true;
          break;
        }
        alpha *= 0.5;
      }
      if (!moved) {
        // Take the tiny safeguarded step anyway; pure stalls end via the
        // iteration limit.
        linalg::axpy(alpha, dx, st.x);
        linalg::axpy(alpha, ds, st.s);
        linalg::axpy(alpha, dz, st.z);
        clamp_into_box(st.x);
      }
    }

    out.newton_iterations = iter;
    out.x = st.x;
    out.objective = expr::eval(p_.objective, st.x);
    if (out.status != NlpStatus::kOptimal) {
      // Distinguish "never got primal feasible" from a plain stall.
      const KktResiduals res = residuals(st);
      double violation = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        violation = std::max(violation, rows_[i].value(p_, st.x));
      }
      out.status = violation > 1e-6 ? NlpStatus::kInfeasible
                                    : NlpStatus::kIterationLimit;
      (void)res;
    }
    return out;
  }

  /// Default start: box midpoint with capped offsets (the literal midpoint
  /// of a huge range is a numerically terrible iterate).
  Vector default_start() const {
    Vector x0(n_, 1.0);
    for (std::size_t j = 0; j < n_; ++j) {
      const bool flo = std::isfinite(p_.lower[j]);
      const bool fup = std::isfinite(p_.upper[j]);
      if (flo && fup) {
        const double half = 0.5 * (p_.upper[j] - p_.lower[j]);
        const double cap = 10.0 * (1.0 + std::fabs(p_.lower[j]));
        x0[j] = p_.lower[j] + std::min(half, cap);
      } else if (flo) {
        x0[j] = p_.lower[j] + std::max(1.0, std::fabs(p_.lower[j]));
      } else if (fup) {
        x0[j] = p_.upper[j] - std::max(1.0, std::fabs(p_.upper[j]));
      }
    }
    return x0;
  }

 private:
  /// Keep x strictly inside any finite box sides (the box rows assume the
  /// barrier slacks stay meaningful; expression constraints need no such
  /// guard -- their slacks absorb violations).
  void clamp_into_box(Vector& x) const {
    for (std::size_t j = 0; j < n_; ++j) {
      const double lo = p_.lower[j];
      const double up = p_.upper[j];
      if (std::isfinite(lo) && std::isfinite(up) && lo == up) {
        x[j] = lo;
        continue;
      }
      if (std::isfinite(lo)) {
        x[j] = std::max(x[j], lo - 1e3 * (1.0 + std::fabs(lo)));
      }
      if (std::isfinite(up)) {
        x[j] = std::min(x[j], up + 1e3 * (1.0 + std::fabs(up)));
      }
    }
  }

  NlpResult solve_unconstrained(Vector x) {
    // Plain Newton with backtracking; only used when there are neither
    // constraints nor finite bounds.
    NlpResult out;
    for (int it = 0; it < opts_.max_iterations; ++it) {
      const auto f = expr::eval_hess(p_.objective, x, n_);
      if (linalg::norm_inf(f.grad) < opts_.residual_tol) {
        break;
      }
      const auto chol = linalg::CholeskyFactor::compute(f.hess);
      if (!chol) {
        break;
      }
      Vector step = chol->solve(f.grad);
      for (double& v : step) {
        v = -v;
      }
      double alpha = 1.0;
      for (int ls = 0; ls < 40; ++ls) {
        Vector trial = x;
        linalg::axpy(alpha, step, trial);
        if (expr::eval(p_.objective, trial) < f.value) {
          x = trial;
          break;
        }
        alpha *= 0.5;
      }
      ++out.newton_iterations;
    }
    out.status = NlpStatus::kOptimal;
    out.objective = expr::eval(p_.objective, x);
    out.x = std::move(x);
    return out;
  }

  Vector objective_gradient(const Vector& x) const {
    return expr::eval_grad(p_.objective, x, n_).grad;
  }

  Matrix objective_hessian(const Vector& x) const {
    return expr::eval_hess(p_.objective, x, n_).hess;
  }

  /// Gradient of inequality row i; if `w` is given, z_i * Hess(g_i) is
  /// accumulated into it (box rows have zero Hessian).  Without `w` no
  /// Hessian is propagated: the gradients the two evaluators return are
  /// bit-identical.
  Vector row_gradient(std::size_t i, const Vector& x, double z,
                      Matrix* w) const {
    const Inequality& row = rows_[i];
    switch (row.kind) {
      case Inequality::Kind::kExpr: {
        if (w == nullptr) {
          return expr::eval_grad(p_.constraints[row.index], x, n_).grad;
        }
        const auto gv = expr::eval_hess(p_.constraints[row.index], x, n_);
        if (z != 0.0) {
          Matrix h = gv.hess;
          h *= z;
          *w += h;
        }
        return gv.grad;
      }
      case Inequality::Kind::kLower: {
        Vector g(n_, 0.0);
        g[row.index] = -1.0;
        return g;
      }
      case Inequality::Kind::kUpper: {
        Vector g(n_, 0.0);
        g[row.index] = 1.0;
        return g;
      }
    }
    return Vector(n_, 0.0);
  }

  double dot_gap(const State& st) const {
    return linalg::dot(st.s, st.z) / static_cast<double>(m_);
  }

  KktResiduals residuals(const State& st) const {
    KktResiduals res;
    res.dual = objective_gradient(st.x);
    res.primal.assign(m_, 0.0);
    res.primal_scaled.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const Vector grad_i = row_gradient(i, st.x, 0.0, nullptr);
      linalg::axpy(st.z[i], grad_i, res.dual);
      res.primal[i] = rows_[i].value(p_, st.x) + st.s[i];
      res.primal_scaled[i] = res.primal[i] / (1.0 + st.s[i]);
    }
    res.gap = dot_gap(st);
    return res;
  }

  /// Line-search merit: squared norm of the full perturbed KKT residual,
  /// with the primal rows scaled by caller-frozen weights.
  double merit(const State& st, double mu,
               const Vector& primal_weights) const {
    for (std::size_t i = 0; i < m_; ++i) {
      if (st.s[i] <= 0.0 || st.z[i] <= 0.0) {
        return kInf;
      }
    }
    const KktResiduals res = residuals(st);
    double total = linalg::dot(res.dual, res.dual);
    for (std::size_t i = 0; i < m_; ++i) {
      const double wp = primal_weights[i] * res.primal[i];
      const double rc = st.s[i] * st.z[i] - mu;
      total += wp * wp + rc * rc;
    }
    return total;
  }

  const NlpProblem& p_;
  BarrierOptions opts_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::vector<Inequality> rows_;
};

}  // namespace

const char* to_string(NlpStatus status) {
  switch (status) {
    case NlpStatus::kOptimal:
      return "optimal";
    case NlpStatus::kInfeasible:
      return "infeasible";
    case NlpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

NlpResult solve_barrier(const NlpProblem& problem,
                        std::optional<Vector> start,
                        const BarrierOptions& options) {
  HSLB_REQUIRE(problem.lower.size() == problem.num_vars &&
                   problem.upper.size() == problem.num_vars,
               "NLP bound sizes must match num_vars");
  for (std::size_t j = 0; j < problem.num_vars; ++j) {
    HSLB_REQUIRE(problem.lower[j] <= problem.upper[j],
                 "NLP variable bounds crossed");
  }

  // Fixed variables break the strict-interior requirement of the barrier
  // rows; widen them a hair (the iterate is clamped back afterwards).
  NlpProblem widened = problem;
  std::vector<std::size_t> fixed;
  for (std::size_t j = 0; j < problem.num_vars; ++j) {
    if (widened.lower[j] == widened.upper[j]) {
      const double eps = 1e-9 * std::max(1.0, std::fabs(widened.lower[j]));
      fixed.push_back(j);
      widened.lower[j] -= eps;
      widened.upper[j] += eps;
    }
  }

  PrimalDualSolver solver(widened, options);
  Vector x0 = start ? std::move(*start) : solver.default_start();
  NlpResult out = solver.run(std::move(x0));
  for (const std::size_t j : fixed) {
    out.x[j] = problem.lower[j];
  }
  if (!fixed.empty() && out.status == NlpStatus::kOptimal) {
    out.objective = expr::eval(problem.objective, out.x);
  }
  return out;
}

}  // namespace hslb::nlp
