// Tests for the NLP layer: NNLS, Levenberg-Marquardt, and the barrier
// interior-point solver.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/common/rng.hpp"
#include "hslb/nlp/barrier.hpp"
#include "hslb/nlp/levenberg_marquardt.hpp"
#include "hslb/nlp/nnls.hpp"

namespace hslb::nlp {
namespace {

using linalg::Matrix;
using linalg::Vector;

// --- NNLS -------------------------------------------------------------------

TEST(Nnls, UnconstrainedInteriorSolution) {
  // Least squares solution already nonnegative: NNLS must find it exactly.
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vector b{1, 2, 3};
  const auto r = solve_nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-9);
  EXPECT_NEAR(r.residual_norm, 0.0, 1e-9);
}

TEST(Nnls, ClampsNegativeCoordinates) {
  const Matrix a = Matrix::from_rows({{1, 0}, {0, 1}, {1, 1}});
  const Vector b{-1, 2, 1};
  const auto r = solve_nnls(a, b);
  EXPECT_NEAR(r.x[0], 0.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.5, 1e-9);
}

TEST(Nnls, AllZeroWhenGradientNonpositive) {
  const Matrix a = Matrix::from_rows({{1.0}, {1.0}});
  const Vector b{-1, -2};
  const auto r = solve_nnls(a, b);
  EXPECT_NEAR(r.x[0], 0.0, 1e-12);
}

TEST(Nnls, StopsAtFixedPoint) {
  // The 1-degree land series against the VarPro columns (1/n, n^c, 1) at
  // c = 2.  The n^2 column has the largest gradient, so it enters; its
  // least-squares coefficient is under the absolute tolerance, so it leaves
  // again with x unchanged.  Every later iteration would repeat that one:
  // the solve must stop there instead of running to the cap.  x is not
  // pinned -- (a, d) = (1459, 2.04) alone reaches residual 0.064, so the
  // fixed point is not the optimum.
  const Vector nodes{42, 82, 164, 328, 655};
  Matrix a(nodes.size(), 3);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    a(i, 0) = 1.0 / nodes[i];
    a(i, 1) = nodes[i] * nodes[i];
    a(i, 2) = 1.0;
  }
  const Vector b{36.8, 19.8, 10.9, 6.5, 4.3};
  const auto r = solve_nnls(a, b);
  EXPECT_LE(r.iterations, 2);
  EXPECT_FALSE(r.converged);
  for (const double xj : r.x) {
    EXPECT_GE(xj, 0.0);
  }
}

/// Instance families for the KKT property: dense entries in [-1, 1], or the
/// VarPro fitter's badly scaled columns (w/n, w n^c, w).
enum class NnlsShape { kUnitBox, kVarPro };

struct NnlsCase {
  NnlsShape shape;
  int seed;
};

/// [-1, 1] entries: the solve must converge to a KKT point.
void check_unit_box_instance(int seed) {
  common::Rng rng(static_cast<std::uint64_t>(seed) * 271 + 3);
  const std::size_t m = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Matrix a(m, n);
  Vector b(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
    }
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const auto r = solve_nnls(a, b);
  ASSERT_TRUE(r.converged);
  // KKT: grad = A^T (A x - b); x_j > 0 => grad_j == 0; x_j == 0 => grad_j >= 0.
  const Vector resid = linalg::subtract(linalg::matvec(a, r.x), b);
  const Vector grad = linalg::matvec_t(a, resid);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_GE(r.x[j], -1e-12);
    if (r.x[j] > 1e-8) {
      EXPECT_NEAR(grad[j], 0.0, 1e-6) << "active coordinate gradient";
    } else {
      EXPECT_GE(grad[j], -1e-6) << "inactive coordinate multiplier sign";
    }
  }
}

/// VarPro columns: the solve may stop at a fixed point short of KKT (the
/// tolerance is absolute), but it must stop within a few iterations and say
/// truthfully whether KKT holds.  Timing-curve samples T(n) = A/n + D (+ a
/// small B n^e) with 5% noise at 3-8 log-spaced node counts from lo in
/// [32, 4096] to lo * [8, 64], fitted with an exponent c in [1, 3], so the
/// n^c column outgrows 1/n by up to 10^21.  Half the instances weight each
/// row by 1/t, as FitOptions::relative_weighting does.
void check_varpro_instances(int seed) {
  common::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
  for (int instance = 0; instance < 100; ++instance) {
    const std::size_t m = 3 + static_cast<std::size_t>(rng.uniform_int(0, 5));
    const double lo = std::exp(rng.uniform(std::log(32.0), std::log(4096.0)));
    const double hi = lo * std::exp(rng.uniform(std::log(8.0), std::log(64.0)));
    const double c = rng.uniform(1.0, 3.0);
    const bool relative = rng.uniform() < 0.5;
    const double big_a = lo * rng.uniform(1.0, 100.0);
    const double big_d = rng.uniform(0.1, 10.0);
    const double big_e = rng.uniform(1.0, 2.0);
    const double big_b =
        rng.uniform() < 0.5
            ? 0.0
            : rng.uniform(0.0, 0.5) * big_d / std::pow(hi, big_e);
    Matrix a(m, 3);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double n =
          lo * std::pow(hi / lo, static_cast<double>(i) /
                                     static_cast<double>(m - 1));
      const double t = (big_a / n + big_b * std::pow(n, big_e) + big_d) *
                       (1.0 + rng.uniform(-0.05, 0.05));
      const double w = relative ? 1.0 / t : 1.0;
      a(i, 0) = w / n;
      a(i, 1) = w * std::pow(n, c);
      a(i, 2) = w;
      b[i] = w * t;
    }
    const auto r = solve_nnls(a, b);
    SCOPED_TRACE(::testing::Message() << "instance " << instance << ", m "
                                      << m << ", c " << c);
    for (const double xj : r.x) {
      ASSERT_GE(xj, 0.0);
    }
    ASSERT_LE(r.iterations, 2 * 3 + 1);
    // converged <=> every column at 0 has -gradient within the solver's
    // tolerance, the gradient computed with the solver's arithmetic.
    const double tol = 1e-10 * std::max(1.0, a.frobenius_norm());
    const Vector w = linalg::scale(
        -1.0, linalg::matvec_t(a, linalg::subtract(linalg::matvec(a, r.x), b)));
    bool kkt = true;
    for (std::size_t j = 0; j < 3; ++j) {
      if (r.x[j] == 0.0 && w[j] > tol) {
        kkt = false;
      }
    }
    ASSERT_EQ(r.converged, kkt);
  }
}

class NnlsKktProperty : public ::testing::TestWithParam<NnlsCase> {};

TEST_P(NnlsKktProperty, SatisfiesKktConditions) {
  switch (GetParam().shape) {
    case NnlsShape::kUnitBox:
      check_unit_box_instance(GetParam().seed);
      break;
    case NnlsShape::kVarPro:
      check_varpro_instances(GetParam().seed);
      break;
  }
}

std::vector<NnlsCase> nnls_cases(NnlsShape shape, int count) {
  std::vector<NnlsCase> cases;
  for (int seed = 0; seed < count; ++seed) {
    cases.push_back({shape, seed});
  }
  return cases;
}

std::string nnls_case_name(const ::testing::TestParamInfo<NnlsCase>& info) {
  return std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(RandomNnls, NnlsKktProperty,
                         ::testing::ValuesIn(nnls_cases(NnlsShape::kUnitBox,
                                                        30)),
                         nnls_case_name);
INSTANTIATE_TEST_SUITE_P(VarProNnls, NnlsKktProperty,
                         ::testing::ValuesIn(nnls_cases(NnlsShape::kVarPro,
                                                        20)),
                         nnls_case_name);

// --- Levenberg-Marquardt ----------------------------------------------------

TEST(Lm, FitsExponentialDecay) {
  // y = p0 * exp(-p1 * t), recover (2, 0.5) from clean data.
  std::vector<double> t;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    t.push_back(0.2 * i);
    y.push_back(2.0 * std::exp(-0.5 * 0.2 * i));
  }
  const auto fn = [&](std::span<const double> theta, Vector& r, Matrix* jac) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      const double e = std::exp(-theta[1] * t[i]);
      r[i] = theta[0] * e - y[i];
      if (jac) {
        (*jac)(i, 0) = e;
        (*jac)(i, 1) = -theta[0] * t[i] * e;
      }
    }
  };
  const Vector start{1.0, 1.0};
  const Vector lo{0.0, 0.0};
  const Vector hi{std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity()};
  const auto r = minimize_lm(fn, start, lo, hi, t.size());
  EXPECT_NEAR(r.theta[0], 2.0, 1e-5);
  EXPECT_NEAR(r.theta[1], 0.5, 1e-5);
  EXPECT_LT(r.cost, 1e-12);
}

TEST(Lm, RespectsBoxBounds) {
  // min (x - 5)^2 with x <= 2: LM must stop at the bound.
  const auto fn = [](std::span<const double> theta, Vector& r, Matrix* jac) {
    r[0] = theta[0] - 5.0;
    if (jac) {
      (*jac)(0, 0) = 1.0;
    }
  };
  const Vector start{0.0};
  const Vector lo{-10.0};
  const Vector hi{2.0};
  const auto r = minimize_lm(fn, start, lo, hi, 1);
  EXPECT_NEAR(r.theta[0], 2.0, 1e-8);
}

TEST(Lm, NumericJacobianFallback) {
  // Callback never fills the Jacobian: forward differences must kick in.
  const auto fn = [](std::span<const double> theta, Vector& r, Matrix*) {
    r[0] = theta[0] * theta[0] - 4.0;
  };
  const Vector start{1.0};
  const Vector lo{0.0};
  const Vector hi{10.0};
  const auto r = minimize_lm(fn, start, lo, hi, 1);
  EXPECT_NEAR(r.theta[0], 2.0, 1e-5);
}

// --- Barrier solver ----------------------------------------------------------

TEST(Barrier, UnconstrainedQuadratic) {
  NlpProblem p;
  p.num_vars = 2;
  const auto x = expr::variable(0);
  const auto y = expr::variable(1);
  p.objective = (x - 1.0) * (x - 1.0) + 2.0 * (y + 0.5) * (y + 0.5);
  p.lower = {-10.0, -10.0};
  p.upper = {10.0, 10.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.x[1], -0.5, 1e-4);
}

TEST(Barrier, ActiveInequality) {
  // min (x-2)^2  s.t.  x <= 1  ->  x = 1.
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = (x - 2.0) * (x - 2.0);
  p.constraints.push_back(x - 1.0);
  p.lower = {-100.0};
  p.upper = {100.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
  EXPECT_NEAR(r.objective, 1.0, 1e-3);
}

TEST(Barrier, ActiveBoxBound) {
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = -x;  // push up
  p.lower = {0.0};
  p.upper = {3.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
}

TEST(Barrier, DetectsInfeasible) {
  // x <= -1 and x >= 1 cannot both hold.
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = x;
  p.constraints.push_back(x + 1.0);   // x <= -1
  p.constraints.push_back(1.0 - x);   // x >= 1
  p.lower = {-10.0};
  p.upper = {10.0};
  EXPECT_EQ(solve_barrier(p).status, NlpStatus::kInfeasible);
}

TEST(Barrier, LayoutRelaxationShape) {
  // A miniature continuous layout-1 relaxation:
  //   min T  s.t.  T >= 1000/na + 5,  T >= 800/no + 3,  na + no <= 100.
  NlpProblem p;
  p.num_vars = 3;  // T, na, no
  const auto T = expr::variable(0);
  const auto na = expr::variable(1);
  const auto no = expr::variable(2);
  p.objective = T;
  p.constraints.push_back(1000.0 / na + 5.0 - T);
  p.constraints.push_back(800.0 / no + 3.0 - T);
  p.constraints.push_back(na + no - 100.0);
  p.lower = {0.0, 1.0, 1.0};
  p.upper = {1e6, 100.0, 100.0};
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  // Optimality: both time constraints active and nodes exhausted.
  EXPECT_NEAR(r.x[1] + r.x[2], 100.0, 1e-3);
  EXPECT_NEAR(1000.0 / r.x[1] + 5.0, r.objective, 1e-2);
  EXPECT_NEAR(800.0 / r.x[2] + 3.0, r.objective, 1e-2);
}

TEST(Barrier, StartPointUsedWhenInterior) {
  NlpProblem p;
  p.num_vars = 1;
  const auto x = expr::variable(0);
  p.objective = x * x;
  p.lower = {-5.0};
  p.upper = {5.0};
  const auto r = solve_barrier(p, linalg::Vector{2.0});
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, 1e-4);
}

TEST(Barrier, FixedVariableHandledByWidening) {
  NlpProblem p;
  p.num_vars = 2;
  const auto x = expr::variable(0);
  const auto y = expr::variable(1);
  p.objective = (x - 3.0) * (x - 3.0) + y * y;
  p.lower = {2.0, -1.0};
  p.upper = {2.0, 1.0};  // x fixed at 2
  const auto r = solve_barrier(p);
  ASSERT_EQ(r.status, NlpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-4);
}

}  // namespace
}  // namespace hslb::nlp
