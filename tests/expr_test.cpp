// Unit + property tests for the expression DSL and its derivatives.
#include <cmath>

#include <gtest/gtest.h>

#include "hslb/common/rng.hpp"
#include "hslb/expr/expr.hpp"

namespace hslb::expr {
namespace {

using linalg::Vector;

TEST(Expr, ConstantFolding) {
  const Expr e = Expr(2.0) + Expr(3.0) * Expr(4.0);
  ASSERT_TRUE(e.is_constant());
  EXPECT_DOUBLE_EQ(e.constant_value(), 14.0);
}

TEST(Expr, IdentitySimplifications) {
  const Expr x = variable(0, "x");
  EXPECT_EQ((x + 0.0).ptr().get(), x.ptr().get());
  EXPECT_EQ((x * 1.0).ptr().get(), x.ptr().get());
  EXPECT_TRUE((x * 0.0).is_constant());
  EXPECT_EQ((x / 1.0).ptr().get(), x.ptr().get());
  EXPECT_EQ((-(-x)).ptr().get(), x.ptr().get());
  EXPECT_EQ(log(exp(x)).ptr().get(), x.ptr().get());
  EXPECT_EQ(exp(log(x)).ptr().get(), x.ptr().get());
}

TEST(Expr, EvalBasics) {
  const Expr x = variable(0, "x");
  const Expr y = variable(1, "y");
  const Expr e = 2.0 * x + y * y - x / y;
  const Vector at{3.0, 2.0};
  EXPECT_DOUBLE_EQ(eval(e, at), 6.0 + 4.0 - 1.5);
}

TEST(Expr, PowConstantExponent) {
  const Expr x = variable(0, "x");
  const Expr e = pow(x, 3.0);
  EXPECT_DOUBLE_EQ(eval(e, Vector{2.0}), 8.0);
}

TEST(Expr, PowVariableExponentRewrites) {
  const Expr x = variable(0, "x");
  const Expr c = variable(1, "c");
  const Expr e = pow(x, c);  // becomes exp(c log x)
  EXPECT_NEAR(eval(e, Vector{2.0, 3.0}), 8.0, 1e-12);
  EXPECT_NEAR(eval(e, Vector{5.0, 0.5}), std::sqrt(5.0), 1e-12);
}

TEST(Expr, PerformanceModelShape) {
  // The Table II function: a/n + b n^c + d.
  const Expr n = variable(0, "n");
  const Expr t = 27000.0 / n + 0.001 * pow(n, 1.1) + 45.0;
  const double v = eval(t, Vector{128.0});
  EXPECT_NEAR(v, 27000.0 / 128.0 + 0.001 * std::pow(128.0, 1.1) + 45.0,
              1e-10);
}

TEST(Expr, LinearityClassification) {
  const Expr x = variable(0);
  const Expr y = variable(1);
  EXPECT_EQ(Expr(3.0).linearity(), Linearity::kConstant);
  EXPECT_EQ(x.linearity(), Linearity::kLinear);
  EXPECT_EQ((2.0 * x + 3.0 * y - 1.0).linearity(), Linearity::kLinear);
  EXPECT_EQ((x / 2.0).linearity(), Linearity::kLinear);
  EXPECT_EQ((x * y).linearity(), Linearity::kNonlinear);
  EXPECT_EQ((1.0 / x).linearity(), Linearity::kNonlinear);
  EXPECT_EQ(pow(x, 2.0).linearity(), Linearity::kNonlinear);
}

TEST(Expr, AffineExtraction) {
  const Expr x = variable(0);
  const Expr y = variable(1);
  const auto affine = as_affine(2.0 * x - 0.5 * y + 7.0, 2);
  ASSERT_TRUE(affine.has_value());
  EXPECT_DOUBLE_EQ(affine->constant, 7.0);
  EXPECT_DOUBLE_EQ(affine->coeffs[0], 2.0);
  EXPECT_DOUBLE_EQ(affine->coeffs[1], -0.5);
  EXPECT_FALSE(as_affine(x * y, 2).has_value());
}

TEST(Expr, VariablesOfAndRemap) {
  const Expr x = variable(0);
  const Expr z = variable(2);
  const Expr e = x * z + z;
  const auto vars = variables_of(e);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], 0u);
  EXPECT_EQ(vars[1], 2u);
  const std::vector<std::size_t> mapping{5, 6, 7};
  const Expr remapped = remap_variables(e, mapping);
  const auto new_vars = variables_of(remapped);
  EXPECT_EQ(new_vars[0], 5u);
  EXPECT_EQ(new_vars[1], 7u);
  Vector point(8, 0.0);
  point[5] = 2.0;
  point[7] = 3.0;
  EXPECT_DOUBLE_EQ(eval(remapped, point), 9.0);
}

TEST(Expr, MaxVarIndex) {
  EXPECT_FALSE(max_var_index(Expr(1.0)).has_value());
  EXPECT_EQ(*max_var_index(variable(4) + variable(2)), 4u);
}

TEST(Expr, PrintingRoundTripReadable) {
  const Expr n = variable(0, "n");
  const std::string s = to_string(27000.0 / n + 45.0);
  EXPECT_NE(s.find("27000 / n"), std::string::npos);
  EXPECT_NE(s.find("45"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Property: autodiff gradients and Hessians match finite differences for a
// family of randomly assembled expressions.
// ---------------------------------------------------------------------------

Expr random_expr(common::Rng& rng, std::size_t nvars, int depth) {
  if (depth <= 0) {
    if (rng.uniform() < 0.4) {
      return Expr(rng.uniform(0.5, 2.0));
    }
    return variable(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nvars) - 1)));
  }
  const Expr a = random_expr(rng, nvars, depth - 1);
  const Expr b = random_expr(rng, nvars, depth - 1);
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return a + b;
    case 1:
      return a - b;
    case 2:
      return a * b;
    case 3:
      return a / (b * b + 1.0);  // keep denominators positive
    case 4:
      return exp(a * 0.1);
    default:
      return log(a * a + 1.5);
  }
}

class ExprDerivativeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExprDerivativeProperty, MatchesFiniteDifferences) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1234567 + 1);
  constexpr std::size_t kVars = 3;
  const Expr e = random_expr(rng, kVars, 3);

  Vector x(kVars);
  for (auto& v : x) {
    v = rng.uniform(0.5, 1.5);
  }
  const auto vgh = eval_hess(e, x, kVars);
  EXPECT_NEAR(vgh.value, eval(e, x), 1e-12);
  // The barrier's residuals take gradients from eval_grad and its Newton
  // steps from eval_hess; the two must agree to the bit.
  const auto vg = eval_grad(e, x, kVars);
  for (std::size_t i = 0; i < kVars; ++i) {
    EXPECT_EQ(vg.grad[i], vgh.grad[i]) << "grad[" << i << "]";
  }

  const double h = 1e-6;
  for (std::size_t i = 0; i < kVars; ++i) {
    Vector xp = x;
    Vector xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (eval(e, xp) - eval(e, xm)) / (2.0 * h);
    const double scale = 1.0 + std::fabs(fd);
    EXPECT_NEAR(vgh.grad[i], fd, 1e-5 * scale) << "grad[" << i << "]";
    // Hessian column via gradient differences.
    const auto gp = eval_grad(e, xp, kVars);
    const auto gm = eval_grad(e, xm, kVars);
    for (std::size_t j = 0; j < kVars; ++j) {
      const double fd2 = (gp.grad[j] - gm.grad[j]) / (2.0 * h);
      EXPECT_NEAR(vgh.hess(j, i), fd2, 1e-4 * (1.0 + std::fabs(fd2)))
          << "hess(" << j << "," << i << ")";
    }
  }
  // Hessian symmetry.
  for (std::size_t i = 0; i < kVars; ++i) {
    for (std::size_t j = 0; j < kVars; ++j) {
      EXPECT_NEAR(vgh.hess(i, j), vgh.hess(j, i), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomExpressions, ExprDerivativeProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace hslb::expr
