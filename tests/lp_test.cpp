// Unit tests for the bounded-variable primal simplex on known LPs.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/common/error.hpp"
#include "hslb/lp/simplex.hpp"

namespace hslb::lp {
namespace {

TEST(Simplex, TextbookMaximization) {
  // max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x, y >= 0
  // optimum at (1.6, 1.2), value 2.8.
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);
  p.add_variable(0.0, kInf, -1.0);
  p.add_row({{0, 1.0}, {1, 2.0}}, -kInf, 4);
  p.add_row({{0, 3.0}, {1, 1.0}}, -kInf, 6);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.8, 1e-8);
  EXPECT_NEAR(s.x[0], 1.6, 1e-8);
  EXPECT_NEAR(s.x[1], 1.2, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y  s.t.  x + y = 5, x in [0,2], y >= 0  -> any split; obj 5.
  LpProblem p;
  p.add_variable(0.0, 2.0, 1.0);
  p.add_variable(0.0, kInf, 1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, 5.0, 5.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-8);
}

TEST(Simplex, RangeRowAndNegativeBounds) {
  // min 2x - 3y  s.t.  1 <= x + y <= 3, x in [0,10], y in [-5,5].
  // Optimum: y as big as possible within row: y = 3, x = 0 -> obj -9.
  LpProblem p;
  p.add_variable(0.0, 10.0, 2.0);
  p.add_variable(-5.0, 5.0, -3.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, 1.0, 3.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -9.0, 1e-8);
  EXPECT_NEAR(s.x[1], 3.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_row({{0, 1.0}}, 2.0, 3.0);  // x in [2,3] but x <= 1
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsInconsistentColumnBounds) {
  // Crossed column bounds never reach the solver: both entry points reject
  // them and leave the problem as it was.
  LpProblem p;
  p.add_variable(0.0, 5.0, 1.0);
  EXPECT_THROW(p.add_variable(2.0, 1.0, 1.0), InvalidArgument);
  EXPECT_EQ(p.num_vars(), 1u);
  auto s = solve(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  p.set_col_bounds(0, 3.0, 5.0);
  EXPECT_THROW(p.set_col_bounds(0, 4.0, 3.0), InvalidArgument);
  s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x.size(), 1u);
  EXPECT_DOUBLE_EQ(s.x[0], 3.0);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);  // min -x, x unbounded above
  p.add_variable(0.0, 1.0, 0.0);
  p.add_row({{1, 1.0}}, -kInf, 1.0);
  EXPECT_EQ(solve(p).status, LpStatus::kUnbounded);
}

TEST(Simplex, BoundedByColumnBoundsOnly) {
  // No rows at all: min -x with x <= 7 rests at the upper bound.
  LpProblem p;
  p.add_variable(2.0, 7.0, -1.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 7.0, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x  s.t.  x >= -3 via a row (variable itself unbounded).
  LpProblem p;
  p.add_variable(-kInf, kInf, 1.0);
  p.add_row({{0, 1.0}}, -3.0, kInf);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);
}

TEST(Simplex, ObjectiveOffsetIncluded) {
  LpProblem p;
  p.add_variable(1.0, 2.0, 1.0);
  p.set_objective_offset(100.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 101.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  LpProblem p;
  p.add_variable(0.0, kInf, -1.0);
  p.add_variable(0.0, kInf, -1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, -kInf, 1.0);
  p.add_row({{0, 2.0}, {1, 2.0}}, -kInf, 2.0);
  p.add_row({{0, 1.0}}, -kInf, 1.0);
  p.add_row({{1, 1.0}}, -kInf, 1.0);
  p.add_row({{0, 3.0}, {1, 3.0}}, -kInf, 3.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-8);
}

TEST(Simplex, EmptyProblemIsTriviallyOptimal) {
  LpProblem p;
  p.set_objective_offset(5.0);
  const auto s = solve(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 5.0);

  // With no columns every row reads 0: a row that admits 0 keeps the
  // problem optimal, one that excludes it makes the problem infeasible.
  p.add_row({}, -1.0, 2.0);
  const auto feasible = solve(p);
  EXPECT_EQ(feasible.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(feasible.objective, 5.0);
  p.add_row({}, 1.0, 2.0);
  EXPECT_EQ(solve(p).status, LpStatus::kInfeasible);
}

TEST(Simplex, FixedVariables) {
  // All variables fixed; feasibility decided by the rows.
  LpProblem p;
  p.add_variable(2.0, 2.0, 1.0);
  p.add_variable(3.0, 3.0, 1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, 5.0, 5.0);
  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);

  LpProblem q;
  q.add_variable(2.0, 2.0, 1.0);
  q.add_row({{0, 1.0}}, 3.0, 3.0);
  EXPECT_EQ(solve(q).status, LpStatus::kInfeasible);
}

TEST(LpProblem, RejectsRowBeforeAllVariables) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_row({{0, 1.0}}, 0.0, 1.0);
  EXPECT_THROW(p.add_variable(0.0, 1.0, 1.0), InvalidArgument);
}

TEST(LpProblem, RejectsColumnOutOfRangeAndCrossedBounds) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 1.0);
  p.add_variable(0.0, 1.0, 1.0);
  EXPECT_THROW(p.add_row({{0, 1.0}, {2, 2.0}}, 0.0, 1.0), InvalidArgument);
  EXPECT_THROW(p.add_row({{5, 0.0}}, 0.0, 1.0), InvalidArgument)
      << "a zero coefficient is still a reference to the column";
  EXPECT_THROW(p.add_row({{0, 1.0}}, 2.0, 1.0), InvalidArgument);
  EXPECT_EQ(p.num_rows(), 0u) << "a rejected row leaves no trace";
  EXPECT_TRUE(p.terms().empty());
}

/// The (column, value) pairs of row i.
std::vector<Term> terms_of(const LpProblem& p, std::size_t i) {
  const auto terms = p.row(i).terms;
  return {terms.begin(), terms.end()};
}

TEST(LpProblem, SortsTermsByColumn) {
  LpProblem p;
  for (int j = 0; j < 5; ++j) {
    p.add_variable(0.0, 1.0, 0.0);
  }
  p.add_row({{3, 3.0}, {0, -1.0}, {4, 4.5}, {1, 2.0}}, -1.0, 2.0);
  EXPECT_EQ(terms_of(p, 0),
            (std::vector<Term>{{0, -1.0}, {1, 2.0}, {3, 3.0}, {4, 4.5}}));
  EXPECT_EQ(p.row(0).lower, -1.0);
  EXPECT_EQ(p.row(0).upper, 2.0);
}

TEST(LpProblem, SumsRepeatsInTermOrder) {
  LpProblem p;
  p.add_variable(0.0, 1.0, 0.0);
  p.add_variable(0.0, 1.0, 0.0);
  // In term order, (0.0 + 1.0) + 1e-16 rounds back to 1.0 and -1.0 then
  // cancels it; summed in reverse, the same terms leave 2^-53.
  p.add_row({{1, 1.0}, {0, 5.0}, {1, 1e-16}, {1, -1.0}}, 0.0, 1.0);
  EXPECT_EQ(terms_of(p, 0), (std::vector<Term>{{0, 5.0}}));
  p.add_row({{1, -1.0}, {1, 1e-16}, {0, 5.0}, {1, 1.0}}, 0.0, 1.0);
  EXPECT_EQ(terms_of(p, 1),
            (std::vector<Term>{{0, 5.0}, {1, std::ldexp(1.0, -53)}}));
}

TEST(LpProblem, DropsZeroCoefficients) {
  LpProblem p;
  for (int j = 0; j < 4; ++j) {
    p.add_variable(0.0, 1.0, 0.0);
  }
  p.add_row({{0, 0.0}, {1, -0.0}, {2, 2.5}, {3, 0.75}, {3, -0.75}}, 0.0, 1.0);
  EXPECT_EQ(terms_of(p, 0), (std::vector<Term>{{2, 2.5}}));
  p.add_row({}, -1.0, 1.0);
  EXPECT_TRUE(p.row(1).terms.empty());
  EXPECT_EQ(p.row_start().size(), 3u);
  EXPECT_EQ(p.terms().size(), 1u);
}

}  // namespace
}  // namespace hslb::lp
