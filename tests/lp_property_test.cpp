// Property-based tests for the simplex: random instances are checked for
// feasibility of the returned point, consistency against known feasible
// points, and (up to five columns) against brute-force vertex enumeration.
// The incremental pricing is checked for history independence: a solve
// must not depend on what the thread's workspace solved before.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hslb/common/rng.hpp"
#include "hslb/linalg/factor.hpp"
#include "hslb/lp/simplex.hpp"

namespace hslb::lp {
namespace {

using linalg::Vector;

/// Adds the row lower <= coeffs . x <= upper given as a dense vector.
void add_dense_row(LpProblem& p, const Vector& coeffs, double lower,
                   double upper) {
  std::vector<Term> terms;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    terms.emplace_back(j, coeffs[j]);
  }
  p.add_row(terms, lower, upper);
}

/// Row i of `p` as a dense vector.
Vector dense_row(const LpProblem& p, std::size_t i) {
  Vector coeffs(p.num_vars(), 0.0);
  for (const auto& [j, a] : p.row(i).terms) {
    coeffs[j] = a;
  }
  return coeffs;
}

bool satisfies(const LpProblem& p, const Vector& x, double tol = 1e-6) {
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    if (x[j] < p.col_lower()[j] - tol || x[j] > p.col_upper()[j] + tol) {
      return false;
    }
  }
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    const Row row = p.row(i);
    double v = 0.0;
    for (const auto& [j, a] : row.terms) {
      v += a * x[j];
    }
    const double scale = 1.0 + std::fabs(v);
    if (v < row.lower - tol * scale || v > row.upper + tol * scale) {
      return false;
    }
  }
  return true;
}

double objective_at(const LpProblem& p, const Vector& x) {
  double v = p.objective_offset();
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    v += p.cost()[j] * x[j];
  }
  return v;
}

// ---------------------------------------------------------------------------
// Feasible-by-construction instances: solution must be feasible and at least
// as good as the seed point.
// ---------------------------------------------------------------------------

class SimplexFeasibleProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexFeasibleProperty, OptimalBeatsSeedPoint) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(1, 7));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 9));

  LpProblem p;
  Vector seed(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 10.0);
    p.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
    seed[j] = rng.uniform(lo, hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    Vector coeffs(n);
    double at_seed = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-2.0, 2.0);
      at_seed += coeffs[j] * seed[j];
    }
    // Row passes through the seed with slack on both sides.
    add_dense_row(p, coeffs, at_seed - rng.uniform(0.0, 3.0),
                  at_seed + rng.uniform(0.0, 3.0));
  }

  const auto s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal)
      << "seed-feasible LP must be solvable";
  EXPECT_TRUE(satisfies(p, s.x)) << "returned point must be feasible";
  EXPECT_LE(s.objective, objective_at(p, seed) + 1e-6)
      << "optimum cannot be worse than a known feasible point";
}

INSTANTIATE_TEST_SUITE_P(RandomFeasible, SimplexFeasibleProperty,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Small instances vs brute-force vertex enumeration: the oracle the simplex
// is checked against, independent of its pivot rules.
// ---------------------------------------------------------------------------

/// One constraint of the enumeration: lower <= a.x <= upper (a row, or a
/// column bound as a unit vector).
struct Constraint {
  Vector a;
  double lower;
  double upper;
};

/// Least objective over the vertices of a bounded LP: every set of n
/// distinct constraints, each held at one of its finite bounds, is solved
/// as an n x n system, and the points `satisfies` accepts are kept.
/// nullopt when no vertex is feasible.
std::optional<double> brute_force_optimum(const LpProblem& p) {
  const std::size_t n = p.num_vars();
  std::vector<Constraint> constraints;
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    constraints.push_back({dense_row(p, i), p.row(i).lower, p.row(i).upper});
  }
  for (std::size_t j = 0; j < n; ++j) {
    Vector unit(n, 0.0);
    unit[j] = 1.0;
    constraints.push_back({unit, p.col_lower()[j], p.col_upper()[j]});
  }

  std::optional<double> best;
  const std::size_t k = constraints.size();
  for (std::uint32_t set = 0; set < (1u << k); ++set) {
    if (static_cast<std::size_t>(std::popcount(set)) != n) {
      continue;
    }
    std::vector<const Constraint*> chosen;
    linalg::Matrix a(n, n);
    for (std::size_t c = 0; c < k; ++c) {
      if (((set >> c) & 1u) != 0) {
        const std::size_t r = chosen.size();
        chosen.push_back(&constraints[c]);
        for (std::size_t j = 0; j < n; ++j) {
          a(r, j) = constraints[c].a[j];
        }
      }
    }
    const auto lu = linalg::LuFactor::compute(a);
    if (!lu) {
      continue;  // dependent constraints meet in no single point
    }
    for (std::uint32_t sides = 0; sides < (1u << n); ++sides) {
      Vector b(n);
      bool finite = true;
      for (std::size_t r = 0; r < n; ++r) {
        b[r] = ((sides >> r) & 1u) != 0 ? chosen[r]->upper : chosen[r]->lower;
        finite = finite && std::isfinite(b[r]);
      }
      if (!finite) {
        continue;
      }
      const Vector x = lu->solve(b);
      if (satisfies(p, x, 1e-9)) {
        const double value = objective_at(p, x);
        best = best ? std::min(*best, value) : value;
      }
    }
  }
  return best;
}

class SimplexBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(SimplexBruteForce, MatchesVertexEnumeration) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 6));

  // Finite column bounds keep the polytope bounded, so a feasible instance
  // attains its optimum at a vertex.
  LpProblem p;
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(rng.uniform(-3.0, 0.0), rng.uniform(0.5, 4.0),
                   rng.uniform(-2.0, 2.0));
  }
  for (std::size_t i = 0; i < m; ++i) {
    Vector coeffs(n);
    for (double& c : coeffs) {
      c = rng.uniform(-2.0, 2.0);
    }
    const double upper = rng.uniform(-1.0, 4.0);
    const double lower =
        rng.uniform(0.0, 1.0) < 0.5 ? -kInf : upper - rng.uniform(0.5, 4.0);
    add_dense_row(p, coeffs, lower, upper);
  }

  const std::optional<double> brute = brute_force_optimum(p);
  const auto s = solve(p);
  if (!brute) {
    // No feasible vertex: a bounded polytope is empty.  An answer the
    // simplex accepts inside its own tolerance must still be feasible.
    if (s.status == LpStatus::kOptimal) {
      EXPECT_TRUE(satisfies(p, s.x));
    }
    return;
  }
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_TRUE(satisfies(p, s.x));
  EXPECT_NEAR(s.objective, *brute, 1e-6 * (1.0 + std::fabs(*brute)));
}

INSTANTIATE_TEST_SUITE_P(RandomSmall, SimplexBruteForce,
                         ::testing::Range(0, 100));

// Scaling property: doubling the cost vector doubles the optimal value of a
// problem with zero offset.
class SimplexScalingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexScalingProperty, CostScalingScalesObjective) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  LpProblem p;
  const std::size_t n = 3;
  for (std::size_t j = 0; j < n; ++j) {
    p.add_variable(0.0, rng.uniform(1.0, 5.0), rng.uniform(-1.0, 1.0));
  }
  p.add_row({{0, 1.0}, {1, 1.0}, {2, 1.0}}, 0.5, 4.0);

  const auto s1 = solve(p);
  ASSERT_EQ(s1.status, LpStatus::kOptimal);
  LpProblem doubled = p;
  for (std::size_t j = 0; j < n; ++j) {
    doubled.set_cost(j, 2.0 * p.cost()[j]);
  }
  const auto s2 = solve(doubled);
  ASSERT_EQ(s2.status, LpStatus::kOptimal);
  EXPECT_NEAR(s2.objective, 2.0 * s1.objective, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Scaling, SimplexScalingProperty,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// Warm-start properties: resolve_from_basis must reach the same optimum as a
// cold solve -- on the identical problem, after bound/cost modifications, and
// across row reorderings remapped with map_basis.
// ---------------------------------------------------------------------------

/// Random feasible-by-construction LP (same family as the first suite).
LpProblem random_feasible(common::Rng& rng, Vector* seed_out = nullptr) {
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(1, 6));
  const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(1, 8));
  LpProblem p;
  Vector seed(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 10.0);
    p.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
    seed[j] = rng.uniform(lo, hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    Vector coeffs(n);
    double at_seed = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      coeffs[j] = rng.uniform(-2.0, 2.0);
      at_seed += coeffs[j] * seed[j];
    }
    add_dense_row(p, coeffs, at_seed - rng.uniform(0.1, 3.0),
                  at_seed + rng.uniform(0.1, 3.0));
  }
  if (seed_out != nullptr) {
    *seed_out = seed;
  }
  return p;
}

class SimplexWarmStartProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmStartProperty, SameProblemResolveSkipsPhase1) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const LpProblem p = random_feasible(rng);

  SimplexOptions capture;
  capture.capture_basis = true;
  const LpSolution cold = solve(p, capture);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  if (cold.basis.empty()) {
    return;  // an artificial stayed basic; nothing to warm-start from
  }

  const LpSolution warm = resolve_from_basis(p, cold.basis);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_TRUE(warm.warm_phase1_skipped)
      << "re-solving the identical problem from its optimal basis must not "
         "re-run Phase I";
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7);
  EXPECT_TRUE(satisfies(p, warm.x));
}

TEST_P(SimplexWarmStartProperty, ModifiedProblemResolveMatchesColdOptimum) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 12289 + 11);
  Vector seed;
  LpProblem p = random_feasible(rng, &seed);

  SimplexOptions capture;
  capture.capture_basis = true;
  const LpSolution first = solve(p, capture);
  ASSERT_EQ(first.status, LpStatus::kOptimal);

  // Perturb the problem the way branch-and-bound does: tighten variable
  // bounds around a still-feasible point and nudge the costs.
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    if (rng.uniform(0.0, 1.0) < 0.5) {
      p.set_cost(j, p.cost()[j] + rng.uniform(-0.5, 0.5));
    }
    const double lo = std::min(seed[j], p.col_lower()[j] +
                                            rng.uniform(0.0, 0.5));
    const double hi = std::max(seed[j], p.col_upper()[j] -
                                            rng.uniform(0.0, 0.5));
    p.set_col_bounds(j, lo, hi);
  }

  const LpSolution cold = solve(p);
  const LpSolution warm = first.basis.empty()
                              ? resolve_from_basis(p, Basis{})
                              : resolve_from_basis(p, first.basis);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6)
      << "a warm solve must find the same optimal value as a cold solve";
  EXPECT_TRUE(satisfies(p, warm.x));
}

TEST_P(SimplexWarmStartProperty, RowReorderRemapMatchesColdOptimum) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 24593 + 29);
  const LpProblem p = random_feasible(rng);

  SimplexOptions capture;
  capture.capture_basis = true;
  const LpSolution cold = solve(p, capture);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  // The same rows with their terms shuffled and one coefficient c split
  // into two terms of 0.5 c, whose sum is exact: add_row stores the same
  // problem, so the solve must repeat bit for bit.
  LpProblem shuffled;
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    shuffled.add_variable(p.col_lower()[j], p.col_upper()[j], p.cost()[j]);
  }
  const auto split_row = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(p.num_rows()) - 1));
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    const Row row = p.row(i);
    std::vector<Term> terms(row.terms.begin(), row.terms.end());
    if (i == split_row && !terms.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(terms.size()) - 1));
      const Term half{terms[k].first, 0.5 * terms[k].second};
      terms[k] = half;
      terms.push_back(half);
    }
    std::shuffle(terms.begin(), terms.end(), rng);
    shuffled.add_row(terms, row.lower, row.upper);
  }
  ASSERT_TRUE(std::ranges::equal(shuffled.terms(), p.terms()));
  ASSERT_TRUE(std::ranges::equal(shuffled.row_start(), p.row_start()));
  const LpSolution again = solve(shuffled, capture);
  ASSERT_EQ(again.status, LpStatus::kOptimal);
  EXPECT_EQ(again.objective, cold.objective);
  EXPECT_EQ(again.x, cold.x);

  if (cold.basis.empty()) {
    return;
  }

  // Rebuild the problem with its rows reversed and remap the basis through
  // stable row keys -- the same mechanism branch-and-bound uses when the cut
  // set changes between parent and child.
  LpProblem reordered;
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    reordered.add_variable(p.col_lower()[j], p.col_upper()[j], p.cost()[j]);
  }
  std::vector<std::uint64_t> from_keys;
  std::vector<std::uint64_t> to_keys;
  const std::size_t m = p.num_rows();
  for (std::size_t i = 0; i < m; ++i) {
    from_keys.push_back(static_cast<std::uint64_t>(i));
  }
  for (std::size_t i = m; i-- > 0;) {
    const Row row = p.row(i);
    reordered.add_row(row.terms, row.lower, row.upper);
    to_keys.push_back(static_cast<std::uint64_t>(i));
  }

  const Basis mapped = map_basis(cold.basis, from_keys, to_keys);
  const LpSolution warm = resolve_from_basis(reordered, mapped);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7)
      << "reordering rows must not change the optimum a mapped basis reaches";
  EXPECT_TRUE(satisfies(reordered, warm.x));
}

TEST_P(SimplexWarmStartProperty, AddedRowSlackEntersBasisAndSkipsPhase1) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40961 + 17);
  const LpProblem p = random_feasible(rng);

  SimplexOptions capture;
  capture.capture_basis = true;
  const LpSolution cold = solve(p, capture);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  if (cold.basis.empty()) {
    return;
  }

  // Append a new row that holds at the cold optimum -- the shape of a lazy
  // OA cut a child node inherits.  map_basis gives the new row a basic
  // slack, so the extended basis stays primal feasible and Phase I is
  // skipped even though the row set grew.
  LpProblem grown;
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    grown.add_variable(p.col_lower()[j], p.col_upper()[j], p.cost()[j]);
  }
  std::vector<std::uint64_t> from_keys;
  std::vector<std::uint64_t> to_keys;
  for (std::size_t i = 0; i < p.num_rows(); ++i) {
    const Row row = p.row(i);
    grown.add_row(row.terms, row.lower, row.upper);
    from_keys.push_back(static_cast<std::uint64_t>(i));
    to_keys.push_back(static_cast<std::uint64_t>(i));
  }
  Vector cut(p.num_vars());
  double at_opt = 0.0;
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    cut[j] = rng.uniform(-2.0, 2.0);
    at_opt += cut[j] * cold.x[j];
  }
  add_dense_row(grown, cut, -kInf, at_opt + rng.uniform(0.1, 1.0));
  to_keys.push_back(1u << 20);  // a fresh key: no match in from_keys

  const Basis mapped = map_basis(cold.basis, from_keys, to_keys);
  const LpSolution warm = resolve_from_basis(grown, mapped);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_used);
  EXPECT_TRUE(warm.warm_phase1_skipped)
      << "a satisfied added row must not force the cold path";
  EXPECT_EQ(warm.phase1_iterations, 0);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7)
      << "a non-binding added row cannot change the optimum";
  EXPECT_TRUE(satisfies(grown, warm.x));
}

INSTANTIATE_TEST_SUITE_P(WarmStarts, SimplexWarmStartProperty,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Maintained-factor properties: eta-updated solves must agree with fresh
// factorizations over whatever pivot sequence the instance produces.
// ---------------------------------------------------------------------------

class SimplexSparseEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexSparseEngineProperty, EtaUpdatedSolvesMatchFreshFactorization) {
  // The same instance solved with the eta file effectively disabled
  // (refactorize after every pivot) and with a pure update path (triggers
  // pushed out of reach): every maintained solve along the randomized pivot
  // sequence must agree with a fresh LU of its basis.
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 75611 + 7);
  const LpProblem p = random_feasible(rng);
  SimplexOptions fresh;
  fresh.refactor_interval = 1;
  SimplexOptions maintained;
  maintained.refactor_interval = 1 << 20;
  maintained.eta_fill_factor = 1e9;
  const LpSolution a = solve(p, fresh);
  const LpSolution b = solve(p, maintained);
  ASSERT_EQ(a.status, LpStatus::kOptimal);
  ASSERT_EQ(b.status, LpStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-7);
  EXPECT_TRUE(satisfies(p, b.x));
  // The maintained run really did ride the eta file: it never refactorizes,
  // while the fresh run rebuilds after every appended update.
  EXPECT_EQ(b.refactorizations, 0);
  if (b.eta_updates > 0) {
    EXPECT_GT(a.refactorizations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(SparseEngine, SimplexSparseEngineProperty,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Stability fallback regressions: refused eta updates must refactorize, and
// an ill-scaled basis must not derail the maintained-factor engine.
// ---------------------------------------------------------------------------

TEST(SimplexSparseStability, RefusedEtaFallsBackToRefactorization) {
  // eta_stability_tol > 1 refuses every product-form update (|w_r| can never
  // exceed max(1, ||w||_inf)), so each pivot must take the refactorization
  // fallback -- and the trajectory must not change.
  for (int trial = 0; trial < 20; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 179426 + 3);
    const LpProblem p = random_feasible(rng);
    SimplexOptions strict;
    strict.eta_stability_tol = 1.5;
    const LpSolution a = solve(p, strict);
    const LpSolution b = solve(p);
    ASSERT_EQ(a.status, LpStatus::kOptimal);
    ASSERT_EQ(b.status, LpStatus::kOptimal);
    EXPECT_EQ(a.eta_updates, 0) << "no eta can survive a tolerance above 1";
    if (b.eta_updates > 0) {
      EXPECT_GT(a.refactorizations, 0)
          << "refused updates must rebuild the factorization";
    }
    EXPECT_NEAR(a.objective, b.objective, 1e-7);
    EXPECT_TRUE(satisfies(p, a.x));
  }
}

TEST(SimplexSparseStability, IllScaledColumnsStayCorrect) {
  // Rescale a feasible instance's columns across twelve orders of magnitude
  // (the substitution x_j = s_j * x'_j preserves the optimal value exactly).
  // Degenerate near-zero pivots in the scaled basis must trip the stability
  // fallback, not corrupt the solve.
  for (int trial = 0; trial < 20; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 64601 + 19);
    const LpProblem p = random_feasible(rng);
    const LpSolution reference = solve(p);
    ASSERT_EQ(reference.status, LpStatus::kOptimal);

    LpProblem scaled;
    std::vector<double> s(p.num_vars());
    for (std::size_t j = 0; j < p.num_vars(); ++j) {
      s[j] = std::pow(10.0, rng.uniform(-6.0, 6.0));
      scaled.add_variable(p.col_lower()[j] / s[j], p.col_upper()[j] / s[j],
                          p.cost()[j] * s[j]);
    }
    for (std::size_t i = 0; i < p.num_rows(); ++i) {
      const Row row = p.row(i);
      std::vector<Term> terms;
      for (const auto& [j, a] : row.terms) {
        terms.emplace_back(j, a * s[j]);
      }
      scaled.add_row(terms, row.lower, row.upper);
    }

    const LpSolution a = solve(scaled);
    ASSERT_EQ(a.status, LpStatus::kOptimal) << "trial " << trial;
    const double tol = 1e-5 * (1.0 + std::fabs(reference.objective));
    EXPECT_NEAR(a.objective, reference.objective, tol) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Incremental pricing: reduced costs and scores kept across pivots must pick
// the column a full Dantzig scan picks, and nothing may outlive a solve.
// ---------------------------------------------------------------------------

TEST(Simplex, DantzigTieGoesToSmallestIndex) {
  // x0, x1 and the row's slack all price at |d| = 1 in Phase I.  The tie
  // goes to the smallest index, so x0 enters and x1 stays at 0.
  LpProblem p;
  p.add_variable(0.0, 1.0, -1.0);
  p.add_variable(0.0, 1.0, -1.0);
  p.add_row({{0, 1.0}, {1, 1.0}}, -kInf, 1.0);
  const LpSolution s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.x, (Vector{1.0, 0.0}));
  EXPECT_EQ(s.objective, -1.0);
}

/// A row waiting for every column to exist.
struct PendingRow {
  std::vector<Term> terms;
  double lower;
  double upper;
};

/// Appends the columns of a restrict_to_set block -- `values.size()` set
/// columns z_k in [0, 1] -- and queues its two equality rows, which give
/// each set column two nonzeros: sum z_k = 1 and sum v_k z_k - target = 0.
void add_set_block(LpProblem& p, std::size_t target, const Vector& values,
                   const Vector& costs, std::vector<PendingRow>& rows) {
  PendingRow choose{{}, 1.0, 1.0};
  PendingRow link{{}, 0.0, 0.0};
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::size_t z = p.add_variable(0.0, 1.0, costs[k]);
    choose.terms.emplace_back(z, 1.0);
    link.terms.emplace_back(z, values[k]);
  }
  link.terms.emplace_back(target, -1.0);
  rows.push_back(std::move(choose));
  rows.push_back(std::move(link));
}

bool has_column(const std::vector<Term>& terms, std::size_t j) {
  return std::ranges::any_of(terms,
                             [j](const Term& t) { return t.first == j; });
}

/// A feasible LP with the column and row kinds node LPs carry: up to two
/// set blocks, free columns (cost 0), fixed columns, one-sided columns
/// (costs signed so the objective stays bounded) and sparse ranged,
/// one-sided and equality rows, all through a seed point.
struct PricingCase {
  LpProblem problem;
  Vector seed;
};

PricingCase pricing_case(common::Rng& rng, std::size_t n, int sets) {
  PricingCase c;
  LpProblem& p = c.problem;
  Vector& seed = c.seed;
  const std::size_t set_size =
      sets > 0 ? std::max<std::size_t>(4, n / (3 * sets)) : 0;
  const std::size_t plain = n - static_cast<std::size_t>(sets) * (set_size + 1);
  for (std::size_t j = 0; j < plain; ++j) {
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.07) {  // free
      p.add_variable(-kInf, kInf, 0.0);
      seed.push_back(rng.uniform(-3.0, 3.0));
    } else if (kind < 0.14) {  // fixed
      const double v = rng.uniform(-2.0, 2.0);
      p.add_variable(v, v, rng.uniform(-2.0, 2.0));
      seed.push_back(v);
    } else if (kind < 0.20) {  // lower bound only
      const double lo = rng.uniform(-5.0, 0.0);
      p.add_variable(lo, kInf, rng.uniform(0.0, 2.0));
      seed.push_back(lo + rng.uniform(0.0, 4.0));
    } else if (kind < 0.26) {  // upper bound only
      const double hi = rng.uniform(0.0, 5.0);
      p.add_variable(-kInf, hi, rng.uniform(-2.0, 0.0));
      seed.push_back(hi - rng.uniform(0.0, 4.0));
    } else {
      const double lo = rng.uniform(-5.0, 0.0);
      const double hi = lo + rng.uniform(0.5, 10.0);
      p.add_variable(lo, hi, rng.uniform(-2.0, 2.0));
      seed.push_back(rng.uniform(lo, hi));
    }
  }
  std::vector<PendingRow> rows;
  for (int b = 0; b < sets; ++b) {
    Vector values(set_size);
    Vector costs(set_size);
    double v = 0.0;
    for (std::size_t k = 0; k < set_size; ++k) {
      v += rng.uniform(1.0, 8.0);
      values[k] = v;
      costs[k] = rng.uniform(-1.0, 1.0);
    }
    const std::size_t target =
        p.add_variable(values.front(), values.back(), rng.uniform(-0.1, 0.1));
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(set_size) - 1));
    seed.push_back(values[pick]);
    add_set_block(p, target, values, costs, rows);
    for (std::size_t k = 0; k < set_size; ++k) {
      seed.push_back(k == pick ? 1.0 : 0.0);
    }
  }
  for (std::size_t i = 0; i < 2 + n / 10; ++i) {
    std::vector<Term> terms;
    const auto width = static_cast<std::size_t>(rng.uniform_int(2, 8));
    double at_seed = 0.0;
    for (std::size_t k = 0; k < width; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (has_column(terms, j)) {
        continue;
      }
      terms.emplace_back(j, rng.uniform(-2.0, 2.0));
      at_seed += terms.back().second * seed[j];
    }
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.5) {
      const double below = rng.uniform(0.1, 3.0);
      rows.push_back({terms, at_seed - below, at_seed + rng.uniform(0.1, 3.0)});
    } else if (kind < 0.7) {
      rows.push_back({terms, -kInf, at_seed + rng.uniform(0.0, 2.0)});
    } else if (kind < 0.9) {
      rows.push_back({terms, at_seed - rng.uniform(0.0, 2.0), kInf});
    } else {
      rows.push_back({terms, at_seed, at_seed});
    }
  }
  for (const PendingRow& row : rows) {
    p.add_row(row.terms, row.lower, row.upper);
  }
  return c;
}

/// The B&B step after a solve: tighten some bounds around the seed (fix
/// some set columns at 0) and append a sparse row that holds at the seed
/// but may cut the optimum off; the basis follows through map_basis.
std::pair<LpProblem, Basis> child_of(const PricingCase& c,
                                     const LpSolution& parent,
                                     common::Rng& rng) {
  LpProblem child = c.problem;
  const std::size_t n = child.num_vars();
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.uniform(0.0, 1.0) >= 0.15) {
      continue;
    }
    const double lo = child.col_lower()[j];
    const double hi = child.col_upper()[j];
    if (lo == 0.0 && hi == 1.0 && c.seed[j] == 0.0) {
      child.set_col_bounds(j, 0.0, 0.0);  // a set column branched away
    } else if (std::isfinite(lo) && std::isfinite(hi) && lo < hi) {
      const double s = c.seed[j];
      child.set_col_bounds(j, s - rng.uniform(0.0, 1.0) * (s - lo),
                           s + rng.uniform(0.0, 1.0) * (hi - s));
    }
  }
  std::vector<Term> cut;
  double at_seed = 0.0;
  for (int k = 0; k < 4; ++k) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (has_column(cut, j)) {
      continue;
    }
    cut.emplace_back(j, rng.uniform(-2.0, 2.0));
    at_seed += cut.back().second * c.seed[j];
  }
  child.add_row(cut, -kInf, at_seed + rng.uniform(0.0, 0.5));
  std::vector<std::uint64_t> from_keys(c.problem.num_rows());
  for (std::size_t i = 0; i < from_keys.size(); ++i) {
    from_keys[i] = i;
  }
  std::vector<std::uint64_t> to_keys = from_keys;
  to_keys.push_back(1u << 20);  // a fresh key: the cut's slack goes basic
  Basis basis = parent.basis.empty()
                    ? Basis{}
                    : map_basis(parent.basis, from_keys, to_keys);
  return {std::move(child), std::move(basis)};
}

/// Every field of `a` and `b` but the wall-clock timings, bit for bit.
void expect_identical(const LpSolution& a, const LpSolution& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
            std::bit_cast<std::uint64_t>(b.objective));
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.x[j]),
              std::bit_cast<std::uint64_t>(b.x[j]))
        << "x[" << j << "]";
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.phase1_iterations, b.phase1_iterations);
  EXPECT_EQ(a.factorizations, b.factorizations);
  EXPECT_EQ(a.refactorizations, b.refactorizations);
  EXPECT_EQ(a.eta_updates, b.eta_updates);
  EXPECT_EQ(a.bound_flips, b.bound_flips);
  EXPECT_EQ(a.priced_columns, b.priced_columns);
  EXPECT_EQ(a.warm_used, b.warm_used);
  EXPECT_EQ(a.warm_phase1_skipped, b.warm_phase1_skipped);
  EXPECT_EQ(a.basis.cols, b.basis.cols);
  EXPECT_EQ(a.basis.row_slacks, b.basis.row_slacks);
}

/// Work of one case: its cold solve's iterations, Phase I iterations and
/// bound flips, and its warm child's iterations.
struct CaseWork {
  int cold_iterations;
  int cold_phase1;
  int cold_flips;
  int warm_iterations;
};

/// ReusedWorkspaceMatchesFreshThread's cases as a pricing that scans every
/// column at every pivot solves them (recorded with that pricing).  A kept
/// reduced cost that missed a change can still let an improving column
/// enter and reach the same optimum; these counts catch that.
constexpr std::array<CaseWork, 40> kFullScanWork{{
    {10, 3, 7, 0}, {13, 6, 1, 0}, {17, 9, 0, 4}, {13, 5, 4, 2}, {18, 7, 2, 0},
    {14, 10, 3, 2}, {19, 4, 8, 1}, {20, 11, 2, 3}, {18, 10, 8, 0},
    {17, 6, 7, 1}, {24, 10, 4, 2}, {26, 13, 7, 2}, {26, 7, 13, 4},
    {27, 9, 8, 3}, {41, 18, 12, 0}, {37, 10, 19, 0}, {36, 15, 15, 2},
    {51, 18, 23, 4}, {40, 11, 20, 0}, {52, 20, 23, 1}, {61, 24, 24, 3},
    {74, 19, 42, 0}, {64, 23, 27, 4}, {84, 26, 36, 2}, {105, 22, 55, 2},
    {96, 30, 38, 4}, {115, 39, 48, 7}, {149, 33, 84, 6}, {141, 43, 75, 0},
    {170, 53, 83, 2}, {230, 51, 131, 1}, {198, 72, 100, 3}, {233, 73, 112, 11},
    {324, 73, 189, 5}, {268, 83, 136, 7}, {317, 95, 146, 8},
    {484, 105, 282, 8}, {383, 112, 205, 10}, {449, 147, 229, 3},
    {650, 149, 396, 7},
}};

TEST(SimplexPricingProperty, ReusedWorkspaceMatchesFreshThread) {
  // Forty shapes, n log-spaced from 10 to 1,200, each solved cold and then
  // warm after a B&B-style edit.  The sequence runs on this thread (whose
  // workspace has served every test before it), then in reverse order on a
  // new thread with a fresh workspace.  Any cache state that survived a
  // solve of another shape would make the two runs part ways, and each
  // case must take the full scan's pivots (kFullScanWork).
  constexpr int kCases = static_cast<int>(kFullScanWork.size());
  std::vector<PricingCase> cases;
  std::vector<std::pair<LpProblem, Basis>> children;
  SimplexOptions capture;
  capture.capture_basis = true;
  for (int i = 0; i < kCases; ++i) {
    common::Rng rng(static_cast<std::uint64_t>(i) * 92821 + 5);
    const auto n = static_cast<std::size_t>(
        std::lround(10.0 * std::pow(120.0, i / (kCases - 1.0))));
    cases.push_back(pricing_case(rng, n, i % 3));
    const LpSolution parent = solve(cases.back().problem, capture);
    children.push_back(child_of(cases.back(), parent, rng));
  }
  using Run = std::vector<std::pair<LpSolution, LpSolution>>;
  const auto run_case = [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    return std::pair{solve(cases[k].problem, capture),
                     resolve_from_basis(children[k].first, children[k].second,
                                        capture)};
  };
  Run here(kCases);
  for (int i = 0; i < kCases; ++i) {
    here[static_cast<std::size_t>(i)] = run_case(i);
  }
  Run fresh(kCases);
  std::thread worker([&] {
    for (int i = kCases; i-- > 0;) {
      fresh[static_cast<std::size_t>(i)] = run_case(i);
    }
  });
  worker.join();

  int optimal = 0;
  int warm_used = 0;
  for (std::size_t k = 0; k < here.size(); ++k) {
    expect_identical(here[k].first, fresh[k].first,
                     "cold solve of case " + std::to_string(k));
    expect_identical(here[k].second, fresh[k].second,
                     "warm solve of case " + std::to_string(k));
    const CaseWork& full_scan = kFullScanWork[k];
    EXPECT_EQ(here[k].first.iterations, full_scan.cold_iterations)
        << "case " << k;
    EXPECT_EQ(here[k].first.phase1_iterations, full_scan.cold_phase1)
        << "case " << k;
    EXPECT_EQ(here[k].first.bound_flips, full_scan.cold_flips) << "case " << k;
    EXPECT_EQ(here[k].second.iterations, full_scan.warm_iterations)
        << "case " << k;
    optimal += here[k].first.status == LpStatus::kOptimal ? 1 : 0;
    warm_used += here[k].second.warm_used ? 1 : 0;
  }
  // The cases must exercise what they are meant to: solvable LPs whose
  // children re-enter from the parent basis.
  EXPECT_EQ(optimal, kCases);
  EXPECT_GE(warm_used, kCases / 2);
}

TEST(SimplexPricing, SetShapedLpPricesAFewColumnsPerPivot) {
  // The node-LP shape: eight components, each choosing its node count from
  // a 120-value set, with a_c / n under-estimated by tangent cuts,
  // t_c <= T, and one shared node budget; minimize T.  A pivot moves the
  // duals of one component's rows, so repricing only the columns on rows
  // whose dual changed must price far fewer columns than a full scan
  // (iterations x num_vars), and take the same pivots (the counts a
  // pricing that scans every column gets).
  LpProblem p;
  const std::size_t makespan = p.add_variable(0.0, kInf, 1.0);
  std::vector<PendingRow> rows;
  PendingRow budget{{}, -kInf, 1200.0};
  for (int c = 0; c < 8; ++c) {
    const double a = 1000.0 * (c + 1);
    Vector values(120);
    for (std::size_t k = 0; k < values.size(); ++k) {
      values[k] = 4.0 * static_cast<double>(k + 1);
    }
    Vector costs(values.size(), 0.0);
    const std::size_t nodes =
        p.add_variable(values.front(), values.back(), 0.0);
    const std::size_t time = p.add_variable(0.0, kInf, 0.0);
    add_set_block(p, nodes, values, costs, rows);
    for (const double at : {8.0, 40.0, 160.0, 400.0}) {
      // t >= a/at - a/at^2 (n - at), the tangent of a/n at n = at.
      rows.push_back(
          {{{time, 1.0}, {nodes, a / (at * at)}}, 2.0 * a / at, kInf});
    }
    rows.push_back({{{makespan, 1.0}, {time, -1.0}}, 0.0, kInf});
    budget.terms.emplace_back(nodes, 1.0);
  }
  rows.push_back(std::move(budget));
  for (const PendingRow& row : rows) {
    p.add_row(row.terms, row.lower, row.upper);
  }

  const LpSolution s = solve(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.iterations, 73);
  EXPECT_EQ(s.phase1_iterations, 58);
  EXPECT_EQ(s.bound_flips, 0);
  const double full_scan =
      static_cast<double>(s.iterations) * static_cast<double>(p.num_vars());
  EXPECT_LT(static_cast<double>(s.priced_columns), 0.25 * full_scan)
      << s.priced_columns << " structural reduced costs over " << s.iterations
      << " pivots and " << p.num_vars() << " columns";
}

}  // namespace
}  // namespace hslb::lp
