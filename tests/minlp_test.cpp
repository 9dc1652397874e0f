// Tests for the MINLP layer: model construction, the LP/NLP-based
// branch-and-bound, SOS1 handling, and the NLP-BB alternative.
#include <cmath>

#include <gtest/gtest.h>

#include "hslb/common/error.hpp"
#include "hslb/hslb/layout_model.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/minlp/nlp_bb.hpp"
#include "hslb/minlp/relaxation.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/parse.hpp"

namespace hslb::minlp {
namespace {

/// Convex performance-like link: 100/n + 0.5 n (minimum near n = 14.14).
UnivariateFn convex_link() {
  auto fn = make_univariate(
      [](double n) { return 100.0 / n + 0.5 * n; },
      [](double n) { return -100.0 / (n * n) + 0.5; }, Curvature::kConvex);
  fn.as_expr = [](const expr::Expr& n) { return 100.0 / n + 0.5 * n; };
  return fn;
}

/// Minimal "min T s.t. T >= fn(n)" model over integer n in [lo, hi].
struct TinyModel {
  Model model;
  std::size_t T = 0;
  std::size_t n = 0;
  std::size_t t = 0;
};

TinyModel tiny_model(double lo, double hi) {
  TinyModel tm;
  tm.T = tm.model.add_variable("T", VarType::kContinuous, 0.0, 1e9);
  tm.n = tm.model.add_variable("n", VarType::kInteger, lo, hi);
  tm.t = tm.model.add_variable("t", VarType::kContinuous, 0.0, 1e9);
  tm.model.add_link(tm.t, tm.n, convex_link(), "link");
  tm.model.add_linear({{tm.T, 1.0}, {tm.t, -1.0}}, 0.0, lp::kInf, "T>=t");
  tm.model.minimize(tm.model.var(tm.T));
  return tm;
}

TEST(Model, VariablesAndObjective) {
  Model m;
  const auto x = m.add_variable("x", VarType::kContinuous, 0.0, 10.0);
  const auto y = m.add_variable("y", VarType::kInteger, 0.0, 5.0);
  m.minimize(2.0 * m.var(x) - m.var(y) + 3.0);
  EXPECT_EQ(m.num_vars(), 2u);
  EXPECT_DOUBLE_EQ(m.objective_coeffs()[x], 2.0);
  EXPECT_DOUBLE_EQ(m.objective_coeffs()[y], -1.0);
  EXPECT_DOUBLE_EQ(m.objective_offset(), 3.0);
  const linalg::Vector point{1.0, 2.0};
  EXPECT_DOUBLE_EQ(m.objective_value(point), 3.0);
}

TEST(Model, NonlinearObjectiveGetsEpigraph) {
  Model m;
  const auto x = m.add_variable("x", VarType::kContinuous, -5.0, 5.0);
  m.minimize(m.var(x) * m.var(x));
  // One extra variable (eta) and one nonlinear constraint appear.
  EXPECT_EQ(m.num_vars(), 2u);
  EXPECT_EQ(m.nonlinear_constraints().size(), 1u);
  (void)x;
}

TEST(Model, CheckFeasibleReportsViolations) {
  Model m;
  const auto x = m.add_variable("x", VarType::kInteger, 0.0, 10.0);
  m.add_linear({{x, 1.0}}, 2.0, 4.0, "range");
  linalg::Vector bad_integral{2.5};
  EXPECT_TRUE(m.check_feasible(bad_integral).has_value());
  linalg::Vector bad_row{9.0};
  EXPECT_TRUE(m.check_feasible(bad_row).has_value());
  linalg::Vector good{3.0};
  EXPECT_FALSE(m.check_feasible(good).has_value());
}

TEST(Model, RestrictToSetAddsMachinery) {
  Model m;
  const auto n = m.add_variable("n", VarType::kInteger, 2.0, 64.0);
  m.restrict_to_set(n, {2, 4, 8, 16, 32, 64}, /*use_sos=*/true, "set");
  EXPECT_EQ(m.num_vars(), 7u);          // n + 6 binaries
  EXPECT_EQ(m.linear_constraints().size(), 2u);  // convexity + value rows
  EXPECT_EQ(m.sos1_sets().size(), 1u);
}

TEST(DetectCurvature, ClassifiesCorrectly) {
  const auto convex = make_univariate([](double x) { return x * x; },
                                      [](double x) { return 2.0 * x; });
  EXPECT_EQ(detect_curvature(convex, 0.1, 10.0), Curvature::kConvex);
  const auto concave = make_univariate([](double x) { return std::sqrt(x); },
                                       [](double x) {
                                         return 0.5 / std::sqrt(x);
                                       });
  EXPECT_EQ(detect_curvature(concave, 0.1, 10.0), Curvature::kConcave);
  const auto linear = make_univariate([](double x) { return 2.0 * x + 1.0; },
                                      [](double) { return 2.0; });
  EXPECT_EQ(detect_curvature(linear, 0.0, 1.0), Curvature::kConvex);
  const auto mixed = make_univariate([](double x) { return std::sin(x); },
                                     [](double x) { return std::cos(x); });
  EXPECT_THROW((void)detect_curvature(mixed, 0.0, 6.0), InvalidArgument);
}

TEST(BranchAndBound, UnivariateMinimum) {
  TinyModel tm = tiny_model(1, 100);
  const auto r = solve(tm.model);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  // True integer optimum: f(14) = 100/14 + 7 = 14.142857...
  EXPECT_NEAR(r.x[tm.n], 14.0, 1e-6);
  EXPECT_NEAR(r.objective, 100.0 / 14.0 + 7.0, 1e-6);
}

TEST(BranchAndBound, ExpiredWallBudgetReturnsTimeLimit) {
  TinyModel tm = tiny_model(1, 100);
  SolverOptions options;
  options.max_wall_seconds = 1e-12;  // expires before the first node pops
  const auto r = solve(tm.model, options);
  EXPECT_EQ(r.status, MinlpStatus::kTimeLimit);
  EXPECT_TRUE(r.x.empty());  // no incumbent was found in time
}

TEST(BranchAndBound, GenerousWallBudgetStillSolvesToOptimality) {
  TinyModel tm = tiny_model(1, 100);
  SolverOptions options;
  options.max_wall_seconds = 3600.0;
  const auto r = solve(tm.model, options);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r.x[tm.n], 14.0, 1e-6);
}

TEST(BranchAndBound, RespectsTightBounds) {
  TinyModel tm = tiny_model(20, 100);  // unconstrained optimum excluded
  const auto r = solve(tm.model);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r.x[tm.n], 20.0, 1e-6);
}

TEST(BranchAndBound, SosSetSelectsBestMember) {
  TinyModel tm = tiny_model(2, 64);
  tm.model.restrict_to_set(tm.n, {2, 4, 8, 16, 32, 64}, true, "nset");
  const auto r = solve(tm.model);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  // f(8)=16.5, f(16)=14.25, f(32)=19.125 -> 16.
  EXPECT_NEAR(r.x[tm.n], 16.0, 1e-6);
  EXPECT_NEAR(r.objective, 14.25, 1e-6);
}

TEST(BranchAndBound, BinaryBranchingFindsSameOptimum) {
  TinyModel tm = tiny_model(2, 64);
  tm.model.restrict_to_set(tm.n, {2, 4, 8, 16, 32, 64}, false, "nset");
  SolverOptions opts;
  opts.use_sos_branching = false;
  const auto r = solve(tm.model, opts);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 14.25, 1e-6);
}

TEST(BranchAndBound, InfeasibleModel) {
  Model m;
  const auto x = m.add_variable("x", VarType::kInteger, 0.0, 10.0);
  m.add_linear({{x, 1.0}}, 2.2, 2.8, "no integer in range");
  m.minimize(m.var(x));
  EXPECT_EQ(solve(m).status, MinlpStatus::kInfeasible);
}

TEST(BranchAndBound, PureMilp) {
  // Knapsack: max 10a + 6b + 4c, 5a + 4b + 3c <= 10, binaries.
  Model m;
  const auto a = m.add_variable("a", VarType::kBinary, 0.0, 1.0);
  const auto b = m.add_variable("b", VarType::kBinary, 0.0, 1.0);
  const auto c = m.add_variable("c", VarType::kBinary, 0.0, 1.0);
  m.add_linear({{a, 5.0}, {b, 4.0}, {c, 3.0}}, -lp::kInf, 10.0, "cap");
  m.minimize(-10.0 * m.var(a) - 6.0 * m.var(b) - 4.0 * m.var(c));
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -16.0, 1e-7);  // a + b
  EXPECT_NEAR(r.x[a], 1.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-7);
  EXPECT_NEAR(r.x[c], 0.0, 1e-7);
}

TEST(BranchAndBound, ConvexNonlinearConstraint) {
  // min -x - y  s.t.  x^2 + y^2 <= 4, x integer, y continuous.
  Model m;
  const auto x = m.add_variable("x", VarType::kInteger, 0.0, 3.0);
  const auto y = m.add_variable("y", VarType::kContinuous, 0.0, 3.0);
  m.add_nonlinear(m.var(x) * m.var(x) + m.var(y) * m.var(y), 4.0, "disk");
  m.minimize(-m.var(x) - m.var(y));
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  // Candidates: x=0,y=2 (-2); x=1,y=sqrt3 (-2.732); x=2,y=0 (-2).
  EXPECT_NEAR(r.x[x], 1.0, 1e-6);
  EXPECT_NEAR(r.objective, -(1.0 + std::sqrt(3.0)), 1e-4);
}

TEST(BranchAndBound, ConcaveLinkHandledBySecants) {
  // t == sqrt(n) (concave), min T with T >= 20 - t: pushes t UP, so the
  // concave upper side binds and the tangent/chord roles flip.
  Model m;
  const auto T = m.add_variable("T", VarType::kContinuous, 0.0, 1e9);
  const auto n = m.add_variable("n", VarType::kInteger, 1.0, 100.0);
  const auto t = m.add_variable("t", VarType::kContinuous, 0.0, 1e9);
  auto fn = make_univariate(
      [](double v) { return std::sqrt(v); },
      [](double v) { return 0.5 / std::sqrt(v); }, Curvature::kConcave);
  m.add_link(t, n, fn, "sqrt");
  m.add_linear({{T, 1.0}, {t, 1.0}}, 20.0, lp::kInf, "T+t>=20");
  m.minimize(m.var(T));
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  // Optimum: n = 100, t = 10, T = 10.
  EXPECT_NEAR(r.x[n], 100.0, 1e-6);
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
}

TEST(BranchAndBound, TwoLinksCoupledByBudget) {
  // min T, T >= f(n1), T >= f(n2), n1 + n2 <= 40: balanced split optimal.
  Model m;
  const auto T = m.add_variable("T", VarType::kContinuous, 0.0, 1e9);
  const auto n1 = m.add_variable("n1", VarType::kInteger, 1.0, 100.0);
  const auto n2 = m.add_variable("n2", VarType::kInteger, 1.0, 100.0);
  const auto t1 = m.add_variable("t1", VarType::kContinuous, 0.0, 1e9);
  const auto t2 = m.add_variable("t2", VarType::kContinuous, 0.0, 1e9);
  m.add_link(t1, n1, convex_link(), "l1");
  m.add_link(t2, n2, convex_link(), "l2");
  m.add_linear({{T, 1.0}, {t1, -1.0}}, 0.0, lp::kInf);
  m.add_linear({{T, 1.0}, {t2, -1.0}}, 0.0, lp::kInf);
  m.add_linear({{n1, 1.0}, {n2, 1.0}}, -lp::kInf, 40.0, "budget");
  m.minimize(m.var(T));
  const auto r = solve(m);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  // Symmetric problem: optimum n1 = n2 = 14 (interior minimum fits budget).
  EXPECT_NEAR(r.objective, 100.0 / 14.0 + 7.0, 1e-6);
}

TEST(BranchAndBound, DepthFirstMatchesBestBound) {
  TinyModel tm1 = tiny_model(1, 100);
  SolverOptions dfs;
  dfs.node_selection = NodeSelection::kDepthFirst;
  const auto r1 = solve(tm1.model, dfs);
  TinyModel tm2 = tiny_model(1, 100);
  const auto r2 = solve(tm2.model);
  ASSERT_EQ(r1.status, MinlpStatus::kOptimal);
  ASSERT_EQ(r2.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-9);
}

TEST(BranchAndBound, StatsArePopulated) {
  TinyModel tm = tiny_model(1, 100);
  const auto r = solve(tm.model);
  EXPECT_GT(r.stats.nodes_explored, 0);
  EXPECT_GT(r.stats.lp_solves, 0);
  EXPECT_GT(r.stats.cuts_added, 0);
  EXPECT_GE(r.stats.wall_seconds, 0.0);
  EXPECT_LE(r.stats.best_bound, r.objective + 1e-6);
}

TEST(BranchAndBound, EventSinkEmitsStructuredEvents) {
  TinyModel tm = tiny_model(1, 100);
  std::vector<SolverEvent> events;
  SolverOptions opts;
  opts.event_sink = [&events](const SolverEvent& e) { events.push_back(e); };
  opts.log_every_nodes = 1;
  const auto r = solve(tm.model, opts);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  ASSERT_FALSE(events.empty());

  // The last event is the final summary and matches the returned stats.
  const SolverEvent& done = events.back();
  EXPECT_EQ(done.kind, SolverEvent::Kind::kDone);
  EXPECT_EQ(done.node, r.stats.nodes_explored);
  EXPECT_EQ(done.lp_solves, r.stats.lp_solves);
  EXPECT_TRUE(done.have_incumbent);
  EXPECT_NEAR(done.incumbent, r.objective, 1e-9);

  // The presolve summary comes first, and every incumbent event improves on
  // the previous one.
  EXPECT_EQ(events.front().kind, SolverEvent::Kind::kPresolve);
  double last_incumbent = lp::kInf;
  int incumbent_events = 0;
  for (const SolverEvent& e : events) {
    if (e.kind == SolverEvent::Kind::kIncumbent) {
      EXPECT_LT(e.incumbent, last_incumbent);
      last_incumbent = e.incumbent;
      ++incumbent_events;
    }
  }
  EXPECT_GT(incumbent_events, 0);
}

// Regression: the first progress heartbeat fires at node 1 (not node 0, and
// not only once log_every_nodes nodes have passed), so short solves still
// produce one progress line.
TEST(BranchAndBound, FirstProgressEventFiresAtNodeOne) {
  TinyModel tm = tiny_model(1, 100);
  std::vector<SolverEvent> events;
  SolverOptions opts;
  opts.event_sink = [&events](const SolverEvent& e) { events.push_back(e); };
  opts.log_every_nodes = 1000000;  // cadence far beyond this solve's tree
  const auto r = solve(tm.model, opts);
  ASSERT_EQ(r.status, MinlpStatus::kOptimal);
  ASSERT_LT(r.stats.nodes_explored, opts.log_every_nodes);

  std::vector<long> progress_nodes;
  for (const SolverEvent& e : events) {
    if (e.kind == SolverEvent::Kind::kProgress) {
      progress_nodes.push_back(e.node);
    }
  }
  ASSERT_EQ(progress_nodes.size(), 1u);
  EXPECT_EQ(progress_nodes[0], 1);
}

TEST(BranchAndBound, ProgressCadenceRespectsLogEveryNodes) {
  TinyModel tm = tiny_model(1, 100);
  std::vector<SolverEvent> events;
  SolverOptions opts;
  opts.event_sink = [&events](const SolverEvent& e) { events.push_back(e); };
  opts.log_every_nodes = 2;
  (void)solve(tm.model, opts);
  for (const SolverEvent& e : events) {
    if (e.kind == SolverEvent::Kind::kProgress) {
      EXPECT_TRUE(e.node == 1 || e.node % 2 == 0) << "node " << e.node;
      EXPECT_GE(e.node, 1);
    }
  }
}

TEST(BranchAndBound, PruneStatsAndLpTimeArePopulated) {
  TinyModel tm = tiny_model(1, 100);
  const auto r = solve(tm.model);
  EXPECT_GE(r.stats.lp_seconds, 0.0);
  EXPECT_LE(r.stats.lp_seconds, r.stats.wall_seconds + 1e-6);
  EXPECT_GE(r.stats.incumbent_updates, 1);
  EXPECT_GE(r.stats.pruned_by_bound, 0);
  EXPECT_GE(r.stats.pruned_infeasible, 0);
}

TEST(NlpBb, MatchesLpNlpBb) {
  TinyModel tm1 = tiny_model(1, 100);
  const auto r_oa = solve(tm1.model);
  TinyModel tm2 = tiny_model(1, 100);
  const auto r_nlp = solve_nlp_bb(tm2.model);
  ASSERT_EQ(r_nlp.status, MinlpStatus::kOptimal);
  EXPECT_NEAR(r_nlp.objective, r_oa.objective, 1e-5);
}

TEST(NlpBb, RejectsSosModels) {
  TinyModel tm = tiny_model(2, 64);
  tm.model.restrict_to_set(tm.n, {2, 4, 8}, true, "s");
  EXPECT_THROW((void)solve_nlp_bb(tm.model), InvalidArgument);
}

TEST(Relaxation, ChordPinsClosedInterval) {
  TinyModel tm = tiny_model(5, 5);  // n fixed by bounds
  const auto curvature = resolve_curvatures(tm.model);
  CutPool pool;
  linalg::Vector lo{0.0, 5.0, 0.0};
  linalg::Vector hi{1e9, 5.0, 1e9};
  const auto master = build_master_lp(tm.model, pool, curvature, lo, hi);
  // t is pinned to f(5) = 22.5 exactly.
  EXPECT_NEAR(master.col_lower()[tm.t], 22.5, 1e-9);
  EXPECT_NEAR(master.col_upper()[tm.t], 22.5, 1e-9);
}

TEST(Relaxation, CompletionRoundsAndSolves) {
  TinyModel tm = tiny_model(1, 100);
  const auto curvature = resolve_curvatures(tm.model);
  CutPool pool;
  linalg::Vector lo{0.0, 1.0, 0.0};
  linalg::Vector hi{1e9, 100.0, 1e9};
  linalg::Vector x{0.0, 14.2, 0.0};  // fractional n
  const auto comp = complete_integer_point(tm.model, pool, curvature, x, lo,
                                           hi);
  ASSERT_TRUE(comp.has_value());
  EXPECT_NEAR(comp->x[tm.n], 14.0, 1e-9);
  EXPECT_NEAR(comp->objective, 100.0 / 14.0 + 7.0, 1e-7);
}

// ---------------------------------------------------------------------------
// build_master_lp against a test-only copy of its former dense construction:
// every model and cut row densified by summing its terms into a zero
// vector, and each chord row written entry by entry.
// ---------------------------------------------------------------------------

linalg::Vector densify(const std::vector<std::pair<std::size_t, double>>& terms,
                       std::size_t n) {
  linalg::Vector row(n, 0.0);
  for (const auto& [v, c] : terms) {
    row[v] += c;
  }
  return row;
}

struct DenseRow {
  linalg::Vector coeffs;
  double lower = -lp::kInf;
  double upper = lp::kInf;
};

struct DenseMaster {
  linalg::Vector cost, col_lower, col_upper;
  double offset = 0.0;
  std::vector<DenseRow> rows;
};

DenseMaster dense_master(const Model& model, const CutPool& pool,
                         const std::vector<Curvature>& curvature,
                         const linalg::Vector& node_lower,
                         const linalg::Vector& node_upper,
                         const CutPool* extra) {
  const std::size_t n = model.num_vars();
  DenseMaster out{model.objective_coeffs(), node_lower, node_upper,
                  model.objective_offset(), {}};
  for (const LinearConstraint& c : model.linear_constraints()) {
    out.rows.push_back({densify(c.terms, n), c.lower, c.upper});
  }
  for (const CutRow& cut : pool.rows()) {
    out.rows.push_back({densify(cut.terms, n), cut.lower, cut.upper});
  }
  if (extra != nullptr) {
    for (const CutRow& cut : extra->rows()) {
      out.rows.push_back({densify(cut.terms, n), cut.lower, cut.upper});
    }
  }
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const UnivariateLink& link = model.links()[li];
    const double lo = node_lower[link.n_var];
    const double hi = node_upper[link.n_var];
    if (lo >= hi) {
      out.col_lower[link.t_var] = out.col_upper[link.t_var] =
          link.fn.value(lo);
      continue;
    }
    if (!std::isfinite(lo) || !std::isfinite(hi)) {
      continue;
    }
    const double flo = link.fn.value(lo);
    const double fhi = link.fn.value(hi);
    if (!std::isfinite(flo) || !std::isfinite(fhi)) {
      continue;
    }
    const double slope = (fhi - flo) / (hi - lo);
    linalg::Vector row(n, 0.0);
    row[link.t_var] = 1.0;
    row[link.n_var] = -slope;
    const double rhs = flo - slope * lo;
    if (curvature[li] == Curvature::kConvex) {
      out.rows.push_back({std::move(row), -lp::kInf, rhs});
    } else {
      out.rows.push_back({std::move(row), rhs, lp::kInf});
    }
  }
  return out;
}

/// Builds the master LP both ways and compares them: bounds and costs
/// equal, and each stored row exactly the dense row's nonzeros in column
/// order (EXPECT_EQ on nonzero doubles is bitwise).
void expect_master_matches_dense(const Model& model, const CutPool& pool,
                                 const linalg::Vector& lo,
                                 const linalg::Vector& hi,
                                 const CutPool* extra = nullptr) {
  const auto curvature = resolve_curvatures(model);
  const lp::LpProblem master =
      build_master_lp(model, pool, curvature, lo, hi, extra);
  const DenseMaster ref = dense_master(model, pool, curvature, lo, hi, extra);
  EXPECT_EQ(master.cost(), ref.cost);
  EXPECT_EQ(master.col_lower(), ref.col_lower);
  EXPECT_EQ(master.col_upper(), ref.col_upper);
  EXPECT_EQ(master.objective_offset(), ref.offset);
  ASSERT_EQ(master.num_rows(), ref.rows.size());
  for (std::size_t i = 0; i < ref.rows.size(); ++i) {
    const lp::Row row = master.row(i);
    EXPECT_EQ(row.lower, ref.rows[i].lower) << "row " << i;
    EXPECT_EQ(row.upper, ref.rows[i].upper) << "row " << i;
    std::vector<lp::Term> nonzeros;
    for (std::size_t j = 0; j < ref.rows[i].coeffs.size(); ++j) {
      if (ref.rows[i].coeffs[j] != 0.0) {
        nonzeros.emplace_back(j, ref.rows[i].coeffs[j]);
      }
    }
    EXPECT_EQ(std::vector<lp::Term>(row.terms.begin(), row.terms.end()),
              nonzeros)
        << "row " << i;
  }
}

/// The model's own variable bounds.
void root_box(const Model& model, linalg::Vector* lo, linalg::Vector* hi) {
  lo->clear();
  hi->clear();
  for (const Variable& v : model.variables()) {
    lo->push_back(v.lower);
    hi->push_back(v.upper);
  }
}

TEST(Relaxation, MasterRowsMatchDenseReferenceOnLayoutModel) {
  // Table I layout 1 with both allocation sets expanded into binaries.
  core::LayoutModelSpec spec;
  spec.layout = cesm::LayoutKind::kHybrid;
  spec.total_nodes = 64;
  spec.perf[cesm::ComponentKind::kAtm] =
      perf::PerfModel(perf::PerfParams{27000.0, 0.0, 1.0, 45.0});
  spec.perf[cesm::ComponentKind::kOcn] =
      perf::PerfModel(perf::PerfParams{7800.0, 0.0, 1.0, 41.0});
  spec.perf[cesm::ComponentKind::kIce] =
      perf::PerfModel(perf::PerfParams{7400.0, 0.0, 1.0, 12.0});
  spec.perf[cesm::ComponentKind::kLnd] =
      perf::PerfModel(perf::PerfParams{1480.0, 0.0, 1.0, 2.0});
  spec.ocn_allowed = {4, 8, 16, 24};
  spec.atm_allowed = {8, 16, 32, 40};
  spec.tsync = 30.0;
  spec.use_sos = false;
  core::LayoutModelVars vars;
  Model model = core::build_layout_model(spec, &vars);
  const std::size_t na = vars.nodes.at(cesm::ComponentKind::kAtm);
  const std::size_t no = vars.nodes.at(cesm::ComponentKind::kOcn);
  const std::size_t ni = vars.nodes.at(cesm::ComponentKind::kIce);

  // Repeated columns whose sum depends on the order (0.1, 0.2, 1e-16 in
  // term order give 0.30000000000000016, 1e-16 first 0.3000000000000001),
  // and a repeated pair that cancels to zero.
  model.add_linear({{no, 1.0}, {na, 0.1}, {ni, 2.0}, {na, 0.2}, {na, 1e-16}},
                   -lp::kInf, 64.0, "repeats");
  model.add_linear({{na, 1.0}, {ni, 2.5}, {na, -1.0}}, -lp::kInf, 64.0,
                   "cancels");
  // A convex constraint to take an OA cut of.
  model.add_nonlinear(model.var(na) * model.var(na) +
                          0.5 * model.var(no) * model.var(no),
                      4096.0, "disk");
  // A constant link: its chord slope is 0, so the dense chord holds -0.0.
  const std::size_t cn =
      model.add_variable("c_n", VarType::kInteger, 1.0, 8.0);
  const std::size_t ct =
      model.add_variable("c_t", VarType::kContinuous, 0.0, 1e9);
  model.add_link(ct, cn,
                 make_univariate([](double) { return 3.0; },
                                 [](double) { return 0.0; },
                                 Curvature::kConvex),
                 "constant");

  const auto curvature = resolve_curvatures(model);
  linalg::Vector lo;
  linalg::Vector hi;
  root_box(model, &lo, &hi);
  CutPool pool;
  CutPool extra;
  std::uint64_t id = 1;
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const std::size_t nv = model.links()[li].n_var;
    pool.add_link_tangent(model, curvature, li, lo[nv], id++);
    pool.add_link_tangent(model, curvature, li, 0.5 * (lo[nv] + hi[nv]),
                          id++);
    extra.add_link_tangent(model, curvature, li, hi[nv], id++);
  }
  linalg::Vector x(model.num_vars(), 0.0);
  x[na] = 16.0;
  x[no] = 8.0;
  pool.add_nonlinear_cut(model, 0, x, id++);
  x[na] = 40.0;
  extra.add_nonlinear_cut(model, 0, x, id++);

  expect_master_matches_dense(model, pool, lo, hi);
  expect_master_matches_dense(model, pool, lo, hi, &extra);
  // A node that pins the ice link by closing its interval.
  lo[ni] = hi[ni] = 6.0;
  expect_master_matches_dense(model, pool, lo, hi, &extra);
}

TEST(Relaxation, MasterRowsMatchDenseReferenceOnScenarioModel) {
  const scen::Scenario scenario = scen::parse_scenario(R"(scenario dense_ref
machine nodes=128 cores_per_node=8 mem_gb_per_node=64
component atm curve=pow a=40000 b=0.001 c=1.2 d=10 mem_gb=100
component ocn curve=commpow a=25000 b=0.002 c=1.1 d=20 e=0.004 allowed=8,16,32,48
component ice curve=pow a=8000 b=0 c=1 d=5 min_nodes=2
component lnd curve=pow a=3000 b=0 c=1 d=2
comm atm ocn 0.003
schedule ocn | (ice | lnd) -> atm
)");
  scen::ScenarioModelVars vars;
  scen::BuildOptions options;
  options.use_sos = false;
  const Model model = scen::build_scenario_model(scenario, &vars, options);
  const auto curvature = resolve_curvatures(model);
  linalg::Vector lo;
  linalg::Vector hi;
  root_box(model, &lo, &hi);
  CutPool pool;
  std::uint64_t id = 1;
  for (std::size_t li = 0; li < model.links().size(); ++li) {
    const std::size_t nv = model.links()[li].n_var;
    pool.add_link_tangent(model, curvature, li, lo[nv], id++);
    pool.add_link_tangent(model, curvature, li, hi[nv], id++);
  }
  expect_master_matches_dense(model, pool, lo, hi);
}

}  // namespace
}  // namespace hslb::minlp
