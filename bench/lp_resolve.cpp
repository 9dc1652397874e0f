// LP re-solve microbenchmark: parent-basis warm starts vs cold solves.
//
//   $ ./bench_lp_resolve [--json-out=BENCH_lp.json] [--seed=<n>] [--cases=<n>]
//                        [--steps=<n>] [--repeats=<n>] [--smoke]
//
// Corpus-derived LP re-solve sequences, the exact shape branch-and-bound
// produces: each case lowers a generated scenario to its master LP, then
// replays a deterministic sequence of node-style edits (one integer bound
// tightened per step, a tangent cut appended every third step) and re-solves
// after every edit.  Two arms run the byte-identical sequence:
//
//   warm   each solve starts from the previous solve's basis (remapped by
//          row keys), factors it once and absorbs its pivots as eta updates
//          (the branch-and-bound configuration),
//   cold   every solve starts from scratch (Phase I).
//
// Both arms must report the same status and objective at every step (any
// disagreement exits nonzero), so the speedup is measured between solves
// that provably did the same job.  The artifact (PR 5 schema) carries the
// deterministic pivot/eta/factorization counters plus kTiming cells for the
// wall-clock numbers; in full mode the binary enforces the headline claim --
// geometric-mean warm-vs-cold speedup of at least 2x -- and fails otherwise.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hslb/common/rng.hpp"
#include "hslb/common/table.hpp"
#include "hslb/common/timing.hpp"
#include "hslb/lp/simplex.hpp"
#include "hslb/minlp/relaxation.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"

namespace {

using namespace hslb;

/// One deterministic node-style edit of the root LP.
struct Step {
  std::ptrdiff_t var = -1;    ///< integer variable to tighten (-1: none)
  double new_upper = 0.0;     ///< its tightened upper bound
  std::ptrdiff_t link = -1;   ///< link to cut (-1: no cut this step)
  double point = 0.0;         ///< tangent point on that link's n variable
};

/// Aggregate counters for one arm over a whole sequence.
struct ArmStats {
  long solves = 0;
  long pivots = 0;
  long phase1_pivots = 0;
  long factorizations = 0;
  long refactorizations = 0;
  long eta_updates = 0;
  long phase1_skips = 0;
  long infeasible = 0;
  double solve_seconds = 0.0;   ///< summed over the lp solves only
  std::string objective_bits;   ///< concatenated bit patterns, per step
  std::vector<double> objectives;  ///< per-step optima (NaN when infeasible)
};

enum class Arm { kWarm, kCold };

/// Replay the edit sequence once, accumulating one arm's counters.  The LP
/// built at step t is identical across arms by construction; only how it is
/// solved differs.
ArmStats run_arm(const minlp::Model& model,
                 const std::vector<minlp::Curvature>& curvature,
                 const minlp::CutPool& seeded, const std::vector<Step>& steps,
                 Arm arm) {
  ArmStats out;
  minlp::CutPool pool = seeded;
  const std::size_t n = model.num_vars();
  linalg::Vector root_lower(n);
  linalg::Vector root_upper(n);
  for (std::size_t j = 0; j < n; ++j) {
    root_lower[j] = model.variables()[j].lower;
    root_upper[j] = model.variables()[j].upper;
  }

  lp::SimplexOptions opts;
  opts.capture_basis = arm == Arm::kWarm;

  lp::Basis warm;
  std::vector<std::uint64_t> warm_keys;
  std::vector<std::uint64_t> keys;
  std::uint64_t cut_id = 1u << 20;  // clear of the seeded root-tangent ids

  // Step -1 is the root LP; steps 0..T-1 apply one edit each (bounds reset
  // to the root box every step, cuts accumulate like a B&B pool).
  for (std::size_t t = 0; t <= steps.size(); ++t) {
    linalg::Vector lower = root_lower;
    linalg::Vector upper = root_upper;
    if (t > 0) {
      const Step& st = steps[t - 1];
      if (st.link >= 0) {
        (void)pool.add_link_tangent(model, curvature,
                                    static_cast<std::size_t>(st.link),
                                    st.point, cut_id++);
      }
      if (st.var >= 0) {
        upper[static_cast<std::size_t>(st.var)] = st.new_upper;
      }
    }
    const lp::LpProblem master = build_master_lp(
        model, pool, curvature, lower, upper, nullptr, &keys);

    common::WallTimer timer;
    lp::LpSolution sol;
    if (arm == Arm::kWarm && !warm.empty()) {
      sol = lp::resolve_from_basis(
          master, lp::map_basis(warm, warm_keys, keys), opts);
    } else {
      sol = lp::solve(master, opts);
    }
    out.solve_seconds += timer.seconds();

    ++out.solves;
    out.pivots += sol.iterations;
    out.phase1_pivots += sol.phase1_iterations;
    out.factorizations += sol.factorizations;
    out.refactorizations += sol.refactorizations;
    out.eta_updates += sol.eta_updates;
    out.phase1_skips += sol.warm_phase1_skipped ? 1 : 0;
    if (sol.status == lp::LpStatus::kOptimal) {
      out.objective_bits += bench::bits(sol.objective) + ',';
      out.objectives.push_back(sol.objective);
      if (arm == Arm::kWarm && !sol.basis.empty()) {
        warm = sol.basis;
        warm_keys = keys;
      }
    } else {
      ++out.infeasible;
      out.objective_bits += "inf,";
      out.objectives.push_back(std::nan(""));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  std::uint64_t seed = 2014;
  int num_cases = 0;
  int num_steps = 0;
  int repeats = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(std::strlen("--seed=")));
    } else if (arg.rfind("--cases=", 0) == 0) {
      num_cases = std::stoi(arg.substr(std::strlen("--cases=")));
    } else if (arg.rfind("--steps=", 0) == 0) {
      num_steps = std::stoi(arg.substr(std::strlen("--steps=")));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::stoi(arg.substr(std::strlen("--repeats=")));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_lp_resolve [--json-out=<file.json>]"
                   " [--seed=<n>] [--cases=<n>] [--steps=<n>] [--repeats=<n>]"
                   " [--smoke]\n";
      return 2;
    }
  }
  if (num_cases <= 0) {
    num_cases = smoke ? 2 : 6;
  }
  if (num_steps <= 0) {
    num_steps = smoke ? 12 : 48;
  }

  const std::string title =
      "LP re-solve: parent-basis warm starts vs cold solves";
  const std::string reference =
      "sparse revised simplex with eta updates; warm re-solves from the"
      " parent basis vs cold solves on identical node-edit sequences";
  bench::banner(title, reference);
  if (smoke) {
    std::cout << "[smoke mode: short sequences, timings are not meaningful]\n";
  }

  // --- Corpus-derived cases: small/medium scenario master LPs. --------------
  scen::GenerateOptions gen;
  gen.seed = seed;
  gen.scenarios_per_family = 3;
  std::vector<scen::Scenario> cases;
  for (scen::GeneratedScenario& entry : scen::generate_corpus(gen)) {
    const std::string& name = entry.scenario.name;
    if (name.rfind("small", 0) == 0 || name.rfind("medium", 0) == 0) {
      cases.push_back(std::move(entry.scenario));
    }
    if (cases.size() >= static_cast<std::size_t>(num_cases)) {
      break;
    }
  }

  report::ResultSet artifact =
      bench::make_result_set("lp_resolve", title, reference);
  common::Table table({"case", "rows", "warm ms", "cold ms", "speedup",
                       "warm pivots", "cold pivots", "etas"});
  bool identity_ok = true;
  double log_speedup_sum = 0.0;
  int measured = 0;

  for (const scen::Scenario& s : cases) {
    scen::ScenarioModelVars vars;
    const minlp::Model model = scen::build_scenario_model(s, &vars);
    const std::vector<minlp::Curvature> curvature =
        minlp::resolve_curvatures(model);

    // Seed the pool the way the solver's root does (initial link tangents).
    minlp::CutPool seeded;
    std::uint64_t seed_id = 0;
    for (std::size_t li = 0; li < model.links().size(); ++li) {
      const minlp::UnivariateLink& link = model.links()[li];
      const double lo = model.variables()[link.n_var].lower;
      const double hi = model.variables()[link.n_var].upper;
      for (int k = 0; k < 5; ++k) {
        const double p = lo + (hi - lo) * (k + 1) / 6.0;
        if (seeded.add_link_tangent(model, curvature, li, p, seed_id)) {
          ++seed_id;
        }
      }
    }

    // Deterministic edit sequence.  Tightenings prefer integer variables
    // that are NOT link arguments so the chord rows survive most steps,
    // exactly like SOS/binary branching in the tree; the other steps append
    // a tangent cut, the shape of an OA cut round.
    std::vector<std::size_t> link_vars;
    for (const minlp::UnivariateLink& link : model.links()) {
      link_vars.push_back(link.n_var);
    }
    std::vector<std::size_t> targets;
    std::vector<std::size_t> fallback;
    for (std::size_t j = 0; j < model.num_vars(); ++j) {
      const minlp::Variable& v = model.variables()[j];
      if (v.type == minlp::VarType::kContinuous || v.upper - v.lower < 1.0) {
        continue;
      }
      const bool is_link_var =
          std::find(link_vars.begin(), link_vars.end(), j) != link_vars.end();
      (is_link_var ? fallback : targets).push_back(j);
    }
    if (targets.empty()) {
      targets = fallback;
    }
    // Blocks of four steps share one tightening (the "node"): within a
    // block, consecutive LPs differ only by the appended cut rows, whose
    // slacks enter the remapped basis; the block boundary changes the
    // bounds -- and, for link variables, the chord rows -- exactly as
    // branching to a sibling subtree does.
    constexpr std::size_t kBlock = 4;
    common::Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (measured + 1)));
    std::vector<Step> steps(static_cast<std::size_t>(num_steps));
    for (std::size_t t = 0; t < steps.size(); ++t) {
      Step& st = steps[t];
      if (!targets.empty()) {
        if (t % kBlock == 0) {
          const std::size_t block = t / kBlock;
          st.var = static_cast<std::ptrdiff_t>(targets[block % targets.size()]);
          const minlp::Variable& v =
              model.variables()[static_cast<std::size_t>(st.var)];
          st.new_upper =
              v.lower + std::floor(rng.uniform(0.0, v.upper - v.lower));
        } else {
          st.var = steps[t - 1].var;
          st.new_upper = steps[t - 1].new_upper;
        }
      }
      if (!model.links().empty() && t % kBlock != 0) {
        st.link = static_cast<std::ptrdiff_t>(t % model.links().size());
        const minlp::UnivariateLink& link =
            model.links()[static_cast<std::size_t>(st.link)];
        const double lo = model.variables()[link.n_var].lower;
        const double hi = model.variables()[link.n_var].upper;
        st.point = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo));
      }
    }

    // Warm-up + repeats: counters from the first replay, min solve time over
    // all replays, bit-stability across replays folded into identity_ok.
    std::cerr << "  case: " << s.name << '\n';
    ArmStats warm;
    ArmStats cold;
    for (int r = 0; r < repeats; ++r) {
      ArmStats w = run_arm(model, curvature, seeded, steps, Arm::kWarm);
      ArmStats c = run_arm(model, curvature, seeded, steps, Arm::kCold);
      if (r == 0) {
        warm = std::move(w);
        cold = std::move(c);
      } else {
        identity_ok = identity_ok && w.objective_bits == warm.objective_bits &&
                      c.objective_bits == cold.objective_bits;
        warm.solve_seconds = std::min(warm.solve_seconds, w.solve_seconds);
        cold.solve_seconds = std::min(cold.solve_seconds, c.solve_seconds);
      }
    }
    // The two arms must have solved the same sequence to the same optima.
    // Different pivot paths may land on different (degenerate) vertices, so
    // the cross-arm check is a tolerance on the objective, not bit equality;
    // bit equality is enforced within each arm across the repeats above.
    long objective_matches = 0;
    for (std::size_t t = 0; t < warm.objectives.size(); ++t) {
      const double w = warm.objectives[t];
      const double c = t < cold.objectives.size() ? cold.objectives[t]
                                                  : std::nan("");
      const bool same_feas = std::isnan(w) == std::isnan(c);
      const double tol = 1e-6 * (1.0 + std::fabs(std::isnan(c) ? 0.0 : c));
      const bool same_opt = std::isnan(w) || std::fabs(w - c) <= tol;
      if (same_feas && same_opt) {
        ++objective_matches;
      } else {
        std::cerr << "OBJECTIVE DIVERGENCE: " << s.name << " step " << t
                  << " warm " << w << " cold " << c << '\n';
        identity_ok = false;
      }
    }

    const double speedup =
        cold.solve_seconds / std::max(1e-12, warm.solve_seconds);
    log_speedup_sum += std::log(std::max(1e-12, speedup));
    ++measured;

    const std::size_t rows = model.linear_constraints().size();
    table.add_row();
    table.cell(s.name);
    table.cell(static_cast<long long>(rows));
    table.cell(warm.solve_seconds * 1e3, 2);
    table.cell(cold.solve_seconds * 1e3, 2);
    table.cell(speedup, 2);
    table.cell(static_cast<long long>(warm.pivots));
    table.cell(static_cast<long long>(cold.pivots));
    table.cell(static_cast<long long>(warm.eta_updates));

    artifact.add(s.name, 0.0, "steps", static_cast<double>(warm.solves),
                 "count");
    artifact.add(s.name, 0.0, "warm_pivots",
                 static_cast<double>(warm.pivots), "count");
    artifact.add(s.name, 0.0, "warm_phase1_pivots",
                 static_cast<double>(warm.phase1_pivots), "count");
    artifact.add(s.name, 0.0, "cold_pivots",
                 static_cast<double>(cold.pivots), "count");
    artifact.add(s.name, 0.0, "warm_factorizations",
                 static_cast<double>(warm.factorizations), "count");
    artifact.add(s.name, 0.0, "warm_refactorizations",
                 static_cast<double>(warm.refactorizations), "count");
    artifact.add(s.name, 0.0, "cold_factorizations",
                 static_cast<double>(cold.factorizations), "count");
    artifact.add(s.name, 0.0, "eta_updates",
                 static_cast<double>(warm.eta_updates), "count");
    artifact.add(s.name, 0.0, "phase1_skips",
                 static_cast<double>(warm.phase1_skips), "count");
    artifact.add(s.name, 0.0, "infeasible_steps",
                 static_cast<double>(cold.infeasible), "count");
    artifact.add(s.name, 0.0, "objective_matches",
                 static_cast<double>(objective_matches), "count");
    artifact.add(s.name, 0.0, "warm_ms", warm.solve_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    artifact.add(s.name, 0.0, "cold_ms", cold.solve_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    artifact.add(s.name, 0.0, "speedup_warm_vs_cold", speedup, "",
                 report::Stability::kTiming);
  }

  std::cout << table;
  const double geomean =
      measured > 0 ? std::exp(log_speedup_sum / measured) : 0.0;
  std::cout << "geomean warm-vs-cold speedup: "
            << common::format_fixed(geomean, 2) << "x\n";
  bool gate_ok = true;
  if (!smoke && geomean < 2.0) {
    std::cerr << "SPEEDUP GATE: geomean warm-vs-cold "
              << common::format_fixed(geomean, 2)
              << "x is below the required 2x\n";
    gate_ok = false;
  }

  artifact.add_scalar("summary", "cases", static_cast<double>(measured),
                      "count");
  artifact.add_scalar("summary", "geomean_speedup_warm_vs_cold", geomean, "",
                      report::Stability::kTiming);
  artifact.add_scalar("summary", "smoke", smoke ? 1.0 : 0.0, "count");
  return bench::finish(std::move(artifact), artifact_options,
                       identity_ok && gate_ok);
}
