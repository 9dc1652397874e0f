// Corpus-driven solver sweep over generated scenarios (DESIGN.md section 14).
//
//   $ ./bench_scen_corpus [--corpus=<dir>] [--out=BENCH_scen.json]
//                         [--seed=<n>] [--per-family=<n>] [--limit=<n>]
//                         [--repeats=<n>] [--smoke]
//
// Two sweeps over a scenario corpus (loaded from --corpus, else generated
// in-memory from the seed -- byte-identical to what tools/hslb_scengen
// writes):
//
//   1. Accuracy: every small/medium-family scenario (up to --limit per
//      family) is lowered onto the MINLP form and solved; the result must
//      land on the planted optimum, or inside the certified
//      [bound, incumbent] bracket, recorded at generation time.  Scenarios
//      the NLP-BB solver accepts (convex, no allowed sets) are solved a
//      second time through minlp::solve_nlp_bb against the same
//      expectation.  Any miss fails the binary.
//
//   2. Scaling: the node-richest large-family scenarios run at 1 / 2 / 4 /
//      8 solver threads.  Incumbent, objective, bound, and deterministic
//      stats must be byte-identical across thread counts (bit-for-bit
//      fingerprints; any mismatch exits nonzero).  The runs use a node
//      budget, never a wall-clock budget, so the search is identical no
//      matter how fast the machine is.  4-thread speedup is recorded per
//      scenario; in full mode a best speedup below 1.5x prints a warning
//      (shared machine?), in smoke mode timings are not meaningful.  Each
//      scaling scenario additionally runs a dense-tableau A/B arm
//      (SolverOptions::lp_engine = kDense) that must land on the same
//      answer; its wall time and the per-node LP phase breakdown
//      (factor/update/pivot ms and counts) make the sparse engine's win
//      attributable rather than asserted.
//
// The artifact (PR 5 schema) carries deterministic cells (objectives,
// node counts, expectation verdicts) plus kTiming cells for wall-clock
// numbers, so CI's run-twice fingerprint gate covers the whole sweep.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hslb/common/table.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/minlp/nlp_bb.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"

namespace {

using namespace hslb;

/// "large_hetero_memcomm_7" -> "large_hetero_memcomm".
std::string family_of(const std::string& scenario_name) {
  const std::size_t pos = scenario_name.find_last_of('_');
  return pos == std::string::npos ? scenario_name : scenario_name.substr(0, pos);
}

/// Did the solve land where the generator said it must?  Planted optima are
/// matched to the solver's own relative gap; brackets are one-sided checks
/// against the certified bound and incumbent.
bool within_expectation(const scen::Scenario& s,
                        const minlp::MinlpResult& result) {
  if (result.status != minlp::MinlpStatus::kOptimal) {
    return false;
  }
  if (s.expect.optimum.has_value()) {
    const double opt = *s.expect.optimum;
    return std::fabs(result.objective - opt) <= 1e-6 * std::max(1.0, opt);
  }
  if (s.expect.bound.has_value() && s.expect.incumbent.has_value()) {
    const double slack = 1e-6 * std::max(1.0, *s.expect.incumbent);
    return result.objective >= *s.expect.bound - slack &&
           result.objective <= *s.expect.incumbent + slack;
  }
  return false;  // every corpus scenario must carry an expectation
}

struct AccuracyRow {
  std::string family;
  int checked = 0;
  int ok = 0;
  int nlp_bb_checked = 0;
  int nlp_bb_ok = 0;
  double worst_gap = 0.0;  ///< max |objective - expectation anchor| seen
};

struct ScalingRun {
  int threads = 0;
  double seconds = 0.0;
  minlp::MinlpResult result;
};

struct ScalingCase {
  std::string name;
  std::size_t components = 0;
  std::vector<ScalingRun> runs;
  bool byte_identical = true;
  double speedup_4_vs_1 = 0.0;
  // Dense-tableau A/B arm (1 thread, lp_engine = kDense): same model and
  // node budget, different per-node LP machinery.
  double dense_seconds = 0.0;
  minlp::MinlpResult dense_result;
  bool dense_comparable = false;   ///< both arms solved to optimality
  bool dense_same_answer = true;   ///< objective agrees (tolerance); vacuous
                                   ///< when not comparable
  bool dense_bit_identical = false; ///< solution fingerprints match bit-for-bit
  double speedup_sparse_vs_dense = 0.0;
};

minlp::MinlpResult solve_scenario(const scen::Scenario& s,
                                  const minlp::SolverOptions& options) {
  scen::ScenarioModelVars vars;
  const minlp::Model model = scen::build_scenario_model(s, &vars);
  return minlp::solve(model, options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  std::string out_path = "BENCH_scen.json";
  std::string corpus_dir;
  std::uint64_t seed = 2014;
  int per_family = 0;  // 0: smoke-dependent default below
  int limit = 0;       // accuracy scenarios per family; 0: default below
  int repeats = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = arg.substr(std::strlen("--corpus="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(std::strlen("--seed=")));
    } else if (arg.rfind("--per-family=", 0) == 0) {
      per_family = std::stoi(arg.substr(std::strlen("--per-family=")));
    } else if (arg.rfind("--limit=", 0) == 0) {
      limit = std::stoi(arg.substr(std::strlen("--limit=")));
    } else if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::stoi(arg.substr(std::strlen("--repeats=")));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "usage: bench_scen_corpus [--corpus=<dir>]"
                   " [--out=<file.json>] [--seed=<n>] [--per-family=<n>]"
                   " [--limit=<n>] [--repeats=<n>] [--smoke]\n";
      return 2;
    }
  }
  if (limit <= 0) {
    limit = smoke ? 2 : 6;
  }

  const std::string title = "Scenario corpus solve sweep (DSL-lowered MINLPs)";
  const std::string reference =
      "generated corpus with planted optima / certified brackets;"
      " byte-identical across 1/2/4/8 threads; dense-engine A/B arm";
  bench::banner(title, reference);

  // --- Assemble the corpus -------------------------------------------------
  std::vector<scen::Scenario> scenarios;
  if (!corpus_dir.empty()) {
    const auto loaded = scen::load_corpus(corpus_dir);
    if (!loaded.has_value()) {
      std::cerr << "cannot load corpus: " << loaded.error().path << ": "
                << loaded.error().message << '\n';
      return 2;
    }
    scenarios = *loaded;
    std::cout << "corpus: " << corpus_dir << " (" << scenarios.size()
              << " scenarios)\n";
  } else {
    scen::GenerateOptions gen;
    gen.seed = seed;
    gen.scenarios_per_family = per_family > 0 ? per_family : (smoke ? 3 : 18);
    for (scen::GeneratedScenario& entry : scen::generate_corpus(gen)) {
      scenarios.push_back(std::move(entry.scenario));
    }
    std::cout << "corpus: generated in-memory, seed " << seed << " ("
              << scenarios.size() << " scenarios)\n";
  }
  if (smoke) {
    std::cout << "[smoke mode: small accuracy slice, tiny node budgets,"
                 " timings are not meaningful]\n";
  }

  // --- Sweep 1: accuracy against planted optima / certified brackets ------
  // Small families always; medium too in full mode (their solves take
  // seconds, not milliseconds).
  std::vector<AccuracyRow> rows;
  auto row_for = [&rows](const std::string& family) -> AccuracyRow& {
    for (AccuracyRow& row : rows) {
      if (row.family == family) {
        return row;
      }
    }
    rows.push_back({family, 0, 0, 0, 0, 0.0});
    return rows.back();
  };
  report::ResultSet artifact =
      bench::make_result_set("scen_corpus", title, reference);
  minlp::SolverOptions accuracy_options;
  accuracy_options.threads = 1;
  accuracy_options.max_wall_seconds = smoke ? 10.0 : 60.0;
  bool accuracy_ok = true;
  bool dense_accuracy_ok = true;
  int dense_accuracy_checked = 0;
  for (const scen::Scenario& s : scenarios) {
    const std::string family = family_of(s.name);
    const bool graded_in = family.rfind("small", 0) == 0 ||
                           (!smoke && family.rfind("medium", 0) == 0);
    if (!graded_in) {
      continue;
    }
    AccuracyRow& row = row_for(family);
    if (row.checked >= limit) {
      continue;
    }
    const double x = row.checked;
    std::cerr << "  accuracy: " << s.name << '\n';
    const minlp::MinlpResult result = solve_scenario(s, accuracy_options);
    const bool ok = within_expectation(s, result);
    const double anchor = s.expect.optimum.has_value() ? *s.expect.optimum
                                                       : *s.expect.incumbent;
    row.checked += 1;
    row.ok += ok ? 1 : 0;
    row.worst_gap =
        std::max(row.worst_gap, std::fabs(result.objective - anchor));
    artifact.add(family, x, "objective_s", result.objective, "s");
    artifact.add(family, x, "within_expectation", ok ? 1.0 : 0.0, "count");
    artifact.add(family, x, "planted", s.expect.optimum.has_value() ? 1.0 : 0.0,
                 "count");
    artifact.add(family, x, "solve_ms", result.stats.wall_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    // Dense-engine A/B on the solved-to-optimality small instances: the
    // legacy tableau path must land inside the same expectation window and
    // on (numerically) the same optimum as the sparse engine.  Small
    // families only -- dense solves of the medium DAGs take long enough to
    // trip the wall budget, which would make the check about speed, not
    // correctness.
    if (family.rfind("small", 0) == 0) {
      minlp::SolverOptions dense_acc = accuracy_options;
      dense_acc.lp_engine = lp::LpEngine::kDense;
      const minlp::MinlpResult dense_result = solve_scenario(s, dense_acc);
      const bool dense_ok =
          within_expectation(s, dense_result) &&
          std::fabs(dense_result.objective - result.objective) <=
              1e-6 * std::max(1.0, std::fabs(result.objective));
      dense_accuracy_checked += 1;
      dense_accuracy_ok = dense_accuracy_ok && dense_ok;
      artifact.add(family, x, "dense_within", dense_ok ? 1.0 : 0.0, "count");
      if (!dense_ok) {
        std::cerr << "ACCURACY MISS (dense engine): " << s.name << " status "
                  << minlp::to_string(dense_result.status) << " objective "
                  << dense_result.objective << " vs sparse "
                  << result.objective << '\n';
      }
    }
    if (scen::nlp_bb_eligible(s)) {
      scen::ScenarioModelVars vars;
      const minlp::Model model = scen::build_scenario_model(s, &vars);
      const minlp::MinlpResult nb = minlp::solve_nlp_bb(model);
      const bool nb_ok = within_expectation(s, nb);
      row.nlp_bb_checked += 1;
      row.nlp_bb_ok += nb_ok ? 1 : 0;
      artifact.add(family, x, "nlp_bb_within", nb_ok ? 1.0 : 0.0, "count");
      accuracy_ok = accuracy_ok && nb_ok;
      if (!nb_ok) {
        std::cerr << "ACCURACY MISS (nlp_bb): " << s.name << " objective "
                  << nb.objective << " vs expectation anchor " << anchor
                  << '\n';
      }
    }
    accuracy_ok = accuracy_ok && ok;
    if (!ok) {
      std::cerr << "ACCURACY MISS: " << s.name << " status "
                << minlp::to_string(result.status) << " objective "
                << result.objective << " vs expectation anchor " << anchor
                << '\n';
    }
  }

  common::Table accuracy_table(
      {"family", "checked", "on target", "nlp-bb checked", "nlp-bb on target",
       "worst gap,s"});
  int total_checked = 0;
  int total_nlp_bb = 0;
  for (const AccuracyRow& row : rows) {
    accuracy_table.add_row();
    accuracy_table.cell(row.family);
    accuracy_table.cell(static_cast<long long>(row.checked));
    accuracy_table.cell(static_cast<long long>(row.ok));
    accuracy_table.cell(static_cast<long long>(row.nlp_bb_checked));
    accuracy_table.cell(static_cast<long long>(row.nlp_bb_ok));
    accuracy_table.cell(row.worst_gap, 6);
    total_checked += row.checked;
    total_nlp_bb += row.nlp_bb_checked;
  }
  std::cout << accuracy_table;
  std::cout << "accuracy: " << total_checked << " scenario(s) checked, "
            << total_nlp_bb << " also through nlp_bb -- "
            << (accuracy_ok ? "all on target" : "MISSES (see stderr)") << '\n';

  // --- Sweep 2: thread scaling on the node-richest large scenarios --------
  // Planted scenarios are deliberately separable and fully sequential -- the
  // paper's hardest layout shape, with per-node LP costs an order of
  // magnitude above the DAG-structured ones -- so the scaling sweep takes
  // the bracket (non-planted) scenarios, richest first.
  std::vector<const scen::Scenario*> large;
  for (const scen::Scenario& s : scenarios) {
    if (family_of(s.name).rfind("large", 0) == 0 &&
        !s.expect.optimum.has_value()) {
      large.push_back(&s);
    }
  }
  if (large.empty()) {
    for (const scen::Scenario& s : scenarios) {
      if (family_of(s.name).rfind("large", 0) == 0) {
        large.push_back(&s);
      }
    }
  }
  std::stable_sort(large.begin(), large.end(),
                   [](const scen::Scenario* a, const scen::Scenario* b) {
                     return a->components.size() > b->components.size();
                   });
  const std::size_t scaling_count =
      std::min<std::size_t>(large.size(), smoke ? 1 : 3);
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  bool all_identical = true;
  bool all_dense_match = true;
  bool all_dense_bits = true;
  int dense_comparable_count = 0;
  double best_speedup = 0.0;
  double best_vs_dense = 0.0;
  std::vector<ScalingCase> scaling;
  for (std::size_t i = 0; i < scaling_count; ++i) {
    const scen::Scenario& s = *large[i];
    ScalingCase sc;
    sc.name = s.name;
    sc.components = s.components.size();
    // A *node* budget, never a wall-clock one: the search must be a pure
    // function of the model and options so fingerprints can be compared
    // across thread counts.
    minlp::SolverOptions base;
    base.max_nodes = smoke ? 300 : 8000;
    {
      // Warm-up so the first timed run does not pay first-touch costs; a
      // short solve is enough to fault in the solver's working set.
      minlp::SolverOptions warm = base;
      warm.max_nodes = 200;
      (void)solve_scenario(s, warm);
    }
    std::string reference_fp;
    for (const int threads : thread_counts) {
      std::cerr << "  " << s.name << ": " << threads << " thread(s)\n";
      minlp::SolverOptions options = base;
      options.threads = threads;
      ScalingRun run;
      run.threads = threads;
      run.seconds = 1e300;
      for (int r = 0; r < repeats; ++r) {
        minlp::MinlpResult result = solve_scenario(s, options);
        run.seconds = std::min(run.seconds, result.stats.wall_seconds);
        if (r == 0) {
          run.result = std::move(result);
        } else if (bench::result_fingerprint(result) !=
                   bench::result_fingerprint(run.result)) {
          sc.byte_identical = false;
        }
      }
      const std::string fp = bench::result_fingerprint(run.result);
      if (reference_fp.empty()) {
        reference_fp = fp;
      } else if (fp != reference_fp) {
        sc.byte_identical = false;
      }
      sc.runs.push_back(std::move(run));
    }
    sc.speedup_4_vs_1 = sc.runs[0].seconds / std::max(1e-12, sc.runs[2].seconds);
    best_speedup = std::max(best_speedup, sc.speedup_4_vs_1);
    all_identical = all_identical && sc.byte_identical;

    // Dense-path arm: the same scenario and node budget through the legacy
    // dense tableau engine at one thread.  The two engines must land on the
    // same answer; bit identity of the solution is recorded separately
    // because the engines' arithmetic (maintained LU solves vs dense
    // eliminations) is only guaranteed to agree to tolerance.
    std::cerr << "  " << s.name << ": dense simplex arm\n";
    minlp::SolverOptions dense_options = base;
    dense_options.threads = 1;
    dense_options.lp_engine = lp::LpEngine::kDense;
    sc.dense_seconds = 1e300;
    for (int r = 0; r < repeats; ++r) {
      minlp::MinlpResult result = solve_scenario(s, dense_options);
      sc.dense_seconds = std::min(sc.dense_seconds, result.stats.wall_seconds);
      if (r == 0) {
        sc.dense_result = std::move(result);
      }
    }
    const minlp::MinlpResult& sparse_one = sc.runs[0].result;
    // The answers are only comparable when both searches ran to optimality:
    // under a node-budget truncation, ulp-level arithmetic differences
    // between the engines legitimately reroute the tree, and two different
    // partial searches report different incumbents.  (The accuracy sweep
    // above carries the solved-to-optimality dense A/B gate.)
    sc.dense_comparable =
        sc.dense_result.status == minlp::MinlpStatus::kOptimal &&
        sparse_one.status == minlp::MinlpStatus::kOptimal;
    if (sc.dense_comparable) {
      sc.dense_same_answer =
          std::fabs(sc.dense_result.objective - sparse_one.objective) <=
          1e-6 * std::max(1.0, std::fabs(sparse_one.objective));
      sc.dense_bit_identical = bench::solution_fingerprint(sc.dense_result) ==
                               bench::solution_fingerprint(sparse_one);
    }
    sc.speedup_sparse_vs_dense =
        sc.dense_seconds / std::max(1e-12, sc.runs[0].seconds);
    all_dense_match = all_dense_match && sc.dense_same_answer;
    if (sc.dense_comparable) {
      dense_comparable_count += 1;
      all_dense_bits = all_dense_bits && sc.dense_bit_identical;
    }
    best_vs_dense = std::max(best_vs_dense, sc.speedup_sparse_vs_dense);
    scaling.push_back(std::move(sc));
  }

  common::Table scaling_table({"scenario", "components", "threads", "time,ms",
                               "nodes", "LP factor,ms", "LP pivot,ms",
                               "etas", "speedup"});
  for (const ScalingCase& sc : scaling) {
    for (const ScalingRun& run : sc.runs) {
      const minlp::SolveStats& st = run.result.stats;
      scaling_table.add_row();
      scaling_table.cell(run.threads == 1 ? sc.name : std::string(""));
      scaling_table.cell(static_cast<long long>(sc.components));
      scaling_table.cell(static_cast<long long>(run.threads));
      scaling_table.cell(run.seconds * 1e3, 2);
      scaling_table.cell(static_cast<long long>(st.nodes_explored));
      scaling_table.cell(st.lp_factor_seconds * 1e3, 2);
      scaling_table.cell(st.lp_pivot_seconds * 1e3, 2);
      scaling_table.cell(static_cast<long long>(st.lp_eta_updates));
      scaling_table.cell(sc.runs[0].seconds / std::max(1e-12, run.seconds), 2);
    }
    {
      const minlp::SolveStats& st = sc.dense_result.stats;
      scaling_table.add_row();
      scaling_table.cell(std::string(""));
      scaling_table.cell(static_cast<long long>(sc.components));
      scaling_table.cell(std::string("dense"));
      scaling_table.cell(sc.dense_seconds * 1e3, 2);
      scaling_table.cell(static_cast<long long>(st.nodes_explored));
      scaling_table.cell(st.lp_factor_seconds * 1e3, 2);
      scaling_table.cell(st.lp_pivot_seconds * 1e3, 2);
      scaling_table.cell(static_cast<long long>(st.lp_eta_updates));
      scaling_table.cell(sc.speedup_sparse_vs_dense, 2);
    }
    const std::string series = "scaling/" + sc.name;
    for (const ScalingRun& run : sc.runs) {
      const minlp::SolveStats& st = run.result.stats;
      artifact.add(series, run.threads, "solve_ms", run.seconds * 1e3, "ms",
                   report::Stability::kTiming, "threads");
      artifact.add(series, run.threads, "bb_nodes",
                   static_cast<double>(st.nodes_explored), "count");
      artifact.add(series, run.threads, "objective_s", run.result.objective,
                   "s");
      // Per-node LP phase breakdown: attributable time (factor / eta update
      // / pivot loop) plus the deterministic event counts behind it.
      artifact.add(series, run.threads, "lp_ms", st.lp_seconds * 1e3, "ms",
                   report::Stability::kTiming);
      artifact.add(series, run.threads, "lp_factor_ms",
                   st.lp_factor_seconds * 1e3, "ms",
                   report::Stability::kTiming);
      artifact.add(series, run.threads, "lp_update_ms",
                   st.lp_update_seconds * 1e3, "ms",
                   report::Stability::kTiming);
      artifact.add(series, run.threads, "lp_pivot_ms",
                   st.lp_pivot_seconds * 1e3, "ms",
                   report::Stability::kTiming);
      artifact.add(series, run.threads, "lp_factorizations",
                   static_cast<double>(st.lp_factorizations), "count");
      artifact.add(series, run.threads, "lp_refactorizations",
                   static_cast<double>(st.lp_refactorizations), "count");
      artifact.add(series, run.threads, "lp_eta_updates",
                   static_cast<double>(st.lp_eta_updates), "count");
      artifact.add(series, run.threads, "lp_bound_flips",
                   static_cast<double>(st.lp_bound_flips), "count");
      artifact.add(series, run.threads, "lp_bt_fallbacks",
                   static_cast<double>(st.lp_bt_fallbacks), "count");
    }
    artifact.add(series, 0.0, "byte_identical", sc.byte_identical ? 1.0 : 0.0,
                 "count");
    artifact.add(series, 0.0, "speedup_4_vs_1", sc.speedup_4_vs_1, "",
                 report::Stability::kTiming);
    // Dense-arm cells: the A/B answer checks are deterministic; wall time
    // and the derived speedup are not.
    artifact.add(series, 0.0, "dense_ms", sc.dense_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    artifact.add(series, 0.0, "speedup_sparse_vs_dense",
                 sc.speedup_sparse_vs_dense, "", report::Stability::kTiming);
    artifact.add(series, 0.0, "dense_bb_nodes",
                 static_cast<double>(sc.dense_result.stats.nodes_explored),
                 "count");
    artifact.add(series, 0.0, "dense_comparable",
                 sc.dense_comparable ? 1.0 : 0.0, "count");
    artifact.add(series, 0.0, "dense_same_answer",
                 sc.dense_same_answer ? 1.0 : 0.0, "count");
    artifact.add(series, 0.0, "dense_bit_identical",
                 sc.dense_bit_identical ? 1.0 : 0.0, "count");
  }
  std::cout << scaling_table;
  std::cout << "byte-identical across 1/2/4/8 threads: "
            << (all_identical ? "yes" : "NO") << '\n';
  if (dense_comparable_count > 0) {
    std::cout << "dense arm lands on the same answer ("
              << dense_comparable_count << " comparable): "
              << (all_dense_match ? "yes" : "NO")
              << (all_dense_bits ? " (bit-identical solutions)"
                                 : " (to tolerance; bit patterns differ)")
              << '\n';
  } else {
    std::cout << "dense arm: no scaling scenario ran to optimality inside the"
                 " node budget; answer gate carried by the accuracy sweep ("
              << dense_accuracy_checked << " dense A/B solves, "
              << (dense_accuracy_ok ? "all on target" : "MISSES") << ")\n";
  }
  std::cout << "best 4-thread speedup on a large scenario: "
            << common::format_fixed(best_speedup, 2) << "x\n"
            << "best sparse-vs-dense speedup (1 thread): "
            << common::format_fixed(best_vs_dense, 2) << "x\n";
  if (!smoke && best_speedup < 1.5) {
    std::cout << "warning: best 4-thread speedup below 1.5x"
                 " (shared or small machine?)\n";
  }
  if (!smoke && best_vs_dense < 1.0) {
    std::cout << "warning: sparse engine not faster than the dense tableau"
                 " path on any large scenario\n";
  }

  artifact.add_scalar("summary", "scenarios",
                      static_cast<double>(scenarios.size()), "count");
  artifact.add_scalar("summary", "accuracy_checked", total_checked, "count");
  artifact.add_scalar("summary", "accuracy_ok", accuracy_ok ? 1.0 : 0.0,
                      "count");
  artifact.add_scalar("summary", "nlp_bb_checked", total_nlp_bb, "count");
  artifact.add_scalar("summary", "byte_identical", all_identical ? 1.0 : 0.0,
                      "count");
  artifact.add_scalar("summary", "dense_accuracy_checked",
                      dense_accuracy_checked, "count");
  artifact.add_scalar("summary", "dense_accuracy_ok",
                      dense_accuracy_ok ? 1.0 : 0.0, "count");
  artifact.add_scalar("summary", "dense_comparable", dense_comparable_count,
                      "count");
  artifact.add_scalar("summary", "dense_same_answer",
                      all_dense_match ? 1.0 : 0.0, "count");
  artifact.add_scalar("summary", "dense_bit_identical",
                      all_dense_bits ? 1.0 : 0.0, "count");
  artifact.add_scalar("summary", "best_speedup_4_vs_1", best_speedup, "",
                      report::Stability::kTiming);
  artifact.add_scalar("summary", "best_speedup_sparse_vs_dense", best_vs_dense,
                      "", report::Stability::kTiming);
  artifact.add_scalar("summary", "smoke", smoke ? 1.0 : 0.0, "count");
  artifact.canonicalize();
  if (!report::write_file(artifact, out_path)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "JSON written to " << out_path << '\n';
  return bench::finish(
      std::move(artifact), artifact_options,
      accuracy_ok && dense_accuracy_ok && all_identical && all_dense_match);
}
