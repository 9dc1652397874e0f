// Corpus-driven solver sweep over generated scenarios (DESIGN.md section 14).
//
//   $ ./bench_scen_corpus [--corpus=<dir>] [--json-out=BENCH_scen.json]
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
//      run records the per-node LP phase breakdown (factor/update/pivot ms
//      and counts).
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
  std::string corpus_dir;
  std::uint64_t seed = 2014;
  int per_family = 0;  // 0: smoke-dependent default below
  int limit = 0;       // accuracy scenarios per family; 0: default below
  int repeats = 1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--corpus=", 0) == 0) {
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
                   " [--json-out=<file.json>] [--seed=<n>] [--per-family=<n>]"
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
      " byte-identical across 1/2/4/8 threads";
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
  double best_speedup = 0.0;
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
    }
    artifact.add(series, 0.0, "byte_identical", sc.byte_identical ? 1.0 : 0.0,
                 "count");
    artifact.add(series, 0.0, "speedup_4_vs_1", sc.speedup_4_vs_1, "",
                 report::Stability::kTiming);
  }
  std::cout << scaling_table;
  std::cout << "byte-identical across 1/2/4/8 threads: "
            << (all_identical ? "yes" : "NO") << '\n';
  std::cout << "best 4-thread speedup on a large scenario: "
            << common::format_fixed(best_speedup, 2) << "x\n";
  if (!smoke && best_speedup < 1.5) {
    std::cout << "warning: best 4-thread speedup below 1.5x"
                 " (shared or small machine?)\n";
  }

  artifact.add_scalar("summary", "scenarios",
                      static_cast<double>(scenarios.size()), "count");
  artifact.add_scalar("summary", "accuracy_checked", total_checked, "count");
  artifact.add_scalar("summary", "accuracy_ok", accuracy_ok ? 1.0 : 0.0,
                      "count");
  artifact.add_scalar("summary", "nlp_bb_checked", total_nlp_bb, "count");
  artifact.add_scalar("summary", "byte_identical", all_identical ? 1.0 : 0.0,
                      "count");
  artifact.add_scalar("summary", "best_speedup_4_vs_1", best_speedup, "",
                      report::Stability::kTiming);
  artifact.add_scalar("summary", "smoke", smoke ? 1.0 : 0.0, "count");
  return bench::finish(std::move(artifact), artifact_options,
                       accuracy_ok && all_identical);
}
