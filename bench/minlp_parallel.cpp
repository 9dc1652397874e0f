// Parallel branch-and-bound scaling on the Table I layout MINLPs.
//
//   $ ./bench_minlp_parallel [--json-out=BENCH_minlp.json] [--repeats=<n>]
//                            [--smoke]
//
// For each Table I layout case the harness solves the same model
//   * once with the pre-PR serial configuration
//     {threads=1, epoch_batch=1, warm_start_lp=false} -- the exact classic
//     node loop -- as the baseline, and
//   * with the default parallel configuration at 1 / 2 / 4 / 8 worker
//     threads.
// The parallel runs must be *byte-identical* across thread counts: the
// incumbent point, objective, bound, and every deterministic stats field
// are fingerprinted bit-for-bit and the binary exits nonzero on any
// mismatch.  Speedups (4-thread vs 1-thread, and 1-thread vs the serial
// baseline) are printed and written as JSON for CI artifact upload.
//
// --smoke shrinks the cases and node budgets so CI can run the identity
// check in seconds; timing numbers in smoke mode are not meaningful and the
// speedup fields are reported but not expected to clear any bar.
//
// --corpus=<dir> additionally sweeps one representative scenario per size
// grade from a generated scenario corpus (tools/hslb_scengen) through the
// identical serial/parallel harness, so the scaling story is not limited to
// the four hard-coded Table I layouts.
#include <algorithm>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "hslb/common/table.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/scen/build.hpp"
#include "hslb/scen/generate.hpp"

namespace {

using namespace hslb;

/// Fits + layout-model spec for one Table I case (mirrors bench_minlp_solver).
struct Setup {
  cesm::CaseConfig case_config = cesm::one_degree_case();
  core::LayoutModelSpec spec;

  Setup(cesm::LayoutKind layout, int total_nodes, bool use_sos) {
    const auto campaign = cesm::gather_benchmarks(
        case_config, layout, std::vector<int>{128, 512, 2048, 8192, 32768},
        2014);
    spec.layout = layout;
    spec.total_nodes = total_nodes;
    spec.min_nodes = case_config.min_nodes;
    spec.use_sos = use_sos;
    for (const cesm::ComponentKind kind : cesm::kModeledComponents) {
      const cesm::Series series = cesm::series_for(campaign.samples, kind);
      spec.perf[kind] = perf::fit(series.nodes, series.seconds).model;
    }
    spec.atm_allowed = case_config.atm_allowed;
    spec.ocn_allowed = case_config.ocn_allowed;
  }
};

struct CaseSpec {
  std::string name;
  cesm::LayoutKind layout = cesm::LayoutKind::kHybrid;
  int total_nodes = 0;
  bool sos_branching = true;  ///< false: the paper's slow binary-branching mode
};

struct Run {
  int threads = 0;
  double seconds = 0.0;  ///< best-of-repeats solver wall time
  minlp::MinlpResult result;
};

int g_epoch_batch = 0;   ///< 0: solver default
int g_warm_start = -1;   ///< -1: solver default

minlp::SolverOptions parallel_options(int threads, bool smoke) {
  minlp::SolverOptions options;
  options.threads = threads;
  if (g_epoch_batch > 0) {
    options.epoch_batch = g_epoch_batch;
  }
  if (g_warm_start >= 0) {
    options.warm_start_lp = g_warm_start != 0;
  }
  if (smoke) {
    options.max_nodes = 4000;
  }
  return options;
}

minlp::SolverOptions serial_baseline_options(bool smoke) {
  minlp::SolverOptions options = parallel_options(1, smoke);
  options.epoch_batch = 1;
  options.warm_start_lp = false;
  return options;
}

/// Each repeat rebuilds the model through `make_model` so model construction
/// cost never leaks into the solver timing and no state carries over.
Run timed_solve(const std::function<minlp::Model()>& make_model,
                const minlp::SolverOptions& options, int repeats) {
  Run run;
  run.threads = options.threads;
  run.seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const minlp::Model model = make_model();
    minlp::MinlpResult result = minlp::solve(model, options);
    run.seconds = std::min(run.seconds, result.stats.wall_seconds);
    if (r == 0) {
      run.result = std::move(result);
    } else if (bench::result_fingerprint(result) !=
               bench::result_fingerprint(run.result)) {
      // Repeat-to-repeat nondeterminism is just as fatal as thread-count
      // dependence; flag it through the same channel.
      run.result.status = minlp::MinlpStatus::kInfeasible;
    }
  }
  return run;
}

struct CaseResult {
  CaseSpec spec;
  double serial_seconds = 0.0;
  long serial_nodes = 0;
  double serial_objective = 0.0;
  std::vector<Run> runs;  ///< parallel config at 1 / 2 / 4 / 8 threads
  bool byte_identical = true;
  bool matches_serial = true;  ///< same optimum as the serial baseline
  double speedup_4_vs_1 = 0.0;
  double one_thread_vs_serial = 0.0;  ///< > 1: parallel config at 1 thread wins
};

/// One case into the unified artifact: the serial baseline sits at x = 0,
/// the parallel configuration at x = threads.  Wall-clock-derived metrics
/// carry Stability::kTiming; search statistics and objectives are
/// deterministic (per smoke/full configuration).
void record_case(report::ResultSet* results, const CaseResult& c) {
  const std::string& series = c.spec.name;
  results->add(series, 0.0, "solve_ms", c.serial_seconds * 1e3, "ms",
               report::Stability::kTiming, "threads");
  results->add(series, 0.0, "bb_nodes", static_cast<double>(c.serial_nodes),
               "count");
  results->add(series, 0.0, "objective_s", c.serial_objective, "s");
  results->add(series, 0.0, "speedup_4_vs_1", c.speedup_4_vs_1, "",
               report::Stability::kTiming);
  results->add(series, 0.0, "one_thread_vs_serial", c.one_thread_vs_serial,
               "", report::Stability::kTiming);
  results->add(series, 0.0, "byte_identical", c.byte_identical ? 1.0 : 0.0,
               "count");
  results->add(series, 0.0, "matches_serial", c.matches_serial ? 1.0 : 0.0,
               "count");
  for (const Run& r : c.runs) {
    const minlp::SolveStats& s = r.result.stats;
    const double x = r.threads;
    results->add(series, x, "solve_ms", r.seconds * 1e3, "ms",
                 report::Stability::kTiming);
    results->add(series, x, "nodes_per_s",
                 static_cast<double>(s.nodes_explored) /
                     std::max(1e-12, r.seconds),
                 "1/s", report::Stability::kTiming);
    results->add(series, x, "bb_nodes",
                 static_cast<double>(s.nodes_explored), "count");
    results->add(series, x, "epochs", static_cast<double>(s.epochs),
                 "count");
    results->add(series, x, "lp_solves", static_cast<double>(s.lp_solves),
                 "count");
    results->add(series, x, "warm_lp_solves",
                 static_cast<double>(s.warm_lp_solves), "count");
    results->add(series, x, "warm_phase1_skips",
                 static_cast<double>(s.warm_phase1_skips), "count");
    // Per-node LP phase breakdown: where the LP time goes (factor / eta
    // update / pivot loop, wall-clock) and the deterministic event counts
    // behind it, so the maintained-factor speedup is attributable.
    results->add(series, x, "lp_ms", s.lp_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    results->add(series, x, "lp_factor_ms", s.lp_factor_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    results->add(series, x, "lp_update_ms", s.lp_update_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    results->add(series, x, "lp_pivot_ms", s.lp_pivot_seconds * 1e3, "ms",
                 report::Stability::kTiming);
    results->add(series, x, "lp_factorizations",
                 static_cast<double>(s.lp_factorizations), "count");
    results->add(series, x, "lp_refactorizations",
                 static_cast<double>(s.lp_refactorizations), "count");
    results->add(series, x, "lp_eta_updates",
                 static_cast<double>(s.lp_eta_updates), "count");
    results->add(series, x, "lp_bound_flips",
                 static_cast<double>(s.lp_bound_flips), "count");
    results->add(series, x, "objective_s", r.result.objective, "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hslb;
  bench::ArtifactOptions artifact_options =
      bench::parse_artifact_args(argc, argv);
  std::string corpus_dir;
  int repeats = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repeats=", 0) == 0) {
      repeats = std::stoi(arg.substr(std::strlen("--repeats=")));
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = arg.substr(std::strlen("--corpus="));
    } else if (arg.rfind("--epoch-batch=", 0) == 0) {
      g_epoch_batch = std::stoi(arg.substr(std::strlen("--epoch-batch=")));
    } else if (arg.rfind("--warm=", 0) == 0) {
      g_warm_start = std::stoi(arg.substr(std::strlen("--warm=")));
    } else {
      std::cerr << "usage: bench_minlp_parallel [--json-out=<file.json>]"
                   " [--repeats=<n>] [--smoke] [--corpus=<dir>]\n";
      return 2;
    }
  }

  const std::string title =
      "Parallel branch-and-bound scaling (Table I layout MINLPs)";
  // The prose cell carried by the artifact.  Speedups at or below 1.0x on
  // the quick Table I layouts are expected, not a regression: those trees
  // are solved in milliseconds, too shallow to amortize epoch
  // synchronization -- the scaling story lives in the hardest case and in
  // the large corpus scenarios.
  const std::string reference =
      "deterministic epoch-parallel solver; hardware-dependent; speedups "
      "<= 1.0x on the quick Table I cases are expected (trees too shallow "
      "to amortize epoch batching)";
  bench::banner(title, reference);
  std::cout << "hardware threads: " << std::thread::hardware_concurrency()
            << (smoke ? "  [smoke mode: tiny node budgets, timings are"
                        " not meaningful]"
                      : "")
            << '\n';

  // The three Figure 1 / Table I layouts, plus the hybrid layout under
  // individual-binary branching -- the mode the paper reports as two orders
  // of magnitude slower, and therefore the hardest (most node-rich) case.
  const int big = smoke ? 512 : 40960;
  const int binary_total = smoke ? 128 : 2048;
  struct BenchCase {
    CaseSpec spec;
    std::function<minlp::Model()> make_model;
  };
  std::vector<BenchCase> bench_cases;
  for (const CaseSpec& spec : std::vector<CaseSpec>{
           {"hybrid", cesm::LayoutKind::kHybrid, big, true},
           {"sequential_group", cesm::LayoutKind::kSequentialGroup, big, true},
           {"fully_sequential", cesm::LayoutKind::kFullySequential, big, true},
           {"hybrid_binary", cesm::LayoutKind::kHybrid, binary_total, false},
       }) {
    const Setup setup(spec.layout, spec.total_nodes, /*use_sos=*/true);
    bench_cases.push_back({spec, [model_spec = setup.spec] {
                             return core::build_layout_model(model_spec,
                                                             nullptr);
                           }});
  }
  if (!corpus_dir.empty()) {
    const auto loaded = scen::load_corpus(corpus_dir);
    if (!loaded.has_value()) {
      std::cerr << "cannot load corpus: " << loaded.error().path << ": "
                << loaded.error().message << '\n';
      return 2;
    }
    // One representative scenario per size grade: the first (filename-
    // sorted, hence deterministic) bracket scenario carrying each grade
    // prefix.  Planted scenarios are skipped -- they are separable and
    // fully sequential by construction, with per-node LP costs an order of
    // magnitude above the DAG-structured ones.
    for (const char* grade : {"small_", "medium_", "large_"}) {
      for (const scen::Scenario& scenario : *loaded) {
        if (scenario.name.rfind(grade, 0) != 0 ||
            scenario.expect.optimum.has_value()) {
          continue;
        }
        CaseSpec spec;
        spec.name = "corpus/" + scenario.name;
        bench_cases.push_back({spec, [scenario] {
                                 scen::ScenarioModelVars vars;
                                 return scen::build_scenario_model(scenario,
                                                                   &vars);
                               }});
        break;
      }
    }
  }
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  bool all_identical = true;
  std::vector<CaseResult> results;
  for (const BenchCase& bench_case : bench_cases) {
    const CaseSpec& spec = bench_case.spec;
    CaseResult cr;
    cr.spec = spec;

    minlp::SolverOptions serial = serial_baseline_options(smoke);
    serial.use_sos_branching = spec.sos_branching;
    // Warm-up solve so the first timed run does not pay first-touch costs.
    (void)minlp::solve(bench_case.make_model(),
                       parallel_options(1, /*smoke=*/true));
    std::cerr << "  " << spec.name << ": serial baseline\n";
    const Run serial_run = timed_solve(bench_case.make_model, serial, repeats);
    cr.serial_seconds = serial_run.seconds;
    cr.serial_nodes = serial_run.result.stats.nodes_explored;
    cr.serial_objective = serial_run.result.objective;

    std::string reference;
    for (const int threads : thread_counts) {
      std::cerr << "  " << spec.name << ": " << threads << " thread(s)\n";
      minlp::SolverOptions options = parallel_options(threads, smoke);
      options.use_sos_branching = spec.sos_branching;
      Run run = timed_solve(bench_case.make_model, options, repeats);
      const std::string fp = bench::result_fingerprint(run.result);
      if (reference.empty()) {
        reference = fp;
      } else if (fp != reference) {
        cr.byte_identical = false;
      }
      cr.runs.push_back(std::move(run));
    }

    // The answer (not the search path) must also agree with the serial
    // baseline: same status and the same optimum.  Tolerance, not bit,
    // comparison: the parallel config searches a different tree (epoch
    // batches, warm-started vertices), so it may return a different point
    // of the same quality -- any solver run only promises the optimum to
    // rel_gap.  Bit-identity is required, and checked above, across thread
    // counts within the one configuration.
    const double serial_obj = serial_run.result.objective;
    const double parallel_obj = cr.runs[0].result.objective;
    cr.matches_serial =
        serial_run.result.status == cr.runs[0].result.status &&
        std::fabs(parallel_obj - serial_obj) <=
            1e-6 * std::max(1.0, std::fabs(serial_obj));

    cr.speedup_4_vs_1 = cr.runs[0].seconds / std::max(1e-12, cr.runs[2].seconds);
    cr.one_thread_vs_serial =
        cr.serial_seconds / std::max(1e-12, cr.runs[0].seconds);
    all_identical = all_identical && cr.byte_identical && cr.matches_serial;
    results.push_back(std::move(cr));
  }

  common::Table table({"case", "threads", "time,ms", "nodes", "nodes/s",
                       "warm LPs", "phase-1 skips", "speedup"});
  for (const CaseResult& c : results) {
    table.add_row();
    table.cell(c.spec.name);
    table.cell(std::string("serial"));
    table.cell(c.serial_seconds * 1e3, 2);
    table.cell(static_cast<long long>(c.serial_nodes));
    table.cell(static_cast<double>(c.serial_nodes) /
                   std::max(1e-12, c.serial_seconds),
               0);
    table.cell(0LL);
    table.cell(0LL);
    table.cell(1.0, 2);
    for (const Run& r : c.runs) {
      table.add_row();
      table.cell(std::string(""));
      table.cell(static_cast<long long>(r.threads));
      table.cell(r.seconds * 1e3, 2);
      table.cell(static_cast<long long>(r.result.stats.nodes_explored));
      table.cell(static_cast<double>(r.result.stats.nodes_explored) /
                     std::max(1e-12, r.seconds),
                 0);
      table.cell(static_cast<long long>(r.result.stats.warm_lp_solves));
      table.cell(static_cast<long long>(r.result.stats.warm_phase1_skips));
      table.cell(c.runs[0].seconds / std::max(1e-12, r.seconds), 2);
    }
  }
  std::cout << table;

  // The hardest case (longest serial solve) carries the headline speedup.
  const CaseResult* hardest = &results[0];
  for (const CaseResult& c : results) {
    if (c.serial_seconds > hardest->serial_seconds) {
      hardest = &c;
    }
  }
  std::cout << "hardest case: " << hardest->spec.name << " -- 4-thread speedup "
            << common::format_fixed(hardest->speedup_4_vs_1, 2)
            << "x over 1 thread; 1-thread parallel config runs at "
            << common::format_fixed(100.0 * hardest->one_thread_vs_serial, 1)
            << " % of the serial baseline's pace\n"
            << "byte-identical across 1/2/4/8 threads and vs the serial "
               "baseline: "
            << (all_identical ? "yes" : "NO") << '\n';
  if (!smoke && hardest->speedup_4_vs_1 < 2.0) {
    std::cout << "warning: 4-thread speedup below 2x on the hardest case"
                 " (shared or small machine?)\n";
  }
  std::cout << "note: speedups <= 1.0x on the quick Table I cases are"
               " expected -- those trees are solved in milliseconds and are"
               " too shallow to amortize epoch synchronization\n";

  report::ResultSet artifact =
      bench::make_result_set("minlp_parallel", title, reference);
  for (const CaseResult& c : results) {
    record_case(&artifact, c);
  }
  artifact.add_scalar("summary", "hardware_threads",
                      std::thread::hardware_concurrency(), "count",
                      report::Stability::kTiming);
  artifact.add_scalar("summary", "smoke", smoke ? 1.0 : 0.0, "count");
  artifact.add_scalar("summary", "hardest_speedup_4_vs_1",
                      hardest->speedup_4_vs_1, "",
                      report::Stability::kTiming);
  artifact.add_scalar("summary", "byte_identical",
                      all_identical ? 1.0 : 0.0, "count");
  return bench::finish(std::move(artifact), artifact_options, all_identical);
}
