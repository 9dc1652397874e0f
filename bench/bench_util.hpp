// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "hslb/cesm/configs.hpp"
#include "hslb/hslb/manual_tuner.hpp"
#include "hslb/hslb/pipeline.hpp"
#include "hslb/minlp/branch_and_bound.hpp"
#include "hslb/report/result_set.hpp"

namespace hslb::bench {

/// A double's bit pattern as 16 hex digits -- the unit of bit-exact
/// identity checks (byte-identical across thread counts means equal
/// *patterns*, not merely equal within tolerance).
inline std::string bits(double value) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(value));
  std::memcpy(&u, &value, sizeof(u));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(u));
  return buf;
}

/// Bit-exact fingerprint of everything deterministic in a MinlpResult: the
/// incumbent point, objective, bound, and all stats except the wall-time
/// fields.  Two parallel runs at different thread counts must produce the
/// same string (shared by bench_minlp_parallel and bench_scen_corpus).
inline std::string result_fingerprint(const minlp::MinlpResult& r) {
  std::string out;
  out += std::to_string(static_cast<int>(r.status));
  out += '|' + bits(r.objective);
  out += '|' + bits(r.stats.best_bound);
  out += "|x:";
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    out += bits(r.x[i]) + ',';
  }
  const minlp::SolveStats& s = r.stats;
  for (const long v :
       {static_cast<long>(s.presolve_tightenings), s.nodes_explored,
        s.lp_solves, s.nlp_solves, s.cuts_added, s.simplex_iterations,
        s.incumbent_updates, s.pruned_by_bound, s.pruned_infeasible, s.epochs,
        s.warm_lp_solves, s.warm_phase1_skips, s.warm_simplex_iterations,
        s.cold_simplex_iterations, s.lp_factorizations, s.lp_refactorizations,
        s.lp_eta_updates, s.lp_bound_flips}) {
    out += '|' + std::to_string(v);
  }
  return out;
}

inline void banner(const std::string& title, const std::string& reference) {
  std::cout << "\n==============================================================\n"
            << title << "\n"
            << "reproduces: " << reference << "\n"
            << "==============================================================\n";
}

/// The gather campaign sizes used throughout the paper's experiments.
inline std::vector<int> one_degree_totals() {
  return {128, 256, 512, 1024, 2048};
}

inline std::vector<int> eighth_degree_totals() {
  return {4096, 8192, 16384, 24576, 32768};
}

/// Standard pipeline config for a case at a target size.
inline core::PipelineConfig make_config(const cesm::CaseConfig& case_config,
                                        int total_nodes,
                                        std::vector<int> gather_totals) {
  core::PipelineConfig config;
  config.case_config = case_config;
  config.total_nodes = total_nodes;
  config.gather_totals = std::move(gather_totals);
  return config;
}

// ---------------------------------------------------------------------------
// Structured artifact emission (the results pipeline, DESIGN.md section 10).
//
// Every bench binary records the numbers it prints into a report::ResultSet
// and finishes through bench::finish().  Stdout stays byte-identical to the
// artifact-free output: all artifact status goes to stderr.

/// Flags every bench binary understands:
///   --json-out=<path>            write the ResultSet artifact to <path>
///   --expect-fingerprint=<hex>   exit nonzero unless the run's
///                                deterministic fingerprint matches
struct ArtifactOptions {
  std::string json_out;
  std::string expect_fingerprint;
};

/// Strip the shared artifact flags out of argv (compacting in place and
/// shrinking argc) so binaries with their own flag parsing -- the
/// google-benchmark ones included -- never see them.
inline ArtifactOptions parse_artifact_args(int& argc, char** argv) {
  ArtifactOptions options;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) {
      options.json_out = arg.substr(std::strlen("--json-out="));
    } else if (arg.rfind("--expect-fingerprint=", 0) == 0) {
      options.expect_fingerprint =
          arg.substr(std::strlen("--expect-fingerprint="));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return options;
}

/// Start a ResultSet carrying the same title/reference as the banner.
inline report::ResultSet make_result_set(const std::string& bench_id,
                                         const std::string& title,
                                         const std::string& reference) {
  report::ResultSet set;
  set.bench = bench_id;
  set.title = title;
  set.reference = reference;
  return set;
}

/// Final step of every bench main: write the artifact when requested, check
/// the optional fingerprint pin, and fold in the binary's own identity
/// verdict (byte-identity across thread counts, cached-vs-fresh equality,
/// ...).  Any break exits nonzero so CI cannot greenwash a bad run.
inline int finish(report::ResultSet set, const ArtifactOptions& options,
                  bool identity_ok = true) {
  set.canonicalize();
  const std::string fingerprint = set.fingerprint();
  if (!options.json_out.empty()) {
    if (!report::write_file(set, options.json_out)) {
      std::cerr << "cannot write artifact " << options.json_out << '\n';
      return 1;
    }
    std::cerr << "artifact: " << options.json_out << " (fingerprint "
              << fingerprint << ")\n";
  }
  bool ok = identity_ok;
  if (!options.expect_fingerprint.empty() &&
      options.expect_fingerprint != fingerprint) {
    std::cerr << "FINGERPRINT BREAK: expected " << options.expect_fingerprint
              << ", this run produced " << fingerprint << '\n';
    ok = false;
  }
  if (!identity_ok) {
    std::cerr << "IDENTITY BREAK: internal cross-check failed\n";
  }
  return ok ? 0 : 1;
}

}  // namespace hslb::bench
