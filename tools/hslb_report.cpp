// hslb_report -- the results-pipeline CLI (DESIGN.md section 10).
//
//   hslb_report render --artifacts=<dir> --paper=<paper_reference.json>
//                      [--out=<EXPERIMENTS.md>] [--regen-command=<text>]
//       Render EXPERIMENTS.md from the artifact directory.  Without --out
//       the document goes to stdout.
//
//   hslb_report diff --golden=<dir> --fresh=<dir> [--check-timing]
//                    [--bench=<a,b,...>]
//       Drift gate: compare every golden artifact against the fresh run
//       under the per-metric tolerance policy.  Nonzero exit on drift.
//
//   hslb_report fingerprint <artifact.json>...
//       Print "<fingerprint>  <bench>" per file (recomputed, which also
//       verifies the embedded one -- a corrupted file fails to parse).
//
//   hslb_report check --artifacts=<dir> --paper=<...> --doc=<EXPERIMENTS.md>
//                     [--regen-command=<text>]
//       Staleness gate: re-render from the artifacts and byte-compare with
//       the committed doc.  Nonzero exit + first differing line on mismatch.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hslb/common/error.hpp"
#include "hslb/report/diff.hpp"
#include "hslb/report/experiments_doc.hpp"
#include "hslb/report/markdown.hpp"
#include "hslb/report/result_set.hpp"

namespace {

using namespace hslb;

constexpr const char* kDefaultRegenCommand = "scripts/regen_experiments.sh --update";

int usage() {
  std::cerr
      << "usage:\n"
         "  hslb_report render --artifacts=<dir> --paper=<json> [--out=<md>]"
         " [--regen-command=<text>]\n"
         "  hslb_report diff --golden=<dir> --fresh=<dir> [--check-timing]\n"
         "                   [--bench=<a,b,...>]\n"
         "  hslb_report fingerprint <artifact.json>...\n"
         "  hslb_report check --artifacts=<dir> --paper=<json> --doc=<md>"
         " [--regen-command=<text>]\n";
  return 2;
}

/// `--flag=value` parser over the subcommand's arguments.
std::map<std::string, std::string> parse_flags(
    const std::vector<std::string>& args, std::vector<std::string>* positional) {
  std::map<std::string, std::string> flags;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        // Move-assign a string: GCC 12 Release builds report a false
        // -Wrestrict overlap on assigning a literal to a map slot.
        flags[arg.substr(2)] = std::string("1");
      } else {
        flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else if (positional != nullptr) {
      positional->push_back(arg);
    }
  }
  return flags;
}

std::string require_flag(const std::map<std::string, std::string>& flags,
                         const std::string& name) {
  const auto it = flags.find(name);
  HSLB_REQUIRE(it != flags.end(), "missing required flag --" + name);
  return it->second;
}

report::ResultSet load_artifact(const std::string& path) {
  auto loaded = report::read_file(path);
  if (!loaded) {
    throw Error(path + ": " + loaded.error().message);
  }
  return std::move(loaded.value());
}

/// Load every doc-set artifact as <dir>/<bench>.json.
std::map<std::string, report::ResultSet> load_artifact_dir(
    const std::string& dir) {
  std::map<std::string, report::ResultSet> artifacts;
  for (const std::string& bench : report::experiments_bench_set()) {
    artifacts[bench] = load_artifact(dir + "/" + bench + ".json");
  }
  return artifacts;
}

report::PaperRef load_paper(const std::string& path) {
  auto paper = report::PaperRef::load(path);
  if (!paper) {
    throw Error(paper.error().message);
  }
  return std::move(paper.value());
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HSLB_REQUIRE(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Report the first line where two texts diverge (for the staleness gate).
void print_first_difference(const std::string& expected,
                            const std::string& actual) {
  std::istringstream a(expected);
  std::istringstream b(actual);
  std::string line_a;
  std::string line_b;
  int line = 0;
  for (;;) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    ++line;
    if (!more_a && !more_b) {
      return;
    }
    if (line_a != line_b || more_a != more_b) {
      std::cerr << "first difference at line " << line << ":\n"
                << "  committed:   " << (more_a ? line_a : "<end of file>")
                << '\n'
                << "  regenerated: " << (more_b ? line_b : "<end of file>")
                << '\n';
      return;
    }
  }
}

int cmd_render(const std::map<std::string, std::string>& flags) {
  const auto artifacts = load_artifact_dir(require_flag(flags, "artifacts"));
  const auto paper = load_paper(require_flag(flags, "paper"));
  const auto regen = flags.count("regen-command")
                         ? flags.at("regen-command")
                         : std::string(kDefaultRegenCommand);
  const std::string doc = report::render_experiments(artifacts, paper, regen);
  const auto out_it = flags.find("out");
  if (out_it == flags.end()) {
    std::cout << doc;
    return 0;
  }
  std::ofstream out(out_it->second, std::ios::binary);
  HSLB_REQUIRE(out.good(), "cannot write " + out_it->second);
  out << doc;
  std::cerr << "wrote " << out_it->second << " (" << doc.size()
            << " bytes)\n";
  return 0;
}

int cmd_diff(const std::map<std::string, std::string>& flags) {
  const std::string golden_dir = require_flag(flags, "golden");
  const std::string fresh_dir = require_flag(flags, "fresh");
  report::TolerancePolicy policy;
  policy.check_timing = flags.count("check-timing") != 0;
  // Default: the doc-bench set behind EXPERIMENTS.md.  --bench=<a,b,...>
  // restricts the diff to named artifacts instead (e.g. check.sh's LP
  // pivot-count drift gate diffs just lp_resolve.json).
  std::vector<std::string> benches = report::experiments_bench_set();
  if (flags.count("bench") != 0) {
    benches.clear();
    std::istringstream names(flags.at("bench"));
    std::string name;
    while (std::getline(names, name, ',')) {
      if (!name.empty()) {
        benches.push_back(name);
      }
    }
    HSLB_REQUIRE(!benches.empty(), "--bench needs at least one bench name");
  }
  bool ok = true;
  for (const std::string& bench : benches) {
    const auto golden = load_artifact(golden_dir + "/" + bench + ".json");
    const auto fresh = load_artifact(fresh_dir + "/" + bench + ".json");
    const report::DiffResult result = report::diff(golden, fresh, policy);
    std::cerr << bench << ": " << result.cells_compared << " cells compared, "
              << result.cells_skipped_timing << " timing cells skipped, "
              << result.drifts.size() << " drift(s)\n";
    if (!result.ok()) {
      std::cerr << report::render_drift_report(result);
      ok = false;
    }
  }
  if (!ok) {
    std::cerr << "DRIFT: fresh artifacts disagree with tests/golden "
                 "(re-run scripts/regen_experiments.sh --update if the "
                 "change is intended and explain it in the PR)\n";
  }
  return ok ? 0 : 1;
}

int cmd_fingerprint(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return usage();
  }
  for (const std::string& path : paths) {
    const auto set = load_artifact(path);
    std::cout << set.fingerprint() << "  " << set.bench << '\n';
  }
  return 0;
}

int cmd_check(const std::map<std::string, std::string>& flags) {
  const auto artifacts = load_artifact_dir(require_flag(flags, "artifacts"));
  const auto paper = load_paper(require_flag(flags, "paper"));
  const std::string doc_path = require_flag(flags, "doc");
  const auto regen = flags.count("regen-command")
                         ? flags.at("regen-command")
                         : std::string(kDefaultRegenCommand);
  const std::string committed = read_text_file(doc_path);
  const std::string rendered =
      report::render_experiments(artifacts, paper, regen);
  if (committed == rendered) {
    std::cerr << doc_path << " is up to date (" << committed.size()
              << " bytes)\n";
    return 0;
  }
  std::cerr << "STALE: " << doc_path
            << " does not match the artifacts it claims to be rendered "
               "from\n";
  print_first_difference(committed, rendered);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "render") {
      return cmd_render(parse_flags(args, nullptr));
    }
    if (command == "diff") {
      return cmd_diff(parse_flags(args, nullptr));
    }
    if (command == "fingerprint") {
      std::vector<std::string> positional;
      (void)parse_flags(args, &positional);
      return cmd_fingerprint(positional);
    }
    if (command == "check") {
      return cmd_check(parse_flags(args, nullptr));
    }
  } catch (const std::exception& error) {
    std::cerr << "hslb_report " << command << ": " << error.what() << '\n';
    return 1;
  }
  return usage();
}
