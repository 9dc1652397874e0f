#!/usr/bin/env bash
# One-command correctness gate: sanitized Debug build, full test suite, an
# observability-enabled smoke run of the quickstart example, and a
# ThreadSanitizer pass over the concurrent subsystems (svc + obs + the
# rebal loop's threaded warm re-solves).
#
# ASan and TSan cannot share a process, so the TSan pass uses its own build
# tree (build-tsan) and rebuilds only the suites that exercise threads.
#
# Usage: scripts/check.sh [build-dir]   (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
tsan_dir="${repo_root}/build-tsan"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure (Debug + ASan/UBSan) -> ${build_dir}"
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

echo "== build"
cmake --build "${build_dir}" -j "${jobs}"

echo "== ctest"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

echo "== observability smoke run (quickstart --trace-out --metrics)"
trace_file="${build_dir}/check-trace.json"
"${build_dir}/examples/quickstart" --trace-out="${trace_file}" --metrics

# The trace must be a loadable Chrome trace with all four phase spans.
for phase in hslb.gather hslb.fit hslb.solve hslb.execute; do
  grep -q "\"name\":\"${phase}\"" "${trace_file}" \
    || { echo "missing phase span ${phase} in ${trace_file}" >&2; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "${trace_file}"
else
  echo "note: python3 unavailable, JSON well-formedness check skipped"
fi

echo "== parallel-solver bench smoke run (identity check, tiny node budget)"
"${build_dir}/bench/bench_minlp_parallel" --smoke --repeats=1 \
  --json-out="${build_dir}/BENCH_minlp.json"

echo "== LP re-solve bench smoke under ASan (parent-basis warm starts vs cold)"
"${build_dir}/bench/bench_lp_resolve" --smoke --repeats=1 \
  --json-out="${build_dir}/BENCH_lp.json"

echo "== LP pivot-count drift gate (two runs diffed via hslb_report)"
# The sparse simplex's pivot/eta/factorization counters are deterministic:
# two runs of the same sequence must produce identical non-timing cells.
lp_drift_a="${build_dir}/check-lp-a"
lp_drift_b="${build_dir}/check-lp-b"
rm -rf "${lp_drift_a}" "${lp_drift_b}"
mkdir -p "${lp_drift_a}" "${lp_drift_b}"
"${build_dir}/bench/bench_lp_resolve" --smoke --repeats=1 \
  --json-out="${lp_drift_a}/lp_resolve.json" 2>/dev/null
"${build_dir}/bench/bench_lp_resolve" --smoke --repeats=1 \
  --json-out="${lp_drift_b}/lp_resolve.json" 2>/dev/null
"${build_dir}/tools/hslb_report" diff --bench=lp_resolve \
  --golden="${lp_drift_a}" --fresh="${lp_drift_b}"

echo "== rebal horizon bench smoke under ASan (control loop + replay identity)"
"${build_dir}/bench/bench_rebal_horizon" --smoke \
  --json-out="${build_dir}/BENCH_rebal.json"

echo "== scenario corpus smoke (fixed-seed generate + corpus bench)"
corpus_dir="${build_dir}/check-corpus"
rm -rf "${corpus_dir}"
"${build_dir}/tools/hslb_scengen" --out="${corpus_dir}" --seed=2014 --count=3
"${build_dir}/bench/bench_scen_corpus" --smoke --corpus="${corpus_dir}" \
  --json-out="${build_dir}/BENCH_scen.json"

echo "== configure (Debug + TSan) -> ${tsan_dir}"
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

echo "== build (TSan: concurrent suites only)"
cmake --build "${tsan_dir}" -j "${jobs}" \
  --target test_svc test_svc_chaos test_scen test_obs test_telemetry \
  test_minlp_parallel test_lp_property test_rebal allocation_server \
  hslb_trace_cli bench_scen_corpus bench_lp_resolve bench_rebal_horizon

echo "== ctest (TSan: svc + chaos + scen + obs + telemetry + parallel solver"
echo "   + LP properties + rebal + smokes)"
ctest --test-dir "${tsan_dir}" --output-on-failure -j "${jobs}" \
  -R 'test_svc|test_svc_chaos|test_scen|test_obs|test_telemetry|test_minlp_parallel|test_lp_property|test_rebal|smoke_allocation_server|smoke_hslb_trace'

echo "== chaos smoke under TSan (deterministic faults, ladder on)"
"${tsan_dir}/examples/allocation_server" --smoke --chaos-rate=0.3 \
  --chaos-seed=7

echo "== corpus smoke under TSan (thread-scaling sweep, tiny slice)"
"${tsan_dir}/bench/bench_scen_corpus" --smoke --per-family=2 --limit=1 \
  --json-out="${tsan_dir}/BENCH_scen.json"

echo "== LP re-solve bench smoke under TSan (thread-local workspace reuse)"
"${tsan_dir}/bench/bench_lp_resolve" --smoke --repeats=1 \
  --json-out="${tsan_dir}/BENCH_lp.json"

echo "== rebal horizon bench smoke under TSan (threaded warm re-solves)"
"${tsan_dir}/bench/bench_rebal_horizon" --smoke \
  --json-out="${tsan_dir}/BENCH_rebal.json"

echo "== OK: build, tests, observability smoke run, and TSan pass all passed"
