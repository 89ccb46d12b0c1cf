#!/usr/bin/env bash
# Builds and tests every configuration a PR must keep green:
#   default        RelWithDebInfo, full ctest suite
#   asan           address+undefined sanitizers
#   tsan           thread sanitizer (races in the threaded inverse chase
#                  and the obs tracing/metrics/event collectors)
#
# A standalone `ubsan` preset also exists for isolating UB findings from
# ASan noise: scripts/check.sh ubsan
#
# With DXREC_CHECK_FAULTS=1, additionally runs the deterministic
# fault-injection sweep under ASan (scripts/fault_sweep.sh) and a ~30s
# parser-fuzz corpus smoke (docs/ROBUSTNESS.md).
#
# With DXREC_CHECK_TSAN=1, additionally runs a focused ThreadSanitizer
# pass (repeated runs of just the concurrency-sensitive tests) on top of
# whatever presets were requested — cheap enough to use while iterating
# on the pool or the parallel inverse chase without a full tsan suite.
#
# With DXREC_CHECK_SOAK=1, additionally builds the release preset and
# soaks dxrecd's churn cycle in-process (DXREC_SOAK_CYCLES, default 50k)
# under the per-cycle variable-interning bound.
#
# Always runs a dxrecd serve smoke: boots the server on an ephemeral
# port, drives it with two serve_loadgen runs at different scales,
# validates both BENCH_SERVE summaries' percentiles + OpenMetrics + JSONL
# telemetry, and asserts a clean SIGTERM drain. With DXREC_CHECK_SERVE_FAULTS=1, repeats under injected
# transport faults and fault-plus-overload pressure (docs/SERVING.md).
#
# Always validates the CLI's --openmetrics exposition (and a non-empty
# --profile folded-stack file) via scripts/validate_openmetrics.py; with
# DXREC_CHECK_OBS_OVERHEAD=1 additionally gates the obs+profiler
# overhead at 3% of the obs-off bench_e8 median.
#
# Also enforces source-level invariants (budget failures must go through
# obs::BudgetExhausted; every src/ header is reached by something besides
# its own tests) and, with DXREC_CHECK_BENCH=1, records a
# bench_e8 perf snapshot (median and IQR of 10 repetitions per row) under
# bench_history/ and diffs it against the previous snapshot via
# scripts/bench_diff.py (warn-only, IQR noise bands). The same
# stage gates the parallel engine: the snapshot's threads=1 vs threads=N
# rows must reach DXREC_BENCH_MIN_SPEEDUP (default 2.5x, 0 to skip).
#
# Usage: scripts/check.sh [default|asan|tsan ...]
# With no arguments, runs all three. Requires cmake >= 3.24 (presets).
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan)
fi

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

# Budget failures must carry the structured payload: the only permitted
# Status::ResourceExhausted( call sites are the Status factory itself and
# obs::BudgetExhausted. Everything else uses obs::BudgetExhausted /
# BudgetMeter::Exhausted (docs/OBSERVABILITY.md, "Budget telemetry").
echo "=== structured-budget check ==="
offenders=$(grep -rn 'Status::ResourceExhausted(' \
    --include='*.h' --include='*.cc' --include='*.cpp' \
    src bench examples tests \
    | grep -v '^src/base/' | grep -v '^src/obs/' \
    | grep -v '^tests/serve_test.cc:' || true)
# tests/serve_test.cc is exempt: it feeds hand-built budget statuses of
# every shape into WireErrorFromStatus to pin the wire taxonomy mapping.
if [ -n "$offenders" ]; then
  echo "bare Status::ResourceExhausted( outside src/base+src/obs;" \
       "use obs::BudgetExhausted / obs::BudgetMeter instead:" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "ok"

# Library code must be reached by something besides its own tests: every
# src/ header needs an include from another src/ file (not its own .cc),
# an example, an E1-E13 bench or dxrec-bench. Code only tests call is
# deleted together with those tests.
echo "=== reachability check ==="
unreached=""
for header in $(cd src && find . -name '*.h' | sed 's|^\./||' | sort); do
  users=$(grep -rlF "#include \"$header\"" src examples bench dxrec-bench \
             --include='*.h' --include='*.cc' --include='*.cpp' \
           | grep -vxF "src/${header%.h}.cc" || true)
  if [ -z "$users" ]; then
    unreached="$unreached src/$header"
  fi
done
if [ -n "$unreached" ]; then
  echo "headers included only by their own .cc and tests/:$unreached" >&2
  exit 1
fi
echo "ok"

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset" >/dev/null
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset" -j "$jobs"
done

# Focused TSan pass (opt-in). The full tsan preset above already runs
# the whole suite; this stage instead hammers the concurrency-sensitive
# tests (pool, parallel engine, obs collectors, fault sweep, and the
# core value types the step-7 slices read concurrently: Substitution,
# Atom, Instance, the columnar postings; the daemon's shared recovery
# sets, first read by racing requests; and the per-cover pipeline) with
# several repetitions, which is where scheduling-dependent races
# actually surface. Usable on its own: scripts/check.sh default with
# DXREC_CHECK_TSAN=1 builds the tsan preset here if needed.
if [ "${DXREC_CHECK_TSAN:-0}" = "1" ]; then
  echo "=== focused tsan pass (concurrency tests, 3 repetitions) ==="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$jobs"
  ctest --preset tsan -j "$jobs" --repeat until-fail:3 \
      -R 'thread_pool_test|parallel_engine_test|fault_sweep_test|obs_events_test|obs_test|obs_profiler_test|obs_export_test|resilience_test|base_test|relational_test|hom_index_property_test|columnar_diff_test|serve_stress_test|inverse_chase_test'
fi

# OpenMetrics exposition check: drive the CLI with --openmetrics over
# the warehouse example and validate the output against the format rules
# (scripts/validate_openmetrics.py). Cheap, so it always runs; uses the
# default preset's CLI binary, building just that target if needed.
echo "=== openmetrics exposition check ==="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" --target dxrec_cli >/dev/null
om_dir=$(mktemp -d)
trap 'rm -rf "$om_dir"' EXIT
printf 'loadsigma examples/data/warehouse.tgds\ntarget {Ledger(ann, o1), Shipment(o1, tea), Available(tea)}\nrecover\nquit\n' \
  | build/examples/dxrec_cli --openmetrics="$om_dir/metrics.om" \
      --profile="$om_dir/profile.folded" >/dev/null
python3 scripts/validate_openmetrics.py "$om_dir/metrics.om"
if [ ! -s "$om_dir/profile.folded" ]; then
  echo "--profile produced an empty folded-stack file" >&2
  exit 1
fi
# Stats were off in that session, so no dxrec_stats_* family may exist.
if grep -q 'dxrec_stats_' "$om_dir/metrics.om"; then
  echo "stats-off session exported dxrec_stats_* families" >&2
  exit 1
fi

# explain-analyze end-to-end: the access-path operator tree renders over
# the warehouse example, byte-identically at threads=1 vs threads=4, and
# a stats-on session exports validating dxrec_stats_* families. Cheap,
# so it always runs.
echo "=== explain analyze check ==="
ea_session='loadsigma examples/data/warehouse.tgds
target {Ledger(ann, o1), Shipment(o1, tea), Available(tea)}
explain analyze
quit'
printf '%s\n' "$ea_session" \
  | build/examples/dxrec_cli --threads=1 >"$om_dir/ea_t1.txt"
printf '%s\n' "$ea_session" \
  | build/examples/dxrec_cli --threads=4 >"$om_dir/ea_t4.txt"
if ! diff -u "$om_dir/ea_t1.txt" "$om_dir/ea_t4.txt"; then
  echo "explain analyze output diverged between threads=1 and threads=4" >&2
  exit 1
fi
for marker in 'operator tree:' 'access paths' 'step1 hom_enum' 'cover 0' \
    'step6 g_hom' 'step7 verify' 'sel%'; do
  if ! grep -qF "$marker" "$om_dir/ea_t1.txt"; then
    echo "explain analyze output missing '$marker'" >&2
    cat "$om_dir/ea_t1.txt" >&2
    exit 1
  fi
done
printf '%s\n' "$ea_session" \
  | build/examples/dxrec_cli --openmetrics="$om_dir/stats.om" >/dev/null
python3 scripts/validate_openmetrics.py "$om_dir/stats.om"
if ! grep -q '^# TYPE dxrec_stats_' "$om_dir/stats.om"; then
  echo "stats-on session exported no dxrec_stats_* families" >&2
  exit 1
fi
echo "explain analyze: deterministic tree + stats families OK"

# Recovery differential smoke: the same CLI recovery session at
# threads=1 and threads=4 must print byte-identical output, and both must
# match the committed golden (tests/columnar_diff_test.cc is the
# exhaustive version, this catches a CLI-level wiring break). Warehouse
# has a single candidate; Blowup p=2 q=4 has one cover whose 256
# candidates collapse onto 70 recoveries, so it runs step 7's candidate
# table, its duplicates and merge (tests/golden/cli_recover_blowup.txt).
echo "=== recovery differential check ==="
# The recover summary line carries wall-clock ms — strip it; everything
# else (counters and the recoveries themselves) must match byte-for-byte.
check_recover_differential() {  # name, session text
  for threads in 1 4; do
    printf '%s\n' "$2" \
      | build/examples/dxrec_cli --threads="$threads" \
      | sed 's/ | ms: [^]]*\]/]/' >"$om_dir/rec_$1_t$threads.txt"
  done
  if ! diff -u "$om_dir/rec_$1_t1.txt" "$om_dir/rec_$1_t4.txt"; then
    echo "$1 recover output diverged between threads=1 and threads=4" >&2
    exit 1
  fi
  if ! diff -u "tests/golden/cli_recover_$1.txt" "$om_dir/rec_$1_t1.txt"; then
    echo "$1 recover output diverged from the committed golden" >&2
    exit 1
  fi
}
check_recover_differential warehouse \
  "$(printf 'loadsigma examples/data/warehouse.tgds\ntarget %s\nrecover\nquit\n' \
      '{Ledger(ann, o1), Shipment(o1, tea), Available(tea)}')"
check_recover_differential blowup \
  "$(printf 'sigma %s\ntarget %s\nrecover\nquit\n' \
      'Rb(x, y) -> Sb(x); Rb(u, v) -> Tb(v)' \
      '{Sb(a0), Sb(a1), Tb(c0), Tb(c1), Tb(c2), Tb(c3)}')"
echo "recovery differential: threads=1 == threads=4 == golden OK (warehouse, blowup)"

# dxrecd serve smoke (always on): boot the server on an ephemeral port,
# drive it with the closed-loop load generator, validate the BENCH_SERVE
# latency summary + OpenMetrics + JSONL telemetry, and assert the
# SIGTERM drain contract (exit 0, "dxrecd drained" printed). See
# docs/SERVING.md.
echo "=== dxrecd serve smoke ==="
cmake --build --preset default -j "$jobs" --target dxrecd serve_loadgen \
    >/dev/null
serve_smoke() {
  # serve_smoke <name> <loadgen-exit-tolerant> <dxrecd-args...>
  # Runs serve_loadgen once per LOADGEN_SCALES entry against the same
  # daemon; run i writes BENCH_SERVE_<name>_<i>.json.
  local name="$1" tolerant="$2"; shift 2
  build/examples/dxrecd --port=0 \
      --openmetrics="$om_dir/serve_$name.om" \
      --telemetry="$om_dir/serve_$name.jsonl" --snapshot-interval=0.2 \
      "$@" >"$om_dir/serve_$name.out" 2>"$om_dir/serve_$name.err" &
  local daemon=$!
  local port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/^dxrecd listening on 127.0.0.1:\([0-9]*\)$/\1/p' \
        "$om_dir/serve_$name.out")
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "dxrecd ($name) never printed its port" >&2
    cat "$om_dir/serve_$name.err" >&2
    kill -KILL $daemon 2>/dev/null || true
    exit 1
  fi
  local i
  for i in "${!LOADGEN_SCALES[@]}"; do
    if [ "$tolerant" = "tolerant" ]; then
      build/examples/serve_loadgen --port="$port" \
          --out="$om_dir/BENCH_SERVE_${name}_$i.json" "${LOADGEN_ARGS[@]}" \
          --scale="${LOADGEN_SCALES[$i]}" \
          >"$om_dir/loadgen_${name}_$i.out" || true
    else
      build/examples/serve_loadgen --port="$port" \
          --out="$om_dir/BENCH_SERVE_${name}_$i.json" "${LOADGEN_ARGS[@]}" \
          --scale="${LOADGEN_SCALES[$i]}" \
          >"$om_dir/loadgen_${name}_$i.out"
    fi
  done
  kill -TERM $daemon
  local rc=0
  wait $daemon || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "dxrecd ($name) exited $rc after SIGTERM (want 0)" >&2
    cat "$om_dir/serve_$name.err" >&2
    exit 1
  fi
  if ! grep -q '^dxrecd drained$' "$om_dir/serve_$name.out"; then
    echo "dxrecd ($name) did not report a clean drain" >&2
    exit 1
  fi
}

# Two runs at different scales against one daemon: the second must query
# its own sessions, not the first run's.
LOADGEN_ARGS=(--clients=4 --requests=50)
LOADGEN_SCALES=(24 48)
serve_smoke baseline strict
python3 - "$om_dir/BENCH_SERVE_baseline_0.json" \
    "$om_dir/BENCH_SERVE_baseline_1.json" <<'EOF'
import json, sys
prefixes = set()
for path, scale in zip(sys.argv[1:], (24, 48)):
    summary = json.load(open(path))
    assert summary["config"]["scale"] == scale, summary["config"]
    prefixes.add(summary["config"]["session_prefix"])
    latency = summary["latency_micros"]
    for key in ("count", "p50", "p90", "p99", "p999", "max", "mean"):
        assert key in latency, f"latency_micros missing {key}"
    assert latency["count"] == 200, latency["count"]
    assert summary["transport_failures"] == 0, summary
    assert summary["open_failures"] == 0, summary
    assert summary["close_failures"] == 0, summary
    answered = summary["ok"] + summary["shed"] + summary["errors"]
    assert answered == latency["count"], (answered, latency["count"])
    assert summary["ok"] > 0, summary
    print(f"serve smoke (scale={scale}): {latency['count']} requests, "
          f"p50={latency['p50']}us p99={latency['p99']}us "
          f"p999={latency['p999']}us, ok={summary['ok']} "
          f"shed={summary['shed']} errors={summary['errors']}")
assert len(prefixes) == 2, f"runs shared a session prefix: {prefixes}"
EOF
python3 scripts/validate_openmetrics.py "$om_dir/serve_baseline.om"
if ! grep -q '^dxrec_serve_requests_total ' "$om_dir/serve_baseline.om"; then
  echo "dxrecd OpenMetrics exposition is missing dxrec_serve_requests" >&2
  exit 1
fi
# Sessions are queried repeatedly, so warm requests must have answered
# from the session-resident recovery set.
hits=$(sed -n 's/^dxrec_serve_recovery_set_hits_total \([0-9]*\)$/\1/p' \
    "$om_dir/serve_baseline.om")
if [ -z "$hits" ] || [ "$hits" -le 0 ]; then
  echo "dxrecd recorded no recovery-set hits (got '$hits')" >&2
  exit 1
fi
echo "serve recovery sets: $hits warm hits"
python3 - "$om_dir/serve_baseline.jsonl" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "telemetry JSONL is empty"
for line in lines:
    json.loads(line)
print(f"serve telemetry: {len(lines)} JSONL snapshots, all parse")
EOF
cp "$om_dir/BENCH_SERVE_baseline_0.json" BENCH_SERVE.json
echo "serve smoke OK (summary copied to BENCH_SERVE.json)"

# Fault-injected serve pass (opt-in): the daemon under injected faults
# and forced overload must never crash, must answer every accepted
# request (structured error or degraded-but-sound result), and must
# still drain cleanly on SIGTERM.
if [ "${DXREC_CHECK_SERVE_FAULTS:-0}" = "1" ]; then
  echo "=== dxrecd serve fault pass ==="
  # 1. Transport fault: an injected read failure drops one connection
  #    mid-stream; the daemon keeps serving the rest and drains cleanly.
  LOADGEN_ARGS=(--clients=4 --requests=50)
  LOADGEN_SCALES=(24)
  serve_smoke readfault tolerant \
      --fault-site=serve.read --fault-kind=status
  echo "serve fault pass: injected read fault, daemon survived and drained"
  # 2. Engine fault under overload: tiny queue + single worker + a
  #    deadline injected inside the inverse chase. Pressure must drain
  #    through the ladder (sheds and/or overload admissions), the
  #    injected trip must degrade (rung visible), and nothing may be
  #    dropped unanswered.
  LOADGEN_ARGS=(--clients=16 --requests=20 --warmup=0)
  LOADGEN_SCALES=(300)
  serve_smoke overload strict \
      --threads=1 --queue-capacity=2 --queue-soft-limit=1 \
      --overload-deadline-ms=1 \
      --fault-site=inverse_chase.cover --fault-kind=deadline
  python3 - "$om_dir/BENCH_SERVE_overload_0.json" <<'EOF'
import json, sys
summary = json.load(open(sys.argv[1]))
count = summary["latency_micros"]["count"]
answered = summary["ok"] + summary["shed"] + summary["errors"]
assert summary["transport_failures"] == 0, summary
assert answered == count, (answered, count)
pressured = summary["shed"] + summary["degraded"] + summary["overload_admitted"]
assert pressured > 0, f"no overload response recorded: {summary}"
assert summary["degraded"] > 0 or summary["shed"] > 0, summary
print(f"serve fault pass: {count} requests under fault+overload, "
      f"ok={summary['ok']} degraded={summary['degraded']} "
      f"(rungs={summary['rungs']}) shed={summary['shed']} "
      f"errors={summary['errors']} — all answered, none dropped")
EOF
fi

# Churn soak (opt-in: builds the release preset). Runs dxrecd's churn
# cycle in-process (open a fresh datagen mapping, analyze, certain x2,
# recover, close) DXREC_SOAK_CYCLES times, 50k by default. The bound,
# asserted per cycle: a cycle interns no more variables than its own
# Sigma, J and query texts name -- renamed tgd copies (SUB(Sigma), the
# recovery mappings) intern none, so the variable table grows only with
# the texts it is sent.
if [ "${DXREC_CHECK_SOAK:-0}" = "1" ]; then
  echo "=== churn soak (release) ==="
  cmake --preset release >/dev/null
  cmake --build --preset release -j "$jobs" --target serve_stress_test \
      >/dev/null
  DXREC_SOAK_CYCLES="${DXREC_SOAK_CYCLES:-50000}" \
      build-release/tests/serve_stress_test \
      --gtest_filter='ServeStress.ChurnCyclesInternOnlyTheirTextsVariables'
fi

# Robustness sweep (opt-in: needs the asan preset built). Runs the
# deterministic fault-injection sweep under ASan and replays the fuzzer
# corpus — plus a bounded random-soup smoke — through the standalone
# parser harness.
if [ "${DXREC_CHECK_FAULTS:-0}" = "1" ]; then
  echo "=== fault sweep (asan) ==="
  scripts/fault_sweep.sh asan
  echo "=== fuzz corpus smoke ==="
  cmake --build --preset default -j "$jobs" --target fuzz_parser >/dev/null
  build/tests/fuzz_parser tests/fuzz/corpus
  # ~30s of random soup through the replayer: not coverage-guided, but
  # catches gross parser regressions without requiring clang/libFuzzer.
  python3 - <<'EOF'
import random, subprocess, time
random.seed(20150531)  # PODS'15 — deterministic soup
alphabet = "RSTQxyz()[]{}<>,.;:'\"-|& \t\n\\0123456789abc_exists"
deadline = time.time() + 30
n = 0
while time.time() < deadline:
    soup = "".join(random.choice(alphabet) for _ in range(random.randrange(0, 512)))
    subprocess.run(["build/tests/fuzz_parser"], input=soup.encode(),
                   check=True, stdout=subprocess.DEVNULL)
    n += 1
print(f"fuzz smoke: {n} random inputs replayed without incident")
EOF
fi

# Perf trajectory (opt-in: slow). Snapshots bench_e8 — the disabled-obs
# overhead guard — into bench_history/<timestamp>/ and diffs against the
# previous snapshot. Warn-only: local noise shouldn't fail the check;
# the BENCH json is there for a human to judge.
if [ "${DXREC_CHECK_BENCH:-0}" = "1" ]; then
  echo "=== bench snapshot (bench_e8) ==="
  bench_bin=build/bench/bench_e8_chase_engine
  if [ ! -x "$bench_bin" ]; then
    echo "missing $bench_bin (build the default preset first)" >&2
    exit 1
  fi
  snap="bench_history/$(date +%Y%m%d_%H%M%S)"
  mkdir -p "$snap"
  # Ten repetitions: each BENCH_E8.json row holds their median and IQR,
  # and bench_diff.py takes the IQR as the row's noise band.
  DXREC_BENCH_JSON_DIR="$snap" "$bench_bin" \
      --benchmark_min_time=0.05 --benchmark_repetitions=10 \
      >"$snap/stdout.txt" 2>&1
  prev=$(ls -1d bench_history/*/ 2>/dev/null | sed 's:/$::' \
      | grep -v "^$snap\$" | sort | tail -n 1 || true)
  if [ -n "$prev" ]; then
    echo "--- bench_diff vs $prev ---"
    python3 scripts/bench_diff.py --warn-only "$prev" "$snap"
  else
    echo "first snapshot recorded at $snap (nothing to diff)"
  fi
  # Parallel-engine gate: the snapshot's own threads=1 vs threads=N rows
  # (interleaved in one binary run, so A/B share machine state) must show
  # real speedup. Hard-fails, unlike the history diff above, because a
  # lost speedup means the parallel path silently degraded to sequential.
  # Needs real cores: on a box with fewer than 4 the target is physically
  # unreachable, so report the ratios without gating.
  min_speedup="${DXREC_BENCH_MIN_SPEEDUP:-2.5}"
  if [ "$min_speedup" != "0" ]; then
    echo "--- bench_diff --speedup (min ${min_speedup}x) ---"
    if [ "$jobs" -ge 4 ]; then
      python3 scripts/bench_diff.py --speedup \
          --min-speedup "$min_speedup" "$snap"
    else
      echo "only $jobs core(s) available; reporting speedups warn-only"
      python3 scripts/bench_diff.py --speedup --warn-only \
          --min-speedup "$min_speedup" "$snap"
    fi
  fi
fi

# Observability overhead gate (opt-in: slow and timing-sensitive). Runs
# the bench_e8 obs A/B trio — obs off / obs on / obs + profiler — with
# random interleaving so the variants share machine state, then asserts
# the obs+profiler median stays within 3% of the obs-off median. This is
# the "observability is cheap enough to leave on" budget from
# docs/OBSERVABILITY.md, checked end-to-end including the sampler thread.
if [ "${DXREC_CHECK_OBS_OVERHEAD:-0}" = "1" ]; then
  echo "=== obs overhead gate (bench_e8 medians, obs+profiler vs off) ==="
  cmake --build --preset default -j "$jobs" --target bench_e8_chase_engine \
      >/dev/null
  DXREC_BENCH_JSON_DIR="$om_dir" build/bench/bench_e8_chase_engine \
      --benchmark_filter='ForwardChaseObs' \
      --benchmark_repetitions=9 \
      --benchmark_report_aggregates_only=true \
      --benchmark_enable_random_interleaving=true \
      --benchmark_min_time=0.05 >"$om_dir/obs_overhead.txt" 2>&1
  python3 - "$om_dir/BENCH_E8.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
medians = {}
for row in rows:
    name = row.get("name", "")
    if name.endswith("_median"):
        for variant in ("ObsOff", "ObsOn", "ObsProfiled"):
            if variant in name:
                medians[variant] = float(row["real_time"])
missing = [v for v in ("ObsOff", "ObsProfiled") if v not in medians]
if missing:
    sys.exit(f"obs overhead gate: no median rows for {missing}")
off, profiled = medians["ObsOff"], medians["ObsProfiled"]
ratio = profiled / off
print(f"obs-off median:      {off:.0f} ns")
if "ObsOn" in medians:
    print(f"obs-on median:       {medians['ObsOn']:.0f} ns "
          f"({medians['ObsOn'] / off:+.2%} vs off)")
print(f"obs+profiler median: {profiled:.0f} ns ({ratio - 1:+.2%} vs off)")
if ratio > 1.03:
    sys.exit(f"obs+profiler overhead {ratio - 1:.2%} exceeds the 3% budget")
print("within the 3% budget")
EOF
fi

# Stats overhead gate (opt-in, same shape as the obs gate above): the
# hom search with access-path statistics ON must stay within 3% of the
# stats-off median — the budget that makes `explain analyze` cheap
# enough to reach for casually (docs/OBSERVABILITY.md). Medians over 9
# interleaved repetitions, A/B in one binary run.
if [ "${DXREC_CHECK_STATS_OVERHEAD:-0}" = "1" ]; then
  echo "=== stats overhead gate (bench_e8 medians, stats on vs off) ==="
  cmake --build --preset default -j "$jobs" --target bench_e8_chase_engine \
      >/dev/null
  stats_dir=$(mktemp -d)
  DXREC_BENCH_JSON_DIR="$stats_dir" build/bench/bench_e8_chase_engine \
      --benchmark_filter='HomSearchStats' \
      --benchmark_repetitions=9 \
      --benchmark_report_aggregates_only=true \
      --benchmark_enable_random_interleaving=true \
      --benchmark_min_time=0.05 >"$stats_dir/stats_overhead.txt" 2>&1
  python3 - "$stats_dir/BENCH_E8.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
medians = {}
for row in rows:
    name = row.get("name", "")
    if name.endswith("_median"):
        for variant in ("StatsOff", "StatsOn"):
            if variant in name:
                medians[variant] = float(row["real_time"])
missing = [v for v in ("StatsOff", "StatsOn") if v not in medians]
if missing:
    sys.exit(f"stats overhead gate: no median rows for {missing}")
off, on = medians["StatsOff"], medians["StatsOn"]
ratio = on / off
print(f"stats-off median: {off:.0f} ns")
print(f"stats-on median:  {on:.0f} ns ({ratio - 1:+.2%} vs off)")
if ratio > 1.03:
    sys.exit(f"stats-on overhead {ratio - 1:.2%} exceeds the 3% budget")
print("within the 3% budget")
EOF
  rm -rf "$stats_dir"
fi

echo "All requested configurations passed: ${presets[*]}"
