#!/usr/bin/env python3
"""dxrec-bench: build dxrecd and the benchmark driver, then run one workload.

Run from the root of a dxrec checkout:

  python3 dxrec-bench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

The last line of standard output is the run's JSON result
({"correct", "attempted", "failed", "metrics"}); the exit code is 0 only
when every output check passed. Builds go to $CARGO_TARGET_DIR (default
.bench_build), spans and daemon metrics to .bench_out/.

Steadiness mode runs a workload repeatedly, one seed per run, and reports
each metric's median, quartiles and spread against BENCHMARK.json's bounds:

  python3 dxrec-bench/run.py --steady 10 --workload serve-hot --seconds 10
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
# A run must end within 180 s; the driver itself stops well before.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"dxrec-bench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds dxrecd and dxrec_bench; returns the
    build directory. Exits non-zero when the sources are missing."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no dxrec sources at {ROOT / 'src'}; run from a dxrec checkout")
        sys.exit(2)
    build_path = build_dir()
    cache = build_path / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        # Configured from another checkout: configure afresh.
        cache.unlink()
        shutil.rmtree(build_path / "CMakeFiles", ignore_errors=True)
    if not cache.is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_path),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(build_path), "-j", jobs,
               "--target", "dxrecd", "dxrec_bench"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return build_path


def run_once(build_path, workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, stdout lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    command = [str(build_path / "dxrec_bench"), f"--workload={workload}",
               f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
               f"--dxrecd={build_path / 'dxrecd'}", f"--out-dir={OUT_DIR}"]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log(f"{workload} seed={seed} did not finish within {RUN_TIMEOUT_S}s")
        return 1, []
    return process.returncode, stdout.splitlines()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steady(build_path, args):
    """Runs the workload args.steady times (seeds args.seed, args.seed+1,
    ...) and prints, per metric, the median, quartiles and the quartile
    spread as a share of the median, next to the metric's bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {name: [] for name in bounds}
    failures = 0
    for i in range(args.steady):
        seed = args.seed + i
        code, lines = run_once(build_path, args.workload, seed, args.seconds,
                               args.trace)
        if code != 0 or not lines:
            failures += 1
            log(f"seed {seed}: run failed (exit {code})")
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        log(f"seed {seed}: " + ", ".join(
            f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds))
    summary = {}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        if not series:
            continue
        q1, median, q3 = quartiles(series)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "runs": len(series)}
        mark = ""
        if bound is not None:
            mark = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
        print(f"{name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} {mark}")
    print(json.dumps({"workload": args.workload, "runs": args.steady,
                      "failed_runs": failures, "metrics": summary}))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run N times with consecutive seeds and report spreads")
    args = parser.parse_args()

    build_path = build()
    if args.steady > 0:
        return steady(build_path, args)
    code, lines = run_once(build_path, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
