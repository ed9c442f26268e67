#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One measured run, as BENCHMARK.json's command gives it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench_driver from ../src on first use (CMake, Release, under
.bench_build/), runs it, checks that its result line carries every metric
BENCHMARK.json declares for the mode with the declared unit and a finite
value, and prints that line last. --trace 1 also writes per-request spans and
the layer table under .bench_build/trace/.

Two more modes check the benchmark itself:

    python3 perfbench/run.py --steadiness [--runs 10] [--first-seed 1]
        [--workloads a,b] [--compare earlier.json]
    python3 perfbench/run.py --self-test

--steadiness repeats each workload with consecutive seeds and prints every
end-to-end metric's median, quartiles and spread ((q3 - q1) / median); it
flags a spread above the metric's bound and, with --compare, a median worse
than the earlier report's by more than the bound. --self-test runs every
workload at a tiny scale in both modes and checks the declared metrics, the
seeded input hashes, and that the exact counts of the fixed-length workloads
repeat for a seed.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "trace")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def finish(proc, timeout):
    """Waits for `proc` and returns its stdout. On a timeout, or when this
    script is interrupted or sent SIGTERM, kills the child's whole process
    group and waits for it first, so no process outlives the script."""
    try:
        return proc.communicate(timeout=timeout)[0]
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def run_quiet(cmd, log_path, timeout):
    """Runs `cmd` with output to `log_path`; returns its exit code, -1 on a
    timeout."""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            finish(proc, timeout)
        except subprocess.TimeoutExpired:
            return -1
        return proc.returncode


def log_tail(path, lines=30):
    with open(path) as f:
        return "".join(f.readlines()[-lines:])


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "http_server.h")):
        raise BenchError("the dpstarj sources (src/) are not in this checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        log = os.path.join(BUILD_ROOT, "configure.log")
        code = run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if code != 0:
            raise BenchError("cmake configure failed:\n" + log_tail(log))
    log = os.path.join(BUILD_ROOT, "build.log")
    code = run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                      "-j", jobs], log, BUILD_TIMEOUT_S)
    if code != 0:
        raise BenchError("build failed:\n" + log_tail(log))


def run_driver(workload, seed, seconds, trace, tiny=False):
    """Runs one measurement; returns (stdout lines, parsed result, exit code)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", TRACE_DIR]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out = finish(proc, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed}: no output (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"{workload} seed {seed}: last line is not a result "
                         f"(exit {proc.returncode})")
    return lines[:-1], result, proc.returncode


def check_metrics(result, declared):
    """Problems with `result` against the declared metric list."""
    problems = []
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got.get('unit')!r}, "
                            f"declared {m['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} has no finite value")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics " + ", ".join(sorted(extra)))
    return problems


def context_of(lines):
    for line in lines:
        if line.startswith("# context "):
            return json.loads(line[len("# context "):])
    return {}


def counts_of(lines):
    for line in lines:
        if line.startswith("# counts after the run: "):
            return line
    return None


def measure(args, spec):
    declared = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    lines, result, code = run_driver(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    problems = check_metrics(result, declared)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result.get("correct") is True else 1


def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def steadiness(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    report, flagged = {}, []
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            seed = args.first_seed + k
            _, result, code = run_driver(w, seed, seconds, 0)
            if code != 0 or result.get("correct") is not True:
                flagged.append(f"{w} seed {seed}: run failed (exit {code})")
                continue
            for m in spec["end_to_end"]:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        report[w] = {}
        print(f"== {w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each")
        print(f"   {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            st = spread_stats(v)
            report[w][m["name"]] = st
            note = ""
            if st["spread"] > m["bound"] and m["name"] != "setup_s":
                note = "  SPREAD ABOVE BOUND"
                flagged.append(f"{w} {m['name']}: spread {st['spread']:.3f} > {m['bound']}")
            elif st["spread"] > m["bound"] / 3:
                note = "  above a third of the bound"
            if earlier and m["name"] in earlier.get(w, {}):
                before = earlier[w][m["name"]]["median"]
                worse = (st["median"] - before) / abs(before)
                if m["better"] == "higher":
                    worse = -worse
                note += f"  vs earlier {worse:+.3f}"
                if worse > m["bound"]:
                    note += " WORSE THAN BOUND"
                    flagged.append(f"{w} {m['name']}: median worse by {worse:.3f}")
            print(f"   {m['name']:<20} {st['median']:>12.5g} {st['q1']:>12.5g} "
                  f"{st['q3']:>12.5g} {st['spread']:>8.4f} {m['bound']:>6}{note}")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    out = args.report or os.path.join(BUILD_ROOT, "steadiness.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"report written to {os.path.relpath(out, ROOT)}")
    for problem in flagged:
        print(f"FLAGGED: {problem}")
    return 1 if flagged else 0


def self_test(spec):
    failures = []
    hashes = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result, code = run_driver(w, 1, 1, trace, tiny=True)
            problems = check_metrics(result, declared)
            if code != 0 or result.get("correct") is not True:
                problems.append(f"run not correct (exit {code})")
            if not result.get("attempted", 0) >= 1:
                problems.append("attempted < 1")
            failures += [f"{w} trace {trace}: {p}" for p in problems]
            hashes[(w, 1)] = context_of(lines).get("inputs_hash")
            if trace == 0:
                counts = counts_of(lines)
            print(f"{w} trace {trace}: {'ok' if not problems else 'FAILED'}")
        # A second seed must change the inputs; the same seed must repeat them,
        # and on the fixed-length workloads, every exact count too.
        lines, _, _ = run_driver(w, 2, 1, 0, tiny=True)
        if context_of(lines).get("inputs_hash") == hashes[(w, 1)]:
            failures.append(f"{w}: seeds 1 and 2 generate the same inputs")
        lines, _, _ = run_driver(w, 1, 1, 0, tiny=True)
        if context_of(lines).get("inputs_hash") != hashes[(w, 1)]:
            failures.append(f"{w}: seed 1 generated different inputs twice")
        if w in ("adhoc_cold", "batch_ingest") and counts_of(lines) != counts:
            failures.append(f"{w}: exact counts differ between two seed-1 runs")
        print(f"{w} seeds: {'ok' if not failures else 'see failures'}")
    for f in failures:
        print(f"FAILED: {f}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--compare")
    parser.add_argument("--report")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so finish() stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        if not (args.steadiness or args.self_test):
            if args.workload is None or args.seed is None or args.seconds is None \
                    or args.trace is None:
                parser.error("--workload, --seed, --seconds and --trace are required")
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                parser.error(f"unknown workload {args.workload!r}")
        build()
        if args.steadiness:
            return steadiness(args, spec)
        if args.self_test:
            return self_test(spec)
        return measure(args, spec)
    except (BenchError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
