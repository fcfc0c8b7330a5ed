#!/usr/bin/env python3
"""Runner for the connectit benchmark (see README.md in this directory).

Run one workload; this is the form BENCHMARK.json's command takes. It builds
the benchmark first, runs it under a watchdog, checks the metric names
against BENCHMARK.json, writes a result file and prints the result as the
last line of standard output:

    python3 connectit_bench/connectit_bench.py --workload static_rmat \\
        --seed 1 --seconds 8 --trace 0

Run every workload once (exits non-zero if any run failed):

    python3 connectit_bench/connectit_bench.py all --seed 1

Summarise a directory of result files, or compare two of them:

    python3 connectit_bench/connectit_bench.py summary RESULTS
    python3 connectit_bench/connectit_bench.py compare RESULTS_A RESULTS_B
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BINARY = "connectit_bench"

# A run may take its measured seconds plus this much for set-up, probes
# and checks. The watchdog kills a run after twice that budget, capped so a
# killed run still reports within three minutes.
BUDGET_EXTRA_S = 30
WATCHDOG_CAP_S = 170


def die(message, code=2):
    print(f"connectit_bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH.name}: {e}")


def build_dir():
    # CARGO_TARGET_DIR names the build directory when set (relative paths
    # are taken from the repository root).
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the benchmark; exits 2 if that fails."""
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)]

    def ok(cmd):
        # Build output goes to stderr: stdout carries the result.
        try:
            return subprocess.run(cmd, stdout=sys.stderr).returncode == 0
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}")

    if not ok(configure):
        # A cache made for another source directory: configure afresh.
        (out / "CMakeCache.txt").unlink(missing_ok=True)
        if not ok(configure):
            die("cmake configure failed")
    if not ok(compile_):
        die("build failed")
    return out / BINARY


def run_binary(binary, workload, seed, seconds, trace_path):
    """Runs one workload under the watchdog; returns (result or None, why)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    timeout = min(2 * (seconds + BUDGET_EXTRA_S), WATCHDOG_CAP_S)
    # Its own session, so the watchdog can kill everything it started. The
    # working directory holds the serving workload's socket file.
    proc = subprocess.Popen(cmd, cwd=binary.parent, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"killed by the watchdog after {timeout:.0f} s"
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"no result (exit code {proc.returncode})"
    if proc.returncode not in (0, 1):
        return None, f"exit code {proc.returncode}"
    return result, ""


def select_metrics(spec, produced, trace):
    """The metrics the result line carries, checked against BENCHMARK.json.

    Returns (metrics, problems). A traced run reports every per-layer
    metric; one the workload does not exercise reads 0.
    """
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    problems = [f"metric {name} is not in {SPEC_PATH.name}"
                for name in produced if name not in declared]
    for name, m in produced.items():
        if name in declared and m["unit"] != declared[name]["unit"]:
            problems.append(f"metric {name} has unit {m['unit']}, "
                            f"not {declared[name]['unit']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    selected = {}
    for m in wanted:
        if m["name"] in produced:
            selected[m["name"]] = produced[m["name"]]
        elif trace:
            selected[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            problems.append(f"end-to-end metric {m['name']} is missing")
    return selected, problems


def run_workload(spec, binary, workload, seed, seconds, trace, results):
    """Runs one workload, writes its result file, prints it; True if ok."""
    results.mkdir(parents=True, exist_ok=True)
    trace_path = results / f"trace-{workload}.jsonl" if trace else None
    start = time.monotonic()
    result, why = run_binary(binary, workload, seed, seconds, trace_path)
    wall_s = time.monotonic() - start
    if result is None:
        # A hang or crash is recorded as a failed run, never as a stall.
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "machine": {}, "metrics": {}}
        selected, problems = {}, [why]
    else:
        selected, problems = select_metrics(spec, result["metrics"], trace)
    for problem in problems:
        print(f"connectit_bench: {workload}: {problem}", file=sys.stderr)
    correct = bool(result["correct"]) and not problems

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "wall_s": wall_s, "correct": correct,
              "attempted": result["attempted"], "failed": result["failed"],
              "machine": result["machine"], "metrics": result["metrics"]}
    path = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    machine = " ".join(f"{k}={v}" for k, v in result["machine"].items())
    print(f"{workload} seed={seed} trace={int(trace)} wall={wall_s:.1f}s "
          f"{machine}")
    for name, m in selected.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    sys.stdout.flush()
    return correct


# ---- summary and compare ----

def load_results(directory):
    """{(workload, seed): metrics} of the untraced result files."""
    runs = {}
    machines = set()
    for path in sorted(Path(directory).glob("*-seed*-trace0.json")):
        record = json.loads(path.read_text())
        if record["correct"]:
            runs[(record["workload"], record["seed"])] = record["metrics"]
        machine = {k: v for k, v in record["machine"].items()
                   if k in ("nproc", "cpu_model", "llc_bytes")}
        machines.add(json.dumps(machine, sort_keys=True))
    return runs, machines


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def values_of(runs, workload, metric):
    return {seed: m[metric]["value"] for (w, seed), m in runs.items()
            if w == workload and metric in m}


def summary(spec, directory):
    """Per (workload, end-to-end metric): median, quartiles and spread."""
    runs, machines = load_results(directory)
    for machine in machines:
        print(f"machine {machine}")
    print(f"{'workload':<14} {'metric':<36} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            values = list(values_of(runs, w, m["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            flag = ""
            if spread(values) > m["bound"] / 3:
                flag = "  spread above a third of the bound"
            print(f"{w:<14} {m['name']:<36} {len(values):>3} {median:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread(values):>8.3f} "
                  f"{m['bound']:>6}{flag}")


def compare(spec, dir_a, dir_b):
    """Per (workload, end-to-end metric): both sides' medians and quartiles,
    the share of same-seed pairs B wins, and a verdict. Returns the number of
    regressions."""
    runs_a, machines_a = load_results(dir_a)
    runs_b, machines_b = load_results(dir_b)
    for side, machines in (("A", machines_a), ("B", machines_b)):
        for machine in machines:
            print(f"machine {side} {machine}")
    print(f"{'workload':<14} {'metric':<30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'won':>7}  verdict")
    regressions = 0
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            a = values_of(runs_a, w, m["name"])
            b = values_of(runs_b, w, m["name"])
            if not a or not b:
                continue
            lower = m["better"] == "lower"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            seeds = sorted(set(a) & set(b))
            wins = sum((b[s] < a[s]) if lower else (b[s] > a[s])
                       for s in seeds)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            worse = change if lower else -change
            bound = m["bound"]
            b_all_better = (max(b.values()) < min(a.values()) if lower
                            else min(b.values()) > max(a.values()))
            if max(spread(list(a.values())),
                   spread(list(b.values()))) > bound and not b_all_better:
                verdict = "unresolved (spread above the bound)"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif (seeds and wins >= 0.9 * len(seeds)
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "gain"
            else:
                verdict = "within the bound"
            cell_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            cell_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            print(f"{w:<14} {m['name']:<30} {cell_a:>34} {cell_b:>34} "
                  f"{change:>+8.3f} {wins:>3}/{len(seeds):<3}  {verdict}")
    return regressions


def main(argv):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    default_results = ROOT / ".bench_results"
    if argv and argv[0] in ("summary", "compare"):
        parser = argparse.ArgumentParser(prog="connectit_bench.py " + argv[0])
        parser.add_argument("dirs", nargs=1 if argv[0] == "summary" else 2)
        dirs = parser.parse_args(argv[1:]).dirs
        if argv[0] == "summary":
            summary(spec, dirs[0])
            return 0
        return 1 if compare(spec, dirs[0], dirs[1]) else 0

    run_all = bool(argv) and argv[0] == "all"
    parser = argparse.ArgumentParser(prog="connectit_bench.py")
    if not run_all:
        parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=default_results,
                        help="directory for result and trace files")
    args = parser.parse_args(argv[1:] if run_all else argv)
    binary = build()
    ok = True
    for workload in names if run_all else [args.workload]:
        ok &= run_workload(spec, binary, workload, args.seed, args.seconds,
                           bool(args.trace), args.results.resolve())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
