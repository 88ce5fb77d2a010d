#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep [--seconds S]   # ppbft-wall knee
    python3 perfbench/run.py --selftest              # benchmark unit tests

Run from the repository root. The first call builds the project's
libraries and the benchmark (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build/; later calls rebuild incrementally.

Prints a table of every metric with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Exits 1 when the correctness gate fails, 2 on a usage or build
error (without printing a result).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Set-up speed differs between processes on one host (two modes ~1.5x
# apart, independent of CPU and address layout), so setup_s is the median
# over this many extra set-up-only processes plus the measured run.
SETUP_PROCESSES = 9


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("project sources (src/) not found next to perfbench/")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build failed (log: {log_path})")
    return bdir


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def run_binary(cmd, quiet=False):
    """Run the benchmark binary, stderr passed through unless `quiet`;
    returns (exit code, last stdout line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              stderr=subprocess.DEVNULL if quiet else None,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, (lines[-1] if lines else "")


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_report(rec):
    meta = rec["meta"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"trace {rec['trace']}  backend {meta['backend']}  "
          f"workers {meta['workers']}  nproc {meta['nproc']}  "
          f"sha256 {meta['sha256_kernel']}  "
          f"gf256_simd {meta['gf256_simd']}")
    reps = rec["reps"]
    print(f"repetitions: {reps['untraced']} untraced, {reps['traced']} "
          f"traced, {reps['setup_probes']} set-up probes")
    for section in ("e2e", "layers"):
        if not rec[section]:
            continue
        print("end-to-end (untraced):" if section == "e2e"
              else "per-layer (traced):")
        for name, m in rec[section].items():
            print(f"  {name:34s} {fmt(m['value']):>14s} {m['unit']}")
    print("detail:")
    for name, v in rec["detail"].items():
        print(f"  {name:34s} {fmt(v):>14s}")
    gate = rec["gate"]
    print("correctness gate:", "ok" if gate["ok"] else "FAILED")
    for why in gate["failures"]:
        print("  -", why)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="ppbft-wall offered-load sweep; prints the knee")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's unit tests")
    args = ap.parse_args()

    definition = load_definition()
    bdir = build()
    binary = os.path.join(bdir, "perfbench")

    if args.selftest:
        tests = os.path.join(bdir, "perfbench_tests")
        if not os.path.isfile(tests):
            die("perfbench_tests not built (GTest not found)")
        sys.exit(subprocess.call([tests]))
    if args.sweep:
        sys.exit(subprocess.call([binary, "--sweep", "--seconds",
                                  str(args.seconds)], timeout=900))

    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        die(f"--workload must be one of {', '.join(names)}")
    if args.seconds < 1:
        die("--seconds must be at least 1")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir,
                                        f"{args.workload}.spans.csv")]
    setups = []
    for _ in range(SETUP_PROCESSES):
        _, line = run_binary([binary, "--workload", args.workload,
                              "--setup-only"], quiet=True)
        try:
            setups.append(json.loads(line)["setup_s"])
        except (ValueError, KeyError):
            die("set-up probe process printed no result")
    code, last = run_binary(cmd)
    try:
        rec = json.loads(last)
    except ValueError:
        die(f"benchmark binary exited {code} without a result")
    setups.append(rec["e2e"]["setup_s"]["value"])
    rec["e2e"]["setup_s"]["value"] = statistics.median(setups)
    rec["detail"]["setup_processes"] = len(setups)
    print_report(rec)

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    # per_layer also lists the end-to-end metrics that exist on only one
    # workload (or read 0 on some); the traced run reports them from its
    # untraced repetitions.
    source = {**rec["e2e"], **rec["layers"]} if args.trace else rec["e2e"]
    metrics = {}
    correct = bool(rec["gate"]["ok"]) and code == 0
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            die(f"binary did not report {m['name']}")
        value = got["value"]
        if value is None:
            if not args.trace:
                # An end-to-end metric without samples fails the gate.
                correct = False
                print(f"correctness gate: {m['name']} has no value")
            # A per-layer metric of a layer the workload does not
            # exercise reads 0 (its count of work).
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct, "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}
    # The full record of the run (every metric, metadata, gate) next to
    # the spans, one file per workload and mode.
    with open(os.path.join(out_dir, f"{args.workload}.trace{args.trace}.json"),
              "w") as f:
        json.dump({"record": rec, "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
