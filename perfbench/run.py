#!/usr/bin/env python3
"""INDaaS benchmark: builds the benchmark binary from source, runs it, checks its output.

One run (the form the benchmark definition in BENCHMARK.json uses):

    python3 perfbench/run.py --workload svc_mixed --seed 7 --seconds 20 --trace 0

prints a stamp line (seed, nproc, compiler, build type, git sha), a detail
line, and as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a separate traced run.

Every workload, every metric by name with its unit (one run each, untraced
and traced):

    python3 perfbench/run.py --all [--seconds 20] [--seed 1]

Repeat mode, the evidence the bounds in BENCHMARK.json are set from: runs
the workloads alternately, each round with a new seed, and prints each
end-to-end metric's median, IQR, min and relative spread (IQR / median):

    python3 perfbench/run.py --repeat 10 [--seed 101]

Scaling self-test (work grows with each size parameter and repeats exactly
at a fixed seed):

    python3 perfbench/run.py --selftest

The binary is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) in the repository root. The benchmark refuses to run with
INDAAS_CHAOS set: injected faults would make failures the subject.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    binary = os.path.join(out, "indaas_perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry the configure next time
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = subprocess.run(["cmake", "--build", out, "--target", "indaas_perfbench", "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return binary if step.returncode == 0 and os.path.exists(binary) else None


def git_sha():
    """HEAD of this checkout, or 'unknown' when it is not a git checkout.

    Only asks git when ROOT itself holds .git, so git never searches the
    directories above the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def complete_metrics(result, definition, trace):
    """Checks the printed metrics against BENCHMARK.json and puts them in its order.

    --trace 0 must print every end-to-end metric. --trace 1 prints the
    per-layer metrics of the layers the workload enters; every other
    per-layer metric reads 0. A name or unit BENCHMARK.json does not define
    is an error."""
    specs = definition["end_to_end" if trace == 0 else "per_layer"]
    expected = {m["name"]: m["unit"] for m in specs}
    metrics = result["metrics"]
    unknown = sorted(n for n, m in metrics.items() if expected.get(n) != m["unit"])
    missing = sorted(set(expected) - set(metrics)) if trace == 0 else []
    if unknown or missing:
        print(f"perfbench: --trace {trace} metrics differ from BENCHMARK.json: "
              f"missing {missing}, unknown name or unit {unknown}", file=sys.stderr)
        return False
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": unit})
                         for name, unit in expected.items()}
    return True


def run_once(binary, definition, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns the parsed, completed result object or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"perfbench: {workload} printed no result line", file=sys.stderr)
        return None
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        print(f"perfbench: malformed result line: {lines[-1]}", file=sys.stderr)
        return None
    if not complete_metrics(result, definition, trace):
        return None
    if echo:
        for line in lines[:-1]:
            record = json.loads(line)
            if "stamp" in record:
                record["stamp"]["git_sha"] = git_sha()
            print(json.dumps(record))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0, q3 - q1


def cmd_run(binary, args, definition):
    result = run_once(binary, definition, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    # If some op failed, correct is already false; the result still stands.
    print(json.dumps(result))
    return 0


def cmd_all(binary, args, definition):
    status = 0
    for workload in args.workloads:
        for trace in (0, 1):
            result = run_once(binary, definition, workload, args.seed, args.seconds, trace,
                              echo=False)
            if result is None:
                status = 1
                continue
            print(f"== {workload} --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def cmd_repeat(binary, args, definition):
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    samples = {w: {} for w in args.workloads}
    units = {}
    failed = 0
    for r in range(args.repeat):
        for workload in args.workloads:
            seed = args.seed + r
            result = run_once(binary, definition, workload, seed, args.seconds, args.trace,
                              echo=False)
            if result is None or not result["correct"]:
                failed += 1
                continue
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"round {r + 1}/{args.repeat} {workload} seed={seed}: " +
                  " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    report = {}
    print(f"{'workload':16s} {'metric':28s} {'median':>14s} {'IQR':>12s} {'min':>14s} "
          f"{'spread':>8s} {'bound/3':>8s} unit")
    for workload, metrics in samples.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            rel, iqr = spread(values)
            bound = bounds.get(name)
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            flag = "" if bound is None or name == "setup_s" or rel < bound / 3 else "  WIDE"
            print(f"{workload:16s} {name:28s} {statistics.median(values):14.6g} {iqr:12.4g} "
                  f"{min(values):14.6g} {rel:8.4f} {limit:>8s} {units[name]}{flag}")
            report.setdefault(workload, {})[name] = {
                "median": statistics.median(values), "iqr": iqr, "min": min(values),
                "spread": rel, "n": len(values), "unit": units[name]}
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"seconds": args.seconds, "trace": args.trace, "repeat": args.repeat,
                       "first_seed": args.seed, "git_sha": git_sha(), "failed_runs": failed,
                       "workloads": report}, f, indent=2, sort_keys=True)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--json-out", help="--repeat: also write the statistics here")
    args = parser.parse_args()

    if "INDAAS_CHAOS" in os.environ:
        print("perfbench: refusing to run with INDAAS_CHAOS set", file=sys.stderr)
        return 2
    try:
        definition = load_definition()
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 1
    if args.seconds is None:
        args.seconds = definition["run_seconds"]
    args.workloads = [w["name"] for w in definition["workloads"]]
    if not (args.workload or args.all or args.repeat or args.selftest):
        parser.error("one of --workload, --all, --repeat or --selftest is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest", "--seed", str(args.seed)],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.all:
        return cmd_all(binary, args, definition)
    if args.repeat:
        return cmd_repeat(binary, args, definition)
    return cmd_run(binary, args, definition)


if __name__ == "__main__":
    sys.exit(main())
