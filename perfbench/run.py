#!/usr/bin/env python3
"""The repository benchmark: build the runner from source, run workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the cmswitch library from src/) into
$CARGO_TARGET_DIR, default .bench_build/; later calls rebuild only what
changed. Each workload runs in its own runner process, so its peak RSS
is its own. Human-readable metric lines go to stderr; the last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A traced run also leaves .bench_out/<workload>.trace.json
(Chrome trace) and .bench_out/<workload>.layers.json. The exit status
is 0 only when every output check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["compile_cold", "serve_hot", "serve_kv_sweep", "sim_fleet"]
RUN_TIMEOUT_S = 170  # one workload, set-up included
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def child_env():
    """The environment of every child: temporary files (the compiler's
    included) stay inside the checkout."""
    tmp = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure (once) and build the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cmswitch sources under src/: run from a repository checkout")
    build_dir = os.path.join(target_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_runner", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_runner")


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(runner, workload, seed, seconds, trace):
    """Run one workload in its own process; returns (ok, result)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    command = [runner, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--out-dir", out_dir,
               "--work-dir", os.path.join(out_dir, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=child_env(),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed an unparseable result: %r" % (workload, lines[-1]))
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s result has keys %s" % (workload, sorted(result)))
    declared = declared_metrics(trace)
    if declared is not None and sorted(result["metrics"]) != sorted(declared):
        fail("%s metrics %s differ from BENCHMARK.json's %s"
             % (workload, sorted(result["metrics"]), sorted(declared)))
    ok = done.returncode == 0 and result["correct"] and result["failed"] == 0
    return ok, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    runner = build()
    print("perfbench: seed %d, %g s per workload" % (args.seed, args.seconds),
          file=sys.stderr)
    if args.workload != "all":
        ok, result = run_workload(runner, args.workload, args.seed,
                                  args.seconds, args.trace == 1)
        print(json.dumps(result), flush=True)
        return 0 if ok else 1

    # Every workload, one process each; the combined line prefixes each
    # metric with its workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    all_ok = True
    for workload in WORKLOADS:
        ok, result = run_workload(runner, workload, args.seed, args.seconds,
                                  args.trace == 1)
        all_ok = all_ok and ok
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
