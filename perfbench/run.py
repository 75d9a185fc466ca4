#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload analytic|lookup|live --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout of the repository. The engine and
the runner are built from source into .bench_build/ at the checkout root
(the first run builds; later runs reuse the build). Each workload runs in
its own runner process, which prints a descriptive report line (seed,
scale, operations, sample counts, host) and a line with every metric it
measured. The last line of standard output is the result object: the
metrics BENCHMARK.json declares for the mode (end-to-end for --trace 0,
per-layer for --trace 1), in its order and units. Spans of a traced run
are written to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# The repository's default build type; the runner reports the type it
# was compiled with.
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; the runner is stopped after this long.
RUN_TIMEOUT_S = 170
# Every operator runs serially. At any degree of parallelism above 1,
# ParallelRun (src/exec/parallel.cc) can notify a condition variable on
# a stack frame that has already returned, which now and then kills the
# process; see "Serial execution" in README.md. Drop this once that is
# fixed, so the shipped degree of parallelism is measured again.
ENGINE_ENV = {"RFID_MAX_DOP": "1"}


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the engine sources are missing: run.py must sit in perfbench/ "
            "of a repository checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; git is not
    # asked to search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(args):
    if not build("perfbench_runner"):
        return 1
    work_dir = os.path.join(ROOT, ".bench_build", "run",
                            "%s-%d" % (args.workload, os.getpid()))
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(BUILD_DIR, "perfbench_runner"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
        "--git-sha", git_sha(),
    ]
    try:
        # subprocess.run kills the runner on timeout and waits for it.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **ENGINE_ENV),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("the runner did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode < 0:
        log("the runner was killed by signal %d" % -done.returncode)
        return 1
    if done.returncode != 0:
        log("the runner failed with exit code %d" % done.returncode)
        return 1
    result, problem = declared_result(done.stdout, args.trace)
    if problem:
        log(problem)
        return 1
    sys.stdout.write(done.stdout)
    print(json.dumps(result))
    return 0


def declared_result(stdout, trace):
    """Builds the result object from the runner's last line: the metrics
    BENCHMARK.json declares for this mode, in its order. A per-layer
    metric the workload does not touch reads 0; a missing end-to-end
    metric or a unit that differs from the declared one is an error.
    Returns (result, "") or (None, why)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        measured = json.loads(stdout.strip().splitlines()[-1])
        metrics = measured["metrics"]
        result = {k: measured[k] for k in ("correct", "attempted", "failed")}
    except (IndexError, KeyError, TypeError, ValueError) as e:
        return None, "unreadable runner output: %s" % e
    result["metrics"] = chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                return None, "the workload did not measure %s" % m["name"]
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return None, "%s is in %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"])
        chosen[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return result, ""


def self_test():
    if not build("perfbench_test"):
        return 1
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["analytic", "lookup", "live"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
