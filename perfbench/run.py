#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --update-digests
    python3 perfbench/run.py --self-test

Run it from the repository root. It configures and builds perfbench/
as its own CMake project in Release mode (NDEBUG, so MPCP_DCHECK is
compiled out) under $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the `perfbench` binary for one workload in a fresh
process. Journals, shard directories and span files go to
.bench_run/<workload>/.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

At the default seed the first batch's output digest must equal the one
pinned in digests.json; at every seed the binary also recomputes a
sample of keys in-thread and compares bytes. Exit status 0 means the
run was correct; anything else means it was not, or could not run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ["sweep-large", "analyze-wide", "sweep-tiny-fleet", "simulate-traced"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.call(cmd, stdout=log, stderr=log,
                               timeout=BUILD_TIMEOUT_S) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
        if subprocess.call(cmd, stdout=log, stderr=log,
                           timeout=BUILD_TIMEOUT_S) != 0:
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
            fail("build failed")
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, timeout=10).decode().strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(out, workload, seed, seconds, trace):
    work_dir = os.path.join(ROOT, ".bench_run", workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--work-dir", work_dir]
    # Its own process group, so a hung run takes its fleet workers with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("perfbench exited %d without a report" % proc.returncode, 1)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("unparseable report: " + lines[-1][:200], 1)


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def update_digests():
    out = build(["perfbench"])
    pinned = load_digests()
    for workload in WORKLOADS:
        report = run_binary(out, workload, pinned["default_seed"], 0.001, 0)
        if not report["correct"]:
            fail("%s is not correct: %s" % (workload, report["errors"]), 1)
        pinned["digests"][workload] = report["digest"]
        print("%-18s %s" % (workload, report["digest"]))
    with open(DIGESTS, "w") as f:
        json.dump(pinned, f, indent=2, sort_keys=True)
        f.write("\n")


def self_test():
    out = build(["perfbench_test"])
    sys.exit(subprocess.call([os.path.join(out, "perfbench_test")], cwd=out))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.update_digests:
        return update_digests()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pinned = load_digests()
    seed = pinned["default_seed"] if args.seed is None else args.seed
    out = build(["perfbench"])
    report = run_binary(out, args.workload, seed, args.seconds, args.trace)

    errors = list(report.get("errors", []))
    provenance = dict(report.get("provenance", {}))
    provenance["git_sha"] = git_sha()
    if provenance.get("build_type") != "Release" or not provenance.get("ndebug"):
        errors.append("not an NDEBUG Release build: refusing to report")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {n: m["unit"] for n, m in report["metrics"].items()} != declared:
        errors.append("reported metrics and units differ from BENCHMARK.json")
    expected = pinned["digests"].get(args.workload)
    if seed == pinned["default_seed"] and report.get("digest") != expected:
        errors.append("output digest %s != pinned %s for seed %d"
                      % (report.get("digest"), expected, seed))
    correct = bool(report.get("correct")) and not errors

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("info " + json.dumps(report.get("info", {}), sort_keys=True))
    for error in errors:
        print("error " + error)
    for name, metric in sorted(report["metrics"].items()):
        print("%-32s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": report["metrics"],
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
