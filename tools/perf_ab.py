#!/usr/bin/env python3
"""Same-runner A/B perf gate over perfbench.

    python3 tools/perf_ab.py BASE_REF CHANGE_REF

Checks both refs out as git worktrees in a temporary directory, then
runs each side's own `perfbench/run.py --workload W --trace 0` for every
workload named in the base side's BENCHMARK.json, PAIRS pairs per
workload, alternating which side runs first. Each side builds under its
own CARGO_TARGET_DIR. Prints, per workload and end-to-end metric, both
medians, the change/base ratio and each side's quartile spread, and
exits 1 if any run failed or was incorrect, the change fails a larger
share of its keys, a metric is missing, or a metric's change median is
worse than the base median by more than that metric's `bound`.

Both worktrees and the temporary directory are removed on every exit.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A/A evidence (one commit on both sides; 4-vCPU Xeon VM shared with
# other load; Release, g++ 12.2). At 5 pairs of 4 s, one of three A/A
# runs failed on sweep-tiny-fleet key_tail_ms (+39 %); at 10 pairs of
# 4 s, one of two failed on sweep-large key_tail_ms (+33 %) while the
# host ran 40 % slow. A 4 s run holds one or two 200-key sweep-large
# batches, so perfbench's best-batch fold has little to choose from;
# 8 s runs hold two to four. At 10 pairs of 8 s, three of three A/A
# runs passed. Raise PAIRS if A/A runs start failing; the bounds belong
# to BENCHMARK.json, not to this driver.
PAIRS = 10
SECONDS = 8.0


def median_and_spread(values):
    """The median and the quartile distance as a fraction of it."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, (q3 - q1) / abs(median)


def worse_by(better, base, change):
    """How much worse `change` is than `base`, as a fraction of `base`."""
    if base == 0:
        return 0.0 if change == 0 else float("inf")
    ratio = change / base
    return 1.0 - ratio if better == "higher" else ratio - 1.0


def verdict(end_to_end, runs):
    """Judges one A/B run.

    `end_to_end` is BENCHMARK.json's list of {name, unit, better, bound}.
    `runs` maps a workload to {"base": [...], "change": [...]}, each a
    list of (exit status, report) with the report being run.py's last
    stdout line parsed, or None when it did not parse. Returns (table
    lines, failure lines); the gate passes when there are no failures.
    """
    lines = []
    failures = []
    for workload, sides in runs.items():
        shares = {}
        for side in ("base", "change"):
            attempted = failed = 0
            for i, (status, report) in enumerate(sides[side], 1):
                if status != 0 or report is None:
                    failures.append("%s: %s run %d exited %d%s" % (
                        workload, side, i, status,
                        "" if report else " without a report"))
                if report is not None and not report.get("correct"):
                    failures.append("%s: %s run %d reported correct: false"
                                    % (workload, side, i))
                if report is not None:
                    attempted += int(report.get("attempted", 0))
                    failed += int(report.get("failed", 0))
            shares[side] = failed / attempted if attempted else 0.0
        if shares["change"] > shares["base"]:
            failures.append("%s: failed share %.4f > base %.4f"
                            % (workload, shares["change"], shares["base"]))
        for metric in end_to_end:
            name = metric["name"]
            values = {}
            for side in ("base", "change"):
                reports = [r for _, r in sides[side] if r is not None]
                values[side] = [r["metrics"][name]["value"] for r in reports
                                if name in r.get("metrics", {})]
                if not reports or len(values[side]) != len(reports):
                    failures.append("%s: %s is missing from the %s side"
                                    % (workload, name, side))
            if not values["base"] or not values["change"]:
                continue
            base, base_spread = median_and_spread(values["base"])
            change, change_spread = median_and_spread(values["change"])
            worse = worse_by(metric["better"], base, change)
            ratio = change / base if base else float("inf")
            bad = worse > metric["bound"] + 1e-12
            lines.append("%-17s %-15s %12.6g %12.6g %7.3f %6.3f %6.3f  %s" % (
                workload, name, base, change, ratio, base_spread,
                change_spread, "FAIL" if bad else "ok"))
            if bad:
                failures.append(
                    "%s: %s %s median %.6g -> %.6g %s is %.1f %% worse "
                    "(bound %.0f %%)" % (
                        workload, name, metric["better"] + "-is-better",
                        base, change, metric["unit"], 100 * worse,
                        100 * metric["bound"]))
    return lines, failures


def git(*args):
    return subprocess.check_output(["git"] + list(args), cwd=ROOT,
                                   stderr=subprocess.PIPE).decode().strip()


def run_side(tree, target_dir, workload):
    """One run of a side's own run.py; returns (exit status, report)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seconds", repr(SECONDS),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE)
    out = proc.stdout.decode().strip().splitlines()
    for line in out:
        if line.startswith("error "):
            print("perf_ab: %s: %s" % (workload, line), file=sys.stderr)
    try:
        report = json.loads(out[-1]) if out else None
    except ValueError:
        report = None
    return proc.returncode, report


def compare(trees, targets):
    with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs[workload] = {"base": [], "change": []}
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                status, report = run_side(trees[side], targets[side], workload)
                runs[workload][side].append((status, report))
                metrics = (report or {}).get("metrics", {})
                keys = metrics.get("keys_per_s", {}).get("value", float("nan"))
                print("perf_ab: %s pair %d/%d %-6s exit %d keys_per_s %.6g"
                      % (workload, pair + 1, PAIRS, side, status, keys),
                      file=sys.stderr, flush=True)
    lines, failures = verdict(spec["end_to_end"], runs)
    print("%-17s %-15s %12s %12s %7s %6s %6s" % (
        "workload", "metric", "base", "change", "ratio", "b.iqr", "c.iqr"))
    for line in lines:
        print(line)
    for failure in failures:
        print("FAIL " + failure)
    print("perf_ab: %s (%d pairs of %g s per workload)" % (
        "FAIL" if failures else "ok", PAIRS, SECONDS))
    return 1 if failures else 0


def main():
    if len(sys.argv) != 3 or sys.argv[1].startswith("-"):
        print("usage: python3 tools/perf_ab.py BASE_REF CHANGE_REF",
              file=sys.stderr)
        return 2
    try:
        shas = {side: git("rev-parse", "--verify", ref + "^{commit}")
                for side, ref in zip(("base", "change"), sys.argv[1:])}
    except subprocess.CalledProcessError as e:
        print("perf_ab: " + e.stderr.decode().strip(), file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the cleanup below always runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="perf_ab.")
    trees = {}
    try:
        for side, sha in shas.items():
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], sha)
        print("perf_ab: base %s, change %s" % (shas["base"], shas["change"]),
              file=sys.stderr, flush=True)
        return compare(trees, {side: os.path.join(tmp, "target-" + side)
                               for side in trees})
    finally:
        for tree in trees.values():
            subprocess.call(["git", "worktree", "remove", "--force", tree],
                            cwd=ROOT, stderr=subprocess.DEVNULL)
        subprocess.call(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
