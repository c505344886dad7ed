#!/usr/bin/env python3
"""Alternating parent-vs-change A/B runs of the end-to-end benchmark.

Usage:
    tools/ab_e2e.py (--parent REV | --parent-tree DIR) --workload W
        [--seed N] [--pairs K] [--seconds S] [--scratch DIR] [--keep]

Runs one workload of ``bench/e2e`` on a parent tree and on this
repository's working tree (the change side, uncommitted edits included),
each through its own ``bench/e2e/run.py --build DIR`` (each tree builds and
runs its own benchmark code; both builds go under the scratch directory).
The parent tree is either

    --parent REV       REV checked out in a detached ``git worktree`` under
                       the scratch directory (removed afterwards unless
                       --keep), or
    --parent-tree DIR  an existing checkout of the parent, used as it is
                       and never modified or removed; for example
                       ``git archive REV | tar -x -C DIR``.

Each of the K pairs runs the parent and the change once, alternating which
side goes first.  For every end-to-end metric of BENCHMARK.json the report
gives each side's median and quartiles, the change/parent median ratio,
how many pairs the change won (ties count for neither side), and a
verdict:

    gain     the change won at least 9/10 of the pairs and the medians
             differ, in the better direction, by more than the parent's
             interquartile range;
    worse    the change's median is worse than the parent's by more than
             the metric's BENCHMARK.json bound;
    -        neither.

Exit status: 0 when every run finished and passed its checks, 1 otherwise.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_side(tree, build, workload, seed, seconds):
    """One run of run.py in `tree`; returns its JSON result."""
    command = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--build", str(build)]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-2000:])
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(metrics, parent_runs, change_runs):
    print(f"{'metric':<12} {'side':<7} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'ratio':>7} {'wins':>6}  verdict")
    pairs = len(parent_runs)
    for metric in metrics:
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        gain = c_med - p_med if not lower else p_med - c_med
        verdict = "-"
        if wins >= 0.9 * pairs and gain > p_q3 - p_q1:
            verdict = "gain"
        elif p_med != 0 and -gain > metric["bound"] * abs(p_med):
            verdict = "worse"
        ratio = f"{c_med / p_med:7.3f}" if p_med != 0 else f"{'-':>7}"
        print(f"{name:<12} {'parent':<7} {p_med:>12.6g} {p_q1:>12.6g} "
              f"{p_q3:>12.6g}")
        print(f"{'':<12} {'change':<7} {c_med:>12.6g} {c_q1:>12.6g} "
              f"{c_q3:>12.6g} {ratio} {wins:>3}/{pairs:<2}  {verdict}")


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parent = parser.add_mutually_exclusive_group(required=True)
    parent.add_argument("--parent",
                        help="git revision to compare against, checked out "
                             "in a git worktree")
    parent.add_argument("--parent-tree", type=pathlib.Path,
                        help="existing checkout of the parent to compare "
                             "against (no worktree is made)")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="run.py --seconds for every run")
    parser.add_argument("--scratch",
                        help="directory for the builds (and the worktree) "
                             "(default: a fresh temporary directory)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the worktree and builds afterwards")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.parent_tree is not None:
        args.parent_tree = args.parent_tree.resolve()
        if not (args.parent_tree / "bench" / "e2e" / "run.py").is_file():
            parser.error(f"--parent-tree {args.parent_tree}: "
                         "no bench/e2e/run.py")

    scratch = pathlib.Path(args.scratch or tempfile.mkdtemp(prefix="ab_e2e_"))
    scratch.mkdir(parents=True, exist_ok=True)
    if args.parent_tree is not None:
        parent_tree = args.parent_tree
        parent_label = str(parent_tree)
    else:
        parent_tree = scratch / "parent"
        subprocess.run(["git", "worktree", "add", "--detach",
                        str(parent_tree), args.parent], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        parent_label = args.parent
    sides = {"parent": (parent_tree, scratch / "build-parent"),
             "change": (ROOT, scratch / "build-change")}
    runs = {"parent": [], "change": []}
    ok = True
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                              "parent")
            for side in order:
                tree, build = sides[side]
                result = run_side(tree, build, args.workload, args.seed,
                                  args.seconds)
                ok = ok and result.get("correct", False) and \
                    result.get("failed", 1) == 0
                runs[side].append(result)
            log(f"pair {i + 1}/{args.pairs} done ({order[0]} first)")
    finally:
        if not args.keep:
            if args.parent_tree is None:
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(parent_tree)], cwd=ROOT, check=False)
            for _, build in sides.values():
                shutil.rmtree(build, ignore_errors=True)
            if args.scratch is None:
                shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}  "
          f"parent {parent_label}  seconds {args.seconds:g}")
    report(spec["end_to_end"], runs["parent"], runs["change"])
    if not ok:
        log("some run failed its checks")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
