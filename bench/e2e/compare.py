#!/usr/bin/env python3
"""Compare two result files of bench/e2e/run.py under the benchmark's bounds.

    python3 bench/e2e/compare.py BASE.json CHANGE.json

Prints one row per (workload, metric) and one digest row per workload:

* within      -- no worse and no better than the bound allows;
* worse       -- the change's median is worse than the base's by more than
                 the bound (modelled metrics and digests: any difference);
* better      -- likewise, better;
* unresolved  -- a timing whose run-to-run spread (q3 - q1 over the median,
                 on either side) is wider than its bound, unless every run
                 of the change reads better than every run of the base.

Bounds are the end_to_end bounds of BENCHMARK.json.  Metrics bench_e2e
marks exact (modelled outputs and counts) are deterministic for a seed, so
they must match exactly, whatever BENCHMARK.json allows across seeds; the
two files must come from the same seed.  Use it for parent-vs-change
comparisons and to check that two sets of runs of one commit agree (then
every row must read "within").

Exit status: 0 when no row reads worse or unresolved.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def verdict_exact(base, change, better):
    if change == base:
        return "within"
    improved = change > base if better == "higher" else change < base
    return "better" if improved else "worse"


def verdict_timed(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / base["median"]

    def spread(m):
        return (m["q3"] - m["q1"]) / m["median"]

    if max(spread(base), spread(change)) > bound:
        if better == "lower":
            separated = max(change["values"]) < min(base["values"])
        else:
            separated = min(change["values"]) > max(base["values"])
        return "better" if separated else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    if base["seed"] != change["seed"]:
        print(f"seeds differ ({base['seed']} vs {change['seed']}): modelled "
              "metrics are not comparable", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    rows = []
    for workload in base["workloads"]:
        if workload not in change["workloads"]:
            rows.append((workload, "(missing)", "", "", "", "worse"))
            continue
        a = base["workloads"][workload]
        b = change["workloads"][workload]
        rows.append((workload, "digest", ",".join(a["digests"]),
                     ",".join(b["digests"]), "",
                     "within" if a["digests"] == b["digests"] and
                     len(a["digests"]) == 1 else "worse"))
        for name, ma in a["metrics"].items():
            mb = b["metrics"].get(name)
            if mb is None:
                rows.append((workload, name, "", "(missing)", "", "worse"))
                continue
            better = directions.get(
                name, "higher" if "fidelity" in name else "lower")
            bound = "exact" if ma["exact"] else bounds.get(name)
            if ma["exact"]:
                verdict = verdict_exact(ma["median"], mb["median"], better)
            elif bound is None:
                verdict = "unresolved"  # a timing BENCHMARK.json gives no bound
            else:
                verdict = verdict_timed(ma, mb, better, bound)
            change_pct = ("" if ma["median"] == 0 else
                          f"{100.0 * (mb['median'] / ma['median'] - 1):+.2f}%")
            rows.append((workload, name, f"{ma['median']:.6g}",
                         f"{mb['median']:.6g}", change_pct,
                         f"{verdict} (bound {bound})"))

    print(f"{'workload':<15} {'metric':<22} {'base':>18} {'change':>18} "
          f"{'delta':>9}  verdict")
    counts = {}
    for workload, name, a, b, delta, verdict in rows:
        print(f"{workload:<15} {name:<22} {a:>18} {b:>18} {delta:>9}  "
              f"{verdict}")
        key = verdict.split()[0]
        counts[key] = counts.get(key, 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0


if __name__ == "__main__":
    sys.exit(main())
