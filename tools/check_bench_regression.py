#!/usr/bin/env python3
"""Gate the engine-sweep benchmarks against a committed baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--threshold 0.25]
        [--update-baseline] [--allow-missing-baseline]

Both files are google-benchmark ``--benchmark_format=json`` output (the
canonical BENCH_results.json).  Raw nanoseconds are not comparable across
machines, so each gated benchmark is first *normalised* by a calibration
benchmark from the same run (the simulator event-queue bench): the gate
compares

    ratio = time(gated bench) / time(calibration bench)

between the two files and fails when any gated ratio worsened by more than
``--threshold`` (default 25%).  That catches "the poll pipeline got slower
relative to the machine" without false-failing on a slower CI runner.

Runs with ``--benchmark_repetitions=N`` list each benchmark N times; every
time here is the median of a benchmark's non-aggregate samples (the
calibration bench's included), so one slow pass cannot fail the gate on
its own.  A single-run file is the N = 1 case.  Samples are grouped by
name wherever they sit in the file, so a run with
``--benchmark_enable_random_interleaving=true`` (repetitions shuffled
across the suite) reads the same way; its ratios are not comparable
with a baseline recorded without it, though (see ROADMAP item 6).

The gate additionally fails when any ``BM_*`` benchmark in the current
results has no baseline entry at all: a perf PR that adds benches must add
calibration-coherent baseline entries with them, or the new benches would
never be gated (``--allow-missing-baseline`` disables the coverage check
for local experiments).
"""

import argparse
import json
import statistics
import sys

# A bulk schedule-then-drain of the simulator alone (bench_micro).
CALIBRATION = "BM_SimulatorScheduleRun/10000"
GATED = [
    "BM_EngineTemporalSweep/64",
    "BM_EngineTemporalSweep/256",
    "BM_FleetRelayStorm/4",
    # The storm with a relay latency (8 proxies, 5 s): the delayed fan-out
    # path, one shared message and one delivery event per relayable poll.
    "BM_FleetDelayedRelayStorm/proxies:8",
    # The same topology with the fault layer on (loss + jitter + retries +
    # crash windows): the delta against BM_FleetRelayStorm is the price of
    # the counter-keyed draws and the per-attempt ledger.
    "BM_FleetFaultSweep/proxies:4",
    # Raw scheduler sweep: self-rescheduling timers on the event queue.
    "BM_SchedulerSweep/4096",
    # Timers pulled forward between firings (paper_mutual's triggered
    # polls): re-keys of pending heap entries.
    "BM_TimerPullForwardStorm",
    # Coordinator dispatch: fan-out isolation at 8 and 64 groups plus the
    # end-to-end grouped sweep.  Baselines were measured on the legacy
    # string-keyed broadcast path, so these also record the routing win.
    "BM_CoordinatorFanout/8",
    "BM_CoordinatorFanout/64",
    "BM_GroupedTemporalSweep",
    # Sharded fleet sweep (8 proxies x 1024 objects) across the worker
    # pool.  These measure wall-clock (UseRealTime — the calling thread
    # simulates only its share of each window), hence the /real_time
    # suffix.  The threads:1 entry guards the sharded machinery's
    # single-thread overhead; higher counts guard the parallel path.
    "BM_ShardedFleetSweep/threads:1/real_time",
    "BM_ShardedFleetSweep/threads:2/real_time",
    "BM_ShardedFleetSweep/threads:4/real_time",
    "BM_ShardedFleetSweep/threads:8/real_time",
    # Window machinery in isolation (zero-relay topology): the window
    # edge collapses the run to one window.  Gating it keeps the edge
    # from quietly losing its jump.
    "BM_ShardedWindowOverhead/real_time",
    # Sparse-relay sweep under object partitioning, where cross-shard
    # traffic is rare, at inline (threads:1) and pooled (threads:4)
    # widths.
    "BM_ShardedSparseRelaySweep/threads:1/real_time",
    "BM_ShardedSparseRelaySweep/threads:4/real_time",
    # Client traffic over a cooperative fleet: per-request cost of the
    # thinning + Zipf sampling + cache-read + classification pipeline.
    "BM_ClientFleetSweep/proxies:2",
    "BM_ClientFleetSweep/proxies:8",
    # Same pipeline with demand fills on under loss: the delta against
    # BM_ClientFleetSweep is the price of the kClientMiss fill path
    # (unconditional fetch + relay fan-out) plus session-locality
    # sampling.
    "BM_ClientDemandFillSweep/proxies:2",
    "BM_ClientDemandFillSweep/proxies:8",
    # The paper workload's two trace walks: the Mt evaluation of one
    # 12 h δ-group pair (merge cursors over both schedules), and origin
    # conditional GETs that mostly find nothing due (the reader's hint).
    "BM_MutualTemporalEvaluation",
    "BM_OriginConditionalGet",
]

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def samples(data):
    """name -> the benchmark's non-aggregate entries, in file order."""
    runs = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        runs.setdefault(bench["name"], []).append(bench)
    return runs


def load_times(path):
    """name -> median real time in ns over the benchmark's samples."""
    with open(path) as f:
        data = json.load(f)
    return {
        name: statistics.median(
            float(b["real_time"]) * UNIT_NS[b.get("time_unit", "ns")]
            for b in runs
        )
        for name, runs in samples(data).items()
    }


def update_baseline(args, current, baseline):
    """Append calibration-coherent entries for benches the baseline lacks.

    Raw times from this machine are not comparable with the baseline's
    (different host, build, load), but calibration-normalised *ratios*
    are — that is the whole premise of the gate.  So each new entry is
    the current measurement rescaled by baseline_cal / current_cal:
    the entry a same-speed run on the baseline machine would have
    produced.  With repetitions, the entry carries the median of the
    benchmark's samples.  Existing entries are left untouched; the
    committed history stays a trajectory, not a moving target.
    """
    scale = baseline[CALIBRATION] / current[CALIBRATION]
    with open(args.current) as f:
        current_data = json.load(f)
    with open(args.baseline) as f:
        baseline_data = json.load(f)
    added = []
    for name, runs in samples(current_data).items():
        if not name.startswith("BM_") or name in baseline:
            continue
        entry = dict(runs[0])
        for key in ("repetitions", "repetition_index"):
            entry.pop(key, None)
        for field in ("real_time", "cpu_time"):
            if field in entry:
                entry[field] = (
                    statistics.median(float(run[field]) for run in runs)
                    * scale
                )
        baseline_data["benchmarks"].append(entry)
        added.append(name)
    if not added:
        print("update-baseline: nothing to add (full coverage)")
        return
    with open(args.baseline, "w") as f:
        json.dump(baseline_data, f, indent=2)
        f.write("\n")
    print(f"update-baseline: added {len(added)} entries to {args.baseline}")
    for name in added:
        print(f"  {name}  (x{scale:.3f} calibration rescale)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="skip the baseline-coverage check for newly added benches",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="append calibration-coherent baseline entries for benchmarks "
        "present in CURRENT but absent from BASELINE (existing entries are "
        "never rewritten)",
    )
    args = parser.parse_args()

    current = load_times(args.current)
    baseline = load_times(args.baseline)

    if args.update_baseline:
        if CALIBRATION not in current or CALIBRATION not in baseline:
            print(f"FAIL: {CALIBRATION} required in both files to rescale")
            return 1
        update_baseline(args, current, baseline)
        baseline = load_times(args.baseline)

    for name in [CALIBRATION] + GATED:
        for label, times in (("current", current), ("baseline", baseline)):
            if name not in times:
                print(f"FAIL: {name} missing from {label} results")
                return 1

    # Every benchmark in the current run must have a baseline entry, or a
    # newly added bench would silently escape the gate forever.
    if not args.allow_missing_baseline:
        uncovered = sorted(
            name
            for name in current
            if name.startswith("BM_") and name not in baseline
        )
        if uncovered:
            print(
                "FAIL: benchmarks missing a bench/BENCH_baseline.json "
                "entry (add calibration-coherent entries for them):"
            )
            for name in uncovered:
                print(f"  {name}")
            return 1

    failed = False
    improvements = 0
    print(f"calibration: {CALIBRATION}")
    width = max(len("benchmark"), max(len(name) for name in GATED))
    print(
        f"{'benchmark':<{width}} {'baseline':>10} {'current':>10} {'change':>8}"
    )
    for name in GATED:
        base_ratio = baseline[name] / baseline[CALIBRATION]
        cur_ratio = current[name] / current[CALIBRATION]
        change = cur_ratio / base_ratio - 1.0
        verdict = ""
        if change > args.threshold:
            verdict = "  <-- REGRESSION"
            failed = True
        elif change < -args.threshold:
            # Improvements are reported symmetrically: a big delta in
            # either direction is a perf event worth a second look (and a
            # baseline refresh, so the gain becomes the new floor).
            verdict = f"  <-- improvement ({1.0 / (1.0 + change):.2f}x)"
            improvements += 1
        print(
            f"{name:<{width}} {base_ratio:>10.3f} {cur_ratio:>10.3f} "
            f"{change:>+7.1%}{verdict}"
        )
    if improvements:
        print(
            f"\n{improvements} bench(es) improved >{args.threshold:.0%}; "
            "consider refreshing bench/BENCH_baseline.json to lock in the "
            "gain."
        )

    if failed:
        print(
            f"\nFAIL: engine benches regressed >{args.threshold:.0%} vs "
            f"{args.baseline}.\nIf the slowdown is intended, regenerate the "
            "baseline: ./build/bench_micro --benchmark_format=json "
            "--benchmark_min_time=1 --benchmark_repetitions=3 "
            "> bench/BENCH_baseline.json"
        )
        return 1
    print("\nOK: engine benches within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
