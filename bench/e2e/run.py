#!/usr/bin/env python3
"""Runner of the end-to-end benchmark (see README.md in this directory).

Builds bench_e2e from source (CMake, into --build, default .bench_build),
then either

* runs one workload once -- the form BENCHMARK.json names:
    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  and prints, as the last line of stdout, one JSON object with the keys
  correct, attempted, failed and metrics (the end_to_end metrics of
  BENCHMARK.json, or its per_layer metrics with --trace 1); or

* sweeps every workload (no --workload):
    python3 bench/e2e/run.py [--reps 5] [--seed N] [--out BENCH_e2e.json]
  runs each workload --reps times, each run in a fresh process, in
  round-robin order across workloads; prints every end-to-end metric with
  its unit, median, q1/q3 and n, and writes the result file that
  compare.py reads.  With --trace it makes one traced run per workload
  instead, prints every per-layer metric and writes bench_e2e_trace.json
  (Chrome trace-event format).  With --smoke every horizon shrinks and
  each workload runs once: a quick check that everything still builds,
  runs and passes its output checks.

Exit status: 0 when every run built, finished and passed its checks.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["paper_mutual", "fleet_relay", "sharded_faults", "client_reads"]
RUN_TIMEOUT_S = 170
TRACE_JSON = "bench_e2e_trace.json"  # sweep --trace: Chrome trace events


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_root):
    """Configure and build bench_e2e; returns the binary's path."""
    build_dir = (ROOT / build_root / "e2e").resolve()
    for command in (
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4", "--target",
         "bench_e2e"],
    ):
        subprocess.run(command, check=True, stdout=sys.stderr, cwd=ROOT)
    return build_dir / "bench_e2e"


def run_once(binary, workload, seed, seconds, trace=False, smoke=False,
             trace_out=None):
    """One fresh process of bench_e2e; returns its JSON result."""
    command = [str(binary), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}"]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command.append(f"--trace-out={trace_out}")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: bench_e2e exited {proc.returncode} "
                           "without a result")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"{workload}: bench_e2e exited {proc.returncode}")
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values, unit, exact):
    q1, q3 = quartiles(values)
    return {"unit": unit, "exact": exact, "values": values,
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def contract_run(args, binary):
    spec = load_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                      "end_to_end"]]
    trace_out = None
    if args.trace:
        trace_out = binary.parent / f"bench_e2e_trace_{args.workload}.json"
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      trace=bool(args.trace), trace_out=trace_out)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"bench_e2e did not report {missing}")
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]} for n in names}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def sweep(args, binary):
    traced = bool(args.trace)
    reps = 1 if (traced or args.smoke) else args.reps
    seconds = 1 if args.smoke else args.seconds
    per_workload = {w: [] for w in WORKLOADS}
    trace_files = {}
    # Round-robin: drifting background load hits every workload alike.
    for rep in range(reps):
        for workload in WORKLOADS:
            trace_out = None
            if traced:
                trace_out = binary.parent / f"bench_e2e_trace_{workload}.json"
                trace_files[workload] = trace_out
            log(f"[{rep + 1}/{reps}] {workload}")
            per_workload[workload].append(run_once(
                binary, workload, args.seed, seconds, trace=traced,
                smoke=args.smoke, trace_out=trace_out))

    ok = True
    report = {"seed": args.seed, "reps": reps, "seconds": seconds,
              "trace": traced, "smoke": args.smoke, "workloads": {}}
    print(f"{'workload':<15} {'metric':<40} {'unit':<6} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'n':>3}")
    for workload, results in per_workload.items():
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        for r in results:
            for failure in r["failures"]:
                log(f"{workload}: CHECK FAILED {failure}")
        metrics = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summarize(values, first["unit"], first["exact"])
            m = metrics[name]
            print(f"{workload:<15} {name:<40} {m['unit']:<6} "
                  f"{m['median']:>14.6g} {m['q1']:>14.6g} {m['q3']:>14.6g} "
                  f"{m['n']:>3}")
        ops = results[0]["ops"]
        report["workloads"][workload] = {
            "correct": correct, "ops": ops,
            "failed_ops": 0 if correct else ops,
            "digests": sorted({r["digest"] for r in results}),
            "metrics": metrics}
        print(f"{workload:<15} {'ops / failed_ops':<40} {'count':<6} "
              f"{ops:>14} {0 if correct else ops:>14}  "
              f"digest {','.join(report['workloads'][workload]['digests'])}")

    if not args.smoke:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        log(f"wrote {args.out}")
    if traced:
        events = []
        for pid, (workload, path) in enumerate(trace_files.items()):
            with open(path) as f:
                for event in json.load(f)["traceEvents"]:
                    event["pid"] = pid
                    events.append(event)
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": workload}})
        with open(TRACE_JSON, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        log(f"wrote {TRACE_JSON}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload once (the BENCHMARK.json "
                             "form); omit to sweep every workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed every input trace derives from")
    parser.add_argument("--seconds", type=int,
                        help="wall-time budget per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer pass (traced run)")
    parser.add_argument("--reps", type=int, default=5,
                        help="sweep: runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="sweep: shrink every horizon, one run each")
    parser.add_argument("--build", default=".bench_build",
                        help="build directory root (bench_e2e builds in "
                             "BUILD/e2e)")
    parser.add_argument("--out", default=None,
                        help="sweep result file (default BENCH_e2e.json, "
                             "BENCH_e2e_trace.json with --trace)")
    args = parser.parse_args()
    if args.seed < 0 or args.reps < 1:
        parser.error("--seed must be >= 0 and --reps >= 1")
    if args.out is None:
        args.out = "BENCH_e2e_trace.json" if args.trace else "BENCH_e2e.json"

    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        binary = build(args.build)
        if args.workload is not None:
            return contract_run(args, binary)
        return sweep(args, binary)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as error:
        log(f"run.py: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
