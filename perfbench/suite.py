"""Run the benchmark over several workloads and seeds and summarise it.

From the root of a checkout:

    python3 perfbench/suite.py --seeds 0 1 2 3 4 5 6 7 8 9 --out summary.json

Each (workload, seed) pair runs ``perfbench/run.py`` in its own process,
one after another.  For every metric the table shows the median over the
seeds, the quartiles as ``statistics.quantiles(values, n=4)`` gives them
and the spread (third minus first quartile, as a share of the median),
next to the bound ``BENCHMARK.json`` fixes for end-to-end metrics.  The
exit code is 1 when any run failed or was incorrect, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None, proc.stderr[-2000:]
    return (proc.returncode, json.loads(lines[-2]), json.loads(lines[-1]),
            proc.stderr[-2000:])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and summary as JSON")
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    report, bad = {}, 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            rc, details, result, err = run_one(workload, seed, args.seconds,
                                               args.trace)
            ok = rc == 0 and result is not None and result["correct"]
            bad += not ok
            print(f"{workload} seed {seed}: exit {rc}"
                  + ("" if ok else f" FAILED\n{err}"), flush=True)
            runs.append({"seed": seed, "exit": rc, "details": details,
                         "result": result})
        done = [r["result"] for r in runs if r["result"] is not None]
        summary = {}
        print(f"\n{workload}: {len(done)} runs")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}  unit")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in done
                      if r["metrics"][name]["value"] is not None]
            if not values:
                continue
            s = summarise(values)
            summary[name] = s
            bound = bounds[name]
            flag = " !" if bound is not None and s["spread"] > bound else ""
            print(f"  {name:38s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6}  "
                  f"{done[0]['metrics'][name]['unit']}{flag}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "workloads": report}, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
