"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads fit-large,cold-small] [--first-seed 1] [--trace 0]

Run from the repository root.  Each run is one ``perfbench/run.py`` process
with its own seed and BENCHMARK.json's ``run_seconds``.  For every metric
the report gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (third minus first
quartile over the median) and, for end-to-end metrics, that spread as a
share of the metric's bound.  The whole report is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "machine": platform.machine()}


def summarize(values: list, bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}
    out["spread"] = (q3 - q1) / median if median else 0.0
    if bound is not None:
        out["spread_over_bound"] = out["spread"] / bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), file=sys.stderr)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                metric: summarize([r["metrics"][metric]["value"] for r in results], bounds[metric])
                for metric in bounds
            },
        }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
