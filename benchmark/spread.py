#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs each workload of BENCHMARK.json `--runs` times, each time with
another seed, and prints for every metric the median of the runs and the
distance between their first and third quartile (statistics.quantiles,
n=4) as a share of that median, beside the metric's bound. A benchmark
is steady when every spread but that of setup_s is below a third of its
bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=HERE.parent, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    steady = True
    began = time.monotonic()
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i) for i in range(args.runs)]
        for metric in MANIFEST["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            spread = (q3 - q1) / mid
            mark = "" if spread < bound / 3 or name == "setup_s" else "  <-- above a third of the bound"
            steady &= not mark
            print(f"{workload:<16} {name:<15} median {mid:>12.5f} {metric['unit']:<4} "
                  f"spread {spread:.4f}  bound {bound}{mark}", flush=True)
    # The driver makes 4 + 22 runs per workload and caps their total time.
    per_run = (time.monotonic() - began) / (args.runs * len(workloads))
    driver_runs = 4 + 22 * len(MANIFEST["workloads"])
    print(f"{per_run:.1f} s a run: the driver's {driver_runs} runs take about "
          f"{per_run * driver_runs:.0f} s, builds aside")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
