"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 e2ebench/spread.py --workload paper_protocol --seeds 0-9
    python3 e2ebench/spread.py --workload all --seeds 0-9 --markdown

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread — the
interquartile distance as a share of the median — beside the metric's
bound from ``BENCHMARK.json``.  Runs are sequential, one benchmark
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    worst = 0.0
    for workload in workloads:
        results = [run_once(workload, seed, spec["run_seconds"], args.trace)
                   for seed in seeds_from(args.seeds)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"\n{workload}: {len(results)} runs, {len(bad)} incorrect")
        if args.markdown:
            print("| metric | unit | median | q1 | q3 | spread | bound |")
            print("|---|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            bound_text = "" if bound is None else f"{bound:g}"
            if args.markdown:
                print(f"| `{name}` | {first['unit']} | {median:.6g} | "
                      f"{q1:.6g} | {q3:.6g} | {spread:.3f} | {bound_text} |")
            else:
                print(f"  {name:40s} {first['unit']:10s} median "
                      f"{median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                      f"spread {spread:6.3f} bound {bound_text}")
    print(f"\nworst spread / bound (excluding setup_s): {worst:.2f}")


if __name__ == "__main__":
    main()
