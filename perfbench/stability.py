#!/usr/bin/env python3
"""Two-set stability check for one perfbench workload.

Runs the benchmark ten times per set (each run with its own seed, seeds
1 to 20), for two sets, and checks every end-to-end metric the way
BENCHMARK.json's bounds are meant: within each set, the spread (Q3 - Q1
of the runs, over their median, quartiles from statistics.quantiles(n=4))
stays within the metric's bound, and the second set's median is not worse
than the first set's by more than the bound. Run from the repository
root:

    python3 perfbench/stability.py --workload hot
"""
import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res, info = json.loads(lines[-1]), json.loads(lines[-2])
    if not res["correct"]:
        sys.exit(f"seed {seed}: wrong outputs")
    return {k: v["value"] for k, v in res["metrics"].items()}, info.get("host_steal_frac", 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    seed, sets, ok = 1, [], True
    for s in range(SETS):
        runs, steal = [], []
        for _ in range(RUNS):
            m, st = run_once(args.workload, seed, spec["run_seconds"])
            runs.append(m)
            steal.append(st)
            seed += 1
        sets.append(runs)
        print(f"set {s + 1} ({RUNS} runs, host steal median {statistics.median(steal):.3f},"
              f" max {max(steal):.3f})")
        for name, m in metrics.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            verdict = "ok"
            if spread > m["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            if s > 0:
                first = statistics.median(r[name] for r in sets[0])
                worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                if worse > m["bound"]:
                    verdict, ok = "MEDIAN WORSE THAN SET 1", False
            print(f"  {name:16} median {med:12.4f}  spread {spread:.3f}  bound {m['bound']}  {verdict}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
