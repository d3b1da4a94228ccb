#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs every listed workload once per seed, back to back, and reports for
each metric the distance between the first and third quartile of its
values as a share of their median (statistics.quantiles, n=4), next to
the metric's bound in BENCHMARK.json.  Run from the checkout root:

    python3 perfbench/spread.py --runs 10 --out perfbench/spread.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}{out.stdout[-2000:]}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {res}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    # The host ceilings measured in the same run, so a shift of the host
    # shows next to the metrics it moved.
    for line in lines:
        f = line.split()
        if len(f) == 4 and f[0] == "host" and f[1].startswith("host."):
            values[f[1]] = float(f[2])
    return values


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", help="write the spreads here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": args.runs, "seconds": bench["run_seconds"], "workloads": {}}
    for w in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            for k, v in run_once(w, args.first_seed + i, bench["run_seconds"]).items():
                values.setdefault(k, []).append(v)
        rows = {}
        for k, vs in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            rows[k] = {"median": q2, "spread": round(spread, 4), "bound": bounds.get(k), "values": vs}
            print(f"{w:15s} {k:12s} median {q2:12.6g}  spread {spread:7.4f}  bound {bounds.get(k)}  "
                  + " ".join(f"{v:.4g}" for v in vs), flush=True)
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
