#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs one workload N times with different seeds and prints, for every
metric, the median and the interquartile spread (third minus first
quartile, as a share of the median). An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged; so is one above a third of
its bound, the margin a benchmark should keep.

    python3 servebench/steady.py --workload kg_serve --runs 10
    python3 servebench/steady.py --workload kg_serve --runs 5 --trace 1

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "servebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = {}
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        pass
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 10)

    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        out = run_once(args.workload, seed, seconds, args.trace)
        results.append(out)
        ok = "ok" if out["correct"] else "INCORRECT"
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(out["metrics"].items()) if k in bounds)
        print(f"seed {seed}: {ok} attempted={out['attempted']} failed={out['failed']} {shown}", flush=True)

    names = sorted({k for r in results for k in r["metrics"]})
    worst = 0
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = results[0]["metrics"].get(name, {}).get("unit", "")
        med, sp = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if sp > bound:
                flag, worst = "EXCEEDS BOUND", max(worst, 2)
            elif sp > bound / 3:
                flag, worst = "above bound/3", max(worst, 1)
        b = f"{bound:.2f}" if bound is not None else ""
        print(f"{name:40} {med:14.6g} {sp:8.4f} {b:>6} {unit} {flag}")
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        print("some runs reported failures")
        worst = 2
    sys.exit(1 if worst == 2 else 0)


if __name__ == "__main__":
    main()
