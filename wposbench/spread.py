#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

Run from the repository root:

    python3 wposbench/spread.py --workload file-rw --seeds 1-10 --seconds 20

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
fixes for it, and flags every spread above a third of its bound.
--repeat N also reruns the first seed N more times, checks that the
modeled metrics (op_cycles_*, modeled_* and native_ratio) come out
identical, which every workload must do, and prints each bounded
metric's same-seed spread ((max - min) / median over the N + 1 runs)
against its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: incorrect result: {res['failed']} of {res['attempted']} failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def modeled(name):
    return name.startswith("op_cycles") or name.startswith("modeled_") or name == "native_ratio"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    ss = seeds(args.seeds)
    runs = []
    for s in ss:
        runs.append(run(args.workload, s, args.seconds, args.trace))
        print(f"seed {s}: " + " ".join(f"{k}={v:.6g}" for k, v in sorted(runs[-1].items())), flush=True)
    report = {"workload": args.workload, "seeds": ss, "metrics": {}}
    print(f"\n{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name in sorted(runs[0]):
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        spread = None
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if spread is not None and bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:34} {med:14.6g} {spread if spread is not None else float('nan'):11.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
        report["metrics"][name] = {"median": med, "spread": spread, "bound": bound, "values": vals}

    if args.repeat:
        first = runs[0]
        again = [first]
        same = True
        for _ in range(args.repeat):
            again.append(run(args.workload, ss[0], args.seconds, args.trace))
            for k in first:
                if modeled(k) and again[-1][k] != first[k]:
                    same = False
                    print(f"seed {ss[0]} repeat: {k} {first[k]} != {again[-1][k]}")
        report["same_seed_identical"] = same
        print(f"\nsame seed, modeled metrics identical across {args.repeat + 1} runs: {same}")
        report["same_seed_spread"] = {}
        print(f"\n{'metric, seed ' + str(ss[0]):34} {'(max-min)/median':>17} {'bound':>6}")
        for name in sorted(first):
            bound = bounds.get(name)
            if bound is None:
                continue
            vals = [r[name] for r in again]
            spread = (max(vals) - min(vals)) / abs(statistics.median(vals))
            flag = "  > bound" if spread > bound else ""
            print(f"{name:34} {spread:17.4f} {bound:>6}{flag}")
            report["same_seed_spread"][name] = {"spread": spread, "bound": bound, "values": vals}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
