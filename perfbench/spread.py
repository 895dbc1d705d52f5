#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload churn --seeds 1-5 --seconds 15

For every metric it prints the median and the distance between the first
and third quartiles as a share of the median (statistics.quantiles with
n=4), next to the bound BENCHMARK.json gives it. With --repeat-counts it
runs each seed traced twice and fails unless every count metric repeats
exactly. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def repeat_counts(args):
    bad = 0
    for seed in seeds(args.seeds):
        a, b = (run_once(args.workload, seed, args.seconds, 1) for _ in "ab")
        for name, m in a.items():
            if m["unit"] == "count" and m["value"] != b[name]["value"]:
                print(f"seed {seed}: {name} {m['value']} != {b[name]['value']}")
                bad += 1
        print(f"seed {seed}: counts compared", flush=True)
    sys.exit(1 if bad else 0)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--repeat-counts", action="store_true")
    args = p.parse_args()
    if args.repeat_counts:
        repeat_counts(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        metrics = run_once(args.workload, seed, args.seconds, 0)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)

    print(f"\n{'metric':40} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40} {med:14.6g} {spread:11.4f} "
              f"{'' if bound is None else bound:>7}{flag}")


if __name__ == "__main__":
    main()
