#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --out parent.jsonl --seeds 10 --seconds 20 \
        corpus2p loops_ckpt ext_gcc enum_loops

Each run's result line is appended to --out as {"workload", "seed", "trace",
"result"}; compare.py reads two such files. For every workload x metric it
prints the median and the spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles) next to the
metric's bound from BENCHMARK.json. Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}

    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, spr = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spr < bound / 3 else (
                    "WIDE" if spr > bound else "over 1/3 bound")
            print(f"{workload:11s} {name:24s} median {med:14.6g} "
                  f"spread {spr:7.4f} bound {bound} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
