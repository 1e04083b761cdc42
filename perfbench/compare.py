#!/usr/bin/env python3
"""Compares two benchmark result sets: parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files hold sweep.py result lines. Runs are paired by (workload, seed).
For each workload x end-to-end metric it prints both sides' median and
quartiles, the fraction of pairs the change wins (ties count for neither),
and a verdict:

  improved    the change wins at least 9/10 of the pairs (and at least ten
              pairs ran) and the medians differ by more than the parent's
              quartile distance; or the spread is too wide but every change
              run beats every parent run
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, so "no worse" cannot be shown
  no worse    otherwise

setup_s is judged by its median alone: its spread is not held to the bound.
Exits 1 when any verdict is "worse". Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace", 0):
            continue
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(par, chg, bound, higher_better, judge_spread):
    sign = 1.0 if higher_better else -1.0
    pq1, pmed, pq3 = quartiles(par)
    cq1, cmed, cq3 = quartiles(chg)
    pairs = list(zip(par, chg))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    rel = sign * (cmed - pmed) / pmed if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for p in par for c in chg)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(cmed - pmed) > pq3 - pq1 and rel > 0):
        v = "improved"
    elif rel < -bound:
        v = "worse"
    elif judge_spread and ((pq3 - pq1) / pmed > bound
                           or (cq3 - cq1) / cmed > bound):
        v = "improved" if all_better else "unresolved"
    else:
        v = "no worse"
    return (pq1, pmed, pq3), (cq1, cmed, cq3), win_frac, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)

    worse = False
    print(f"{'workload':11s} {'metric':20s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'wins':>5s}  verdict")
    for wl in bench["workloads"]:
        name = wl["name"]
        p_runs, c_runs = parent.get(name, {}), change.get(name, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            print(f"{name:11s} (no paired runs)")
            continue
        for m in bench["end_to_end"]:
            par = [p_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            chg = [c_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            pq, cq, win, v = verdict(par, chg, m["bound"],
                                     m["better"] == "higher",
                                     m["name"] != "setup_s")
            worse |= v == "worse"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:11s} {m['name']:20s} {fmt(pq):>34s} "
                  f"{fmt(cq):>34s} {win:5.2f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
