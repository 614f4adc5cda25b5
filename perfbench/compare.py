"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``<workload>-seed<n>-trace<0|1>.json`` records that
``run.py`` writes (``.perfbench/results`` by default), one per run.  Runs of
the two sides with the same workload and seed form a pair.  For every
workload and metric this prints each side's median and quartiles, the pairs
the head side wins, and for end-to-end metrics a verdict against the bounds
in ``BENCHMARK.json``:

- ``improved``: the head wins at least 9 in 10 of at least ten pairs, ties
  counting for neither, and the medians differ by more than the base's
  quartile distance;
- ``worse``: the head median is worse than the base median by more than the
  bound;
- ``unresolved``: the base's quartile distance, as a share of its median, is
  wider than the bound, and not every head run beats every base run;
- ``no worse``: otherwise.

Before any diff it checks that the two sides are comparable: the same
environment (Python, numpy, BLAS and its thread count, core count), the same
run length, the same workload shape for every seed, and no larger share of
failed commands on the head side than on the base side (a gain does not count
when more operations fail).  Exits 1 when a metric is worse or the sides are
not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """(workload, trace) -> {seed: record}."""
    runs = {}
    for path in sorted(directory.glob("*-seed*-trace[01].json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, pairs, better, bound):
    """Apply the bound to one metric; returns (verdict, head wins)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    if bound is None:
        return "-", wins
    b1, b_med, b3 = quartiles(base)
    h_med = statistics.median(head)
    gain = sign * (b_med - h_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > b3 - b1:
        return "improved", wins
    if b_med and -gain / abs(b_med) > bound:
        return "worse", wins
    head_beats_all = all(sign * (b - h) > 0 for b in base for h in head)
    if b_med and (b3 - b1) / abs(b_med) > bound and not head_beats_all:
        return "unresolved", wins
    return "no worse", wins


def comparable(base_runs: dict, head_runs: dict) -> list:
    problems = []
    envs = {
        side: {tuple(r["environment"].get(k) for k in ENV_KEYS) for r in runs.values()}
        for side, runs in (("base", base_runs), ("head", head_runs))
    }
    if len(envs["base"] | envs["head"]) > 1:
        problems.append(f"environments differ: {sorted(envs['base'] | envs['head'], key=str)}")
    lengths = {r["seconds"] for runs in (base_runs, head_runs) for r in runs.values()}
    if len(lengths) > 1:
        problems.append(f"run lengths differ: {sorted(lengths)} s")
    failed = {
        side: (sum(r["failed"] for r in runs.values()), sum(r["attempted"] for r in runs.values()))
        for side, runs in (("base", base_runs), ("head", head_runs))
    }
    (b_failed, b_tried), (h_failed, h_tried) = failed["base"], failed["head"]
    if h_failed * b_tried > b_failed * h_tried:
        problems.append(f"head fails {h_failed} of {h_tried} commands, base {b_failed} of {b_tried}")
    for seed in sorted(base_runs.keys() & head_runs.keys()):
        if base_runs[seed]["shape"] != head_runs[seed]["shape"]:
            problems.append(f"seed {seed}: workload shapes differ")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)

    declared = json.loads(args.benchmark.read_text(encoding="utf-8"))
    metrics = {0: declared["end_to_end"], 1: declared["per_layer"]}
    base, head = load(args.base), load(args.head)
    bad = False
    for key in sorted(base.keys() & head.keys()):
        workload, trace = key
        b_runs, h_runs = base[key], head[key]
        seeds = sorted(b_runs.keys() & h_runs.keys())
        print(f"\n== {workload} ({'traced' if trace else 'end to end'}): "
              f"{len(b_runs)} base runs, {len(h_runs)} head runs, {len(seeds)} pairs")
        for problem in comparable(b_runs, h_runs):
            print(f"NOT COMPARABLE: {problem}")
            bad = True
        field = "per_layer" if trace else "end_to_end"
        print(f"{'metric':38s} {'base q1/median/q3':>32s} {'head q1/median/q3':>32s} {'wins':>7s}  verdict")
        for m in metrics[trace]:
            name = m["name"]
            b_vals = [r[field][name] for r in b_runs.values() if name in r[field]]
            h_vals = [r[field][name] for r in h_runs.values() if name in r[field]]
            if not b_vals or not h_vals:
                print(f"{name:38s} missing on {'base' if not b_vals else 'head'}")
                continue
            pairs = [
                (b_runs[s][field][name], h_runs[s][field][name])
                for s in seeds
                if name in b_runs[s][field] and name in h_runs[s][field]
            ]
            result, wins = verdict(b_vals, h_vals, pairs, m["better"], m.get("bound"))
            bad |= result == "worse"
            b_q, h_q = quartiles(b_vals), quartiles(h_vals)
            print(
                f"{name:38s} {'/'.join(f'{v:.4g}' for v in b_q):>32s} "
                f"{'/'.join(f'{v:.4g}' for v in h_q):>32s} {wins:>3d}/{len(pairs):<3d}  {result}"
            )
    for key in sorted(base.keys() ^ head.keys()):
        print(f"\n== {key[0]} trace {key[1]}: results on one side only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
