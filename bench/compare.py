#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py`` under BENCHMARK.json's bounds.

    python3 bench/compare.py A.json B.json [--exact]

A is the parent, B the change.  For every workload and every end-to-end
metric the two sides' medians and quartiles are printed and the pair gets
one verdict:

* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, so the medians decide nothing — unless every
  value of B is better, or every value worse, than every value of A;
* ``regression`` — otherwise, B's median is worse than A's by more than
  the bound;
* ``ok`` / ``better`` otherwise.

A side's values are its runs' values when the file holds several runs of
the workload, else the repeats of its one run (``wall_s`` has them).
The exit code is 1 on any regression, on failed checks in B that A did
not have, and — with ``--exact``, for two sets of runs of the *same*
code — on any seed-exact counter that differs between equal seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> tuple:
    """(q1, median, q3, quartile distance as a share of the median)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / abs(med) if med else 0.0)


def verdict(a: list, b: list, bound: float, better: str) -> str:
    """One metric on one workload: parent values, change values."""
    sign = 1.0 if better == "lower" else -1.0
    _, med_a, _, spread_a = spread(a)
    _, med_b, _, spread_b = spread(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if max(spread_a, spread_b) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "regression"
    if worse_by < -bound or (all_better and len(a) > 1 and len(b) > 1):
        return "better"
    return "ok"


def _runs(path: str) -> dict:
    """workload -> untraced run records of one result file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_workload: dict = {}
    for rec in doc["runs"]:
        if not rec["trace"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _values(records: list, metric: str) -> list:
    if len(records) == 1 and metric == "wall_s":
        return list(records[0]["wall_samples"])
    return [r["metrics"][metric]["value"] for r in records]


def failed_ratio(records: list) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 1.0


def compare(a_path: str, b_path: str, manifest: dict,
            exact: bool = False) -> list:
    """Print the table; return the list of reasons to fail."""
    a_runs, b_runs = _runs(a_path), _runs(b_path)
    problems = []
    for spec in manifest["workloads"]:
        name = spec["name"]
        if name not in a_runs or name not in b_runs:
            problems.append(f"{name}: missing from one side")
            continue
        ra, rb = a_runs[name], b_runs[name]
        print(f"== {name}  (A: {len(ra)} runs, B: {len(rb)} runs)")
        fa, fb = failed_ratio(ra), failed_ratio(rb)
        print(f"   {'failed_ratio':<20} A {fa:.4f}   B {fb:.4f}")
        if fb > fa:
            problems.append(f"{name}: failed_ratio rose from {fa} to {fb}")
        for m in manifest["end_to_end"]:
            va = _values(ra, m["name"])
            vb = _values(rb, m["name"])
            q1a, ma, q3a, sa = spread(va)
            q1b, mb, q3b, sb = spread(vb)
            v = verdict(va, vb, m["bound"], m["better"])
            print(f"   {m['name']:<20} "
                  f"A {ma:.6g} [{q1a:.6g}, {q3a:.6g}] n={len(va)}   "
                  f"B {mb:.6g} [{q1b:.6g}, {q3b:.6g}] n={len(vb)}   "
                  f"{100 * (mb - ma) / abs(ma) if ma else 0.0:+.2f} % "
                  f"(bound {100 * m['bound']:.0f} %, spread "
                  f"{100 * max(sa, sb):.1f} %)  {v}")
            if v == "regression":
                problems.append(f"{name}.{m['name']}: regression")
        if exact:
            by_seed = {r["seed"]: r["exact"] for r in ra}
            for r in rb:
                ref = by_seed.get(r["seed"])
                if ref is None:
                    continue
                diff = sorted(k for k in ref if ref[k] != r["exact"].get(k))
                if diff:
                    problems.append(
                        f"{name} seed {r['seed']}: exact counters differ "
                        f"between two runs of the same code: {diff}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", help="result file of the parent")
    ap.add_argument("b", help="result file of the change")
    ap.add_argument("--exact", action="store_true",
                    help="same code on both sides: equal seeds must give "
                         "identical exact counters")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = compare(args.a, args.b, manifest, exact=args.exact)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("compare: " + ("FAILED" if problems else "no regression"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
