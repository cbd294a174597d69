#!/usr/bin/env python3
"""Compare two benchmark reports: ``compare.py BASE.json NEW.json``.

Each report is what ``run.py --json FILE`` wrote (``--runs N`` puts N
sets of runs into one report).  One row per workload and end-to-end
metric: the base median, the new median, their ratio (new / base) and a
verdict from the bounds recorded in ``BENCHMARK.json``:

``regressed``   the new median is worse than the base by more than the bound
``unresolved``  the runs of one side are spread wider than the bound, and
                the two sides overlap — the data cannot tell
``improved``    every new run beats every base run, by more than the spread
``unchanged``   anything else

With a single run per side there is no spread to judge by, so the bound
itself is the resolution: better or worse by more than the bound, or
unchanged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

MANIFEST = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (range over it below 4 runs)."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / middle


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """One of regressed / unresolved / improved / unchanged (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_mid - base_mid) / base_mid if base_mid else 0.0
    if worse_by > bound:
        return "regressed"
    if len(base) < 2 or len(new) < 2:
        return "improved" if -worse_by > bound else "unchanged"
    noise = max(spread(base), spread(new))
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if noise > bound and not (all_better or all_worse):
        return "unresolved"
    if all_better and -worse_by > noise:
        return "improved"
    return "unchanged"


def metric_runs(report: Dict[str, object], workload: str, metric: str) -> List[float]:
    """The metric's value in every run of the report that has it."""
    values = []
    for run in report["runs"]:
        value = run.get(workload, {}).get("end_to_end", {}).get(metric)
        if value:
            values.append(value)
    return values


def compare(base: Dict[str, object], new: Dict[str, object], manifest: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in (entry["name"] for entry in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            a = metric_runs(base, workload, metric["name"])
            b = metric_runs(new, workload, metric["name"])
            if not a or not b:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "base": statistics.median(a),
                    "new": statistics.median(b),
                    "ratio": statistics.median(b) / statistics.median(a),
                    "runs": (len(a), len(b)),
                    "spread": max(spread(a), spread(b)),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    rows = compare(reports[0], reports[1], manifest)
    print(f"base = {argv[0]}   new = {argv[1]}   ratio = new / base")
    print(
        f"{'workload':18s} {'metric':14s} {'base':>12s} {'new':>12s} {'unit':5s} "
        f"{'ratio':>7s} {'runs':>5s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:18s} {row['metric']:14s} {row['base']:12.5g} {row['new']:12.5g} "
            f"{row['unit']:5s} {row['ratio']:7.3f} {row['runs'][0]:2d}/{row['runs'][1]:<2d} "
            f"{row['spread']:7.2%} {row['bound']:6.0%}  {row['verdict']}"
        )
    return int(any(row["verdict"] == "regressed" for row in rows))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
