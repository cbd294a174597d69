"""Per-layer metrics of two traced reports that differ, per workload.

Prints, for every workload of two ``run.py --trace 1 --json`` reports,
the count-type metrics of ``BENCHMARK.json`` (and ``sim.*``) whose
values differ, and the checksums when they differ.

Usage::

    python3 docs/bench/pr40/layer_diff.py base_traced.json new_traced.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


def main() -> None:
    base, new = (json.loads(Path(path).read_text())["runs"][0] for path in sys.argv[1:3])
    metrics = json.loads(MANIFEST.read_text())["per_layer"]
    counts = [m["name"] for m in metrics if m["unit"] == "count" or m["name"].startswith("sim.")]
    for workload in sorted(base):
        before, after = base[workload]["per_layer"], new[workload]["per_layer"]
        moved = [
            f"  {name}: {before.get(name)!r} -> {after.get(name)!r}"
            for name in counts
            if before.get(name) != after.get(name)
        ]
        print(f"{workload}: {'no count-type metric moved' if not moved else ''}")
        for line in moved:
            print(line)


if __name__ == "__main__":
    main()
