#!/usr/bin/env python3
"""The substrate table of ``docs/bench/pr25`` on two trees, interleaved.

    python3 docs/bench/pr26/substrates_pair.py BASE_TREE NEW_TREE [--sessions N]

Every session is one ``docs/bench/pr25/substrates.py --session PROGRAM``
run in a fresh interpreter with that script's configuration flags and
the tree's ``src`` on the path (the script and its programs come from
this tree, so both sides time the same program).  Rounds go program by
program, configuration by configuration, alternating which tree runs
first, so host drift lands on both alike.  Prints, per program and
configuration, the median of the sessions' median op times in ms for
each tree and their ratio (new / base), and fails unless every session
of a program produced the same checksum.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "pr25" / "substrates.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--sessions", type=int, default=5)
    args = parser.parse_args()
    spec = importlib.util.spec_from_file_location("substrates", SCRIPT)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)

    trees = {"base": Path(args.base).resolve(), "new": Path(args.new).resolve()}
    times = {}
    checksums = {program: set() for program in table.PROGRAMS}
    for round_index in range(args.sessions):
        order = list(trees) if round_index % 2 == 0 else list(reversed(trees))
        for program in table.PROGRAMS:
            for name, flags in table.CONFIGS.items():
                for side in order:
                    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
                    env.update(flags, PYTHONPATH=str(trees[side] / "src"))
                    out = subprocess.run(
                        [sys.executable, str(SCRIPT), "--session", program],
                        env=env, check=True, capture_output=True, text=True,
                    ).stdout
                    report = json.loads(out.strip().splitlines()[-1])
                    times.setdefault((program, name, side), []).append(report["op_ms"])
                    checksums[program].add(report["checksum"])

    print(f"{table.NUM_GPUS} ranks, {args.sessions} interleaved sessions per tree; "
          "median op_ms base -> new (ratio)")
    print(f"{'program':<22}" + "".join(f"{name:>26}" for name in table.CONFIGS))
    for program in table.PROGRAMS:
        cells = []
        for name in table.CONFIGS:
            base = statistics.median(times[program, name, "base"])
            new = statistics.median(times[program, name, "new"])
            cells.append(f"{base:.3g} -> {new:.3g} ({new / base:.2f})")
        print(f"{program:<22}" + "".join(f"{cell:>26}" for cell in cells))
    agree = all(len(values) == 1 for values in checksums.values())
    print(f"checksums agree across trees and configurations: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
