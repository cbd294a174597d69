"""Generated source and ``compile()`` time of one session, parent against change.

    python3 docs/bench/pr36/compile_sizing.py PARENT_TREE CHANGE_TREE

For each tree, a child process runs one ``stream-churn`` session (50
steady ops) and one ``bs-bigtile`` session (3 steady ops) through the
tree's own ``benchmarks/e2e`` runner and records every source it sends
to ``compile()``.  This process then compiles both trees' sources,
interleaved, 15 times and prints the median.
"""

from __future__ import annotations

import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time

COLLECT = r"""
import pickle, sys
sys.path.insert(0, "benchmarks/e2e")
from e2ebench import workloads
from repro.kernel import codegen
found = {}
for name, steady in (("stream-churn", 50), ("bs-bigtile", 3)):
    sources = []
    original = codegen._compile_source
    def recording(source, kernel, _sources=sources, _original=original):
        _sources.append(str(source))
        return _original(source, kernel)
    codegen._compile_source = recording
    workload = workloads.BY_NAME[name]
    workloads.run_session(workload, workload.prepare(0), steady_ops=steady)
    codegen._compile_source = original
    found[name] = list(dict.fromkeys(sources))
with open(sys.argv[1], "wb") as handle:
    pickle.dump(found, handle)
"""


def collect(tree: str, scratch: str) -> dict:
    path = os.path.join(scratch, "sources.pkl")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    subprocess.run([sys.executable, "-c", COLLECT, path], cwd=tree, env=env, check=True)
    with open(path, "rb") as handle:
        return pickle.load(handle)


def compile_all(sources) -> float:
    start = time.perf_counter()
    for source in sources:
        compile(source, "<sizing>", "exec")
    return time.perf_counter() - start


def main() -> None:
    parent, change = sys.argv[1:3]
    with tempfile.TemporaryDirectory() as scratch:
        before, after = collect(parent, scratch), collect(change, scratch)
    for name in before:
        old, new = before[name], after[name]
        times_old, times_new = [], []
        for _ in range(15):
            times_old.append(compile_all(old))
            times_new.append(compile_all(new))
        lines = [sum(source.count("\n") for source in side) for side in (old, new)]
        sizes = [sum(map(len, side)) for side in (old, new)]
        t_old, t_new = statistics.median(times_old), statistics.median(times_new)
        print(
            f"{name}: {len(old)} / {len(new)} sources; lines {lines[0]} -> {lines[1]}; "
            f"bytes {sizes[0]} -> {sizes[1]}; compile() {t_old * 1e3:.1f} -> "
            f"{t_new * 1e3:.1f} ms per session (x{t_new / t_old:.2f})"
        )


if __name__ == "__main__":
    main()
