"""Per-call time of CG's two super-kernels under two trees' codegen drivers.

Runs ``cg`` at the ``cg-manyrank`` shape (64 ranks of 16 rows) with this
tree's package, records the sections and the last ``(buffers, scalars)``
of every super-kernel it lowers, then builds each super-kernel twice in
one process: with this tree's ``repro.kernel.codegen`` and with the
``codegen.py`` of a second tree (``--base``, e.g. an unpacked
``git archive`` of the parent), loaded under another module name.  The
two bodies are called alternately, ``--rounds`` rounds of ``--calls``
calls with the side that goes first swapped every round, restoring the
buffers before each round; prints the median microseconds per call of
each side and the median of the per-round differences.

    PYTHONPATH=src python docs/bench/pr37/driver_ab.py --base /path/to/parent
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time

import numpy as np

import repro.apps  # noqa: F401 - registers the applications
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen


def capture():
    """``[(sections, name, buffers, scalars)]`` of CG's super-kernels."""
    seen = {}
    generate = codegen.generate_superkernel_source

    def recording(sections, name):
        source = generate(sections, name)
        seen[name] = [tuple(sections), name, None, None]
        return source

    codegen.generate_superkernel_source = recording
    import repro.runtime.superkernel as superkernel

    superkernel.generate_superkernel_source = recording
    call = superkernel.SuperKernel.__init__

    def init(self, source, plan, name, binding_plan):
        call(self, source, plan, name, binding_plan)
        inner = self.executor

        def executor(buffers, scalars, *rest):
            seen[name][2:] = [dict(buffers), dict(scalars)]
            return inner(buffers, scalars, *rest)

        self.executor = executor

    superkernel.SuperKernel.__init__ = init
    context = RuntimeContext(num_gpus=64, fusion=True)
    set_context(context)
    try:
        build_application("cg", context=context, grid_points_per_gpu=4).run(30)
    finally:
        set_context(None)
    return [entry for entry in seen.values() if entry[2] is not None]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", required=True, help="root of the other tree")
    parser.add_argument("--rounds", type=int, default=101)
    parser.add_argument("--calls", type=int, default=500)
    args = parser.parse_args()
    spec = importlib.util.spec_from_file_location(
        "base_codegen", f"{args.base}/src/repro/kernel/codegen.py"
    )
    base = importlib.util.module_from_spec(spec)
    sys.modules["base_codegen"] = base
    spec.loader.exec_module(base)
    for sections, name, buffers, scalars in capture():
        sides = {}
        for label, module in (("base", base), ("new", codegen)):
            source = module.generate_superkernel_source(sections, name)
            fn, _fresh = module.bind(source, source.plan, name)
            sides[label] = (fn, source.count("\n"))
        saved = {k: None if v is None else [a.copy() for a in v] if isinstance(v, list) else v.copy()
                 for k, v in buffers.items()}

        def restore():
            for key, value in saved.items():
                if isinstance(value, list):
                    for target, data in zip(buffers[key], value):
                        target[...] = data
                elif value is not None:
                    buffers[key][...] = value

        times = {label: [] for label in sides}
        for index in range(args.rounds):
            order = list(sides.items())
            for label, (fn, _lines) in order if index % 2 else order[::-1]:
                restore()
                start = time.perf_counter()
                for _ in range(args.calls):
                    fn(buffers, scalars)
                times[label].append((time.perf_counter() - start) / args.calls * 1e6)
        shape = "ranked" if any(s.mode == "ranked" for s in sections) else "merged"
        differences = [new - old for old, new in zip(times["base"], times["new"])]
        wins = sum(new < old for old, new in zip(times["base"], times["new"]))
        print(
            f"{name} ({len(sections)} sections, {shape}): "
            + ", ".join(
                f"{label} {statistics.median(values):.2f} us/call "
                f"({sides[label][1]} lines)"
                for label, values in times.items()
            )
            + f"; paired new - base median {statistics.median(differences):+.2f} us, "
            f"new faster in {wins}/{len(differences)} rounds"
        )


if __name__ == "__main__":
    main()
