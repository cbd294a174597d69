#!/usr/bin/env python3
"""Buffers and simulated seconds of every harness app, per configuration.

    python3 docs/bench/pr26/identity.py run --tree PATH --out FILE [--configs 1x1,4x4]
    python3 docs/bench/pr26/identity.py compare BASE.json NEW.json

``run`` executes every registered application at 4 and 8 ranks for six
iterations under ``REPRO_KERNEL_BACKEND=differential``, each (app, ranks,
configuration) in a fresh interpreter importing the source tree at PATH.
A configuration ``PxW`` sets ``REPRO_POINT_WORKERS=P`` and
``REPRO_WORKERS=W``; both dispatch thresholds are zeroed, so rank chunks
reach the worker processes even on small tiles.  It writes one JSON
object, ``"app@ranks/PxW" -> {buffers: sha256 over every array of the
app, iterations: per-iteration simulated seconds as float.hex, clock,
checksum, process_chunks}``, and fails if a ``/dev/shm`` entry outlives
the runs.

``compare`` checks every entry of NEW against BASE's ``1x1`` entry of
the same app and rank count: buffers, per-iteration seconds, final clock
and checksum must be equal bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

RANKS = (4, 8)
ITERATIONS = 6


def session(app_name: str, ranks: int) -> dict:
    """One run in this interpreter (flags already in the environment)."""
    import repro.apps  # noqa: F401 - registers the applications
    import repro.runtime.executor as executor_module
    import repro.runtime.scheduler as scheduler_module
    from repro.apps.base import build_application
    from repro.frontend.cunumeric.array import ndarray
    from repro.frontend.legate.context import RuntimeContext, set_context

    executor_module.MIN_POINT_DISPATCH_VOLUME = 0
    scheduler_module.MIN_DISPATCH_VOLUME = 0
    context = RuntimeContext(num_gpus=ranks, fusion=True)
    set_context(context)
    try:
        app = build_application(app_name, context=context)
        app.run(ITERATIONS)
        checksum = app.checksum()
        digest = hashlib.sha256()
        for name, value in sorted(vars(app).items()):
            if isinstance(value, ndarray):
                array = value.to_numpy()
                digest.update(f"{name}:{array.dtype}:{array.shape}".encode())
                digest.update(array.tobytes())
    finally:
        set_context(None)
    return {
        "buffers": digest.hexdigest(),
        "iterations": [float(s).hex() for s in context.profiler.iteration_seconds()],
        "clock": float(context.legion.simulated_seconds).hex(),
        "checksum": float(checksum).hex(),
        "process_chunks": context.profiler.snapshot()["point_process_chunks"],
    }


def shm_entries() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:
        return set()


def run(tree: str, out: str, configs) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env["REPRO_KERNEL_BACKEND"] = "differential"
    apps = json.loads(subprocess.run(
        [sys.executable, "-c",
         "import json, repro.apps; from repro.apps.base import registered_applications;"
         "print(json.dumps(registered_applications()))"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout)
    before = shm_entries()
    results = {}
    for app in apps:
        for ranks in RANKS:
            for config in configs:
                points, workers = config.split("x")
                flags = dict(env, REPRO_POINT_WORKERS=points, REPRO_WORKERS=workers)
                report = subprocess.run(
                    [sys.executable, __file__, "session", app, str(ranks)],
                    env=flags, check=True, capture_output=True, text=True,
                ).stdout
                results[f"{app}@{ranks}/{config}"] = json.loads(report.strip().splitlines()[-1])
                print(f"{app}@{ranks}/{config}", results[f"{app}@{ranks}/{config}"]["buffers"][:12])
    with open(out, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    leaked = shm_entries() - before
    print(f"{len(results)} runs; leaked /dev/shm entries: {sorted(leaked)}")
    return 1 if leaked else 0


def compare(base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    fields = ("buffers", "iterations", "clock", "checksum")
    differ = []
    for key, entry in sorted(new.items()):
        reference = base[key.split("/")[0] + "/1x1"]
        if any(entry[field] != reference[field] for field in fields):
            differ.append(key)
    shipped = sum(1 for entry in new.values() if entry["process_chunks"] > 0)
    print(f"{len(new)} runs against {len(base)} references; "
          f"{shipped} ran chunks in worker processes; differing: {differ or 'none'}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    one = commands.add_parser("session")
    one.add_argument("app")
    one.add_argument("ranks", type=int)
    many = commands.add_parser("run")
    many.add_argument("--tree", required=True)
    many.add_argument("--out", required=True)
    many.add_argument("--configs", default="1x1,4x1,1x4,4x4")
    pair = commands.add_parser("compare")
    pair.add_argument("base")
    pair.add_argument("new")
    args = parser.parse_args()
    if args.command == "session":
        print(json.dumps(session(args.app, args.ranks)))
        return 0
    if args.command == "run":
        return run(args.tree, args.out, args.configs.split(","))
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
