"""The deferred task stream: skeletons, records, and what a replay builds.

A frontend submits a :class:`~repro.ir.task.DeferredTask` — an interned
:class:`~repro.ir.task.TaskSkeleton` plus stores and scalars — and the
index task it stands for is built only where a pipeline needs one (an
epoch that misses, an untraced or unfused engine).  These tests pin
that a steady iteration builds no task, that dead stores leave every
registry, and that nothing the programs compute or are charged moved:
``deferred_stream_golden.json`` holds the nine harness apps' buffers,
per-iteration simulated seconds and generated kernel sources as the
eager-task frontend produced them, under every configuration the
record path forks on.  Regenerate it (only for a change that is meant
to move them) with ``PYTHONPATH=src python tests/test_deferred_stream.py``;
a change that moves only the generated sources regenerates with
``--sources-only``, which rewrites the ``sources`` digests and refuses to
write anything if a checksum, a simulated second or a buffer moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import StoreManager
from repro.ir.task import DeferredTask, IndexTask, StoreArg, TaskSkeleton
from repro.kernel import codegen
from repro.runtime import superkernel

GOLDEN = Path(__file__).with_name("deferred_stream_golden.json")

#: The nine applications of the wall-clock harness at their smoke sizes.
HARNESS_APPS = [
    ("cg", dict(grid_points_per_gpu=24)),
    ("jacobi", dict(rows_per_gpu=64)),
    ("black-scholes", dict(elements_per_gpu=512)),
    ("two-matvec", dict(rows_per_gpu=32)),
    ("gmg", dict(grid_points_per_gpu=12)),
    ("bicgstab", dict(grid_points_per_gpu=24)),
    ("cfd", dict(points_per_gpu=24, pressure_iterations=2)),
    ("torchswe", dict(points_per_gpu=24)),
    ("torchswe-manual", dict(points_per_gpu=64)),
]

#: name -> (environment, ``config.OPAQUE_CHUNKS``, fusion): every fork
#: of the record path — replay, the untraced engine, both kernel
#: backends, the seed path's uninterned skeletons, per-rank opaque
#: launches (whose task a replay rebuilds) and the unfused baseline.
CONFIGS = {
    "traced": ({}, True, True),
    "untraced": ({"REPRO_TRACE": "0"}, True, True),
    "differential": ({"REPRO_KERNEL_BACKEND": "differential"}, True, True),
    "seed-path": ({"REPRO_HOTPATH_CACHE": "0"}, True, True),
    "opaque-per-rank": ({}, False, True),
    "unfused": ({}, True, False),
}

ITERATIONS = 4  # a captured miss (two when the window grew under the first), then replays
NUM_GPUS = 4

def _digest(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def fingerprint(app_name: str, kwargs: dict, config_name: str, patch) -> dict:
    """What one run computed, was charged and compiled, bit for bit."""
    environment, opaque_chunks, fusion = CONFIGS[config_name]
    defaults = {"REPRO_TRACE": "1", "REPRO_KERNEL_BACKEND": "codegen",
                "REPRO_HOTPATH_CACHE": "1", "REPRO_WORKERS": "1",
                "REPRO_POINT_WORKERS": "1"}
    for name, value in {**defaults, **environment}.items():
        patch.setenv(name, value)
    patch.setattr(config, "OPAQUE_CHUNKS", opaque_chunks)
    config.reload_flags()
    sources = []
    for owner, name in ((codegen, "generate_source"), (superkernel, "generate_superkernel_source")):
        original = getattr(owner, name)

        def recording(*args, _original=original, **kw):
            source = _original(*args, **kw)
            sources.append(source)
            return source

        patch.setattr(owner, name, recording)
    context = RuntimeContext(
        num_gpus=NUM_GPUS, fusion=fusion, machine=scaled_machine(NUM_GPUS, 1e-4)
    )
    set_context(context)
    try:
        app = build_application(app_name, context=context, **kwargs)
        app.run(ITERATIONS)
        checksum = app.checksum()
        buffers = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
    finally:
        set_context(None)
    return {
        "checksum": float(checksum).hex(),
        "iteration_seconds": [seconds.hex() for seconds in context.profiler.iteration_seconds()],
        "buffers": _digest(
            name.encode() + np.ascontiguousarray(buffers[name]).tobytes()
            for name in sorted(buffers)
        ),
        "sources": _digest(source.encode() for source in sorted(set(sources))),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def restore_flags():
    yield
    config.reload_flags()


@pytest.mark.parametrize("config_name", list(CONFIGS))
@pytest.mark.parametrize("app_name, kwargs", HARNESS_APPS, ids=[app[0] for app in HARNESS_APPS])
def test_apps_are_bit_identical_to_the_eager_task_frontend(
    app_name, kwargs, config_name, golden, monkeypatch, restore_flags
):
    """Buffers, per-iteration simulated seconds and kernel sources match
    what the frontend produced when it built an index task per launch."""
    assert fingerprint(app_name, kwargs, config_name, monkeypatch) == (
        golden[config_name][app_name]
    )


# ----------------------------------------------------------------------
# What a steady iteration builds.
# ----------------------------------------------------------------------
class _Counting:
    """Counts calls of the wrapped methods (installed with monkeypatch)."""

    def __init__(self, patch, targets):
        self.counts = {label: 0 for label, _owner, _name in targets}
        for label, owner, name in targets:
            original = getattr(owner, name)

            def counted(*args, _label=label, _original=original, **kwargs):
                self.counts[_label] += 1
                return _original(*args, **kwargs)

            patch.setattr(owner, name, counted)

    def reset(self):
        for label in self.counts:
            self.counts[label] = 0


def _cg(num_gpus=64, grid_points_per_gpu=4):
    context = RuntimeContext(num_gpus=num_gpus)
    set_context(context)
    app = build_application("cg", context=context, grid_points_per_gpu=grid_points_per_gpu)
    return context, app


def test_a_steady_cg_op_builds_no_task_and_its_nine_stores(monkeypatch, restore_flags):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    config.reload_flags()
    counting = _Counting(monkeypatch, [
        ("IndexTask", IndexTask, "__init__"),
        ("StoreArg", StoreArg, "__init__"),
        ("natural_partition", RuntimeContext, "natural_partition"),
        ("create_store", StoreManager, "create_store"),
    ])
    context, app = _cg()
    try:
        app.run(5)
        profiler = context.profiler
        materialised, hits = dict(profiler.tasks_materialised), profiler.trace_hits
        counting.reset()
        app.run(10)
        assert counting.counts == {
            "IndexTask": 0, "StoreArg": 0, "natural_partition": 0, "create_store": 90,
        }
        assert profiler.tasks_materialised == materialised
        assert profiler.trace_hits - hits == 10
    finally:
        set_context(None)


def test_dead_stores_leave_the_registry_and_the_coherence_table(monkeypatch, restore_flags):
    """No store or layout accumulates over 1,000 steady CG iterations."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    config.reload_flags()
    context, app = _cg(num_gpus=4)
    try:
        app.run(5)
        sizes = (len(context.stores), len(context.legion.coherence._states))
        for _ in range(10):
            app.run(100)
            assert (len(context.stores), len(context.legion.coherence._states)) == sizes
    finally:
        set_context(None)


def test_a_missed_epoch_builds_the_task_the_frontend_describes(monkeypatch, restore_flags):
    """Argument by argument, the task a record builds is the one an
    eager frontend would have built from the same views."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    config.reload_flags()
    context = RuntimeContext(num_gpus=4)
    set_context(context)
    built = []
    original = context.diffuse.materialise

    def materialise(record, path):
        task = original(record, path)
        built.append(task)
        return task

    monkeypatch.setattr(context.diffuse, "materialise", materialise)
    try:
        x = cn.array(np.arange(16.0), name="x")
        y = cn.ones(16, name="y")
        view = x[2:10]
        z = (x + y) * 2.0
        view += 1.0
        total = z.dot(y)
        context.flush()
        partition = context.natural_partition
        assert [task.task_name for task in built] == [
            "fill", "add", "multiply_scalar", "add_scalar", "dot",
        ]
        add, scale, shift, dot = built[1:]
        assert add.args == (
            StoreArg(x.store, partition(x.store), Privilege.READ),
            StoreArg(y.store, partition(y.store), Privilege.READ),
            add.args[2],
        )
        assert add.args[2].partition == partition(add.args[2].store)
        assert scale.scalar_args == (2.0,) and scale.args[1].store is z.store
        assert shift.args == (
            StoreArg(x.store, partition(x.store, (2,), (8,)), Privilege.READ),
            StoreArg(x.store, partition(x.store, (2,), (8,)), Privilege.WRITE),
        )
        assert dot.args[2] == StoreArg(
            total.store, context.replication(), Privilege.REDUCE, ReductionOp.ADD
        )
        for task in built:
            assert task.launch_domain == context.launch_domain(1)
    finally:
        set_context(None)


def test_skeletons_are_interned_except_on_the_seed_path(monkeypatch, restore_flags):
    specs = lambda ctx: ((ctx.replication(), Privilege.READ, None),)  # noqa: E731
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
    config.reload_flags()
    context = RuntimeContext(num_gpus=2)
    domain = context.launch_domain(1)
    first = context.skeleton("copy", domain, specs(context))
    assert context.skeleton("copy", domain, specs(context)) is first
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "0")
    config.reload_flags()
    seed = RuntimeContext(num_gpus=2)
    fresh = seed.skeleton("copy", domain, specs(seed))
    assert seed.skeleton("copy", domain, specs(seed)) is not fresh
    # Equal by value either way, which is what the trace key relies on.
    assert fresh == first and hash(fresh) == hash(first)
    with pytest.raises(ValueError):
        TaskSkeleton("sum", domain, ((context.replication(), Privilege.READ, ReductionOp.ADD),))


def test_deferred_task_of_round_trips_an_index_task():
    manager = StoreManager()
    context = RuntimeContext(num_gpus=2)
    a, b = manager.create_store((8,)), manager.create_store(())
    task = IndexTask("dot", context.launch_domain(1), [
        StoreArg(a, context.natural_partition(a), Privilege.READ),
        StoreArg(b, context.replication(), Privilege.REDUCE, ReductionOp.ADD),
    ], scalar_args=(1.5,))
    rebuilt = DeferredTask.of(task).task()
    assert rebuilt.args == task.args and rebuilt.scalar_args == task.scalar_args
    assert (rebuilt.task_name, rebuilt.launch_domain) == (task.task_name, task.launch_domain)


FIXED = ("checksum", "iteration_seconds", "buffers")


def regenerate(sources_only: bool) -> int:
    """Rewrite the golden file from the tree on ``PYTHONPATH``.

    With ``sources_only`` every case must match the committed file in
    everything but its ``sources`` digest, or nothing is written.
    """
    table = {}
    with pytest.MonkeyPatch.context() as patch:
        for config_name in CONFIGS:
            table[config_name] = {}
            for app_name, kwargs in HARNESS_APPS:
                table[config_name][app_name] = fingerprint(app_name, kwargs, config_name, patch)
                print(config_name, app_name, file=sys.stderr)
    if sources_only:
        committed = json.loads(GOLDEN.read_text())
        moved = [
            f"{config_name}/{app_name}: {field}"
            for config_name, apps in table.items()
            for app_name, entry in apps.items()
            for field in FIXED
            if entry[field] != committed.get(config_name, {}).get(app_name, {}).get(field)
        ]
        if moved or table.keys() != committed.keys():
            print("not written; moved besides the sources:", *moved, sep="\n", file=sys.stderr)
            return 1
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate("--sources-only" in sys.argv[1:]))
