"""Stacked reductions: a merged launch that reduces runs once per chunk.

When every non-reduction buffer of a compiled launch tiles its 1-D store
contiguously in rank order with one common tile (``pool.launch_verdict``),
the launch — eager or replayed — calls the kernel's *stacked* body once
per rank chunk: its reductions are ``reduce(axis=1)`` over ``(ranks,
tile)`` rows and come back as one float64 array of per-rank partials.
These tests hold that form to the interpreter rank by rank, bit for bit:

* at the kernel tier, every reduction kind over NaN, ±0 and ±inf data,
  0-d operands and two reductions into one target, blocked and
  whole-tile, at 1, 2, 4 and 64 ranks;
* end to end, the buffers, reduced values and per-iteration simulated
  seconds of a small reducing program on every path a stacked launch
  takes (eager, replayed, thread chunks, resident process chunks,
  differential) against the eager interpreter seed path, and a ragged
  tiling that stays per rank and says why;
* a stacked fused kernel compiles exactly one body.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen
from repro.kernel.builder import KernelBuilder
from repro.kernel.codegen import CodegenExecutor
from repro.kernel.kir import ReduceKind
from repro.kernel.lowering import (
    BackendDivergenceError,
    DifferentialExecutor,
    InterpreterExecutor,
)
from repro.kernel.passes.compose import KernelBinding
from repro.runtime import procpool
from repro.runtime.executor import TaskExecutor


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    procpool.shutdown_process_pool()
    config.reload_flags()


def _same(actual, expected) -> bool:
    """Bit for bit — ``-0.0`` is not ``0.0`` — except that any NaN equals
    any NaN: which operand's payload a NaN result carries depends on the
    instruction NumPy's loop picked, as in every backend comparison."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return False
    nan = np.isnan(expected)
    return bool(
        np.array_equal(np.isnan(actual), nan)
        and np.array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))
    )


# ----------------------------------------------------------------------
# The kernel tier: the stacked body against the interpreter per row.
# ----------------------------------------------------------------------
KINDS = (ReduceKind.SUM, ReduceKind.PROD, ReduceKind.MAX, ReduceKind.MIN)


def _kernels():
    """name -> KIR function; ``a``, ``b`` are inputs, ``out`` an output,
    ``r0``, ``r1`` reduction targets, ``k`` a scalar."""
    kernels = {}
    for kind in KINDS:
        builder = KernelBuilder(f"bare_{kind.name.lower()}")
        builder.buffers("a", "r0")
        builder.loop("a").reduce("r0", "a", kind).end_loop()
        kernels[builder.name] = builder.build()

        builder = KernelBuilder(f"fused_{kind.name.lower()}")
        builder.buffers("a", "b", "out", "r0")
        k = builder.scalar("k")
        builder.loop("a")
        builder.assign("out", KernelBuilder.add(KernelBuilder.mul("a", k), "b"))
        builder.reduce("r0", KernelBuilder.mul("out", "b"), kind)
        builder.end_loop()
        kernels[builder.name] = builder.build()

        # 0-d operands: a constant and a scalar, broadcast over the index
        # space (summing a constant counts elements).
        builder = KernelBuilder(f"zero_d_{kind.name.lower()}")
        builder.buffers("a", "r0", "r1")
        k = builder.scalar("k")
        builder.loop("a").reduce("r0", 1.5, kind).reduce("r1", k, kind).end_loop()
        kernels[builder.name] = builder.build()

        # Two reductions into one target, the second after a write.
        builder = KernelBuilder(f"twice_{kind.name.lower()}")
        builder.buffers("a", "b", "out", "r0")
        builder.loop("a")
        builder.reduce("r0", "a", kind)
        builder.assign("out", KernelBuilder.sub("b", "a"))
        builder.reduce("r0", "out", kind)
        builder.end_loop()
        kernels[builder.name] = builder.build()
    return kernels


KERNELS = _kernels()
SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, -1.0, 1e308, -0.0])


def _inputs(extent: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    buffers = {}
    for name in ("a", "b"):
        values = rng.uniform(-2.0, 2.0, extent)
        marks = rng.random(extent) < 0.15
        values[marks] = rng.choice(SPECIALS, int(marks.sum()))
        buffers[name] = values
    buffers["out"] = np.zeros(extent)
    return buffers


def _bound(function, buffers):
    return {
        param.name: None if param.name.startswith("r") else buffers[param.name]
        for param in function.buffer_params
    }


@pytest.mark.parametrize("blocked", [False, True], ids=["whole-tile", "blocked"])
@pytest.mark.parametrize("ranks", [1, 2, 4, 64])
@pytest.mark.parametrize("name", list(KERNELS))
def test_stacked_body_is_the_rank_loop(name, ranks, blocked, monkeypatch):
    function = KERNELS[name]
    if blocked:
        monkeypatch.setattr(codegen, "BLOCK", 8)
    tile = 37 if blocked else 5
    scalars = {"k": -0.75}
    for seed in range(3):
        stacked = _inputs(ranks * tile, seed)
        expected = {key: value.copy() for key, value in stacked.items()}
        with np.errstate(all="ignore"):
            partials = CodegenExecutor(function, KernelBinding())(
                _bound(function, stacked), scalars, tile=tile
            )
            rows = {}
            for rank in range(ranks):
                cut = slice(rank * tile, (rank + 1) * tile)
                row = {key: value[cut] for key, value in expected.items()}
                for target, partial in InterpreterExecutor(function, KernelBinding())(
                    _bound(function, row), scalars
                ).items():
                    rows.setdefault(target, []).append(partial.value)
        context = f"{function.pretty()}\nranks={ranks} tile={tile} seed={seed}"
        for key, value in expected.items():
            assert _same(stacked[key], value), f"{key}\n{context}"
        assert sorted(partials) == sorted(rows), context
        for target, values in rows.items():
            assert partials[target].dtype == np.float64, context
            assert _same(partials[target], values), (
                f"{target}: {partials[target]} vs {values}\n{context}"
            )


def test_differential_checks_a_stacked_call_row_by_row(monkeypatch):
    function = KERNELS["fused_max"]
    executor = DifferentialExecutor(function, KernelBinding())

    def buffers():
        return {"a": np.linspace(1.0, 2.0, 24), "b": np.linspace(-1.0, 3.0, 24),
                "out": np.zeros(24)}

    partials = executor(_bound(function, buffers()), {"k": 2.0}, tile=6)
    assert partials["r0"].shape == (4,)
    # A stacked body whose rows disagree with the interpreter raises.
    good = executor.codegen._body(6)

    def skewed(*args):
        result = good[1](*args)
        result["r0"] = result["r0"] + 1.0
        return result

    monkeypatch.setitem(executor.codegen._bodies, 6, (good[0], skewed, good[2]))
    with pytest.raises(BackendDivergenceError, match="stacked"):
        executor(_bound(function, buffers()), {"k": 2.0}, tile=6)


# ----------------------------------------------------------------------
# End to end: every path a stacked launch takes, against the seed path.
# ----------------------------------------------------------------------
ITERATIONS = 4

#: Every path a stacked launch takes: environment, ``config.SUPERKERNEL``,
#: shrunk ``codegen.BLOCK`` (so 64-element tiles split across threads).
PATHS = {
    "eager": ({"REPRO_TRACE": "0"}, True, None),
    "replay": ({}, False, None),
    "replay-superkernel": ({}, True, None),
    "eager-threads": ({"REPRO_TRACE": "0", "REPRO_WORKERS": "2"}, True, 8),
    "replay-threads": ({"REPRO_WORKERS": "2"}, False, 8),
    "resident-process": ({"REPRO_POINT_WORKERS": "2"}, False, None),
    "differential": ({"REPRO_KERNEL_BACKEND": "differential"}, False, None),
    "differential-eager": (
        {"REPRO_KERNEL_BACKEND": "differential", "REPRO_TRACE": "0"}, True, None,
    ),
}

#: The seed path: the eager interpreter over per-launch rect tables.
SEED = {"REPRO_TRACE": "0", "REPRO_KERNEL_BACKEND": "interpreter", "REPRO_HOTPATH_CACHE": "0"}


def _data(size: int) -> list:
    rng = np.random.default_rng(size)
    arrays = []
    for special in (False, True, False):
        values = rng.uniform(-1.5, 1.5, size)
        if special:
            values[:: max(1, size // 7)] = -0.0
            values[size // 3] = np.nan
            values[size // 2] = 0.0
        arrays.append(values)
    return arrays


def _program(x, y, z, k: float) -> list:
    """SUM (fused with its product), MAX, MIN and a dot, each read back."""
    return [
        float((x * y).sum()),
        float((x + k * z).max()),
        float((y - z).min()),
        float(cn.dot(x, z)),
    ]


def _reductions(size: int):
    """The reducing program over three arrays of ``size`` elements."""

    def workload(context):
        x, y, z = (cn.array(values) for values in _data(size))
        values = []
        for iteration in range(ITERATIONS):
            context.begin_iteration()
            values.append(_program(x, y, z, 0.5 + iteration))
            context.flush()
        return values, [array.to_numpy() for array in (x, y, z)]

    return workload


def _run(monkeypatch, ranks: int, workload, env: dict, superkernel=True, block=None):
    defaults = {
        "REPRO_TRACE": "1", "REPRO_KERNEL_BACKEND": "codegen", "REPRO_HOTPATH_CACHE": "1",
        "REPRO_WORKERS": "1", "REPRO_POINT_WORKERS": "1",
    }
    for name, value in {**defaults, **env}.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(config, "SUPERKERNEL", superkernel)
    if block is not None:
        monkeypatch.setattr(codegen, "BLOCK", block)
    procpool.shutdown_process_pool()
    config.reload_flags()
    context = RuntimeContext(num_gpus=ranks, fusion=True, machine=scaled_machine(ranks, 1e-4))
    set_context(context)
    try:
        values, state = workload(context)
    finally:
        set_context(None)
    return context.profiler, values, state


#: Seed-path runs, by ``(ranks, size)`` of the reducing program or
#: ``(app, ranks)`` of a harness application.
_SEEDS = {}


def _seed(monkeypatch, ranks: int, size: int):
    key = (ranks, size)
    if key not in _SEEDS:
        _SEEDS[key] = _run(monkeypatch, ranks, _reductions(size), SEED)
    return _SEEDS[key]


def _assert_matches_seed(profiler, values, state, seed) -> None:
    seed_profiler, seed_values, seed_state = seed
    assert _same(values, seed_values)
    assert len(state) == len(seed_state)
    for array, expected in zip(state, seed_state):
        assert _same(array, expected)
    seconds, expected = profiler.iteration_seconds(), seed_profiler.iteration_seconds()
    assert len(seconds) == ITERATIONS
    assert seconds == expected


@pytest.mark.parametrize("ranks", [1, 2, 4, 64])
@pytest.mark.parametrize("path", list(PATHS))
def test_every_stacked_path_matches_the_seed_path(path, ranks, monkeypatch, force_dispatch):
    env, superkernel, block = PATHS[path]
    size = 64 * ranks
    split = []
    thread_chunks = TaskExecutor._thread_chunks

    def counted(executor, work, chunks, slots):
        split.append(len(chunks))
        return thread_chunks(executor, work, chunks, slots)

    monkeypatch.setattr(TaskExecutor, "_thread_chunks", counted)
    profiler, values, state = _run(monkeypatch, ranks, _reductions(size), env, superkernel, block)
    _assert_matches_seed(profiler, values, state, _seed(monkeypatch, ranks, size))
    snapshot = profiler.snapshot()
    if ranks == 1:
        assert snapshot["stacked_launches"] == 0
        assert snapshot["per_rank_reducing_single_rank"] > 0
        return
    assert snapshot["stacked_launches"] > 0
    assert not any(
        count for key, count in snapshot.items() if key.startswith("per_rank_reducing_")
    )
    if env.get("REPRO_TRACE") != "0":
        assert profiler.trace_hits > 0
    if path.endswith("threads"):
        # Untraced, only first runs split: the counter counts replays.
        assert split
        assert (snapshot["point_thread_chunks"] > 0) == (path == "replay-threads")
    if path == "resident-process":
        assert snapshot["point_process_chunks"] > 0


@pytest.mark.parametrize("env", [{"REPRO_TRACE": "0"}, {}], ids=["eager", "replay"])
def test_a_ragged_tiling_runs_per_rank_and_says_why(env, monkeypatch):
    """30 elements over 4 ranks: the tiles differ in size, so a reducing
    launch keeps one call per rank, records why, and still matches."""
    profiler, values, state = _run(monkeypatch, 4, _reductions(30), env, superkernel=False)
    _assert_matches_seed(profiler, values, state, _seed(monkeypatch, 4, 30))
    snapshot = profiler.snapshot()
    assert snapshot["stacked_launches"] == 0
    assert snapshot["per_rank_reducing_ragged_tiling"] > 0


def test_the_seed_path_never_stacks(monkeypatch):
    profiler, _values, _state = _seed(monkeypatch, 4, 256)
    snapshot = profiler.snapshot()
    assert snapshot["stacked_launches"] == 0
    assert snapshot["per_rank_reducing_interpreter_backend"] == 0
    assert snapshot["per_rank_reducing_uninterned_table"] > 0


def test_the_interpreter_runs_a_stackable_tiling_per_rank(monkeypatch):
    profiler, _values, _state = _run(
        monkeypatch, 4, _reductions(256),
        {"REPRO_KERNEL_BACKEND": "interpreter", "REPRO_TRACE": "0"},
    )
    assert profiler.snapshot()["per_rank_reducing_interpreter_backend"] > 0
    assert profiler.stacked_launches == 0


#: The nine harness applications at their smoke sizes
#: (``test_deferred_stream.HARNESS_APPS``).
APPS = [
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


def _app(name: str, kwargs: dict, ranks: int):
    """One harness application for ``ITERATIONS`` iterations; 64 ranks
    take an eighth of the per-rank size along each axis."""
    if ranks == 64:
        kwargs = {key: value if key == "pressure_iterations" else max(4, value // 8)
                  for key, value in kwargs.items()}

    def workload(context):
        app = build_application(name, context=context, **kwargs)
        app.run(ITERATIONS)
        state = [value.to_numpy() for _key, value in sorted(vars(app).items())
                 if isinstance(value, cn_ndarray)]
        return [app.checksum()], state

    return workload


@pytest.mark.parametrize("trace", ["0", "1"], ids=["untraced", "traced"])
@pytest.mark.parametrize("ranks", [1, 4, 64])
@pytest.mark.parametrize("name, kwargs", APPS, ids=[name for name, _kwargs in APPS])
def test_harness_apps_match_the_seed_path(name, kwargs, ranks, trace, monkeypatch):
    """Buffers, checksum and the simulated seconds of every iteration of
    every harness application, traced and untraced, under the kernel
    backend of the environment (the differential CI leg checks every
    stacked call row by row), against one untraced run of the
    interpreter over plain per-launch tables."""
    backend = os.environ.get("REPRO_KERNEL_BACKEND", "codegen")
    key = (name, ranks)
    if key not in _SEEDS:
        _SEEDS[key] = _run(monkeypatch, ranks, _app(name, kwargs, ranks), SEED)
    run = _run(
        monkeypatch, ranks, _app(name, kwargs, ranks),
        {"REPRO_TRACE": trace, "REPRO_KERNEL_BACKEND": backend},
    )
    _assert_matches_seed(*run, _SEEDS[key])


# ----------------------------------------------------------------------
# What a stacked kernel compiles.
# ----------------------------------------------------------------------
def test_a_stacked_fused_kernel_compiles_exactly_one_body(monkeypatch):
    generated = []
    original = codegen.generate_source

    def recording(function, tile=None):
        generated.append((function.name, tile))
        return original(function, tile)

    monkeypatch.setattr(codegen, "generate_source", recording)
    codegen.clear_function_cache()
    profiler, _values, _state = _run(monkeypatch, 4, _reductions(256), {}, superkernel=False)
    assert profiler.stacked_launches > 0
    fused = [(name, tile) for name, tile in generated if name.startswith("fused_")]
    assert fused
    # One body per fused kernel — its stacked one, at its one tile.
    assert len({name for name, _tile in fused}) == len(fused)
    reducing = [tile for _name, tile in fused if tile is not None]
    assert reducing and set(reducing) == {64}
    assert codegen.codegen_stats().source_compilations == len(set(generated))


def test_a_stacked_body_compiles_once_per_tile():
    function = KERNELS["fused_sum"]
    executor = CodegenExecutor(function, KernelBinding())
    stats = codegen.codegen_stats()
    compiled = stats.source_compilations
    for tile in (4, 4, 8, 4):
        buffers = _inputs(3 * tile, tile)
        with np.errstate(all="ignore"):
            executor(_bound(function, buffers), {"k": 1.0}, tile=tile)
    assert sorted(executor._bodies) == [4, 8]
    assert stats.source_compilations - compiled <= 2
