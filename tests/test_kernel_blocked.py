"""The blocked kernel tier (``kernel/codegen.py``) against its specification.

Generated kernels evaluate one cache-sized block of a tile at a time
through scratch registers; the tree-walking interpreter evaluates every
statement over the whole tile.  These tests hold the two together where
a block loop could come apart from whole-tile evaluation:

* a property test over random KIR functions — every operator, locals
  and allocations of every use count, mid-loop reductions of every kind,
  0-d operands — at extents around the block boundary, on 1-D tiles and
  on non-contiguous 2-D views, over inputs salted with the values
  floating point treats specially;
* the same random kernels as one super-kernel section over ``ranks x
  tile`` elements, reducing by rows over the merged span, against the
  section's per-rank loop — whole, and split into rank chunks;
* the aliasing programs a naive block loop gets wrong (``x[1:] =
  x[:-1]``), through the frontend and on the generated closure directly;
* engagement: the tier blocks Black-Scholes tiles and leaves CG's
  16-row tiles alone, observable through ``Profiler.snapshot()``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.frontend.cunumeric as cn
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen
from repro.kernel.builder import KernelBuilder
from repro.kernel.codegen import (
    SuperKernelSection,
    bind,
    codegen_stats,
    generate_superkernel_source,
)
from repro.kernel.kir import (
    Alloc,
    Assign,
    BinOp,
    BinOpKind,
    Const,
    Function,
    Load,
    LocalRef,
    Loop,
    Param,
    Reduce,
    ReduceKind,
    ScalarRef,
    UnOp,
    UnOpKind,
)
from repro.kernel.lowering import _floats_equal, lower
from repro.kernel.passes.compose import KernelBinding
from repro.ir.domain import Rect
from repro.runtime.pool import RectTable, launch_verdict

BLOCK = 8
EXTENTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7)
SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310)

TILES = ("a", "b", "out0", "out1")  # tile-shaped buffer parameters
SCALARS_0D = ("s", "z")  # rank-0 buffer parameters (z is written)
TARGETS = ("r0", "r1")  # reduction targets, handed in as None


# ----------------------------------------------------------------------
# Random kernels.
# ----------------------------------------------------------------------
def _expressions(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds(UnOp, st.sampled_from(list(UnOpKind)), inner),
            st.builds(BinOp, st.sampled_from(list(BinOpKind)), inner, inner),
        ),
        max_leaves=6,
    )


@st.composite
def kernels(draw) -> Function:
    """A KIR function over ``a, b, out0, out1`` (tiles), ``s, z`` (0-d)."""
    allocs = draw(st.sampled_from([(), ("t",), ("t", "u")]))
    rank0 = [Const(v) for v in (0.0, 1.0, -2.5, 0.5)] + [ScalarRef("k")]
    kinds = ["let", "let", "assign", "assign", "reduce"]
    if draw(st.booleans()):
        # Rank-0 buffers confine a loop to one block; half the kernels
        # do without them so the block loop itself is exercised.
        rank0 += [Load(name) for name in SCALARS_0D]
        kinds.append("rank0")
    body = [Alloc(name=name, like="a") for name in allocs]
    for _ in range(draw(st.integers(1, 2))):
        locals_defined = []
        statements = []
        for _ in range(draw(st.integers(1, 6))):
            leaves = (
                [Load(name) for name in TILES + allocs]
                + [LocalRef(name) for name in locals_defined]
                + rank0
            )
            kind = draw(st.sampled_from(kinds))
            if kind == "let":
                name = draw(st.sampled_from(["l0", "l1", "l2"]))
                # A definition may be load-free (a 0-d value).
                expr = draw(_expressions(leaves) | _expressions(rank0))
                statements.append(Assign(target=name, expr=expr, is_local=True))
                if name not in locals_defined:
                    locals_defined.append(name)
            elif kind == "assign":
                target = draw(st.sampled_from(("a", "out0", "out1") + allocs))
                expr = draw(_expressions(leaves) | _expressions(rank0))
                statements.append(Assign(target=target, expr=expr))
            elif kind == "reduce":
                statements.append(
                    Reduce(
                        target=draw(st.sampled_from(TARGETS)),
                        kind=draw(st.sampled_from(list(ReduceKind))),
                        # Half of the operands are bare: a buffer reduced as
                        # it stands, which a later statement may overwrite.
                        expr=draw(st.sampled_from(leaves) | _expressions(leaves)),
                    )
                )
            else:
                statements.append(Assign(target="z", expr=draw(_expressions(rank0))))
        index = draw(st.sampled_from(["a", "out0"]))
        body.append(Loop(index_buffer=index, body=tuple(statements)))
    params = [Param.buffer(n) for n in TILES + SCALARS_0D + TARGETS]
    return Function(name="random", params=tuple(params + [Param.scalar("k")]), body=tuple(body))


def _inputs(extent: int, two_d: bool, seed: int):
    """Salted inputs; 2-D tiles are non-contiguous views of wider arrays."""
    rng = np.random.default_rng(seed)
    buffers = {}
    for name in TILES:
        if two_d:
            array = rng.uniform(-2.0, 2.0, (extent, 5))[:, 1:4]
        else:
            array = rng.uniform(-2.0, 2.0, extent)
        salt = rng.random(array.shape) < 0.2
        array[salt] = rng.choice(SPECIAL, size=int(salt.sum()))
        buffers[name] = array
    buffers["s"] = np.array(rng.choice((1.5, -0.0, np.inf, np.nan)))
    buffers["z"] = np.array(0.25)
    buffers.update(dict.fromkeys(TARGETS))
    return buffers, {"k": 1.5}


def _outcome(function, backend, extent, two_d, seed):
    """(buffers, partials) of one run, or the exception type it raised."""
    buffers, scalars = _inputs(extent, two_d, seed)
    try:
        with np.errstate(all="ignore"):
            partials = lower(function, KernelBinding(), backend=backend)(buffers, scalars)
    except (ValueError, FloatingPointError) as error:  # e.g. max of nothing
        return type(error)
    return buffers, partials


def _assert_matches_interpreter(function, seed):
    """Codegen vs interpreter over every extent and tile rank, ``BLOCK`` = 8."""
    original = codegen.BLOCK
    codegen.BLOCK = BLOCK  # not monkeypatch: Hypothesis reuses function fixtures
    try:
        for two_d in (False, True):
            for extent in EXTENTS:
                expected = _outcome(function, "interpreter", extent, two_d, seed)
                actual = _outcome(function, "codegen", extent, two_d, seed)
                if isinstance(expected, type) or isinstance(actual, type):
                    assert actual is expected, (extent, two_d)
                    continue
                context = f"{function.pretty()}\nextent={extent} two_d={two_d}"
                for name, array in expected[0].items():
                    if array is not None:
                        assert np.array_equal(
                            actual[0][name], array, equal_nan=True
                        ), f"buffer '{name}'\n{context}"
                assert set(actual[1]) == set(expected[1]), context
                for target, partial in expected[1].items():
                    other = actual[1][target]
                    assert partial.kind is other.kind, context
                    assert _floats_equal(partial.value, other.value), (
                        f"partial '{target}' {partial} vs {other}\n{context}"
                    )
    finally:
        codegen.BLOCK = original


@settings(max_examples=120, deadline=None)
@given(function=kernels(), seed=st.integers(0, 2**16))
def test_random_kernels_match_the_interpreter(function, seed):
    _assert_matches_interpreter(function, seed)


def _one_loop(*statements, allocs=()):
    params = [Param.buffer(n) for n in TILES + SCALARS_0D + TARGETS]
    body = [Alloc(name=name, like="a") for name in allocs]
    body.append(Loop(index_buffer="a", body=tuple(statements)))
    return Function(name="corner", params=tuple(params + [Param.scalar("k")]), body=tuple(body))


_double_a = Assign(target="a", expr=KernelBuilder.mul("a", 2.0))

#: Reductions the block loop must not simply defer, split or re-shape,
#: and a register that must outlive the *first* of two references to it;
#: each is rare enough in the random kernels to be pinned here.
CORNER_KERNELS = {
    "local referenced twice by one expression": _one_loop(
        Assign(target="l0", expr=KernelBuilder.neg("a"), is_local=True),
        Assign(
            target="out0",
            expr=KernelBuilder.add(LocalRef("l0"), KernelBuilder.neg(LocalRef("l0"))),
        ),
    ),
    # NumPy takes sqrt for a scalar exponent of 0.5 and pow for an array
    # of them: a rank-0 value must never be spread over a register.
    "rank-0 exponent": _one_loop(
        Assign(
            target="out0",
            expr=KernelBuilder.pow("a", KernelBuilder.div(Load("z"), 0.5)),
        ),
    ),
    "buffer reduced, then overwritten": _one_loop(
        Reduce(target="r0", kind=ReduceKind.SUM, expr=Load("a")), _double_a
    ),
    "aliased buffer reduced, then overwritten": _one_loop(
        Assign(target="l0", expr=Load("a"), is_local=True),
        Reduce(target="r0", kind=ReduceKind.SUM, expr=LocalRef("l0")),
        _double_a,
    ),
    "buffer written, then reduced": _one_loop(
        _double_a, Reduce(target="r0", kind=ReduceKind.SUM, expr=Load("a"))
    ),
    "register allocation reduced": _one_loop(
        Assign(target="t", expr=KernelBuilder.mul("a", "b")),
        Reduce(target="r0", kind=ReduceKind.SUM, expr=Load("t")),
        Assign(target="out0", expr=KernelBuilder.add(Load("t"), 1.0)),
        allocs=("t",),
    ),
    "register local reduced": _one_loop(
        Assign(target="l0", expr=KernelBuilder.mul("a", "b"), is_local=True),
        Reduce(target="r0", kind=ReduceKind.SUM, expr=LocalRef("l0")),
        Assign(target="out0", expr=LocalRef("l0")),
    ),
    "rank-0 operands count elements": _one_loop(
        Reduce(target="r0", kind=ReduceKind.SUM, expr=Const(1.0)),
        Reduce(target="r1", kind=ReduceKind.SUM, expr=Load("s")),
        Reduce(target="r1", kind=ReduceKind.SUM, expr=KernelBuilder.mul("s", ScalarRef("k"))),
    ),
    "one target, several kinds": _one_loop(
        Reduce(target="r0", kind=ReduceKind.SUM, expr=KernelBuilder.mul("a", "b")),
        Reduce(target="r0", kind=ReduceKind.MAX, expr=Load("b")),
        Reduce(target="r0", kind=ReduceKind.PROD, expr=KernelBuilder.add("a", "out0")),
    ),
}


@pytest.mark.parametrize("name", list(CORNER_KERNELS))
def test_corner_kernels_match_the_interpreter(name):
    for seed in range(3):
        _assert_matches_interpreter(CORNER_KERNELS[name], seed)


# ----------------------------------------------------------------------
# The rank axis: one merged section that reduces by rows against the
# section's per-rank loop.
# ----------------------------------------------------------------------
RANKS = (1, 2, 5, 64)
RANK_TILES = (1, 3, 16, 17)  # 5 x 3 and up span more than one block of 8
PREFIX = "k0:"


def _section_geometry(function: Function, ranks: int, tile: int):
    """What the lowering would decide for ``function`` as a captured step:
    ``a, b, out0, out1`` tile their stores, ``s, z`` are replicated rank-0
    stores, ``r0, r1`` are reduction targets."""
    rects = [Rect((r * tile,), ((r + 1) * tile,)) for r in range(ranks)]
    tiled = RectTable.interned([(rect, rect.volume) for rect in rects], (ranks * tile,))
    replicated = RectTable.interned([(Rect((), ()), 1)] * ranks, ())
    bindings = []
    for slot, param in enumerate(function.buffer_params):
        table = replicated if param.name in SCALARS_0D else tiled
        bindings.append((param.name, slot, param.name in TARGETS, table))
    kernel = SimpleNamespace(reduces=True, executor=SimpleNamespace(stack_refusal=None))
    verdict = launch_verdict(kernel, bindings, ranks)
    return verdict.tile, verdict.why


def _section_kernel(function, mode, tile=None):
    """``function`` compiled as the only section of a super-kernel."""
    section = SuperKernelSection(
        prefix=PREFIX, function=function, mode=mode, reduction_params=TARGETS, tile=tile
    )
    source = generate_superkernel_source([section], "prop")
    return bind(source, source.plan, "prop")[0]


def _section_run(function, kernel, mode, tile, ranks, chunks, seed):
    """Run a :func:`_section_kernel` chunk by chunk.

    Returns the buffers and, per reduction target, the partial values in
    rank order (chunk results concatenated, as ``TaskExecutor.fold`` does).
    """
    buffers, scalars = _inputs(ranks * tile, False, seed)
    totals = {}
    for start, stop in chunks:
        bound = {}
        for param in function.buffer_params:
            array = buffers[param.name]
            if array is not None and mode == "merged":
                array = array[start * tile : stop * tile]
            elif array is not None:
                array = [array[r * tile : (r + 1) * tile] for r in range(start, stop)]
            bound[PREFIX + param.name] = array
        with np.errstate(all="ignore"):
            partials = kernel(bound, {PREFIX + "k": scalars["k"]})
        for target, partial_list in partials.items():
            assert len(partial_list) == stop - start
            totals.setdefault(target, []).extend(partial_list)
    return buffers, totals


def _assert_rows_match_rank_loop(function: Function, seed: int) -> None:
    used = function.buffers_read() | function.buffers_written()
    if used & set(SCALARS_0D):
        # A rank-0 buffer would become a column of the merged span, and
        # NumPy treats scalars and arrays differently (``power(x, 0.5)``):
        # the lowering keeps such a section ranked.
        for ranks in RANKS[1:]:
            assert _section_geometry(function, ranks, 3) == (None, "nd_or_broadcast_tiling")
        return
    params = tuple(p for p in function.params if p.name not in SCALARS_0D)
    function = Function(name=function.name, params=params, body=function.body)
    original = codegen.BLOCK
    codegen.BLOCK = BLOCK
    try:
        ranked = _section_kernel(function, "ranked")
        for tile in RANK_TILES:
            merged = _section_kernel(function, "merged", tile)
            for ranks in RANKS:
                if ranks > 1:
                    assert _section_geometry(function, ranks, tile) == (tile, None)
                whole = [(0, ranks)]
                middle = (ranks + 1) // 2
                split = [(0, middle), (middle, middle + 1), (middle + 1, ranks)]
                expected = _section_run(function, ranked, "ranked", tile, ranks, whole, seed)
                for chunks in (whole, [c for c in split if c[0] < c[1] <= ranks]):
                    actual = _section_run(function, merged, "merged", tile, ranks, chunks, seed)
                    context = f"{function.pretty()}\nranks={ranks} tile={tile} chunks={chunks}"
                    for name, array in expected[0].items():
                        if array is not None:
                            assert np.array_equal(
                                actual[0][name], array, equal_nan=True
                            ), f"buffer '{name}'\n{context}"
                    assert list(actual[1]) == list(expected[1]), context
                    for target, partial_list in expected[1].items():
                        for rank, (partial, other) in enumerate(
                            zip(partial_list, actual[1][target])
                        ):
                            assert type(other) is np.float64, context
                            assert partial.tobytes() == other.tobytes() or (
                                np.isnan(partial) and np.isnan(other)
                            ), f"partial '{target}' of rank {rank}: {partial} vs {other}\n{context}"
    finally:
        codegen.BLOCK = original


def test_row_reduce_matches_stacked_reduce():
    """The NumPy fact reducing by rows rests on, on *this* NumPy.

    ``ufunc.reduce(x.reshape(-1, tile), axis=1)[i]`` must equal the
    ``reduce(axis=None)`` of row ``i`` bit for bit.  NumPy promises no
    such thing, and the CI interpreters resolve different NumPy releases:
    a release where it stops holding must fail here, not diverge
    silently.  The full sweep and its output are in ``docs/bench/pr23/``.
    """
    path = Path(__file__).resolve().parents[1] / "docs/bench/pr23/reduce_identity_sweep.py"
    spec = importlib.util.spec_from_file_location("reduce_identity_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    tiles = tuple(range(1, 70)) + (127, 128, 129, 1000, 4097)
    compared, failures = sweep.mismatches((1, 2, 7, 64), tiles)
    assert compared == 4 * len(tiles) * 4 * (1 + len(sweep.ZERO_D))
    assert failures == []


@settings(max_examples=80, deadline=None)
@given(function=kernels(), seed=st.integers(0, 2**16))
def test_random_kernels_reduce_by_rows_like_the_rank_loop(function, seed):
    _assert_rows_match_rank_loop(function, seed)


@pytest.mark.parametrize("name", list(CORNER_KERNELS))
def test_corner_kernels_reduce_by_rows_like_the_rank_loop(name):
    for seed in range(3):
        _assert_rows_match_rank_loop(CORNER_KERNELS[name], seed)


# ----------------------------------------------------------------------
# Aliasing: legality of the block loop is proved per call.
# ----------------------------------------------------------------------
EXTENT = 40_000  # more than two blocks at the shipped block size


def _shift_right(x, _y):
    x[1:] = x[:-1]
    return x


def _shift_left(x, _y):
    x[:-1] = x[1:]
    return x


def _add_in_place(x, y):
    x += y
    return x


def _difference_chain(x, _y):
    return (x[1:] - x[:-1]) * 2.0 + 1.0


ALIASING_PROGRAMS = pytest.mark.parametrize(
    "program, num_gpus",
    # A shifted self-copy is one launch reading and writing overlapping
    # windows of one store: a single rank, so no rank sees another's write.
    [(_shift_right, 1), (_shift_left, 1), (_add_in_place, 4), (_difference_chain, 4)],
)


def _assert_program_matches_numpy(program, num_gpus, fusion, rounds):
    x_host = np.random.default_rng(0).uniform(0.5, 2.0, EXTENT)
    y_host = np.random.default_rng(1).uniform(0.5, 2.0, EXTENT)
    x_expected, y_expected = x_host.copy(), y_host.copy()
    set_context(RuntimeContext(num_gpus=num_gpus, fusion=fusion))
    try:
        x, y = cn.array(x_host), cn.array(y_host)
        for _ in range(rounds):
            expected = program(x_expected, y_expected)
            assert np.array_equal(program(x, y).to_numpy(), expected)
    finally:
        set_context(None)


@pytest.mark.parametrize("fusion", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("backend", ["codegen", "differential"])
@ALIASING_PROGRAMS
def test_aliasing_programs_match_numpy(program, num_gpus, backend, fusion, flags):
    flags(REPRO_KERNEL_BACKEND=backend)
    _assert_program_matches_numpy(program, num_gpus, fusion, rounds=1)


@pytest.mark.parametrize("trace", ["1", "0"], ids=["trace", "eager"])
@pytest.mark.parametrize("backend", ["codegen", "differential"])
@ALIASING_PROGRAMS
def test_aliasing_programs_match_numpy_on_poisoned_fields(
    program, num_gpus, backend, trace, flags, poison_fields
):
    """Fields a launch defines whole arrive as NaN bytes (the allocation
    lever of ``conftest.py``) instead of zeros; three rounds, so with
    tracing on the third is a replay."""
    flags(REPRO_KERNEL_BACKEND=backend, REPRO_TRACE=trace)
    _assert_program_matches_numpy(program, num_gpus, fusion=True, rounds=3)


def test_overlapping_written_window_runs_as_one_block():
    """Partial overlap falls to one block; identical or disjoint windows block."""
    builder = KernelBuilder("scaled_copy")
    builder.buffers("a", "out")
    builder.loop("out").assign("out", KernelBuilder.mul("a", 2.0)).end_loop()
    kernel = lower(builder.build(), KernelBinding(), backend="codegen")
    stats = codegen_stats()
    x = np.arange(float(EXTENT))

    before = stats.multi_block_calls
    kernel({"a": x[:-1], "out": x[1:]}, {})  # block k+1 would read block k's write
    assert stats.multi_block_calls == before
    assert np.array_equal(x[1:], 2.0 * np.arange(float(EXTENT - 1)))

    kernel({"a": x, "out": x}, {})  # identical windows: in place
    assert stats.multi_block_calls == before + 1
    assert np.array_equal(x[1:], 4.0 * np.arange(float(EXTENT - 1)))
    y = np.empty(EXTENT)
    kernel({"a": x, "out": y}, {})  # disjoint windows
    assert stats.multi_block_calls == before + 2
    assert np.array_equal(y, 2.0 * x)


# ----------------------------------------------------------------------
# Engagement: one workload on each side of the block boundary.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "app, kwargs, blocked",
    [
        ("black-scholes", dict(elements_per_gpu=65536), True),
        ("cg", dict(grid_points_per_gpu=4), False),  # 16 rows per rank
    ],
)
def test_block_loop_engagement_is_observable(app, kwargs, blocked, flags):
    # Worker processes keep their own count; run the closures here.
    flags(REPRO_POINT_WORKERS=1)
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    try:
        build_application(app, context=context, **kwargs).run(3)
    finally:
        set_context(None)
    calls = context.profiler.snapshot()["multi_block_calls"]
    assert calls > 0 if blocked else calls == 0
