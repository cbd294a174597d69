"""The generated body and its driver (``kernel/codegen.py``).

A generated kernel is a body that holds only what touches data — the
ufunc calls of each loop's block, the reductions after each loop and a
ranked section's rank loop — and one hand-written driver (``_run`` over
a ``KernelPlan``) does the rest: buffer lookups, guards, scalar
conversion, block planning and the packaging of partials.  These tests
pin that shape on real programs (the Black-Scholes chain, a generated
``stream-churn`` program, CG's merged and ranked super-kernels), the
driver's error and fallback paths, the ``_erf`` helper's bits and the
JIT counters ``tracedump --summary`` reports.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.apps  # noqa: F401 - registers the applications
import repro.frontend.cunumeric as cn
from repro import config
from repro.apps.base import build_application
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.kernel import codegen
from repro.kernel.builder import KernelBuilder
from repro.kernel.kir import Assign, BinOp, BinOpKind, Const, Function, Load, Loop, Param
from repro.kernel.kir import Reduce, ReduceKind, _erf, _erf_into
from repro.kernel.lowering import lower
from repro.kernel.passes.compose import KernelBinding
from repro.runtime import superkernel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2ebench import churn  # noqa: E402

#: Text only the driver may spell: lookups, guards, conversions, block
#: planning, scratch initialisation and partial packaging.
PLUMBING = ("buffers[", "scalars[", "raise", "_plan_blocks", "is None", "= None",
            "np.float64(scalars", "ReductionPartial", "_partials")

DEF = re.compile(r"def __kernel__\(_k(, \w+)*\):  # (super-)?kernel '\w+'$")
BLOCK_LOOP = re.compile(r"\s+for [\w, ]+ in _k\.blocks\(\d+(, \w+)*\):$")
RANK_LOOP = re.compile(r"\s+for [\w, ]+ in zip\([\w, ]+\):$")
FULLS = re.compile(r"\s+[\w, ]+ = _k\.fulls\([\w, ]+\)$")
RETURN = re.compile(r"\s+return [\w, ]+$")


@pytest.fixture
def sources(monkeypatch):
    """Every body generated while the test runs, with its plan."""
    seen = []
    for owner, name in ((codegen, "generate_source"), (superkernel, "generate_superkernel_source")):
        original = getattr(owner, name)

        def recording(*args, _original=original, **kwargs):
            source = _original(*args, **kwargs)
            seen.append(source)
            return source

        monkeypatch.setattr(owner, name, recording)
    return seen


def assert_body_only(source) -> None:
    """Nothing but data statements, their loops, the ``def`` and the ``return``.

    Every line is a data statement (a ufunc or ``_erf_into`` call, a
    copy, a reduction or its combine, a per-rank append), a loop header
    (one per block loop, one per ranked section) or the one rebinding of
    a block loop's full-length values; besides those a body has its
    ``def`` line and at most one ``return``.  So the lines number at
    most the body statements + 2, where a body statement is a data
    statement or a loop's header or rebinding.
    """
    for text in PLUMBING:
        assert text not in source, (text, source)
    lines = source.splitlines()
    assert DEF.match(lines[0]), lines[0]
    returns = [line for line in lines[1:] if RETURN.match(line)]
    assert len(returns) <= 1 and (not returns or lines[-1] == returns[0]), source
    block_loops = [line for line in lines if BLOCK_LOOP.match(line)]
    structure = block_loops + [
        line for line in lines if RANK_LOOP.match(line) or FULLS.match(line)
    ]
    data = [line for line in lines[1:] if line not in structure and line not in returns]
    assert all(line.strip() for line in data), source
    assert len(lines) <= len(data) + len(structure) + 2
    # A block loop costs its header and at most one rebinding.
    assert len(structure) <= 2 * len(block_loops) + source.count(" in zip(")
    assert len(block_loops) == len(source.plan.loops)


def _run_app(name, num_gpus, iterations, **kwargs):
    context = RuntimeContext(num_gpus=num_gpus, fusion=True)
    set_context(context)
    try:
        build_application(name, context=context, **kwargs).run(iterations)
    finally:
        set_context(None)
    return context


@pytest.fixture
def replay(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    config.reload_flags()
    yield
    config.reload_flags()


# ----------------------------------------------------------------------
# The shape of generated bodies on real programs.
# ----------------------------------------------------------------------
def test_black_scholes_chain_is_its_ufunc_calls(sources, replay):
    _run_app("black-scholes", 4, 3, elements_per_gpu=4096)
    assert sources
    for source in sources:
        assert_body_only(source)
    # Each erf is one helper call, not its 21 ufunc calls.
    text = "".join(sources)
    assert "_erf_into(" in text and "np.sign(" not in text and "np.copysign(" not in text
    # One block loop, no reduction: the def, the loop header and the calls.
    assert all(len(source.plan.loops) == 1 for source in sources)


def test_a_generated_churn_program_is_its_ufunc_calls(sources, replay):
    inputs, programs = churn.generate_session(3, 4 * 64, 4)
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    try:
        arrays = [cn.array(data) for data in inputs]
        for program in programs:
            for _ in range(3):
                context.begin_iteration()
                churn.evaluate(cn, program, arrays)
                context.flush()
    finally:
        set_context(None)
    assert len(sources) > 4
    reducing = [source for source in sources if source.plan.partials]
    assert reducing
    for source in sources:
        assert_body_only(source)


@pytest.mark.parametrize(
    "num_gpus, points, shape",
    [(64, 4, "merged"), (3, 7, "ranked")],  # 16 rows per rank; 57, 57, 55
)
def test_cg_super_kernels_are_their_ufunc_calls(sources, replay, monkeypatch, num_gpus, points, shape):
    monkeypatch.setattr(superkernel, "SPECULATIVE_LOWERINGS", 64)
    _run_app("cg", num_gpus, 6, grid_points_per_gpu=points)
    fused = [source for source in sources if "super-kernel" in source.splitlines()[0]]
    assert fused
    for source in sources:
        assert_body_only(source)
    for source in fused:
        assert (" in zip(" in source) == (shape == "ranked")
        assert source.plan.lists == (len(source.plan.partials) if shape == "ranked" else 0)
        if shape == "merged":
            assert ".reshape(-1, 16), axis=1)" in source


# ----------------------------------------------------------------------
# The driver's error and fallback paths.
# ----------------------------------------------------------------------
EXTENT = 40


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(codegen, "BLOCK", 8)


def test_a_missing_buffer_raises_before_anything_runs():
    builder = KernelBuilder("k")
    builder.buffers("a", "out", "late")
    builder.loop("a").assign("out", "a").end_loop()
    builder.loop("a").assign("late", "a").end_loop()
    kernel = lower(builder.build(), KernelBinding(), backend="codegen")
    out = np.zeros(4)
    with pytest.raises(RuntimeError, match="buffer 'late' is not materialised"):
        kernel({"a": np.ones(4), "out": out, "late": None}, {})
    assert not out.any()  # the first loop never ran


def test_a_reduction_hazard_runs_its_loop_as_one_block(small_blocks):
    """``sum(x)`` then ``x = 2 * x`` in one loop: the reduction cannot wait
    for the end of a block loop, so the loop never blocks."""
    function = Function(
        name="k",
        params=(Param.buffer("x"), Param.buffer("r")),
        body=(
            Loop(index_buffer="x", body=(
                Reduce(target="r", kind=ReduceKind.SUM, expr=Load("x")),
                Assign(target="x", expr=BinOp(BinOpKind.MUL, Load("x"), Const(2.0))),
            )),
        ),
    )
    source = codegen.generate_source(function)
    assert source.plan.loops[0][0] == -1  # no reference: always one block
    stats = codegen.codegen_stats()
    before = stats.multi_block_calls
    x = np.arange(float(EXTENT))
    expected = float(np.add.reduce(x, axis=None))
    partials = lower(function, KernelBinding(), backend="codegen")({"x": x, "r": None}, {})
    assert partials["r"].value == expected and partials["r"].kind is ReduceKind.SUM
    assert np.array_equal(x, 2.0 * np.arange(float(EXTENT)))
    assert stats.multi_block_calls == before


def test_multi_block_calls_count_calls_not_loops(small_blocks):
    builder = KernelBuilder("two_loops")
    builder.buffers("a", "b", "c")
    builder.loop("a").assign("b", KernelBuilder.add("a", 1.0)).end_loop()
    builder.loop("b").assign("c", KernelBuilder.mul("b", 3.0)).end_loop()
    kernel = lower(builder.build(), KernelBinding(), backend="codegen")
    assert len(kernel.source.plan.loops) == 2
    stats = codegen.codegen_stats()
    before = stats.multi_block_calls
    a, b, c = np.arange(float(EXTENT)), np.empty(EXTENT), np.empty(EXTENT)
    kernel({"a": a, "b": b, "c": c}, {})
    assert stats.multi_block_calls == before + 1
    assert np.array_equal(c, (a + 1.0) * 3.0)
    kernel({"a": a[:4], "b": b[:4], "c": c[:4]}, {})  # one block: not counted
    assert stats.multi_block_calls == before + 1


# ----------------------------------------------------------------------
# The ``_erf`` helper.
# ----------------------------------------------------------------------
def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_erf_helper_is_bit_identical_to_the_spec_and_odd():
    rng = np.random.default_rng(5)
    x = np.concatenate([
        rng.normal(0.0, 2.0, 997),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, 7.0, -7.0],
    ])
    expected = _bits(_erf(x))
    fresh = _erf_into(x, None, None, None, None, None)
    assert np.array_equal(_bits(fresh), expected)
    # Into registers, the result landing on one of them or on the input.
    for out_index in range(5):
        registers = [np.empty_like(x) for _ in range(4)]
        operand = x.copy()
        out = registers[out_index] if out_index < 4 else operand
        result = _erf_into(operand, out, *registers)
        assert result is out and np.array_equal(_bits(result), expected)
    # Odd bit for bit, which the normalisation pass's rewrite
    # erf(neg x) -> neg erf(x) relies on.
    negated = _erf_into(-x, None, None, None, None, None)
    assert np.array_equal(_bits(negated), _bits(-fresh))


# ----------------------------------------------------------------------
# What ``tracedump --summary`` reports about the JIT.
# ----------------------------------------------------------------------
def test_jit_counters_count_compiled_lines_and_time():
    stats = codegen.codegen_stats()
    builder = KernelBuilder("jit_counters_probe")
    builder.buffers("a", "b")
    builder.loop("b").assign("b", KernelBuilder.add("a", 41.0)).end_loop()
    function = builder.build()
    lines, seconds = stats.source_lines, stats.compile_seconds
    first = lower(function, KernelBinding(), backend="codegen")
    assert first.freshly_compiled
    assert stats.source_lines == lines + first.source.count("\n") == lines + 3
    assert stats.compile_seconds > seconds
    lines, seconds = stats.source_lines, stats.compile_seconds
    lower(function, KernelBinding(), backend="codegen")  # a cache hit
    assert (stats.source_lines, stats.compile_seconds) == (lines, seconds)
    codegen.clear_function_cache()
    assert (stats.source_compilations, stats.source_lines, stats.compile_seconds) == (0, 0, 0.0)
