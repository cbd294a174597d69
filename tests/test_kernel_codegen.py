"""Tests of the codegen JIT backend (interpreter/codegen differential).

The codegen backend must be observationally *identical* to the
tree-walking interpreter: every registered generator kernel, and the
fused kernels produced by real application windows, must write the same
bits to every buffer and produce the same reduction partials.  These
tests also pin the compile-once contract: a canonical kernel key invokes
the builtin ``compile`` at most once per process, and memoization-hit
rounds never re-enter ``JITCompiler.compile``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import config
from repro.experiments.harness import ExperimentScale, run_application_experiment
from repro.kernel.builder import KernelBuilder
from repro.kernel.codegen import (
    CodegenError,
    CodegenExecutor,
    codegen_stats,
    generate_source,
)
from repro.kernel.generators import default_registry
from repro.kernel.kir import (
    Alloc,
    Assign,
    BinOp,
    BinOpKind,
    Const,
    Function,
    Load,
    Loop,
    Param,
    Reduce,
    ReduceKind,
)
from repro.kernel.lowering import (
    BackendDivergenceError,
    DifferentialExecutor,
    InterpreterExecutor,
    lower,
)
from repro.kernel.passes.compose import KernelBinding
from repro.kernel.passes.pipeline import default_pipeline


def _reduce_only_targets(function: Function):
    """Buffers only ever written by Reduce statements (passed as None)."""
    reduced = set()
    assigned = set()
    loaded = function.buffers_read()
    for loop in function.loops:
        for stmt in loop.body:
            if hasattr(stmt, "kind"):
                reduced.add(stmt.target)
            elif not getattr(stmt, "is_local", False):
                assigned.add(stmt.target)
    return reduced - assigned - loaded


def _make_buffers(function: Function, rng: np.random.Generator, size: int = 16):
    """Random, well-conditioned inputs for every buffer parameter."""
    reduce_only = _reduce_only_targets(function)
    buffers = {}
    for param in function.buffer_params:
        if param.name in reduce_only:
            buffers[param.name] = None
        else:
            buffers[param.name] = rng.uniform(0.5, 2.0, size=size)
    scalars = {param.name: float(rng.uniform(0.5, 2.0)) for param in function.scalar_params}
    return buffers, scalars


def _run_both(function: Function, buffers, scalars):
    """Run interpreter and codegen on identical inputs; return outputs."""
    results = []
    for backend in ("interpreter", "codegen"):
        local = {
            name: None if array is None else array.copy()
            for name, array in buffers.items()
        }
        executor = lower(function, KernelBinding(), backend=backend)
        partials = executor(local, dict(scalars))
        results.append((local, partials))
    return results


def _assert_identical(function: Function, buffers, scalars):
    (int_buffers, int_partials), (cg_buffers, cg_partials) = _run_both(
        function, buffers, scalars
    )
    for name in buffers:
        if int_buffers[name] is None:
            assert cg_buffers[name] is None
            continue
        np.testing.assert_array_equal(
            int_buffers[name],
            cg_buffers[name],
            err_msg=f"kernel '{function.name}' buffer '{name}' diverged",
        )
    assert set(int_partials) == set(cg_partials)
    for target, partial in int_partials.items():
        other = cg_partials[target]
        assert partial.kind is other.kind
        assert partial.value == other.value or (
            np.isnan(partial.value) and np.isnan(other.value)
        ), f"kernel '{function.name}' partial '{target}' diverged"


class TestRegistryDifferential:
    """Every registered generator kernel is bit-identical across backends."""

    @pytest.mark.parametrize("task_name", default_registry().registered_names())
    def test_generator_kernel_bit_identical(self, task_name):
        registry = default_registry()
        function = registry.generate(SimpleNamespace(task_name=task_name))
        assert function is not None
        rng = np.random.default_rng(hash(task_name) % (2**32))
        buffers, scalars = _make_buffers(function, rng)
        _assert_identical(function, buffers, scalars)

    @pytest.mark.parametrize("task_name", default_registry().registered_names())
    def test_optimised_kernel_bit_identical(self, task_name):
        """The pass pipeline's output also matches across backends."""
        registry = default_registry()
        function = registry.generate(SimpleNamespace(task_name=task_name))
        optimised = default_pipeline().run(function, KernelBinding())
        rng = np.random.default_rng(hash(task_name) % (2**32) + 1)
        buffers, scalars = _make_buffers(optimised, rng)
        _assert_identical(optimised, buffers, scalars)


class TestFusedKernelDifferential:
    """Hand-built fused kernels with locals, allocs and repeated reduces."""

    def test_fused_kernel_with_alloc_and_locals(self):
        builder = KernelBuilder("fused")
        builder.buffers("x", "y", "out", "acc")
        alpha = builder.scalar("s0")
        builder.loop("out")
        local = builder.let("t", KernelBuilder.mul(alpha, "x"))
        builder.assign("out", KernelBuilder.add(local, "y"))
        builder.reduce("acc", KernelBuilder.mul("out", "out"), ReduceKind.SUM)
        builder.end_loop()
        function = builder.build()
        # Prepend a task-local allocation referencing a real buffer.
        function = function.with_body(
            (Alloc(name="tmp", like="x"),)
            + tuple(function.body[:-1])
            + (
                Loop(
                    index_buffer="x",
                    body=(Assign(target="tmp", expr=Load("x")),),
                ),
            )
            + function.body[-1:]
        )
        rng = np.random.default_rng(7)
        buffers, scalars = _make_buffers(function, rng)
        _assert_identical(function, buffers, scalars)

    def test_repeated_reduction_targets_combine(self):
        builder = KernelBuilder("multi_reduce")
        builder.buffers("x", "acc")
        builder.loop("x")
        builder.reduce("acc", "x", ReduceKind.SUM)
        builder.reduce("acc", KernelBuilder.mul("x", "x"), ReduceKind.SUM)
        builder.end_loop()
        function = builder.build()
        rng = np.random.default_rng(11)
        buffers, scalars = _make_buffers(function, rng)
        _assert_identical(function, buffers, scalars)

    def test_scalar_reduction_broadcasts_over_index_space(self):
        builder = KernelBuilder("count")
        builder.buffers("x", "acc")
        builder.loop("x")
        builder.reduce("acc", 1.0, ReduceKind.SUM)
        builder.end_loop()
        function = builder.build()
        buffers = {"x": np.zeros(9), "acc": None}
        _assert_identical(function, buffers, {})
        executor = lower(function, KernelBinding(), backend="codegen")
        partials = executor({"x": np.zeros(9), "acc": None}, {})
        assert partials["acc"].value == 9.0

    def test_rank0_buffer_reduce_broadcasts_like_interpreter(self):
        """A load from a runtime-0-d buffer broadcasts over the index space."""
        function = Function(
            name="edge",
            params=(Param.buffer("x"), Param.buffer("s"), Param.buffer("acc")),
            body=(
                Loop(
                    index_buffer="x",
                    body=(Reduce(target="acc", kind=ReduceKind.SUM, expr=Load("s")),),
                ),
            ),
        )
        buffers = {"x": np.arange(4.0), "s": np.array(2.0), "acc": None}
        _assert_identical(function, buffers, {})
        partials = lower(function, KernelBinding(), backend="codegen")(
            dict(buffers), {}
        )
        assert partials["acc"].value == 8.0  # 2.0 broadcast over 4 elements

    def test_min_max_prod_reductions(self):
        builder = KernelBuilder("mixed")
        builder.buffers("x", "lo", "hi", "prod")
        builder.loop("x")
        builder.reduce("lo", "x", ReduceKind.MIN)
        builder.reduce("hi", "x", ReduceKind.MAX)
        builder.reduce("prod", "x", ReduceKind.PROD)
        builder.end_loop()
        function = builder.build()
        rng = np.random.default_rng(13)
        buffers, scalars = _make_buffers(function, rng)
        _assert_identical(function, buffers, scalars)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
class TestNonFiniteConstants:
    """``Const(inf)`` / ``Const(nan)`` must generate source that compiles.

    ``repr(float("inf"))`` is ``inf``, which is not a name in the
    generated module: the backends disagreed by ``NameError``.
    """

    def test_elementwise_operand(self, value):
        function = Function(
            name="clamp",
            params=(Param.buffer("x"), Param.buffer("out")),
            body=(
                Loop(
                    index_buffer="out",
                    body=(
                        Assign("out", BinOp(BinOpKind.MIN, Load("x"), Const(value))),
                    ),
                ),
            ),
        )
        buffers = {"x": np.array([-np.inf, -1.0, 0.0, 2.5, np.inf]), "out": np.zeros(5)}
        _assert_identical(function, buffers, {})

    @pytest.mark.parametrize("kind", list(ReduceKind), ids=lambda kind: kind.name)
    def test_reduction_operand(self, value, kind):
        function = Function(
            name="reduce_const",
            params=(Param.buffer("x"), Param.buffer("bare"), Param.buffer("mixed")),
            body=(
                Loop(
                    index_buffer="x",
                    body=(
                        Reduce(target="bare", kind=kind, expr=Const(value)),
                        Reduce(
                            target="mixed",
                            kind=kind,
                            expr=BinOp(BinOpKind.MAX, Load("x"), Const(value)),
                        ),
                    ),
                ),
            ),
        )
        buffers = {"x": np.arange(1.0, 5.0), "bare": None, "mixed": None}
        _assert_identical(function, buffers, {})


class TestCodegenContract:
    """Error handling and the structure of generated source."""

    def test_written_none_buffer_raises_like_interpreter(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "out")
        builder.loop("a").assign("out", "a").end_loop()
        function = builder.build()
        for backend in ("interpreter", "codegen"):
            executor = lower(function, KernelBinding(), backend=backend)
            with pytest.raises(RuntimeError, match="not materialised"):
                executor({"a": np.ones(4), "out": None}, {})

    def test_alloc_with_none_reference_raises_like_interpreter(self):
        function = Function(
            name="k",
            params=(Param.buffer("ref"), Param.buffer("out")),
            body=(
                Alloc(name="tmp", like="ref"),
                Loop(index_buffer="out", body=(Assign(target="out", expr=Load("tmp")),)),
            ),
        )
        for backend in ("interpreter", "codegen"):
            executor = lower(function, KernelBinding(), backend=backend)
            with pytest.raises(RuntimeError, match="no reference buffer"):
                executor({"ref": None, "out": np.ones(4)}, {})

    def test_unknown_load_is_a_codegen_error(self):
        function = Function(
            name="k",
            params=(Param.buffer("out"),),
            body=(
                Loop(index_buffer="out", body=(Assign(target="out", expr=Load("ghost")),)),
            ),
        )
        with pytest.raises(CodegenError, match="undeclared"):
            generate_source(function)

    def test_unknown_backend_rejected(self):
        builder = KernelBuilder("k")
        builder.buffers("a")
        builder.loop("a").assign("a", 1.0).end_loop()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            lower(builder.build(), KernelBinding(), backend="llvm")

    def test_differential_executor_detects_divergence(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "out")
        builder.loop("a").assign("out", KernelBuilder.mul("a", 2.0)).end_loop()
        function = builder.build()
        executor = DifferentialExecutor(function, KernelBinding())
        # Sabotage the codegen closure to return corrupted buffers.
        good_fn = executor.codegen._fn

        def bad_fn(buffers, scalars, block=None, scratch=None):
            partials = good_fn(buffers, scalars, block, scratch)
            buffers["out"][0] += 1.0
            return partials

        executor.codegen._fn = bad_fn
        with pytest.raises(BackendDivergenceError, match="disagree on buffer"):
            executor({"a": np.ones(4), "out": np.zeros(4)}, {})

    def test_source_compiled_once_per_structure(self):
        builder = KernelBuilder("same")
        builder.buffers("a", "b")
        builder.loop("b").assign("b", KernelBuilder.add("a", 1.0)).end_loop()
        function = builder.build()
        stats = codegen_stats()
        first = CodegenExecutor(function, KernelBinding())
        baseline = stats.source_compilations
        second = CodegenExecutor(function, KernelBinding())
        assert stats.source_compilations == baseline  # cache hit, no compile()
        assert first.source == second.source
        assert not second.freshly_compiled


class TestApplicationDifferential:
    """End-to-end: whole applications under the differential backend."""

    @pytest.mark.parametrize("app", ["cg", "jacobi", "black-scholes"])
    def test_application_backends_agree(self, app, monkeypatch):
        checksums = {}
        for backend in ("interpreter", "differential", "codegen"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
            monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
            config.reload_flags()
            result = run_application_experiment(
                app, num_gpus=4, fusion=True, iterations=3, warmup_iterations=1
            )
            checksums[backend] = result.checksum
        config.reload_flags()
        assert checksums["interpreter"] == checksums["codegen"]
        assert checksums["interpreter"] == checksums["differential"]

    def test_seed_path_matches_cached_path(self, monkeypatch):
        checksums = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_HOTPATH_CACHE", flag)
            config.reload_flags()
            result = run_application_experiment(
                "cg", num_gpus=4, fusion=True, iterations=3, warmup_iterations=1
            )
            checksums[flag] = result.checksum
        config.reload_flags()
        assert checksums["0"] == checksums["1"]


class TestCompileOnce:
    """The submit→fuse→execute hot path never recompiles on replay."""

    def test_memoization_hits_do_not_reenter_compile(self, flags):
        from repro.frontend.legate.context import RuntimeContext, set_context
        from repro.apps.base import build_application

        flags(REPRO_TRACE=1)
        context = RuntimeContext(num_gpus=4, fusion=True)
        set_context(context)
        try:
            app = build_application("cg", context=context, grid_points_per_gpu=16)
            app.run(3)  # warm-up: all canonical keys observed and compiled
            compiler = context.diffuse.compiler
            compilations = compiler.stats.compilations
            cache_size = compiler.cache_size
            hits_before = context.diffuse.cache.hits
            trace_hits_before = context.profiler.trace_hits
            assert compilations > 0
            app.run(5)  # every epoch replays its plan: no window round
            assert context.profiler.trace_hits > trace_hits_before
            assert context.diffuse.cache.hits == hits_before
            assert compiler.stats.compilations == compilations
            # A trace miss over windows already seen (a liveness or
            # scalar-pattern change does this) runs the rounds again:
            # every one a memoization hit that re-enters no compile.
            context.diffuse.trace.cache.clear()
            app.run(2)
            assert context.diffuse.cache.hits > hits_before
            assert compiler.stats.compilations == compilations
            assert compiler.cache_size == cache_size
            # Each cached canonical key was compiled exactly once.
            assert compiler.stats.compilations >= compiler.cache_size
            assert compiler.stats.cache_hits > 0
        finally:
            set_context(None)

    def test_codegen_closures_compiled_once_across_sweep(self, monkeypatch):
        """A weak-scaling sweep reuses closures across compiler instances."""
        from repro.experiments.weak_scaling import run_weak_scaling

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        stats = codegen_stats()
        scale = ExperimentScale({"grid_points_per_gpu": 16}, 1e-5, 2, 1)
        run_weak_scaling("cg", gpu_counts=(1, 2), scale=scale)
        compiled_after_first = stats.source_compilations
        reuses_after_first = stats.source_cache_hits
        # The same sweep again: every kernel source is already compiled.
        run_weak_scaling("cg", gpu_counts=(1, 2), scale=scale)
        assert stats.source_compilations == compiled_after_first
        assert stats.source_cache_hits > reuses_after_first


class TestBindingMetadata:
    """compose.py attaches access metadata for the runtime executor."""

    def test_metadata_reflects_optimised_function(self):
        from repro.frontend.legate.context import RuntimeContext, set_context
        from repro.apps.base import build_application

        context = RuntimeContext(num_gpus=2, fusion=True)
        set_context(context)
        try:
            app = build_application("cg", context=context, grid_points_per_gpu=16)
            app.run(2)
            compiler = context.diffuse.compiler
            assert compiler.cache_size > 0
            for kernel in compiler._cache.values():
                binding = kernel.binding
                assert binding.buffer_order == tuple(binding.buffer_args.items())
                assert binding.scalar_order == tuple(binding.scalar_args.items())
        finally:
            set_context(None)


class TestSpmvEmptyRows:
    """SpMV handles matrices with empty rows, including trailing ones."""

    @pytest.mark.parametrize("cache_flag", ["0", "1"])
    def test_trailing_empty_rows(self, cache_flag, monkeypatch):
        from repro.frontend.legate.context import runtime_context
        from repro.frontend.sparse.csr import csr_from_dense
        import repro.frontend.cunumeric as cn

        monkeypatch.setenv("REPRO_HOTPATH_CACHE", cache_flag)
        config.reload_flags()
        dense = np.zeros((6, 6))
        dense[0, 0] = 2.0
        dense[1, 1] = 3.0
        dense[2, 0] = 1.0
        dense[3, :] = 0.0  # interior empty row
        # Rows 4 and 5 are empty too: the block's trailing rows.
        with runtime_context(num_gpus=1, fusion=True):
            matrix = csr_from_dense(dense)
            x = cn.array(np.arange(1.0, 7.0), name="x")
            y = matrix.dot(x)
            result = y.to_numpy()
        config.reload_flags()
        np.testing.assert_allclose(result, dense @ np.arange(1.0, 7.0))


class TestRegionViewCache:
    """Region fields memoize sub-store views and can invalidate them."""

    def test_views_are_cached_and_observe_writes(self):
        from repro.ir.domain import Rect
        from repro.ir.store import StoreManager
        from repro.runtime.region import RegionField

        store = StoreManager().create_store((8,))
        field = RegionField(store)
        rect = Rect((2,), (6,))
        first = field.view(rect)
        assert field.view(rect) is first  # memoized
        field.data[3] = 7.0
        assert first[1] == 7.0  # a view, not a copy
        field.invalidate_views()
        fresh = field.view(rect)
        assert fresh is not first
        np.testing.assert_array_equal(fresh, field.data[2:6])


class TestTaskLocalTemporaries:
    """Task-local temporaries are block registers, filled where defined.

    A loop-local value or a non-escaping allocation lives in a
    block-sized scratch register: nothing of full length is allocated
    for it, and because the register is written at the temporary's
    *definition* (never re-evaluated at a use site), later writes to the
    buffers it was computed from cannot change it.  ``BLOCK`` is shrunk
    so every case runs both as one block and as several.
    """

    EXTENTS = (8, 37)  # one block, several blocks with a ragged tail

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        from repro.kernel import codegen

        monkeypatch.setattr(codegen, "BLOCK", 8)

    def _alloc_chain(self, middle=()):
        """t = x * y (t alloc'd), [middle...], out = t + y."""
        body = (
            (Alloc(name="t", like="x"),)
            + (
                Loop(
                    index_buffer="x",
                    body=(
                        Assign(
                            target="t",
                            expr=KernelBuilder.mul("x", "y"),
                        ),
                    )
                    + tuple(middle)
                    + (
                        Assign(
                            target="out",
                            expr=KernelBuilder.add(Load("t"), Load("y")),
                        ),
                    ),
                ),
            )
        )
        return Function(
            name="fold_alloc",
            params=(Param.buffer("x"), Param.buffer("y"), Param.buffer("out")),
            body=body,
        )

    def _assert_identical_at_every_extent(self, function, seed):
        for size in self.EXTENTS:
            rng = np.random.default_rng(seed)
            _assert_identical(function, *_make_buffers(function, rng, size=size))

    def test_single_use_local(self):
        builder = KernelBuilder("fold_local")
        builder.buffers("x", "y", "out")
        builder.loop("out")
        local = builder.let("t", KernelBuilder.mul("x", "y"))
        builder.assign("out", KernelBuilder.add(local, "y"))
        builder.end_loop()
        self._assert_identical_at_every_extent(builder.build(), 3)

    def test_multi_use_local(self):
        builder = KernelBuilder("keep_local")
        builder.buffers("x", "out")
        builder.loop("out")
        local = builder.let("t", KernelBuilder.mul("x", "x"))
        builder.assign("out", KernelBuilder.add(local, local))
        builder.end_loop()
        self._assert_identical_at_every_extent(builder.build(), 4)

    def test_non_escaping_alloc_is_never_allocated_at_full_length(self, monkeypatch):
        import tracemalloc

        from repro.kernel import codegen

        function = self._alloc_chain()
        self._assert_identical_at_every_extent(function, 5)
        # Behaviour, not spelling: at the real block size, a call over
        # 2 MiB tiles allocates a few 128 KiB registers and nothing of
        # the tiles' length (NumPy reports its buffers to tracemalloc).
        monkeypatch.setattr(codegen, "BLOCK", 16384)
        size = 1 << 18
        executor = lower(function, KernelBinding(), backend="codegen")
        buffers = {name: np.ones(size) for name in ("x", "y", "out")}
        tracemalloc.start()
        try:
            executor(buffers, {})
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < buffers["x"].nbytes // 2, peak
        np.testing.assert_array_equal(buffers["out"], np.full(size, 2.0))

    def test_intervening_write_does_not_reach_the_temporary(self):
        # t = x * y; y[...] = x; out = t + y — t holds the *old* y.
        middle = (Assign(target="y", expr=Load("x")),)
        function = self._alloc_chain(middle)
        self._assert_identical_at_every_extent(function, 6)
        for size in self.EXTENTS:
            x, y = np.arange(1.0, size + 1.0), np.full(size, 3.0)
            buffers = {"x": x.copy(), "y": y.copy(), "out": np.zeros(size)}
            lower(function, KernelBinding(), backend="codegen")(buffers, {})
            np.testing.assert_array_equal(buffers["out"], x * y + x)

    def test_load_free_definition_keeps_full_shape_semantics(self):
        # A definition without any buffer load evaluates to a 0-d value;
        # the allocation it is assigned to has the loop's full shape, so
        # reducing it counts every element.
        function = Function(
            name="scalar_alloc",
            params=(Param.buffer("x"), Param.buffer("acc")),
            body=(
                Alloc(name="t", like="x"),
                Loop(
                    index_buffer="x",
                    body=(
                        Assign(target="t", expr=KernelBuilder.mul(2.0, 3.0)),
                        Reduce(target="acc", kind=ReduceKind.SUM, expr=Load("t")),
                    ),
                ),
            ),
        )
        for size in self.EXTENTS:
            buffers = {"x": np.arange(float(size)), "acc": None}
            _assert_identical(function, buffers, {})
            partials = lower(function, KernelBinding(), backend="codegen")(buffers, {})
            assert partials["acc"].value == 6.0 * size

    def test_fused_application_kernels_still_identical(self, monkeypatch):
        """End-to-end: app checksums stay bit-identical."""
        scale = ExperimentScale({"elements_per_gpu": 128}, 4e-5, 3, 2)
        results = {}
        try:
            for backend in ("interpreter", "codegen"):
                monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
                config.reload_flags()
                results[backend] = run_application_experiment(
                    "black-scholes", num_gpus=4, fusion=True, scale=scale
                ).checksum
        finally:
            # monkeypatch restores the environment after the test; the
            # memoized flag must be re-read from the restored value.
            monkeypatch.undo()
            config.reload_flags()
        assert results["interpreter"] == results["codegen"]

    def test_local_reassignment_does_not_reach_the_temporary(self):
        # t = l * y with l reassigned between t's definition and use:
        # t was computed from the *old* l.
        from repro.kernel.kir import BinOp, BinOpKind, LocalRef

        function = Function(
            name="local_hazard",
            params=(
                Param.buffer("x"),
                Param.buffer("y"),
                Param.buffer("z"),
                Param.buffer("out"),
            ),
            body=(
                Loop(
                    index_buffer="out",
                    body=(
                        Assign(target="l", expr=Load("x"), is_local=True),
                        Assign(
                            target="t",
                            expr=BinOp(BinOpKind.MUL, LocalRef("l"), Load("y")),
                            is_local=True,
                        ),
                        Assign(target="l", expr=Load("z"), is_local=True),
                        Assign(
                            target="out",
                            expr=BinOp(BinOpKind.ADD, LocalRef("t"), LocalRef("l")),
                        ),
                    ),
                ),
            ),
        )
        rng = np.random.default_rng(9)
        buffers, scalars = _make_buffers(function, rng)
        _assert_identical(function, buffers, scalars)
        # And the expected value is the unfolded one: out = x*y + z.
        executor = lower(function, KernelBinding(), backend="codegen")
        local = {name: array.copy() for name, array in buffers.items()}
        executor(local, {})
        np.testing.assert_array_equal(
            local["out"], buffers["x"] * buffers["y"] + buffers["z"]
        )
