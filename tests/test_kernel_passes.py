"""Tests for the kernel optimisation passes (compose, fuse, scalarise, CSE, DCE)."""

import numpy as np
import pytest

from repro.ir.domain import Domain
from repro.ir.partition import Replication, natural_tiling
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import StoreManager
from repro.ir.task import FusedTask, IndexTask, StoreArg, combine_arguments
from repro.kernel.builder import KernelBuilder
from repro.kernel.generators import default_registry
from repro.kernel.kir import Alloc, Assign, Loop, Reduce
from repro.kernel.lowering import lower
from repro.kernel.passes.compose import CompositionError, compose_fused_task, compose_task
from repro.kernel.passes.cse import eliminate_common_subexpressions
from repro.kernel.passes.dce import eliminate_dead_code
from repro.kernel.passes.loop_fusion import count_loops, fuse_loops
from repro.kernel.passes.parallelize import parallelize_loops
from repro.kernel.passes.pipeline import PassPipeline, default_pipeline
from repro.kernel.passes.temp_elimination import scalarize_temporaries


def _chain_tasks(manager, launch, length=3, shape=(16,)):
    """Build a chain a -> t1 -> t2 ... -> out of element-wise adds."""
    part = natural_tiling(shape, launch)
    a = manager.create_store(shape, name="a")
    b = manager.create_store(shape, name="b")
    tasks = []
    current = a
    intermediates = []
    for index in range(length):
        out = manager.create_store(shape, name=f"t{index}")
        tasks.append(
            IndexTask(
                "add",
                launch,
                [
                    StoreArg(current, part, Privilege.READ),
                    StoreArg(b, part, Privilege.READ),
                    StoreArg(out, part, Privilege.WRITE),
                ],
            )
        )
        intermediates.append(out)
        current = out
    return tasks, a, b, intermediates


class TestCompose:
    def test_paper_figure8_composition(self, store_manager, launch4):
        """c = a + b; e = c + d composes into two loops with an alloc for c."""
        shape = (16,)
        part = natural_tiling(shape, launch4)
        a, b, c, d, e = (store_manager.create_store(shape, name=n) for n in "abcde")
        t1 = IndexTask("add", launch4, [
            StoreArg(a, part, Privilege.READ), StoreArg(b, part, Privilege.READ),
            StoreArg(c, part, Privilege.WRITE)])
        t2 = IndexTask("add", launch4, [
            StoreArg(c, part, Privilege.READ), StoreArg(d, part, Privilege.READ),
            StoreArg(e, part, Privilege.WRITE)])
        fused = FusedTask([t1, t2], combine_arguments([t1, t2], [c]), temporary_stores=[c])
        function, binding = compose_fused_task(fused, default_registry())
        assert len(function.loops) == 2
        assert len(function.allocs) == 1
        assert function.allocs[0].name in binding.temporaries
        # Four distinct views (a, b, d, e) remain kernel parameters.
        assert len(function.buffer_params) == 4

    def test_shared_views_share_parameters(self, store_manager, launch4):
        """dot(r, r) maps both read arguments to the same kernel buffer."""
        shape = (16,)
        part = natural_tiling(shape, launch4)
        r = store_manager.create_store(shape)
        result = store_manager.create_scalar_store()
        task = IndexTask("dot", launch4, [
            StoreArg(r, part, Privilege.READ),
            StoreArg(r, part, Privilege.READ),
            StoreArg(result, Replication(), Privilege.REDUCE, ReductionOp.ADD),
        ])
        function, binding = compose_task(task, default_registry())
        assert len(function.buffer_params) == 2
        assert set(binding.buffer_args.values()) == {0, 2}

    def test_scalar_arguments_renumbered(self, store_manager, launch4):
        shape = (16,)
        part = natural_tiling(shape, launch4)
        a, b, c = (store_manager.create_store(shape) for _ in range(3))
        t1 = IndexTask("fill", launch4, [StoreArg(a, part, Privilege.WRITE)], (2.0,))
        t2 = IndexTask("multiply_scalar", launch4, [
            StoreArg(a, part, Privilege.READ), StoreArg(b, part, Privilege.WRITE)], (3.0,))
        fused = FusedTask([t1, t2], combine_arguments([t1, t2]))
        function, binding = compose_fused_task(fused, default_registry())
        assert {p.name for p in function.scalar_params} == {"s0", "s1"}
        assert binding.scalar_args == {"s0": 0, "s1": 1}

    def test_opaque_task_raises(self, store_manager, launch4):
        shape = (16,)
        part = natural_tiling(shape, launch4)
        a = store_manager.create_store(shape)
        task = IndexTask("spmv_csr", launch4, [StoreArg(a, part, Privilege.READ)])
        with pytest.raises(CompositionError):
            compose_task(task, default_registry())


class TestLoopFusion:
    def _composed_chain(self, store_manager, launch4, temporaries):
        tasks, a, b, intermediates = _chain_tasks(store_manager, launch4)
        fused = FusedTask(tasks, combine_arguments(tasks, temporaries), temporary_stores=temporaries)
        return compose_fused_task(fused, default_registry())

    def test_same_space_loops_fuse(self, store_manager, launch4):
        function, binding = self._composed_chain(store_manager, launch4, [])
        assert count_loops(function) == 3
        fused = fuse_loops(function, binding)
        assert count_loops(fused) == 1

    def test_fused_loop_prefers_non_temporary_index(self, store_manager, launch4):
        tasks, a, b, intermediates = _chain_tasks(store_manager, launch4)
        temps = intermediates[:-1]
        fused_task = FusedTask(tasks, combine_arguments(tasks, temps), temporary_stores=temps)
        function, binding = compose_fused_task(fused_task, default_registry())
        fused = fuse_loops(function, binding)
        assert count_loops(fused) == 1
        assert fused.loops[0].index_buffer not in binding.temporaries

    def test_different_spaces_do_not_fuse(self, store_manager, launch4):
        part_small = natural_tiling((8,), launch4)
        part_big = natural_tiling((32,), launch4)
        a = store_manager.create_store((8,))
        b = store_manager.create_store((8,))
        c = store_manager.create_store((32,))
        d = store_manager.create_store((32,))
        t1 = IndexTask("copy", launch4, [StoreArg(a, part_small, Privilege.READ),
                                         StoreArg(b, part_small, Privilege.WRITE)])
        t2 = IndexTask("copy", launch4, [StoreArg(c, part_big, Privilege.READ),
                                         StoreArg(d, part_big, Privilege.WRITE)])
        fused = FusedTask([t1, t2], combine_arguments([t1, t2]))
        function, binding = compose_fused_task(fused, default_registry())
        assert count_loops(fuse_loops(function, binding)) == 2


class TestTemporaryScalarisation:
    def test_single_loop_temporary_becomes_local(self, store_manager, launch4):
        tasks, a, b, intermediates = _chain_tasks(store_manager, launch4, length=2)
        temps = intermediates[:1]
        fused_task = FusedTask(tasks, combine_arguments(tasks, temps), temporary_stores=temps)
        function, binding = compose_fused_task(fused_task, default_registry())
        function = fuse_loops(function, binding)
        function = scalarize_temporaries(function, binding)
        assert len(function.allocs) == 0
        # The temporary's value now flows through a loop-local scalar.
        locals_used = [stmt for stmt in function.loops[0].body if isinstance(stmt, Assign) and stmt.is_local]
        assert locals_used

    def test_multi_loop_temporary_keeps_allocation(self, store_manager, launch4):
        """When loops cannot fuse, the temporary stays a task-local buffer."""
        part_a = natural_tiling((8,), launch4)
        part_c = natural_tiling((32,), launch4)
        a = store_manager.create_store((8,))
        t = store_manager.create_store((8,))
        c = store_manager.create_store((32,))
        d = store_manager.create_store((32,))
        t1 = IndexTask("copy", launch4, [StoreArg(a, part_a, Privilege.READ),
                                         StoreArg(t, part_a, Privilege.WRITE)])
        t2 = IndexTask("copy", launch4, [StoreArg(c, part_c, Privilege.READ),
                                         StoreArg(d, part_c, Privilege.WRITE)])
        t3 = IndexTask("copy", launch4, [StoreArg(t, part_a, Privilege.READ),
                                         StoreArg(a, part_a, Privilege.WRITE)])
        fused_task = FusedTask([t1, t2, t3], combine_arguments([t1, t2, t3], [t]), temporary_stores=[t])
        function, binding = compose_fused_task(fused_task, default_registry())
        function = fuse_loops(function, binding)
        function = scalarize_temporaries(function, binding)
        assert len(function.allocs) == 1


class TestCSEAndDCE:
    def test_cse_hoists_repeated_expression(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "b", "c")
        expensive = KernelBuilder.mul(KernelBuilder.add("a", "b"), KernelBuilder.add("a", "b"))
        builder.loop("c").assign("c", expensive).end_loop()
        function = eliminate_common_subexpressions(builder.build())
        body = function.loops[0].body
        locals_defined = [stmt for stmt in body if isinstance(stmt, Assign) and stmt.is_local]
        assert len(locals_defined) == 1

    def test_cse_respects_redefinition(self):
        """Occurrences of "a + b" before and after a redefinition of ``a``
        must not share a hoisted value; semantics are checked by executing
        the original and optimised kernels."""
        builder = KernelBuilder("k")
        builder.buffers("a", "b")
        builder.loop("b")
        builder.assign("b", KernelBuilder.add("a", "b"))
        builder.assign("a", 0.0)
        builder.assign("b", KernelBuilder.add("a", "b"))
        builder.end_loop()
        original = builder.build()
        optimized = eliminate_common_subexpressions(original)
        from repro.kernel.passes.compose import KernelBinding

        results = []
        for function in (original, optimized):
            a = np.arange(4.0)
            b = np.full(4, 2.0)
            lower(function, KernelBinding())({"a": a, "b": b}, {})
            results.append((a.copy(), b.copy()))
        np.testing.assert_allclose(results[0][0], results[1][0])
        np.testing.assert_allclose(results[0][1], results[1][1])

    def test_cse_preserves_semantics(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "b", "out")
        expr = KernelBuilder.add(KernelBuilder.mul("a", "b"), KernelBuilder.mul("a", "b"))
        builder.loop("out").assign("out", expr).end_loop()
        original = builder.build()
        optimized = eliminate_common_subexpressions(original)
        a = np.arange(8.0)
        b = np.full(8, 3.0)
        from repro.kernel.passes.compose import KernelBinding

        for function in (original, optimized):
            out = np.zeros(8)
            lower(function, KernelBinding())({"a": a, "b": b, "out": out}, {})
            np.testing.assert_allclose(out, 2 * a * b)

    def test_dce_removes_dead_stores_and_allocs(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "out")
        builder.loop("out")
        builder.assign("out", KernelBuilder.add("a", 1.0))
        builder.end_loop()
        function = builder.build()
        # Manually add a dead allocation written but never read.
        dead_loop = Loop(index_buffer="out", body=(Assign(target="dead", expr=KernelBuilder.add("a", 2.0)),))
        function = function.with_body((Alloc("dead", "a"),) + function.body + (dead_loop,))
        cleaned = eliminate_dead_code(function)
        assert all(not isinstance(stmt, Alloc) for stmt in cleaned.body)
        assert "dead" not in cleaned.buffers_written()

    def test_dce_keeps_parameter_writes(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "out")
        builder.loop("out").assign("out", "a").end_loop()
        function = eliminate_dead_code(builder.build())
        assert function.buffers_written() == {"out"}

    def test_dce_removes_dead_locals(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "out")
        builder.loop("out")
        builder.let("unused", KernelBuilder.add("a", 1.0))
        builder.assign("out", "a")
        builder.end_loop()
        cleaned = eliminate_dead_code(builder.build())
        assert all(
            not (isinstance(stmt, Assign) and stmt.is_local) for stmt in cleaned.loops[0].body
        )


class TestParallelizeAndPipeline:
    def test_parallelize_marks_loops(self):
        builder = KernelBuilder("k")
        builder.buffers("a", "b")
        builder.loop("b").assign("b", "a").end_loop()
        function = parallelize_loops(builder.build())
        assert all(loop.parallel for loop in function.loops)

    def test_default_pipeline_produces_single_parallel_loop(self, store_manager, launch4):
        tasks, a, b, intermediates = _chain_tasks(store_manager, launch4)
        temps = intermediates[:-1]
        fused_task = FusedTask(tasks, combine_arguments(tasks, temps), temporary_stores=temps)
        function, binding = compose_fused_task(fused_task, default_registry())
        optimized = default_pipeline().run(function, binding)
        assert count_loops(optimized) == 1
        assert optimized.loops[0].parallel
        assert len(optimized.allocs) == 0

    def test_disabled_pipeline_keeps_structure(self, store_manager, launch4):
        tasks, a, b, intermediates = _chain_tasks(store_manager, launch4)
        fused_task = FusedTask(tasks, combine_arguments(tasks))
        function, binding = compose_fused_task(fused_task, default_registry())
        pipeline = PassPipeline(
            enable_loop_fusion=False,
            enable_temporary_elimination=False,
            enable_cse=False,
            enable_dce=False,
            enable_parallelize=False,
        )
        untouched = pipeline.run(function, binding)
        assert count_loops(untouched) == 3


class TestNormalize:
    """Algebraic normalisation before CSE (bit-exact sign rewrites)."""

    def _normalize(self, function):
        from repro.kernel.passes.normalize import normalize_function

        return normalize_function(function)

    def test_neg_pulled_through_division_and_erf(self):
        from repro.kernel.kir import (
            Assign,
            BinOp,
            BinOpKind,
            Function,
            Load,
            LocalRef,
            Loop,
            Param,
            UnOp,
            UnOpKind,
        )

        loop = Loop(
            index_buffer="x",
            body=(
                Assign(
                    target="d",
                    expr=BinOp(BinOpKind.DIV, UnOp(UnOpKind.NEG, Load("x")), Load("y")),
                    is_local=True,
                ),
                Assign(target="out", expr=UnOp(UnOpKind.ERF, LocalRef("d"))),
            ),
        )
        function = Function(
            name="k",
            params=(Param.buffer("x"), Param.buffer("y"), Param.buffer("out")),
            body=(loop,),
        )
        normalized = self._normalize(function)
        new_loop = normalized.loops[0]
        # The local now stores the positive quotient...
        local_def = new_loop.body[0]
        assert isinstance(local_def, Assign) and local_def.is_local
        assert local_def.expr == BinOp(BinOpKind.DIV, Load("x"), Load("y"))
        # ...and the erf consumer sees neg(erf(d)), the sign outside.
        out_def = new_loop.body[1]
        assert out_def.expr == UnOp(
            UnOpKind.NEG, UnOp(UnOpKind.ERF, LocalRef("d"))
        )

    def test_double_negation_cancels(self):
        from repro.kernel.kir import Assign, Load, Loop, UnOp, UnOpKind

        loop = Loop(
            index_buffer="x",
            body=(
                Assign(
                    target="out",
                    expr=UnOp(UnOpKind.NEG, UnOp(UnOpKind.NEG, Load("x"))),
                ),
            ),
        )
        from repro.kernel.kir import Function, Param

        function = Function(
            name="k",
            params=(Param.buffer("x"), Param.buffer("out")),
            body=(loop,),
        )
        normalized = self._normalize(function)
        assert normalized.loops[0].body[0].expr == Load("x")

    def test_value_numbering_dedups_sign_twins(self):
        """x/y and neg(x)/y collapse to one division."""
        from repro.kernel.kir import (
            Assign,
            BinOp,
            BinOpKind,
            Function,
            Load,
            LocalRef,
            Loop,
            Param,
            UnOp,
            UnOpKind,
        )

        div = BinOp(BinOpKind.DIV, Load("x"), Load("y"))
        neg_div = BinOp(BinOpKind.DIV, UnOp(UnOpKind.NEG, Load("x")), Load("y"))
        loop = Loop(
            index_buffer="x",
            body=(
                Assign(target="p", expr=div, is_local=True),
                Assign(target="q", expr=neg_div, is_local=True),
                Assign(target="o1", expr=LocalRef("p")),
                Assign(target="o2", expr=LocalRef("q")),
            ),
        )
        function = Function(
            name="k",
            params=(Param.buffer("x"), Param.buffer("y"), Param.buffer("o1"), Param.buffer("o2")),
            body=(loop,),
        )
        normalized = self._normalize(function)
        body = normalized.loops[0].body
        # q aliases p; its consumer reads neg(p).
        assert body[1].expr == LocalRef("p")
        assert body[3].expr == UnOp(UnOpKind.NEG, LocalRef("p"))

    def test_buffer_write_invalidates_value_numbers(self):
        from repro.kernel.kir import (
            Assign,
            BinOp,
            BinOpKind,
            Function,
            Load,
            LocalRef,
            Loop,
            Param,
        )

        expr = BinOp(BinOpKind.MUL, Load("x"), Load("x"))
        loop = Loop(
            index_buffer="x",
            body=(
                Assign(target="p", expr=expr, is_local=True),
                Assign(target="x", expr=Load("y")),  # overwrites x
                Assign(target="q", expr=expr, is_local=True),
                Assign(
                    target="o1",
                    expr=BinOp(BinOpKind.ADD, LocalRef("p"), LocalRef("q")),
                ),
            ),
        )
        function = Function(
            name="k",
            params=(Param.buffer("x"), Param.buffer("y"), Param.buffer("o1")),
            body=(loop,),
        )
        normalized = self._normalize(function)
        body = normalized.loops[0].body
        # q must NOT alias p: x changed in between.
        assert body[2].expr == expr


class TestNormalizeBlackScholes:
    """Satellite acceptance: the erf(±d1/√2) pair deduplicates and the
    result stays bitwise identical (checked by the differential backend
    on every kernel invocation *and* by direct array comparison)."""

    def _run(self, normalize, monkeypatch):
        from repro import config
        from repro.apps.base import build_application
        from repro.experiments.harness import scaled_machine
        from repro.frontend.legate.context import RuntimeContext, set_context

        monkeypatch.setattr(config, "NORMALIZE", normalize == "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
        monkeypatch.setenv("REPRO_TRACE", "1")
        config.reload_flags()
        context = RuntimeContext(num_gpus=2, fusion=True, machine=scaled_machine(2, 1e-4))
        set_context(context)
        try:
            app = build_application("black-scholes", context=context, elements_per_gpu=128)
            app.run(6)
            call = app.call.to_numpy()
            put = app.put.to_numpy()
            # The steady-state kernel covering the whole pricing chain is
            # the one with the most fused constituents; partial warm-up
            # window rounds also sit in the cache.
            kernel = max(
                context.diffuse.compiler._cache.values(),
                key=lambda k: k.fused_count,
            )
            erf_count = _count_erf(kernel.function)
        finally:
            set_context(None)
            config.reload_flags()
        return call, put, erf_count

    def test_bitwise_equality_and_dedup(self, monkeypatch):
        call_off, put_off, erf_off = self._run("0", monkeypatch)
        call_on, put_on, erf_on = self._run("1", monkeypatch)
        # The un-normalised fused kernel evaluates erf four times; the
        # normalised one shares the ±d1 and ±d2 pairs.
        assert erf_off == 4
        assert erf_on == 2
        assert np.array_equal(call_on, call_off)
        assert np.array_equal(put_on, put_off)


def _count_erf(function):
    from repro.kernel.kir import Assign, BinOp, Loop, Reduce, UnOp, UnOpKind

    def count_expr(expr):
        if isinstance(expr, UnOp):
            inner = count_expr(expr.operand)
            return inner + (1 if expr.op is UnOpKind.ERF else 0)
        if isinstance(expr, BinOp):
            return count_expr(expr.lhs) + count_expr(expr.rhs)
        return 0

    total = 0
    for loop in function.loops:
        for stmt in loop.body:
            if isinstance(stmt, (Assign, Reduce)):
                total += count_expr(stmt.expr)
    return total


class TestErfExactlyOdd:
    """The erf(neg(x)) -> neg(erf(x)) rewrite requires _erf to be odd
    bit-for-bit, including signed zeros (IEEE: erf(-0.0) == -0.0)."""

    def test_erf_odd_at_zero_and_elsewhere(self):
        import struct

        from repro.kernel.kir import _erf

        def bits(value):
            return struct.pack("<d", float(value))

        assert bits(_erf(np.float64(-0.0))) == bits(-np.float64(0.0))
        assert bits(_erf(np.float64(0.0))) == bits(np.float64(0.0))
        for value in (0.5, -0.5, 3.0, 1e-300, -1e-300, np.inf, -np.inf):
            x = np.float64(value)
            assert bits(_erf(-x)) == bits(-_erf(x)), value
