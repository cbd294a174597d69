"""Epoch super-kernels (``config.SUPERKERNEL``).

Acceptance bar: lowering captured plans into fused compiled units must
be invisible to every observable — buffers, checksums and simulated
seconds stay bit-identical across ``config.SUPERKERNEL`` × worker-pool
width × point-dispatch width × dispatch substrate, asserted under the
differential kernel backend (which additionally runs every fused call
in verify mode against its constituent steps).  On top of parity, the
pass must actually fuse: vertical splices fold dead intermediates into
locals, independent same-level steps merge horizontally, fused units
ship to worker processes, and the CG replay path must drop its
compiled-closure calls per epoch by at least 3x.  Reducing steps over a
uniform contiguous tiling run once over the merged span (no rank loop in
the generated source), chunked or whole, and every section that keeps
its rank loop says why in ``Profiler.snapshot()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.frontend.cunumeric.array import ndarray as cn_ndarray
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.fusion.engine import FusionConfig
from repro.runtime import pool, procpool
from repro.runtime import superkernel as superkernel_module
from repro.runtime.region import RegionManager


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


pytestmark = pytest.mark.usefixtures("force_dispatch")


# ----------------------------------------------------------------------
# The lever.
# ----------------------------------------------------------------------
class TestSuperkernelConfig:
    def test_default_is_enabled(self):
        assert config.superkernel_enabled() is True

    def test_disable(self, monkeypatch):
        monkeypatch.setattr(config, "SUPERKERNEL", False)
        assert config.superkernel_enabled() is False


# ----------------------------------------------------------------------
# End-to-end parity: the hammer matrix.
# ----------------------------------------------------------------------
def _run_app(
    app_name,
    monkeypatch,
    iterations,
    superkernel="1",
    workers=1,
    point_workers=1,
    kernel_backend="differential",
    num_gpus=4,
    **app_kwargs,
):
    monkeypatch.setattr(config, "SUPERKERNEL", superkernel == "1")
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", kernel_backend)
    config.reload_flags()
    context = RuntimeContext(
        num_gpus=num_gpus, fusion=True, machine=scaled_machine(num_gpus, 1e-4)
    )
    set_context(context)
    try:
        app = build_application(app_name, context=context, **app_kwargs)
        app.run(iterations)
        checksum = app.checksum()
        state = {
            name: value.to_numpy()
            for name, value in vars(app).items()
            if isinstance(value, cn_ndarray)
        }
    finally:
        set_context(None)
    return context, state, checksum


#: (superkernel, workers, point_workers) corners of the hammer matrix.
#: The serial SK=0 baseline is run separately; the remaining corners
#: cover both flag values across both pool dimensions without running
#: the full cube per app.
HAMMER_COMBOS = [
    ("1", 1, 1),
    ("1", 4, 1),
    ("1", 1, 4),
    ("1", 4, 4),
    ("0", 4, 4),
]


class TestSuperkernelParity:
    """The PR-6 hammer: fused replay is bit-identical everywhere."""

    #: (app, size, iterations, the section shape the lowering must
    #: report).  The Krylov apps run at a size whose rows the four ranks
    #: divide (a 16 x 16 grid, 64 rows each: reducing sections stack) and
    #: at one they do not (9 x 9, tiles of 21, 21, 21 and 18 rows: the
    #: same sections keep their rank loop).
    APPS = [
        ("cg", dict(grid_points_per_gpu=8), 5, "superkernel_sections_stacked"),
        ("cg", dict(grid_points_per_gpu=4.5), 5, "ranked_ragged_tiling"),
        ("bicgstab", dict(grid_points_per_gpu=8), 5, "superkernel_sections_stacked"),
        ("bicgstab", dict(grid_points_per_gpu=4.5), 5, "ranked_ragged_tiling"),
        ("gmg", dict(grid_points_per_gpu=8), 5, "superkernel_sections_stacked"),
        ("gmg", dict(grid_points_per_gpu=4.5), 5, "ranked_ragged_tiling"),
        ("jacobi", dict(rows_per_gpu=24), 5, None),
        ("black-scholes", dict(elements_per_gpu=96), 5, None),
        ("two-matvec", dict(rows_per_gpu=20), 5, None),
    ]

    @pytest.mark.parametrize(
        "app_name,kwargs,iterations,shape",
        APPS,
        ids=[f"{a[0]}-{next(iter(a[1].values()))}" for a in APPS],
    )
    def test_matrix_bit_identical(self, app_name, kwargs, iterations, shape, monkeypatch):
        ctx_base, state_base, checksum_base = _run_app(
            app_name, monkeypatch, iterations, superkernel="0", **kwargs
        )
        for superkernel, workers, point_workers in HAMMER_COMBOS:
            ctx, state, checksum = _run_app(
                app_name,
                monkeypatch,
                iterations,
                superkernel=superkernel,
                workers=workers,
                point_workers=point_workers,
                **kwargs,
            )
            label = f"sk={superkernel} workers={workers} point={point_workers}"
            assert checksum == checksum_base, label
            assert set(state) == set(state_base), label
            for name in state_base:
                assert np.array_equal(state[name], state_base[name]), (label, name)
            assert (
                ctx.profiler.iteration_seconds()
                == ctx_base.profiler.iteration_seconds()
            ), label
            assert (
                ctx.legion.simulated_seconds == ctx_base.legion.simulated_seconds
            ), label
            if shape is not None and superkernel == "1":
                if not config.hotpath_cache_enabled():  # the seed-path CI leg
                    shape = "ranked_uninterned_table"
                assert ctx.profiler.snapshot()[shape] > 0, label

    def test_cg_closure_calls_drop(self, monkeypatch):
        """The tentpole's point: >= 3x fewer compiled-closure calls where
        reducing steps run rank by rank.  CG's reducing steps stack, which
        already makes each one closure call per replay; with stacking
        refused — what an unstackable tiling gets — lowering still pays."""
        ctx_stacked, _state, checksum_stacked = _run_app(
            "cg", monkeypatch, 5, superkernel="0", kernel_backend="codegen",
            grid_points_per_gpu=8,
        )
        # Per-launch tables (the seed-path CI leg) never stack.
        stacks = config.hotpath_cache_enabled()
        assert (ctx_stacked.profiler.stacked_launches > 0) == stacks
        verdict = pool.launch_verdict

        def refused(kernel, rows, num_points, captured=False):
            decided = verdict(kernel, rows, num_points, captured)
            return pool.Verdict(False, why="ragged_tiling") if decided.tile else decided

        monkeypatch.setattr(pool, "launch_verdict", refused)
        ctx_off, _state, checksum_off = _run_app(
            "cg", monkeypatch, 5, superkernel="0", kernel_backend="codegen",
            grid_points_per_gpu=8,
        )
        ctx_on, _state, checksum_on = _run_app(
            "cg", monkeypatch, 5, superkernel="1", kernel_backend="codegen",
            grid_points_per_gpu=8,
        )
        assert ctx_off.profiler.stacked_launches == 0
        assert checksum_on == checksum_off == checksum_stacked
        if stacks:
            assert (
                ctx_stacked.profiler.closure_calls_per_epoch
                <= ctx_on.profiler.closure_calls_per_epoch
            )
        assert ctx_on.profiler.superkernel_fusions > 0
        assert ctx_on.profiler.superkernel_calls > 0
        off_rate = ctx_off.profiler.closure_calls_per_epoch
        on_rate = ctx_on.profiler.closure_calls_per_epoch
        assert on_rate > 0
        assert off_rate / on_rate >= 3.0

    def test_two_matvec_opaque_fallback(self, monkeypatch):
        """Opaque GEMV steps replay step-by-step around fused units."""
        ctx, _state, checksum = _run_app(
            "two-matvec", monkeypatch, 5, superkernel="1",
            kernel_backend="codegen", workers=4, rows_per_gpu=20,
        )
        assert ctx.profiler.trace_hits > 0
        assert ctx.profiler.plan_width_max == 2
        # Same recurrence in plain NumPy (mirrors TwoMatVec.__init__).
        rows = int(np.ceil(20.0 * np.sqrt(4)))
        rows = max(4, (rows // 4) * 4)
        rng = np.random.default_rng(7)
        a = rng.uniform(1.0, 2.0, (rows, rows))
        b = rng.uniform(1.0, 2.0, (rows, rows))
        x = rng.uniform(0.0, 1.0, rows)
        y = rng.uniform(0.0, 1.0, rows)
        scale = 1.0 / (2.0 * rows)
        for _ in range(5):
            x = x + (a @ x) * scale
            y = y + (b @ y) * scale
        # The simulated checksum reduces tile by tile, so it can differ
        # from the flat NumPy sum in the last ulp; bit-identity across
        # flag values is what the hammer above asserts.
        assert checksum == pytest.approx(float(x.sum()) + float(y.sum()), rel=1e-12)


# ----------------------------------------------------------------------
# Fusion structure: folding, horizontal merges, process shipping.
# ----------------------------------------------------------------------
def _fused_units():
    """The fused units of every plan currently holding a lowering."""
    return [
        step
        for ref in superkernel_module._LOWERED_PLANS
        for plan in [ref()]
        if plan is not None and plan.superkernel not in (None, superkernel_module._NO_UNITS)
        for step in plan.superkernel.steps
        if isinstance(step, superkernel_module.SuperKernelStep)
    ]


def _window1_config():
    """Defeat window fusion so adjacent element-wise tasks stay separate
    compiled steps — the vertical-splice shape of the lowering pass."""
    return FusionConfig(
        initial_window_size=1, max_window_size=1, adaptive_window=False
    )


def _run_chain(monkeypatch, superkernel, iterations=6):
    """``w = a * 2.0 + 1.0`` with a window of one: two adjacent compiled
    element-wise steps whose intermediate dies inside the epoch."""
    monkeypatch.setattr(config, "SUPERKERNEL", superkernel == "1")
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    # Folding rides the hot-path capture; pin the cache flag so the
    # seed-path CI leg (REPRO_HOTPATH_CACHE=0) doesn't leak in.
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    config.reload_flags()
    context = RuntimeContext(
        num_gpus=4,
        fusion=True,
        machine=scaled_machine(4, 1e-4),
        fusion_config=_window1_config(),
    )
    set_context(context)
    try:
        import repro.frontend.cunumeric as cn

        rng = np.random.default_rng(3)
        a_host = rng.uniform(1.0, 2.0, 64)
        a = cn.array(a_host, name="foldA")
        result = None
        for _ in range(iterations):
            context.profiler.begin_iteration()
            w = a * 2.0 + 1.0
            result = w.to_numpy()
        sim = context.legion.simulated_seconds
    finally:
        set_context(None)
    return context, a_host, result, sim


class TestVerticalSpliceAndFolding:
    def test_dead_intermediate_folds_into_local(self, monkeypatch):
        ctx, a_host, result, _sim = _run_chain(monkeypatch, "1")
        np.testing.assert_array_equal(result, a_host * 2.0 + 1.0)
        assert ctx.profiler.superkernel_fusions == 1
        assert ctx.profiler.superkernel_fused_steps == 2
        assert any(
            unit.folded_slots for unit in _fused_units()
        ), "the dead intermediate was not folded"

    def test_folding_is_bit_identical(self, monkeypatch):
        _ctx0, _a, result_off, sim_off = _run_chain(monkeypatch, "0")
        _ctx1, _a, result_on, sim_on = _run_chain(monkeypatch, "1")
        np.testing.assert_array_equal(result_on, result_off)
        assert sim_on == sim_off


class TestHorizontalMerge:
    def test_independent_steps_merge(self, monkeypatch):
        """Two same-level element-wise steps of different shapes fuse
        into one two-section super-kernel (the width-2 shape of the
        point-dispatch regression suite, this time with lowering on)."""
        monkeypatch.setenv("REPRO_WORKERS", "4")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "differential")
        config.reload_flags()
        context = RuntimeContext(
            num_gpus=4, fusion=True, machine=scaled_machine(4, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            rng = np.random.default_rng(11)
            a_host = rng.uniform(1.0, 2.0, (16, 64))
            b_host = rng.uniform(0.0, 1.0, 128)
            a = cn.array(a_host, name="wideA")
            b = cn.array(b_host, name="wideB")
            for _ in range(6):
                context.profiler.begin_iteration()
                u = a * 2.0
                v = b + 1.0
                np.testing.assert_array_equal(u.to_numpy(), a_host * 2.0)
                np.testing.assert_array_equal(v.to_numpy(), b_host + 1.0)
        finally:
            set_context(None)
        assert context.profiler.superkernel_fusions == 1
        assert context.profiler.superkernel_fused_steps == 2
        assert context.profiler.trace_hits > 0


class TestProcessShipping:
    def test_fused_units_execute_on_worker_processes(self, monkeypatch):
        """Fused CG units chunk across the process pool bit-identically."""
        ctx_inline, state_inline, checksum_inline = _run_app(
            "cg", monkeypatch, 5, superkernel="1", workers=4,
            point_workers=1, kernel_backend="codegen", grid_points_per_gpu=8,
        )
        ctx_proc, state_proc, checksum_proc = _run_app(
            "cg", monkeypatch, 5, superkernel="1", workers=4,
            point_workers=4, kernel_backend="codegen", grid_points_per_gpu=8,
        )
        assert checksum_proc == checksum_inline
        for name in state_inline:
            assert np.array_equal(state_proc[name], state_inline[name]), name
        assert ctx_proc.profiler.superkernel_calls > 0
        assert ctx_proc.profiler.point_process_chunks > 0
        assert (
            ctx_proc.profiler.iteration_seconds()
            == ctx_inline.profiler.iteration_seconds()
        )


# ----------------------------------------------------------------------
# Reducing sections over a uniform tiling run once, not once per rank.
# ----------------------------------------------------------------------
class TestRankedSectionsRunOnce:
    def test_cg_at_64_ranks_has_no_rank_loop(self, monkeypatch):
        """The ``cg-manyrank`` shape: 64 ranks of 16 rows."""
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
        ctx, _state, _checksum = _run_app(
            "cg", monkeypatch, 6, kernel_backend="codegen", num_gpus=64,
            grid_points_per_gpu=4,
        )
        snapshot = ctx.profiler.snapshot()
        # One epoch per iteration: the two units and the p update.
        assert snapshot["closure_calls_per_epoch"] == 3.0
        assert snapshot["superkernel_sections_stacked"] == 2
        assert snapshot["superkernel_sections_ranked"] == 0
        units = _fused_units()
        assert sorted(unit.task_name for unit in units) == [
            "superkernel_dot",
            "superkernel_fused_multiply_scalar_add_multiply_scalar_subtract_dot",
        ]
        for unit in units:
            assert unit.chunkable and unit.num_points == 64
            assert [info.tile for info in unit.sections] == [16]
            assert {kind for kind, _payload in unit.kernel.binding_plan} == {
                "merged", "reduction",
            }
            assert " in zip(" not in unit.kernel.source  # no rank loop
            assert ".reshape(-1, 16), axis=1)" in unit.kernel.source

    def test_ragged_cg_says_why_it_stays_ranked(self, monkeypatch):
        """3 ranks over 169 rows (57, 57, 55): the rank loop, and the reason."""
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
        ctx, _state, _checksum = _run_app(
            "cg", monkeypatch, 6, kernel_backend="codegen", num_gpus=3,
            grid_points_per_gpu=7,
        )
        snapshot = ctx.profiler.snapshot()
        assert snapshot["superkernel_sections_stacked"] == 0
        assert snapshot["superkernel_sections_ranked"] == snapshot["ranked_ragged_tiling"] == 2
        assert all(" in zip(" in unit.kernel.source for unit in _fused_units())

    def test_seed_path_tables_never_stack(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "0")
        ctx, _state, _checksum = _run_app(
            "cg", monkeypatch, 6, kernel_backend="codegen", grid_points_per_gpu=8
        )
        snapshot = ctx.profiler.snapshot()
        assert snapshot["superkernel_sections_stacked"] == 0
        assert snapshot["ranked_uninterned_table"] == snapshot["superkernel_sections_ranked"] > 0

    @pytest.mark.parametrize("substrate", ["inline", "process", "process-lost"])
    def test_stacked_unit_runs_chunked(self, substrate, monkeypatch, shm_entries, request):
        """``REPRO_POINT_WORKERS=4``: each chunk is one merged span, the
        per-rank partials of the chunks concatenate in rank order — in the
        worker processes, inline when every field is on the private heap
        and the resident plan declines every step, or both when the first
        level frame loses its pool."""
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
        if substrate == "inline":
            monkeypatch.setattr(RegionManager, "_field_arena", lambda self: None)
        elif substrate == "process-lost":
            request.getfixturevalue("lose_first_frame")
        kwargs = dict(kernel_backend="codegen", num_gpus=64, grid_points_per_gpu=4)
        ctx_serial, state_serial, checksum_serial = _run_app("cg", monkeypatch, 6, **kwargs)
        shm_before = shm_entries()
        ctx, state, checksum = _run_app("cg", monkeypatch, 6, point_workers=4, **kwargs)
        try:
            assert checksum == checksum_serial
            for name in state_serial:
                assert np.array_equal(state[name], state_serial[name]), name
            assert ctx.profiler.iteration_seconds() == ctx_serial.profiler.iteration_seconds()
            snapshot = ctx.profiler.snapshot()
            assert snapshot["superkernel_sections_stacked"] == 2
            # Two units per iteration, four chunks each.
            assert snapshot["superkernel_calls"] == 4 * ctx_serial.profiler.superkernel_calls
            if substrate == "process":
                assert snapshot["point_process_chunks"] >= snapshot["superkernel_calls"]
            elif substrate == "process-lost":
                assert snapshot["decline_worker_lost"] == 1
                assert snapshot["point_process_chunks"] > 0
            else:
                assert snapshot["decline_no_shm_descriptor"] > 0
                assert snapshot["point_process_chunks"] == 0
        finally:
            ctx.legion.regions.close_arena()
            procpool.shutdown_process_pool()
        # An earlier test's arena may be collected meanwhile: nothing new.
        assert shm_entries() <= shm_before


# ----------------------------------------------------------------------
# Per-rank partials travel as the float64 array the kernel computed.
# ----------------------------------------------------------------------
def _order_sensitive_tiles(ranks: int, tile: int) -> np.ndarray:
    """Per-rank tiles whose sums depend on summation order."""
    rng = np.random.default_rng(29)
    data = np.empty(ranks * tile)
    for rank in range(ranks):
        row = rng.uniform(-4.0, 4.0, tile)
        row[::4], row[2::4] = 1e16, -1e16
        data[rank * tile:(rank + 1) * tile] = row * (1.0 + rank / 7.0)
    return data


class TestPartialArrays:
    RANKS, TILE, ITERATIONS = 64, 16, 6

    def _dots(self, monkeypatch, backend, point_workers, hotpath="1", replies=None):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", hotpath)
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        monkeypatch.setenv("REPRO_POINT_WORKERS", str(point_workers))
        config.reload_flags()
        if replies is not None:
            run_resident_chunks = procpool.ProcessWorkerPool.run_resident_chunks

            def recording(self, *args):
                flat = run_resident_chunks(self, *args)
                replies.append(flat)
                return flat

            monkeypatch.setattr(procpool.ProcessWorkerPool, "run_resident_chunks", recording)
        context = RuntimeContext(
            num_gpus=self.RANKS, fusion=True, machine=scaled_machine(self.RANKS, 1e-4)
        )
        set_context(context)
        try:
            import repro.frontend.cunumeric as cn

            x = cn.array(_order_sensitive_tiles(self.RANKS, self.TILE), name="dot_x")
            y = cn.array(np.linspace(0.5, 1.5, self.RANKS * self.TILE), name="dot_y")
            dots = [float(x.dot(y)) for _ in range(self.ITERATIONS)]
        finally:
            set_context(None)
        return context, dots

    #: ``REPRO_HOTPATH_CACHE`` -> the section shape the dot lowers to:
    #: interned tables stack the ranks, the seed path's plain tables
    #: keep the rank loop.
    SHAPES = {"1": "stacked", "0": "ranked"}

    @pytest.mark.parametrize("hotpath", sorted(SHAPES))
    @pytest.mark.parametrize("point_workers", [1, 4])
    def test_dot_matches_the_interpreters_per_rank_fold(
        self, point_workers, hotpath, monkeypatch, shm_entries
    ):
        products = _order_sensitive_tiles(self.RANKS, self.TILE) * np.linspace(
            0.5, 1.5, self.RANKS * self.TILE
        )
        # The data is adversarial: left-to-right summation disagrees
        # with NumPy's per-rank then cross-rank reduction.
        rows = np.add.reduce(products.reshape(self.RANKS, self.TILE), axis=1)
        assert sum(products.tolist()) != float(np.add.reduce(rows))
        _ctx, reference = self._dots(monkeypatch, "interpreter", 1)
        assert len(set(reference)) == 1
        replies = []
        shm_before = shm_entries()
        ctx, dots = self._dots(monkeypatch, "codegen", point_workers, hotpath, replies)
        try:
            assert [np.float64(v).tobytes() for v in dots] == [
                np.float64(v).tobytes() for v in reference
            ]
            snapshot = ctx.profiler.snapshot()
            assert snapshot[f"superkernel_sections_{self.SHAPES[hotpath]}"] == 1
            assert snapshot["superkernel_calls"] > 0
            if point_workers == 1:
                assert replies == []
            else:
                assert snapshot["point_process_chunks"] > 0
                shipped = [
                    [
                        partial
                        for partials_by_rank, _seconds in frame
                        for partials in partials_by_rank
                        for partial in partials.values()
                    ]
                    for frame in replies
                ]
                assert len(shipped) == snapshot["trace_hits"]
                for partials in shipped:
                    assert all(
                        type(partial) is np.ndarray and partial.dtype == np.float64
                        for partial in partials
                    )
                    # Each replay's three worker processes own 48 of the
                    # 64 ranks; the scheduling thread folds the rest.
                    assert sum(len(partial) for partial in partials) == self.RANKS * 3 // 4
        finally:
            ctx.legion.regions.close_arena()
            procpool.shutdown_process_pool()
        assert shm_entries() <= shm_before

    def test_steady_cg_epoch_boxes_no_partial(self, monkeypatch):
        """A replayed CG epoch at 64 ranks builds no ``ReductionPartial``."""
        from repro.kernel import codegen
        from repro.kernel.builder import KernelBuilder
        from repro.kernel.codegen import CodegenExecutor
        from repro.kernel.kir import ReduceKind
        from repro.kernel.lowering import ReductionPartial
        from repro.kernel.passes.compose import KernelBinding

        constructed = []

        class Counted(ReductionPartial):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(codegen, "ReductionPartial", Counted)  # what the driver builds
        codegen.clear_function_cache()
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
        config.reload_flags()
        context = RuntimeContext(num_gpus=64, fusion=True, machine=scaled_machine(64, 1e-4))
        set_context(context)
        try:
            app = build_application("cg", context=context, grid_points_per_gpu=4)
            app.run(8)
            # The eager warm-up epochs stack their reductions too.
            assert context.profiler.stacked_launches > 0
            assert not constructed
            hits = context.profiler.trace_hits
            app.run(10)
            assert context.profiler.trace_hits == hits + 10
            assert context.profiler.snapshot()["superkernel_sections_stacked"] == 2
            assert constructed == []
            # A per-rank call still boxes its partial: the patch is live.
            builder = KernelBuilder("boxes_probe")
            builder.buffers("a", "r")
            builder.loop("a").reduce("r", "a", ReduceKind.SUM).end_loop()
            CodegenExecutor(builder.build(), KernelBinding())({"a": np.ones(3), "r": None}, {})
            assert constructed == [1]
        finally:
            set_context(None)
            codegen.clear_function_cache()


# ----------------------------------------------------------------------
# Cache lifecycle: reload_flags retires every cached lowering.
# ----------------------------------------------------------------------
class TestReloadRetiresLowerings:
    def test_reload_flags_drops_cached_plans(self, monkeypatch):
        ctx, _state, checksum = _run_app(
            "cg", monkeypatch, 5, superkernel="1", kernel_backend="codegen",
            grid_points_per_gpu=8,
        )
        assert ctx.profiler.superkernel_fusions > 0
        assert superkernel_module.lowered_plan_count() > 0
        config.reload_flags()
        assert superkernel_module.lowered_plan_count() == 0
        # A run after the reload re-lowers from scratch and still agrees.
        ctx2, _state, checksum2 = _run_app(
            "cg", monkeypatch, 5, superkernel="1", kernel_backend="codegen",
            grid_points_per_gpu=8,
        )
        assert checksum2 == checksum
        assert ctx2.profiler.superkernel_fusions > 0
        assert superkernel_module.lowered_plan_count() > 0
