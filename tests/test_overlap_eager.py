"""Eager-path overlap accounting (``MachineConfig.overlap_launches``, trace off).

The plan scheduler has charged level-max simulated time since PR 3; this
suite covers the eager-path extension: consecutive pairwise-independent
launches form a greedy group charged the maximum of their modelled
times, flushed at every hazard, host synchronisation point and iteration
boundary.  Buffers are bit-identical; only simulated time changes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import config
from repro.apps.base import build_application
from repro.experiments.harness import scaled_machine
from repro.experiments.weak_scaling import run_overlap_study
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.runtime.machine import MachineConfig


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


def _context(monkeypatch, overlap, trace="0"):
    monkeypatch.setenv("REPRO_TRACE", trace)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.setenv("REPRO_POINT_WORKERS", "1")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "codegen")
    config.reload_flags()
    machine = replace(scaled_machine(4, 1e-4), overlap_launches=overlap == "1")
    context = RuntimeContext(num_gpus=4, fusion=True, machine=machine)
    set_context(context)
    return context


def _run_two_matvecs(context, iterations=4, rows=32):
    import repro.frontend.cunumeric as cn
    from repro.frontend.cunumeric import linalg

    rng = np.random.default_rng(3)
    a = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="A")
    b = cn.array(rng.uniform(1.0, 2.0, (rows, rows)), name="B")
    x = cn.array(rng.uniform(0.0, 1.0, rows), name="x")
    y = cn.array(rng.uniform(0.0, 1.0, rows), name="y")
    outs = None
    for _ in range(iterations):
        context.profiler.begin_iteration()
        u = linalg.matvec(a, x)
        v = linalg.matvec(b, y)
        outs = (u.to_numpy(), v.to_numpy())
    return outs


class TestEagerOverlap:
    def test_independent_launches_charge_group_max(self, monkeypatch):
        context = _context(monkeypatch, overlap="1")
        try:
            outs_overlap = _run_two_matvecs(context)
            sim_overlap = context.legion.simulated_seconds
        finally:
            set_context(None)

        context = _context(monkeypatch, overlap="0")
        try:
            outs_serial = _run_two_matvecs(context)
            sim_serial = context.legion.simulated_seconds
        finally:
            set_context(None)

        # Bit-identical data; strictly less simulated time (the two
        # independent mat-vecs of each eager epoch overlap).
        np.testing.assert_array_equal(outs_overlap[0], outs_serial[0])
        np.testing.assert_array_equal(outs_overlap[1], outs_serial[1])
        assert sim_overlap < sim_serial

    def test_dependent_chain_is_unchanged(self, monkeypatch):
        """A pure dependence chain has nothing to overlap: same seconds."""

        def run(overlap):
            context = _context(monkeypatch, overlap=overlap)
            try:
                app = build_application("jacobi", context=context, rows_per_gpu=32)
                app.run(4)
                checksum = app.checksum()
                sim = context.legion.simulated_seconds
            finally:
                set_context(None)
            return checksum, sim

        checksum_serial, sim_serial = run("0")
        checksum_overlap, sim_overlap = run("1")
        assert checksum_overlap == checksum_serial
        # Jacobi's epoch is matvec -> residual -> update: every launch
        # conflicts with its predecessor, so each group is a singleton
        # and overlap accounting degenerates to the serial sum.  Only
        # the accumulation *order* against interleaved analysis charges
        # differs (groups are charged at their flush points), so the
        # totals agree to floating-point round-off rather than bit for
        # bit — bit parity is only promised with the overlap model off.
        assert sim_overlap == pytest.approx(sim_serial, rel=1e-12)

    def test_group_flushes_at_host_reads(self, monkeypatch):
        """A scalar/array read closes the pending group before blocking."""
        context = _context(monkeypatch, overlap="1")
        try:
            import repro.frontend.cunumeric as cn
            from repro.frontend.cunumeric import linalg

            rng = np.random.default_rng(5)
            a = cn.array(rng.uniform(1.0, 2.0, (16, 16)), name="A")
            x = cn.array(rng.uniform(0.0, 1.0, 16), name="x")
            u = linalg.matvec(a, x)
            u.to_numpy()  # host read: group must be charged now
            assert context.legion.simulated_seconds > 0.0
            assert not context.legion._overlap_seconds
        finally:
            set_context(None)

    def test_group_seconds_helper(self):
        machine = MachineConfig(num_gpus=2)
        assert machine.overlapped_group_seconds([1.0, 3.0, 2.0]) == 3.0
        assert machine.overlapped_group_seconds([]) == 0.0


class TestOverlapStudy:
    """Satellite: the weak-scaling harness quantifies the overlap claim."""

    def test_overlap_study_runs_and_is_consistent(self):
        series = run_overlap_study("cg", gpu_counts=(1, 2), iterations=2)
        serial = series["Serial accounting"]
        overlap = series["Overlap-aware"]
        assert serial.gpu_counts == overlap.gpu_counts == [1, 2]
        for base, overlapped in zip(serial.results, overlap.results):
            # Bit-identical computation, never-slower simulated time.
            assert overlapped.checksum == base.checksum
            assert overlapped.throughput >= base.throughput
        # Two independent mat-vecs per epoch really do overlap: the
        # study's machine reached the runtime.
        wide = run_overlap_study("two-matvec", gpu_counts=(1,), iterations=2)
        assert wide["Overlap-aware"].throughputs > wide["Serial accounting"].throughputs
