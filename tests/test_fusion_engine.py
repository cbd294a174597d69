"""Tests for temporary elimination, memoization and the Diffuse engine."""

import numpy as np
import pytest

from repro.ir.domain import Domain
from repro.ir.partition import Replication, Tiling, natural_tiling
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import StoreManager
from repro.ir.task import DeferredTask, IndexTask, StoreArg
from repro.fusion.engine import DiffuseRuntime, FusionConfig
from repro.fusion.memoization import (
    FusionDecision,
    MemoizationCache,
    canonicalize_window,
    resolve_temporaries,
)
from repro.fusion.temporaries import find_temporary_stores
from repro.runtime.machine import MachineConfig
from repro.runtime.runtime import LegionRuntime

def _submit(engine, task):
    """Submit a hand-built index task the way a frontend submits a launch."""
    engine.submit(DeferredTask.of(task))


def _chain(manager, launch, length=3, shape=(16,), live_refs=False):
    """Chain of adds writing fresh stores.

    With ``live_refs`` every produced store carries an application
    reference, mimicking how the frontends hold handles while an
    expression is being built.
    """
    part = natural_tiling(shape, launch)
    a = manager.create_store(shape, name="in_a")
    b = manager.create_store(shape, name="in_b")
    tasks = []
    outs = []
    current = a
    for index in range(length):
        out = manager.create_store(shape, name=f"chain{index}")
        tasks.append(IndexTask("add", launch, [
            StoreArg(current, part, Privilege.READ),
            StoreArg(b, part, Privilege.READ),
            StoreArg(out, part, Privilege.WRITE),
        ]))
        outs.append(out)
        current = out
    if live_refs:
        for out in outs:
            out.add_application_reference()
    return tasks, a, b, outs


class TestTemporaries:
    def test_intermediates_are_temporary(self, store_manager, launch4):
        tasks, a, b, outs = _chain(store_manager, launch4)
        outs[-1].add_application_reference()  # the application keeps the result
        temps = find_temporary_stores(tasks)
        names = {t.name for t in temps}
        assert names == {"chain0", "chain1"}

    def test_live_reference_prevents_elimination(self, store_manager, launch4):
        tasks, a, b, outs = _chain(store_manager, launch4)
        outs[0].add_application_reference()
        temps = find_temporary_stores(tasks)
        assert outs[0] not in temps

    def test_downstream_reader_prevents_elimination(self, store_manager, launch4):
        tasks, a, b, outs = _chain(store_manager, launch4)
        part = natural_tiling((16,), launch4)
        extra = store_manager.create_store((16,))
        reader = IndexTask("copy", launch4, [
            StoreArg(outs[0], part, Privilege.READ),
            StoreArg(extra, part, Privilege.WRITE),
        ])
        temps = find_temporary_stores(tasks, remainder=[reader])
        assert outs[0] not in temps
        assert outs[1] in temps

    def test_partial_write_prevents_elimination(self, store_manager, launch4):
        """A store read before being fully defined is not temporary."""
        shape = (16,)
        part = natural_tiling(shape, launch4)
        partial = Tiling.create((2,), offset=(1,))
        store = store_manager.create_store(shape, name="partial")
        other = store_manager.create_store(shape, name="other")
        tasks = [
            IndexTask("fill", launch4, [StoreArg(store, partial, Privilege.WRITE)], (0.0,)),
            IndexTask("copy", launch4, [
                StoreArg(store, partial, Privilege.READ),
                StoreArg(other, part, Privilege.WRITE),
            ]),
        ]
        assert store not in find_temporary_stores(tasks)

    def test_inputs_never_temporary(self, store_manager, launch4):
        tasks, a, b, outs = _chain(store_manager, launch4)
        temps = find_temporary_stores(tasks)
        assert a not in temps and b not in temps


class TestMemoization:
    def _stream(self, manager, launch, shape=(16,)):
        part = natural_tiling(shape, launch)
        s = [manager.create_store(shape) for _ in range(3)]
        return [
            IndexTask("add", launch, [
                StoreArg(s[0], part, Privilege.READ),
                StoreArg(s[1], part, Privilege.READ),
                StoreArg(s[2], part, Privilege.WRITE),
            ]),
            IndexTask("multiply_scalar", launch, [
                StoreArg(s[2], part, Privilege.READ),
                StoreArg(s[0], part, Privilege.WRITE),
            ], (2.0,)),
        ], s

    def test_isomorphic_streams_share_key(self, store_manager, launch4):
        """Paper Figure 7: isomorphic streams canonicalise identically."""
        stream1, _ = self._stream(store_manager, launch4)
        stream2, _ = self._stream(store_manager, launch4)
        key1, _ = canonicalize_window(stream1)
        key2, _ = canonicalize_window(stream2)
        assert key1 == key2

    def test_differing_stream_has_different_key(self, store_manager, launch4):
        stream1, stores = self._stream(store_manager, launch4)
        part = natural_tiling((16,), launch4)
        different = [
            stream1[0],
            IndexTask("multiply_scalar", launch4, [
                StoreArg(stores[1], part, Privilege.READ),   # reads s1 instead of s2
                StoreArg(stores[0], part, Privilege.WRITE),
            ], (2.0,)),
        ]
        assert canonicalize_window(stream1)[0] != canonicalize_window(different)[0]

    def test_liveness_included_in_key(self, store_manager, launch4):
        stream1, stores1 = self._stream(store_manager, launch4)
        stream2, stores2 = self._stream(store_manager, launch4)
        stores2[2].add_application_reference()
        assert canonicalize_window(stream1)[0] != canonicalize_window(stream2)[0]

    def test_partition_pattern_included_in_key(self, store_manager, launch4):
        shape = (16,)
        s = [store_manager.create_store(shape) for _ in range(2)]
        tiled = natural_tiling(shape, launch4)
        task_tiled = IndexTask("copy", launch4, [
            StoreArg(s[0], tiled, Privilege.READ), StoreArg(s[1], tiled, Privilege.WRITE)])
        task_repl = IndexTask("copy", launch4, [
            StoreArg(s[0], Replication(), Privilege.READ), StoreArg(s[1], tiled, Privilege.WRITE)])
        assert canonicalize_window([task_tiled])[0] != canonicalize_window([task_repl])[0]

    def test_cache_hits_and_misses(self, store_manager, launch4):
        cache = MemoizationCache()
        stream, _ = self._stream(store_manager, launch4)
        key, _ = canonicalize_window(stream)
        assert cache.lookup(key) is None
        cache.store(key, FusionDecision(prefix_length=2, temporary_indices=(2,), fused=True))
        assert cache.lookup(key).prefix_length == 2
        assert cache.hits == 1 and cache.misses == 1
        cache.clear()
        assert len(cache) == 0

    def test_resolve_temporaries_maps_indices_to_stores(self, store_manager, launch4):
        stream, stores = self._stream(store_manager, launch4)
        key, index_map = canonicalize_window(stream)
        resolved = resolve_temporaries(stream, index_map, [index_map[stores[2].uid]])
        assert resolved == [stores[2]]


class TestDiffuseEngine:
    def _run_chain(self, fusion_config, num_gpus=4, length=6):
        """Mimic the frontend convention: every produced store holds an
        application reference while tasks are being issued, and references
        to intermediates are dropped (as Python would) before the flush."""
        fusion_config.initial_window_size = max(fusion_config.initial_window_size, 32)
        manager = StoreManager()
        launch = Domain((num_gpus,))
        runtime = LegionRuntime(MachineConfig(num_gpus=num_gpus))
        engine = DiffuseRuntime(runtime=runtime, config=fusion_config)
        tasks, a, b, outs = _chain(manager, launch, length=length, live_refs=True)
        runtime.attach_array(a, np.arange(16, dtype=np.float64))
        runtime.attach_array(b, np.ones(16))
        for task in tasks:
            _submit(engine, task)
        for out in outs[:-1]:
            out.remove_application_reference()
        engine.flush_window()
        return engine, runtime, outs

    def test_functional_equivalence_with_and_without_fusion(self):
        fused_engine, fused_runtime, fused_outs = self._run_chain(FusionConfig(enable_fusion=True))
        plain_engine, plain_runtime, plain_outs = self._run_chain(FusionConfig(enable_fusion=False))
        np.testing.assert_allclose(
            fused_runtime.read_array(fused_outs[-1]),
            plain_runtime.read_array(plain_outs[-1]),
        )

    def test_fusion_reduces_launched_tasks(self):
        engine, runtime, _ = self._run_chain(FusionConfig(enable_fusion=True))
        assert runtime.profiler.total_index_tasks < engine.stats.submitted_tasks
        assert runtime.profiler.total_constituent_tasks == engine.stats.submitted_tasks
        assert engine.stats.fused_tasks >= 1
        assert engine.stats.temporaries_eliminated >= 1

    def test_pass_through_when_disabled(self):
        engine, runtime, _ = self._run_chain(FusionConfig(enable_fusion=False))
        assert runtime.profiler.total_index_tasks == engine.stats.submitted_tasks
        assert engine.stats.fused_tasks == 0

    def test_memoization_avoids_recompilation(self, flags):
        # Without tracing every rerun goes through the window rounds;
        # with it, a rerun replays its plan and never looks a window up.
        flags(REPRO_TRACE=0)
        config = FusionConfig(enable_fusion=True, enable_memoization=True)
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime, config=config)
        for _ in range(3):
            tasks, a, b, outs = _chain(manager, launch, length=4)
            runtime.attach_array(a, np.arange(16, dtype=np.float64))
            runtime.attach_array(b, np.ones(16))
            for task in tasks:
                _submit(engine, task)
            engine.flush_window()
        assert engine.compiler.stats.compilations == 1
        assert engine.cache.hits >= 1

    def test_task_fusion_only_keeps_kernel_structure(self):
        config = FusionConfig(
            enable_fusion=True,
            enable_kernel_fusion=False,
            enable_temporary_elimination=False,
        )
        engine, runtime, outs = self._run_chain(config)
        # Task fusion happened...
        assert engine.stats.fused_tasks >= 1
        # ...but each fused launch still runs one kernel per constituent.
        fused_records = [r for r in runtime.profiler.records if r.fused]
        assert all(record.launches == record.constituents for record in fused_records)

    def test_kernel_fusion_reduces_launches(self):
        engine, runtime, _ = self._run_chain(FusionConfig(enable_fusion=True))
        fused_records = [r for r in runtime.profiler.records if r.fused]
        assert all(record.launches < record.constituents for record in fused_records)

    def test_scalar_read_forces_flush(self):
        manager = StoreManager()
        launch = Domain((4,))
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        engine = DiffuseRuntime(runtime=runtime)
        part = natural_tiling((16,), launch)
        data = manager.create_store((16,))
        result = manager.create_scalar_store()
        runtime.attach_array(data, np.full(16, 3.0))
        _submit(engine, IndexTask("sum_reduce", launch, [
            StoreArg(data, part, Privilege.READ),
            StoreArg(result, Replication(), Privilege.REDUCE, ReductionOp.ADD),
        ]))
        assert engine.read_scalar(result) == pytest.approx(48.0)
        assert engine.window.empty
