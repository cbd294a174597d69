"""Tests for the runtime substrate: machine model, regions, coherence, execution."""

import numpy as np
import pytest

from repro.ir.domain import Domain
from repro.ir.partition import Replication, Tiling, natural_tiling
from repro.ir.privilege import Privilege, ReductionOp
from repro.ir.store import StoreManager
from repro.ir.task import IndexTask, StoreArg
from repro.runtime.coherence import CoherenceTracker
from repro.runtime.machine import MachineConfig
from repro.runtime.opaque import OpaqueTaskRegistry, register_opaque_task
from repro.runtime.profiler import Profiler
from repro.runtime.region import RegionField, RegionManager
from repro.runtime.runtime import LegionRuntime, UnexecutableTaskError


class TestMachineConfig:
    def test_topology(self):
        machine = MachineConfig(num_gpus=16, gpus_per_node=8)
        assert machine.num_nodes == 2
        assert machine.multi_node
        assert MachineConfig(num_gpus=4).num_nodes == 1
        assert not MachineConfig(num_gpus=4).multi_node

    def test_interconnect_selection(self):
        intra = MachineConfig(num_gpus=4)
        inter = MachineConfig(num_gpus=64)
        assert intra.interconnect_bandwidth() == intra.nvlink_bandwidth
        assert inter.interconnect_bandwidth() == inter.infiniband_bandwidth

    def test_communication_costs_scale(self):
        machine = MachineConfig(num_gpus=8)
        assert machine.point_to_point_time(0) == 0.0
        assert machine.point_to_point_time(1 << 20) > machine.network_latency
        assert machine.allgather_time(1 << 20) > machine.point_to_point_time(1 << 20)
        assert MachineConfig(num_gpus=1).allreduce_time(1 << 20) == 0.0
        assert machine.scalar_reduction_time() > 0.0

    def test_with_gpus(self):
        machine = MachineConfig(num_gpus=1).with_gpus(32)
        assert machine.num_gpus == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(num_gpus=0)


class TestRegions:
    def test_field_allocation_and_views(self, store_manager):
        manager = RegionManager()
        store = store_manager.create_store((4, 4))
        field = manager.field(store)
        assert field.data.shape == (4, 4)
        view = field.view(natural_tiling((4, 4), Domain((2, 2))).sub_store_rect((1, 1), (4, 4)))
        view[...] = 7.0
        assert field.data[2:, 2:].min() == 7.0
        assert manager.field(store) is field
        assert manager.allocated_fields == 1
        assert manager.allocated_bytes == 16 * 8

    def test_attach_shape_checked(self, store_manager):
        manager = RegionManager()
        store = store_manager.create_store((4,))
        with pytest.raises(ValueError):
            manager.attach(store, np.zeros((5,)))

    def test_scalar_read_write(self, store_manager):
        field = RegionField(store_manager.create_scalar_store())
        field.write_scalar(4.5)
        assert field.read_scalar() == 4.5

    def test_release(self, store_manager):
        manager = RegionManager()
        store = store_manager.create_store((4,))
        manager.field(store)
        assert manager.reclaim_storage(store)
        assert not manager.has_field(store)


class TestCoherence:
    def _task(self, store, partition, privilege, launch, redop=None):
        return IndexTask("t", launch, [StoreArg(store, partition, privilege, redop)])

    def test_no_cost_on_single_gpu(self, store_manager, launch4):
        tracker = CoherenceTracker(MachineConfig(num_gpus=1))
        store = store_manager.create_store((64,))
        part = natural_tiling((64,), launch4)
        write = self._task(store, part, Privilege.WRITE, launch4)
        read = self._task(store, Replication(), Privilege.READ, launch4)
        assert tracker.communication_seconds(write) == 0.0
        assert tracker.communication_seconds(read) == 0.0

    def test_same_partition_read_is_free(self, store_manager, launch4):
        tracker = CoherenceTracker(MachineConfig(num_gpus=4))
        store = store_manager.create_store((64,))
        part = natural_tiling((64,), launch4)
        tracker.communication_seconds(self._task(store, part, Privilege.WRITE, launch4))
        assert tracker.communication_seconds(self._task(store, part, Privilege.READ, launch4)) == 0.0

    def test_replicated_read_after_tiled_write_costs(self, store_manager, launch4):
        tracker = CoherenceTracker(MachineConfig(num_gpus=4))
        store = store_manager.create_store((1 << 16,))
        part = natural_tiling((1 << 16,), launch4)
        tracker.communication_seconds(self._task(store, part, Privilege.WRITE, launch4))
        cost = tracker.communication_seconds(self._task(store, Replication(), Privilege.READ, launch4))
        assert cost > 0.0
        assert tracker.total_bytes_moved > 0.0
        # A second replicated read with no intervening write is free.
        assert tracker.communication_seconds(self._task(store, Replication(), Privilege.READ, launch4)) == 0.0

    def test_halo_exchange_cost(self, store_manager):
        launch = Domain((4,))
        tracker = CoherenceTracker(MachineConfig(num_gpus=4))
        store = store_manager.create_store((1026,))
        interior = Tiling.create((256,), offset=(1,))
        shifted = Tiling.create((256,), offset=(0,))
        tracker.communication_seconds(self._task(store, interior, Privilege.WRITE, launch))
        cost = tracker.communication_seconds(self._task(store, shifted, Privilege.READ, launch))
        assert cost > 0.0

    def test_reduction_cost_and_invalidation(self, store_manager, launch4):
        tracker = CoherenceTracker(MachineConfig(num_gpus=8))
        scalar = store_manager.create_scalar_store()
        task = self._task(scalar, Replication(), Privilege.REDUCE, launch4, ReductionOp.ADD)
        assert tracker.communication_seconds(task) > 0.0
        tracker.invalidate(scalar)
        assert tracker.state(scalar).valid_partition is None

    def test_host_write_resets_state(self, store_manager, launch4):
        tracker = CoherenceTracker(MachineConfig(num_gpus=4))
        store = store_manager.create_store((64,))
        part = natural_tiling((64,), launch4)
        tracker.communication_seconds(self._task(store, part, Privilege.WRITE, launch4))
        tracker.invalidate(store)
        assert tracker.communication_seconds(self._task(store, Replication(), Privilege.READ, launch4)) == 0.0


class TestProfiler:
    def test_iteration_statistics(self):
        profiler = Profiler()
        profiler.begin_iteration()
        profiler.record_task("a", constituents=3, kernel_seconds=0.002,
                             communication_seconds=0.0, overhead_seconds=0.001,
                             launches=1, fused=True)
        profiler.begin_iteration()
        profiler.record_task("b", constituents=1, kernel_seconds=0.004,
                             communication_seconds=0.001, overhead_seconds=0.001,
                             launches=1, fused=False)
        assert profiler.total_index_tasks == 2
        assert profiler.total_constituent_tasks == 4
        assert profiler.tasks_per_iteration(fused_view=True) == 1.0
        assert profiler.tasks_per_iteration(fused_view=False) == 2.0
        assert profiler.throughput() > 0.0
        assert profiler.throughput(skip_warmup=1) == pytest.approx(1.0 / 0.006)
        assert profiler.average_task_length_seconds() == pytest.approx(0.003)
        profiler.record_compile_time(0.5)
        profiler.record_analysis_time(0.1)
        assert profiler.compile_seconds == 0.5
        profiler.reset()
        assert profiler.total_index_tasks == 0


class TestRuntimeExecution:
    def test_elementwise_execution_matches_numpy(self, store_manager, launch4):
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        part = natural_tiling((16,), launch4)
        a = store_manager.create_store((16,))
        b = store_manager.create_store((16,))
        c = store_manager.create_store((16,))
        runtime.attach_array(a, np.arange(16, dtype=np.float64))
        runtime.attach_array(b, np.full(16, 5.0))
        seconds = runtime.submit(IndexTask("multiply", launch4, [
            StoreArg(a, part, Privilege.READ),
            StoreArg(b, part, Privilege.READ),
            StoreArg(c, part, Privilege.WRITE),
        ]))
        assert seconds > 0.0
        np.testing.assert_allclose(runtime.read_array(c), np.arange(16) * 5.0)
        assert runtime.simulated_seconds == pytest.approx(seconds)

    def test_reduction_folds_across_points(self, store_manager, launch4):
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        part = natural_tiling((16,), launch4)
        data = store_manager.create_store((16,))
        result = store_manager.create_scalar_store()
        runtime.attach_array(data, np.arange(16, dtype=np.float64))
        runtime.submit(IndexTask("sum_reduce", launch4, [
            StoreArg(data, part, Privilege.READ),
            StoreArg(result, Replication(), Privilege.REDUCE, ReductionOp.ADD),
        ]))
        assert runtime.read_scalar(result) == pytest.approx(np.arange(16).sum())

    def test_max_reduction(self, store_manager, launch4):
        runtime = LegionRuntime(MachineConfig(num_gpus=4))
        part = natural_tiling((16,), launch4)
        data = store_manager.create_store((16,))
        result = store_manager.create_scalar_store()
        runtime.write_scalar(result, float("-inf"))
        runtime.attach_array(data, np.arange(16, dtype=np.float64))
        runtime.submit(IndexTask("max_reduce", launch4, [
            StoreArg(data, part, Privilege.READ),
            StoreArg(result, Replication(), Privilege.REDUCE, ReductionOp.MAX),
        ]))
        assert runtime.read_scalar(result) == pytest.approx(15.0)

    def test_opaque_task_execution(self, store_manager, launch4):
        registry = OpaqueTaskRegistry()

        def execute(task, point, buffers):
            buffers[1][...] = buffers[0] * 2.0
            return None

        def cost(task, point, buffers, machine):
            return 1e-3

        register_opaque_task("double", execute, cost, registry=registry)
        runtime = LegionRuntime(MachineConfig(num_gpus=4), opaque_registry=registry)
        part = natural_tiling((16,), launch4)
        a = store_manager.create_store((16,))
        b = store_manager.create_store((16,))
        runtime.attach_array(a, np.arange(16, dtype=np.float64))
        runtime.submit(IndexTask("double", launch4, [
            StoreArg(a, part, Privilege.READ),
            StoreArg(b, part, Privilege.WRITE),
        ]))
        np.testing.assert_allclose(runtime.read_array(b), np.arange(16) * 2.0)

    def test_unknown_task_rejected(self, store_manager, launch4):
        runtime = LegionRuntime(MachineConfig(num_gpus=4), opaque_registry=OpaqueTaskRegistry())
        part = natural_tiling((16,), launch4)
        a = store_manager.create_store((16,))
        with pytest.raises(UnexecutableTaskError):
            runtime.submit(IndexTask("no_such_task", launch4, [StoreArg(a, part, Privilege.READ)]))

    def test_fill_and_reset(self, store_manager):
        runtime = LegionRuntime(MachineConfig(num_gpus=2))
        store = store_manager.create_store((8,))
        runtime.fill(store, 3.0)
        assert runtime.read_array(store).min() == 3.0
        runtime.reset_profiling()
        assert runtime.simulated_seconds == 0.0
