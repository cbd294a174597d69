"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import config
from repro.frontend.legate.context import RuntimeContext, set_context
from repro.ir.domain import Domain
from repro.ir.partition import Tiling, natural_tiling
from repro.ir.privilege import Privilege
from repro.ir.store import StoreManager
from repro.ir.task import IndexTask, StoreArg
from repro.runtime.machine import MachineConfig
from repro.runtime.region import RegionField


# ----------------------------------------------------------------------
# The poisoned-allocation lever (the safety net of the allocation rule).
# ----------------------------------------------------------------------
def _poisoned_region_field_init():
    """``RegionField.__init__`` whose uninitialised storage arrives poisoned.

    Storage allocated without a zero-fill (``RegionManager.field``'s
    rule said the allocating launch defines every element first) is
    filled with 0xFF bytes — a NaN as ``float64``, -1 as an integer —
    instead of whatever the heap held, which under the pinned allocator
    is usually a plausible-looking earlier array.  A wrong verdict then
    shows as a NaN in a result rather than as a rare wrong digit.
    """
    original = RegionField.__init__

    def poisoned(self, store, initial=None, arena=None, uninitialised=False):
        original(self, store, initial, arena, uninitialised)
        if uninitialised:
            self.data.reshape(-1).view(np.uint8)[:] = 0xFF

    return poisoned


def pytest_addoption(parser):
    parser.addoption(
        "--poison-fields",
        action="store_true",
        help="poison every uninitialised region-field allocation for the whole run",
    )


def pytest_configure(config):
    if config.getoption("--poison-fields"):
        RegionField.__init__ = _poisoned_region_field_init()


@pytest.fixture
def poison_fields(monkeypatch):
    """Arm the poisoned-allocation lever for one test."""
    monkeypatch.setattr(RegionField, "__init__", _poisoned_region_field_init())


@pytest.fixture
def flags():
    """Set ``REPRO_*`` variables for one test: ``flags(REPRO_TRACE=0, ...)``.

    The memoized flags are reloaded after every call, and once more on
    teardown, after the environment is restored.
    """
    with pytest.MonkeyPatch.context() as patch:

        def set_flags(**values):
            for name, value in values.items():
                patch.setenv(name, str(value))
            config.reload_flags()

        yield set_flags
    config.reload_flags()


@pytest.fixture
def force_dispatch(monkeypatch):
    """Zero both dispatch thresholds so tiny launches reach the pools."""
    import repro.runtime.executor as executor_module
    import repro.runtime.scheduler as scheduler_module

    monkeypatch.setattr(executor_module, "MIN_POINT_DISPATCH_VOLUME", 0)
    monkeypatch.setattr(scheduler_module, "MIN_DISPATCH_VOLUME", 0)


@pytest.fixture
def lose_first_frame(monkeypatch):
    """Lose the first level frame of one test with its pool.

    The frame's run messages never reach the workers, and reading its
    replies raises ``ProcessPoolBrokenError`` after tearing the pool
    down.  Everything the calling thread does in between has run by then
    (its own share of the frame's chunks, the level's other steps), so
    the steps' worker chunks run inline and the calling thread's must
    not run again.  Later frames reach a fresh pool built by
    ``procpool.process_pool()``.  Yields the list of lost pools (one,
    once a frame was sent).
    """
    from repro.runtime import procpool

    lost, frames = [], []
    send, receive = procpool.ProcessWorkerPool._send, procpool.ProcessWorkerPool._receive

    def drop_first_frame(self, worker, message):
        if message[0] == "r":
            if not frames:
                lost.append(self)
                frames.append((self, message[1]))
            if frames[0] == (self, message[1]):
                return
        send(self, worker, message)

    def break_on_first_frame(self, worker, frame, deadline):
        if frames and frames[0] == (self, frame):
            self._break("worker lost")
        return receive(self, worker, frame, deadline)

    monkeypatch.setattr(procpool.ProcessWorkerPool, "_send", drop_first_frame)
    monkeypatch.setattr(procpool.ProcessWorkerPool, "_receive", break_on_first_frame)
    return lost


@pytest.fixture
def shm_entries():
    """A function listing this process's live ``/dev/shm`` segments.

    Segment names lead with the creating pid (``repro-<pid>-...``), so
    another process's arenas on the same host never enter a comparison.
    """
    prefix = f"repro-{os.getpid()}-"

    def entries():
        try:
            return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
        except OSError:
            return set()

    return entries


@pytest.fixture(autouse=True, scope="session")
def _shutdown_dispatch_substrate():
    """Tear down the dispatch pools and shared-memory arenas after the run.

    Worker processes and ``/dev/shm`` segments outlive individual tests
    by design (the pools are process-wide singletons, the arenas are
    owned by region managers); this fixture — alongside the ``atexit``
    hooks and arena finalizers that cover non-pytest entry points —
    makes the cleanup deterministic so test runs never leak child
    processes or shared-memory segments, and the resource tracker has
    nothing left to warn about.  A worker process or pool thread still
    alive after it fails the run.
    """
    yield
    import gc
    import multiprocessing

    from repro.runtime.pool import shutdown_shared_pool
    from repro.runtime.procpool import shutdown_process_pool

    shutdown_process_pool()
    shutdown_shared_pool()
    # Collect dropped region managers so their arena finalizers unlink
    # any remaining segments now rather than at interpreter exit.
    gc.collect()
    assert multiprocessing.active_children() == []
    assert [t.name for t in threading.enumerate() if t.name.startswith("procpool-")] == []


@pytest.fixture
def store_manager():
    """A fresh store manager."""
    return StoreManager()


@pytest.fixture
def launch4():
    """A 1-D launch domain with four points."""
    return Domain((4,))


@pytest.fixture(params=[True, False], ids=["fused", "unfused"])
def any_context(request):
    """A runtime context in both fused and unfused configurations."""
    context = RuntimeContext(num_gpus=4, fusion=request.param)
    set_context(context)
    yield context
    set_context(None)


@pytest.fixture
def fused_context():
    """A 4-GPU context with fusion enabled."""
    context = RuntimeContext(num_gpus=4, fusion=True)
    set_context(context)
    yield context
    set_context(None)


@pytest.fixture
def unfused_context():
    """A 4-GPU context with fusion disabled (the paper's baseline)."""
    context = RuntimeContext(num_gpus=4, fusion=False)
    set_context(context)
    yield context
    set_context(None)


@pytest.fixture
def single_gpu_context():
    """A single-GPU context with fusion enabled."""
    context = RuntimeContext(num_gpus=1, fusion=True)
    set_context(context)
    yield context
    set_context(None)


def make_elementwise_task(manager, launch, name, inputs, output, scalars=()):
    """Helper building an element-wise task reading ``inputs``, writing ``output``."""
    args = [StoreArg(store, natural_tiling(store.shape, launch), Privilege.READ) for store in inputs]
    args.append(StoreArg(output, natural_tiling(output.shape, launch), Privilege.WRITE))
    return IndexTask(name, launch, args, scalar_args=scalars)
