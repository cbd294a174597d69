"""Outside-in span recorder: timing wrappers around the layers' callables.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each public callable listed in :data:`_METHODS`, :data:`_FUNCTIONS` and
the opaque registry with a wrapper that records one span per call —
name, start, end, the span that caused it and the op it belongs to —
into an in-memory list; :func:`uninstall` puts the originals back.
Worker processes forked while the wrappers are installed see them
disabled (``os.register_at_fork``); what happens inside workers comes
from the program's own ``REPRO_TELEMETRY`` events instead.

A span's *self time* is its duration minus what its children cover.
Children may run on pool threads and overlap, so a parent's children
share the wall-clock they jointly cover in proportion to their
durations (:func:`self_times`): self times of one op then always sum to
the wall-clock its root spans cover, never to more than the op took.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (id, parent id or 0, name, start, end, thread id, op index or None, extra)
Span = Tuple[int, int, str, float, float, int, Optional[int], object]

#: Span name -> layer (the unit the per-layer metrics are reported in).
LAYER_OF: Dict[str, str] = {}

#: The armed recorder; ``None`` makes every wrapper a plain call.
_RECORDER: Optional["Recorder"] = None


class Recorder:
    """Spans of one session, in completion order."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Index of the steady op in progress (``None`` outside one).
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: List[int] = []
        #: Per-object memo of computed kernel costs (strong references
        #: keep ``id()`` keys from being reused within a session).
        self.cost_memo: Dict[object, object] = {}

    def reset(self) -> None:
        self.spans = []
        self.op = None
        self.cost_memo = {}

    def set_op(self, index: Optional[int]) -> None:
        self.op = index

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def enter(self) -> Tuple[int, int, List[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # First span of a pool thread: caused by whatever the main
            # thread is blocked in.
            parent = self._main_stack[-1]
        else:
            parent = 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack


def _disable_in_child() -> None:
    global _RECORDER
    _RECORDER = None


os.register_at_fork(after_in_child=_disable_in_child)


def _wrap(fn: Callable, name: str, extra: Optional[Callable] = None) -> Callable:
    """``fn`` with a span around it; ``extra(args, result)`` annotates it."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        recorder = _RECORDER
        if recorder is None:
            return fn(*args, **kwargs)
        span_id, parent, stack = recorder.enter()
        result = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            note = extra(recorder, args, result) if extra is not None else None
            recorder.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(), recorder.op, note)
            )

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# ----------------------------------------------------------------------
# Span annotations (the counts measured where the work happens).
# ----------------------------------------------------------------------
def _kir_statements(function) -> int:
    """Top-level statements plus the statements inside each loop."""
    return sum(1 + len(getattr(stmt, "body", ())) for stmt in function.body)


def _note_pipeline(_recorder, args, result):
    return (_kir_statements(args[1]), _kir_statements(result)) if result is not None else None


def _note_length(_recorder, _args, result):
    """Tasks drained, characters generated, chunk requests carried."""
    return len(result) if result is not None else None


def _cost_totals(cost, counts: Dict[str, int]) -> Tuple[int, int]:
    """Computed (bytes, flops) of one kernel call (``kernel/cost.py``)."""
    counts = dict(counts)
    for name, like in cost.alloc_like:
        counts.setdefault(name, counts.get(like, 0))
    flops = sum(loop.flops(counts.get(loop.index_buffer, 0)) for loop in cost.loops)
    return cost.total_bytes(counts), flops


def _note_body(recorder, args, _result):
    """Computed traffic of a ``CodegenExecutor`` call from its bindings."""
    from repro.kernel.cost import analyze_kernel

    executor, buffers = args[0], args[1]
    memo = recorder.cost_memo
    entry = memo.get(id(executor))
    if entry is None:
        entry = memo[id(executor)] = (executor, analyze_kernel(executor.function))
    counts = {
        name: getattr(array, "size", 0) for name, array in buffers.items()
    }
    return _cost_totals(entry[1], counts)


def _note_superkernel(recorder, args, _result):
    """Computed traffic of one fused-unit call, per constituent kernel.

    Uses each constituent's own cost descriptor (before the fused unit
    folded dead intermediates into locals), so this is the modelled
    traffic of the steps the unit stands for.
    """
    step, start, stop = args[0], args[3], args[4]
    key = (id(step), start, stop)
    entry = recorder.cost_memo.get(key)
    if entry is None:
        bytes_total = flops_total = 0
        for section in step.sections:
            inner = section.step
            ranks = range(start, stop) if step.chunkable else range(inner.num_points)
            counts = {
                name: sum(table[rank][1] for rank in ranks)
                for name, _slot, is_reduction, table in inner.buffer_bindings
                if not is_reduction
            }
            moved, flops = _cost_totals(inner.kernel.cost, counts)
            bytes_total += moved
            flops_total += flops
        entry = recorder.cost_memo[key] = (step, (bytes_total, flops_total))
    return entry[1]


# ----------------------------------------------------------------------
# What gets wrapped.  (module, class, method, span name, layer, extra)
# ----------------------------------------------------------------------
_METHODS = (
    ("repro.frontend.legate.context", "RuntimeContext", "submit", "frontend.submit", "frontend", None),
    ("repro.frontend.legate.context", "RuntimeContext", "flush", "frontend.flush", "frontend", None),
    ("repro.frontend.legate.context", "RuntimeContext", "read_scalar", "frontend.read_scalar", "frontend", None),
    ("repro.frontend.legate.context", "RuntimeContext", "read_array", "frontend.read_array", "frontend", None),
    ("repro.fusion.engine", "DiffuseRuntime", "submit", "fusion.submit", "fusion", None),
    ("repro.fusion.engine", "DiffuseRuntime", "window_submit", "fusion.window_submit", "fusion", None),
    ("repro.fusion.engine", "DiffuseRuntime", "flush_window", "fusion.flush_window", "fusion", None),
    ("repro.fusion.engine", "DiffuseRuntime", "drain_window", "fusion.drain_window", "fusion", None),
    ("repro.ir.window", "TaskWindow", "drain", "fusion.window_drain", "fusion", _note_length),
    ("repro.fusion.memoization", "MemoizationCache", "lookup", "memo.lookup", "memo", None),
    ("repro.fusion.memoization", "MemoizationCache", "store", "memo.store", "memo", None),
    ("repro.kernel.compiler", "JITCompiler", "compile", "kernel.compile", "kernel.compile", None),
    ("repro.kernel.passes.pipeline", "PassPipeline", "run", "kernel.passes", "kernel.passes", _note_pipeline),
    ("repro.kernel.codegen", "CodegenExecutor", "__call__", "kernel.body", "kernel.body", _note_body),
    ("repro.runtime.trace", "TraceController", "add", "trace.add", "trace", None),
    ("repro.runtime.trace", "TraceController", "boundary", "trace.boundary", "trace", None),
    ("repro.runtime.trace", "TraceRecorder", "build_plan", "trace.build_plan", "trace", None),
    ("repro.runtime.scheduler", "PlanScheduler", "execute", "sched.execute", "sched", None),
    ("repro.runtime.runtime", "LegionRuntime", "resolve", "runtime.resolve", "runtime", None),
    ("repro.runtime.runtime", "LegionRuntime", "execute_resolved", "runtime.execute_resolved", "runtime", None),
    ("repro.runtime.executor", "TaskExecutor", "execute_compiled", "exec.compiled", "exec", None),
    ("repro.runtime.executor", "TaskExecutor", "execute_opaque", "exec.opaque", "exec", None),
    ("repro.runtime.executor", "TaskExecutor", "execute_opaque_deferred", "exec.opaque_deferred", "exec", None),
    ("repro.runtime.procpool", "ProcessWorkerPool", "__init__", "procpool.spawn", "procpool", None),
    ("repro.runtime.procpool", "ProcessWorkerPool", "run_chunks", "procpool.run_chunks", "procpool", _note_length),
    ("repro.runtime.procpool", "ProcessWorkerPool", "run_opaque_chunks", "procpool.run_opaque_chunks", "procpool", _note_length),
    ("repro.runtime.procpool", "ProcessWorkerPool", "run_resident_chunks", "procpool.run_resident_chunks", "procpool", _note_length),
    ("repro.runtime.shm", "SharedArena", "allocate", "shm.allocate", "shm", None),
    ("repro.runtime.shm", "SharedArena", "release", "shm.release", "shm", None),
)

#: Module-level functions; every ``repro`` module holding a reference
#: (``from x import f``) gets the wrapper.
_FUNCTIONS = (
    ("repro.fusion.algorithm", "plan_window", "fusion.plan_window", "fusion", None),
    ("repro.fusion.algorithm", "find_fusible_prefix", "fusion.find_fusible_prefix", "fusion", None),
    ("repro.fusion.algorithm", "build_fused_task", "fusion.build_fused_task", "fusion", None),
    ("repro.fusion.temporaries", "find_temporary_stores", "fusion.find_temporaries", "fusion", None),
    ("repro.fusion.memoization", "canonicalize_window", "memo.canonicalize_window", "memo", None),
    ("repro.fusion.memoization", "resolve_temporaries", "memo.resolve_temporaries", "memo", None),
    ("repro.kernel.lowering", "lower", "kernel.lower", "kernel.compile", None),
    ("repro.kernel.codegen", "generate_source", "kernel.generate_source", "kernel.compile", _note_length),
    ("repro.runtime.superkernel", "maybe_lower_plan", "superkernel.lower", "superkernel", None),
    ("repro.runtime.superkernel", "run_superkernel_ranks", "superkernel.call", "superkernel", _note_superkernel),
    ("repro.runtime.scheduler", "analyze_plan", "sched.analyze_plan", "sched", None),
)

for _entry in _METHODS:
    LAYER_OF[_entry[3]] = _entry[4]
for _entry in _FUNCTIONS:
    LAYER_OF[_entry[2]] = _entry[3]
LAYER_OF["opaque.body"] = "opaque"

#: Undo log of :func:`install`: (object, attribute, original value).
_UNDO: List[Tuple[object, str, object]] = []


def _set(owner: object, attribute: str, value: object) -> None:
    _UNDO.append((owner, attribute, getattr(owner, attribute)))
    setattr(owner, attribute, value)


def _wrap_superkernel_init(original: Callable) -> Callable:
    """``SuperKernel.__init__`` that times the fused closure it builds."""

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if _RECORDER is not None:
            self.executor = _wrap(self.executor, "kernel.body")

    return init


def install() -> Recorder:
    """Install every wrapper and arm a fresh recorder."""
    global _RECORDER
    if _UNDO:
        raise RuntimeError("span wrappers are already installed")
    for module_name, class_name, method, name, _layer, extra in _METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        _set(owner, method, _wrap(getattr(owner, method), name, extra))
    for module_name, function, name, _layer, extra in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        wrapper = _wrap(original, name, extra)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    _set(module, attribute, wrapper)
    superkernel = importlib.import_module("repro.runtime.superkernel").SuperKernel
    _set(superkernel, "__init__", _wrap_superkernel_init(superkernel.__init__))
    registry = importlib.import_module("repro.runtime.opaque").default_opaque_registry()
    for task_name in registry.registered_names():
        impl = registry.get(task_name)
        _set(impl, "execute", _wrap(impl.execute, "opaque.body"))
        if impl.chunk is not None:
            _set(impl.chunk, "execute", _wrap(impl.chunk.execute, "opaque.body"))
    _RECORDER = Recorder()
    return _RECORDER


def uninstall() -> None:
    """Restore every original callable and disarm the recorder."""
    global _RECORDER
    _RECORDER = None
    while _UNDO:
        owner, attribute, original = _UNDO.pop()
        setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# Self time.
# ----------------------------------------------------------------------
def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Wall-clock self time of every span reachable from a root.

    A root is a span with no parent.  Children are clipped to their
    parent; a parent keeps what its children leave uncovered, and the
    children divide what they jointly cover in proportion to their
    (clipped) durations, recursively.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    result: Dict[int, float] = {}
    # (span, clipped start, clipped end, weight)
    pending = [(span, span[3], span[4], 1.0) for span in children.get(0, ())]
    while pending:
        span, start, end, weight = pending.pop()
        clipped = []
        for child in children.get(span[0], ()):
            child_start, child_end = max(child[3], start), min(child[4], end)
            if child_end > child_start:
                clipped.append((child, child_start, child_end))
        covered = _covered((s, e) for _c, s, e in clipped)
        result[span[0]] = weight * max(0.0, (end - start) - covered)
        summed = sum(e - s for _c, s, e in clipped)
        if summed > 0.0:
            share = weight * covered / summed
            pending.extend((child, s, e, share) for child, s, e in clipped)
    return result


# ----------------------------------------------------------------------
# Perfetto export.
# ----------------------------------------------------------------------
def chrome_trace(spans: List[Span], telemetry_events, dropped: int) -> Dict[str, object]:
    """Wrapper spans and the program's own telemetry on one timeline.

    ``telemetry_events`` is ``telemetry.merged_events()``: parent and
    worker events with the workers' clock offsets already applied.
    """
    pid = os.getpid()
    base = min(
        [span[3] for span in spans] + [entry[2][3] for entry in telemetry_events],
        default=0.0,
    )
    events: List[Dict[str, object]] = []
    for span_id, parent, name, start, end, tid, op, _extra in spans:
        events.append(
            {
                "name": name,
                "cat": "bench." + LAYER_OF.get(name, "other"),
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"id": span_id, "parent": parent, "op": op},
            }
        )
    names = {pid: "repro-parent"}
    for event_pid, worker, (phase, kind, label, wall, tid, sim, _seq) in telemetry_events:
        if worker >= 0:
            names.setdefault(event_pid, f"repro-worker-{worker}")
        record = {
            "name": kind,
            "cat": "telemetry." + kind.split(".", 1)[0],
            "ph": "i" if phase == "I" else phase,
            "ts": (wall - base) * 1e6,
            "pid": event_pid,
            "tid": tid,
            "args": {"label": label, "sim_seconds": sim},
        }
        if phase == "I":
            record["s"] = "t"
        events.append(record)
    for event_pid, name in names.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": event_pid, "tid": 0, "args": {"name": name}}
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "benchmarks/e2e", "dropped_events": dropped},
    }
