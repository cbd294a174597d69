"""Span/event flight recorder for the execution stack.

``REPRO_TELEMETRY=1`` arms a process-wide :class:`SpanRecorder`: a
preallocated ring buffer (``REPRO_TELEMETRY_EVENTS`` events) receiving
begin/end spans from the instrumented layers — epoch capture/replay
(``trace.py``), scheduler levels and steps (``scheduler.py``), point and
opaque chunks (``executor.py``), super-kernel calls (``superkernel.py``),
wire traffic and worker-side execution (``procpool.py``) and
shared-memory arena activity (``shm.py``).  Every event carries the
wall-clock (``time.perf_counter``), the runtime's simulated seconds where
the site has them, the recording thread id and a free-form label
(plan/step/rank-range).

Process-pool workers run their own recorder (installed by a handshake at
pool spawn) and piggyback drained events on reply frames; the parent
ingests them tagged with the worker's OS pid and the clock offset
measured during the handshake, so :func:`export_chrome_trace` renders
parent threads and worker processes on one aligned timeline.  The export
is Chrome trace-event JSON, loadable directly in Perfetto
(``python -m repro.tools.tracedump`` writes it to a file).

The off path is free by construction: with the flag unset the module
global ``_RECORDER`` stays ``None`` and :func:`span`/:func:`instant`
return immediately without constructing anything or touching a recorder
(the tests assert zero recorder calls).  :func:`config.reload_flags`
retires the ring buffer through a registered callback, mirroring the
pool-singleton retirement pattern.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro import config

# Event tuples: (phase, kind, label, wall_seconds, thread_id, simulated
# seconds, sequence number).  Phase is "B" (begin), "E" (end) or "I"
# (instant); the sequence number is the recorder's running event count
# at record time, so per-recorder ordering survives the merge.
Event = Tuple[str, str, str, float, int, float, int]


class SpanRecorder:
    """Preallocated ring buffer of span begin/end and instant events."""

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._events: List[Optional[Event]] = [None] * self.capacity
        self._count = 0
        self._lock = threading.Lock()

    def record(self, phase: str, kind: str, label: str, sim: float) -> None:
        """Append one event, overwriting the oldest when the ring is full."""
        now = time.perf_counter()
        tid = threading.get_ident()
        with self._lock:
            seq = self._count
            self._events[seq % self.capacity] = (
                phase, kind, label, now, tid, sim, seq,
            )
            self._count = seq + 1

    @property
    def recorded(self) -> int:
        """Total events recorded, including any overwritten ones."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events lost to ring wrap-around."""
        return max(0, self._count - self.capacity)

    def _live(self) -> List[Event]:
        """Live events, oldest first (caller holds the lock)."""
        used = min(self._count, self.capacity)
        start = self._count % self.capacity if self._count > used else 0
        return self._events[start:used] + self._events[:start]

    def events(self) -> List[Event]:
        """Live events, oldest first."""
        with self._lock:
            return self._live()

    def drain(self) -> List[Event]:
        """Return the live events, oldest first, and clear the ring.

        Pool workers drain once per reply, so this costs what was
        recorded, not the ring's capacity: an empty ring returns at
        once, and only the slots in use are cleared, in place.
        """
        with self._lock:
            if not self._count:
                return []
            out = self._live()
            self._events[: len(out)] = [None] * len(out)
            self._count = 0
            return out


class _Span:
    """Context manager recording a begin/end pair on one recorder."""

    __slots__ = ("_recorder", "_kind", "_label", "_sim")

    def __init__(self, recorder: SpanRecorder, kind: str, label: str, sim: float) -> None:
        self._recorder = recorder
        self._kind = kind
        self._label = label
        self._sim = sim

    def __enter__(self) -> "_Span":
        self._recorder.record("B", self._kind, self._label, self._sim)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.record("E", self._kind, self._label, self._sim)


class _NoopSpan:
    """Shared do-nothing span handed out when telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

#: The armed recorder, or ``None`` when ``REPRO_TELEMETRY`` is off.  The
#: instrumentation fast path is one module-global read plus a ``None``
#: check; nothing else runs when telemetry is disabled.
_RECORDER: Optional[SpanRecorder] = None

#: Worker event batches ingested by the parent: (pid, worker index,
#: clock offset to add to worker timestamps, events).  Bounded to the
#: ring capacity in total events; oldest batches are dropped first.
_WORKER_BATCHES: List[Tuple[int, int, float, List[Event]]] = []
_WORKER_BATCH_LOCK = threading.Lock()
_WORKER_DROPPED = 0


def enabled() -> bool:
    """True when a recorder is armed in this process."""
    return _RECORDER is not None


def active() -> Optional[SpanRecorder]:
    """The armed recorder, or ``None`` when telemetry is off."""
    return _RECORDER


def span(kind: str, label: str = "", sim: float = 0.0):
    """A context manager bracketing ``kind`` with begin/end events.

    Returns a shared no-op object when telemetry is off — the off path
    performs no allocation and no recorder call.
    """
    recorder = _RECORDER
    if recorder is None:
        return _NOOP_SPAN
    return _Span(recorder, kind, label, sim)


def instant(kind: str, label: str = "", sim: float = 0.0) -> None:
    """Record a single instant event (no duration)."""
    recorder = _RECORDER
    if recorder is None:
        return
    recorder.record("I", kind, label, sim)


def worker_state() -> Tuple[bool, int]:
    """The (enabled, capacity) pair worker processes should mirror.

    The process pool snapshots this at spawn (and ships it in the
    telemetry handshake); ``procpool`` retires a pool whose snapshot no
    longer matches after :func:`config.reload_flags`.
    """
    return (config.telemetry_enabled(), config.telemetry_event_capacity())


def install_worker_recorder(armed: bool, capacity: int) -> None:
    """(Re)install this process's recorder from a handshake/reset message.

    Called inside pool worker processes: forked children inherit the
    parent's recorder object, so the handshake always replaces it — with
    a fresh ring when armed, with ``None`` when not.
    """
    global _RECORDER
    _RECORDER = SpanRecorder(capacity) if armed else None


def drain_events() -> Optional[List[Event]]:
    """Drain this process's recorder for piggybacking on a reply frame.

    Returns ``None`` when telemetry is off or nothing was recorded, so
    the reply tuple keeps its classic 3-element shape in that case.
    """
    recorder = _RECORDER
    if recorder is None:
        return None
    events = recorder.drain()
    return events or None


def ingest_worker_events(
    pid: int, worker: int, offset: float, events: List[Event]
) -> None:
    """Merge a worker's drained events into the parent-side trace.

    ``offset`` is added to the worker's timestamps (measured by the
    clock handshake at pool spawn) so both timelines align.  Total
    retained worker events are bounded by the ring capacity; the oldest
    batches are dropped first and counted.
    """
    global _WORKER_DROPPED
    recorder = _RECORDER
    if recorder is None or not events:
        return
    with _WORKER_BATCH_LOCK:
        _WORKER_BATCHES.append((pid, worker, offset, events))
        total = sum(len(batch[3]) for batch in _WORKER_BATCHES)
        while total > recorder.capacity and len(_WORKER_BATCHES) > 1:
            stale = _WORKER_BATCHES.pop(0)
            _WORKER_DROPPED += len(stale[3])
            total -= len(stale[3])


def reset() -> None:
    """Clear recorded events (parent ring and ingested worker batches)."""
    global _WORKER_DROPPED
    recorder = _RECORDER
    if recorder is not None:
        recorder.drain()
    with _WORKER_BATCH_LOCK:
        _WORKER_BATCHES.clear()
        _WORKER_DROPPED = 0


def merged_events() -> List[Tuple[int, int, Event]]:
    """All events as (pid, worker index, event) with aligned timestamps.

    The parent's events carry worker index ``-1``; worker events have
    their clock offsets applied.  Per-source recording order is
    preserved (parent ring order; batch arrival order per worker).
    """
    merged: List[Tuple[int, int, Event]] = []
    pid = os.getpid()
    recorder = _RECORDER
    if recorder is not None:
        merged.extend((pid, -1, event) for event in recorder.events())
    with _WORKER_BATCH_LOCK:
        batches = list(_WORKER_BATCHES)
    for worker_pid, worker, offset, events in batches:
        for phase, kind, label, wall, tid, sim, seq in events:
            merged.append(
                (worker_pid, worker, (phase, kind, label, wall + offset, tid, sim, seq))
            )
    return merged


def dropped_events() -> int:
    """Events lost to ring wrap-around or worker-batch trimming."""
    recorder = _RECORDER
    parent = recorder.dropped if recorder is not None else 0
    with _WORKER_BATCH_LOCK:
        return parent + _WORKER_DROPPED


def export_chrome_trace() -> Dict[str, Any]:
    """Render the merged trace as a Chrome trace-event JSON object.

    The result loads directly in Perfetto / ``chrome://tracing``: one
    ``pid`` lane per OS process (parent plus each pool worker), one
    ``tid`` lane per recording thread, ``B``/``E`` span pairs and ``i``
    instants, timestamps in microseconds relative to the earliest event.
    """
    merged = merged_events()
    events: List[Dict[str, Any]] = []
    base = min((entry[2][3] for entry in merged), default=0.0)
    seen_processes: Dict[int, int] = {}
    for pid, worker, (phase, kind, label, wall, tid, sim, seq) in merged:
        if pid not in seen_processes:
            seen_processes[pid] = worker
        record: Dict[str, Any] = {
            "name": kind,
            "cat": kind.split(".", 1)[0],
            "ph": "i" if phase == "I" else phase,
            "ts": (wall - base) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {"label": label, "sim_seconds": sim, "seq": seq},
        }
        if phase == "I":
            record["s"] = "t"
        events.append(record)
    for pid, worker in seen_processes.items():
        name = "repro-parent" if worker < 0 else f"repro-worker-{worker}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.runtime.telemetry",
            "dropped_events": dropped_events(),
        },
    }


def span_summary() -> Tuple[int, Dict[str, List[float]]]:
    """Where the replayed epochs went, from the recorder's own events.

    Returns the number of ``epoch.replay`` spans and, per span kind,
    ``[count, total seconds, self seconds]`` over the spans (and
    instants) that began inside one — on any thread or worker process
    (:func:`merged_events` aligns their clocks).  Self time is a span's
    duration minus the spans nested in it on its own thread, so a parent
    waiting on pool threads or workers keeps the wait.  Ends whose begin
    the ring already dropped are skipped.
    """
    spans: List[Tuple[str, float, float, float]] = []  # kind, begin, total, self
    stacks: Dict[Tuple[int, int], List[list]] = {}
    for pid, _worker, (phase, kind, _label, wall, tid, _sim, _seq) in merged_events():
        stack = stacks.setdefault((pid, tid), [])
        if phase == "B":
            stack.append([kind, wall, 0.0])
        elif phase == "I":
            spans.append((kind, wall, 0.0, 0.0))
        elif stack and stack[-1][0] == kind:
            _kind, begin, nested = stack.pop()
            if stack:
                stack[-1][2] += wall - begin
            spans.append((kind, begin, wall - begin, wall - begin - nested))
    replays = sorted((b, b + total) for kind, b, total, _s in spans if kind == "epoch.replay")
    starts = [begin for begin, _end in replays]
    table: Dict[str, List[float]] = {}
    for kind, begin, total, self_seconds in spans:
        index = bisect_right(starts, begin) - 1
        if index >= 0 and begin <= replays[index][1]:
            row = table.setdefault(kind, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total
            row[2] += self_seconds
    return len(replays), table


def write_chrome_trace(path: str) -> Dict[str, Any]:
    """Serialise :func:`export_chrome_trace` to ``path``; returns the dict."""
    import json

    trace = export_chrome_trace()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return trace


def _reload_telemetry() -> None:
    """Retire/re-arm the ring buffer after :func:`config.reload_flags`.

    Mirrors the pool-singleton retirement pattern: the old ring (sized
    and armed under the previous flag values) is dropped, a fresh one is
    built when the new flags ask for it, and ingested worker batches are
    cleared.  Worker-side recorders are refreshed by the process pool
    (``procpool`` retires a pool whose telemetry snapshot went stale).
    """
    global _RECORDER, _WORKER_DROPPED
    armed, capacity = worker_state()
    _RECORDER = SpanRecorder(capacity) if armed else None
    with _WORKER_BATCH_LOCK:
        _WORKER_BATCHES.clear()
        _WORKER_DROPPED = 0


config.register_reload_callback(_reload_telemetry)
# Arm (or not) from the flags as first imported, so processes that never
# call reload_flags still honour REPRO_TELEMETRY set at launch.
_reload_telemetry()
