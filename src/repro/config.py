"""Process-level configuration: seven environment variables, one table.

Every ``REPRO_*`` variable the reproduction reads is a row of
:data:`FLAGS` — ``env var -> (default, parser)``.  What each one does is
documented once, in the "Configuration flags" table of
``docs/architecture.md`` (a test keeps the two in step).  Values are
parsed on first use and memoized, because the getters sit on
per-point-task code paths; after changing a variable inside a running
process call :func:`reload_flags` (and build a fresh ``RuntimeContext``:
the Diffuse layer samples the trace flag once per engine).  Buffers and
simulated seconds are bit-identical for every combination of values.

Three layers are always on and have no variable: algebraic
normalisation, epoch super-kernels and chunk-level opaque operators.
Their reference paths remain (they are what the fused paths are verified
against); tests reach them by flipping :data:`NORMALIZE`,
:data:`SUPERKERNEL` or :data:`OPAQUE_CHUNKS` with ``monkeypatch.setattr``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Tuple

#: Recognised kernel backend names (``repro.kernel.lowering.lower``
#: rejects anything else).
BACKENDS = ("codegen", "interpreter", "differential")

#: Upper bound on the default worker count (explicit settings may exceed it).
MAX_DEFAULT_WORKERS = 8

#: Default telemetry ring-buffer capacity (events).
DEFAULT_TELEMETRY_EVENTS = 65536

#: Test levers for the always-on layers (see the module docstring).
NORMALIZE = True
SUPERKERNEL = True
OPAQUE_CHUNKS = True


# ----------------------------------------------------------------------
# Parsers: (stripped, lower-cased, non-empty raw value, default) -> value.
# ----------------------------------------------------------------------
def _switch(raw: str, default: bool) -> bool:
    """An on/off flag; anything unrecognised keeps the default."""
    if raw in ("0", "off", "false"):
        return False
    if raw in ("1", "on", "true"):
        return True
    return default


def _positive_int(raw: str, default: int) -> int:
    """A worker/width knob: clamped to >= 1, junk degrades to serial."""
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _ring_capacity(raw: str, default: int) -> int:
    """Junk or non-positive values keep the default; the floor of 16
    leaves room for at least a handful of nested spans."""
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(16, value) if value > 0 else default


def _name(raw: str, default: str) -> str:
    return raw


#: Every environment variable the reproduction reads.
FLAGS: Dict[str, Tuple[object, Callable]] = {
    "REPRO_KERNEL_BACKEND": ("codegen", _name),
    "REPRO_HOTPATH_CACHE": (True, _switch),
    "REPRO_TRACE": (True, _switch),
    "REPRO_WORKERS": (max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)), _positive_int),
    "REPRO_POINT_WORKERS": (1, _positive_int),
    "REPRO_TELEMETRY": (False, _switch),
    "REPRO_TELEMETRY_EVENTS": (DEFAULT_TELEMETRY_EVENTS, _ring_capacity),
}

#: Parsed values, filled on first use; :func:`reload_flags` clears it.
_MEMO: Dict[str, object] = {}


def _read(name: str):
    """Parse ``name`` from the environment (unset or empty: its default)."""
    default, parse = FLAGS[name]
    raw = os.environ.get(name, "").strip().lower()
    return parse(raw, default) if raw else default


def _getter(name: str, doc: str) -> Callable:
    """The memoized accessor of one :data:`FLAGS` row: a single dict
    read once parsed, with no ``os.environ`` access per call."""

    def get():
        try:
            return _MEMO[name]
        except KeyError:
            value = _MEMO[name] = _read(name)
            return value

    get.__doc__ = doc
    return get


def default_backend() -> str:
    """The kernel backend (``REPRO_KERNEL_BACKEND``).

    Read from the environment on every call rather than memoized: it is
    consulted once per kernel or plan lowering, never per point task, and
    a stale ``differential`` would silently change what later runs check.
    """
    return _read("REPRO_KERNEL_BACKEND")


hotpath_cache_enabled = _getter(
    "REPRO_HOTPATH_CACHE", "True unless the launch caches are off (the seed path)."
)
trace_enabled = _getter(
    "REPRO_TRACE", "True unless trace capture and replay are off (eager submission)."
)
worker_count = _getter("REPRO_WORKERS", "Size of the plan-scheduler worker pool.")
point_worker_count = _getter(
    "REPRO_POINT_WORKERS",
    "Worker processes a replayed step's rank chunks run on (1 = inline rank loop).",
)
telemetry_enabled = _getter("REPRO_TELEMETRY", "True when the span flight recorder is armed.")
telemetry_event_capacity = _getter(
    "REPRO_TELEMETRY_EVENTS", "Capacity (events) of the telemetry ring buffer."
)


def resident_plans_enabled() -> bool:
    # Always on; kept only for benchmarks/e2e/e2ebench/workloads.py::resolved_flags.
    return True


def dispatch_backend() -> str:
    # Derived; kept only for benchmarks/e2e/e2ebench/workloads.py::resolved_flags.
    return "process" if point_worker_count() > 1 else "thread"


def normalize_enabled() -> bool:
    """Algebraic normalisation before CSE (:data:`NORMALIZE`)."""
    return NORMALIZE


def superkernel_enabled() -> bool:
    """Plan -> super-kernel lowering (:data:`SUPERKERNEL`)."""
    return SUPERKERNEL


def opaque_chunks_enabled() -> bool:
    """Chunk-level opaque operator calls (:data:`OPAQUE_CHUNKS`)."""
    return OPAQUE_CHUNKS


# ----------------------------------------------------------------------
# Reload.
# ----------------------------------------------------------------------
#: Callbacks invoked by :func:`reload_flags` after the memo is cleared.
#: The worker pools, the telemetry ring and the super-kernel cache
#: register here so a flag flip retires state built under the old values
#: instead of letting the next launch reuse it.
_RELOAD_CALLBACKS: List[Callable[[], None]] = []


def register_reload_callback(callback: Callable[[], None]) -> None:
    """Run ``callback`` on every :func:`reload_flags` (deduplicated)."""
    if callback not in _RELOAD_CALLBACKS:
        _RELOAD_CALLBACKS.append(callback)


def reload_flags() -> None:
    """Re-read every flag on next access and notify the reload callbacks."""
    _MEMO.clear()
    for callback in _RELOAD_CALLBACKS:
        callback()
