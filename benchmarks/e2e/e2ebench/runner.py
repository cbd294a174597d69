"""Measure one workload in this process and reduce it to named metrics.

:func:`measure` is what a child process of ``run.py`` executes, and what
the self-check test calls directly at ``quick`` sizes.  It runs, in
order: the untraced sessions every end-to-end metric comes from, for a
traced run the sessions with the span wrappers installed and
``REPRO_TELEMETRY=1``, and last one short *unfused* session, the
baseline of the simulated fusion speed-up.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.runtime import telemetry

from e2ebench import calibration, layers, spans
from e2ebench.stats import median, quantile, tail_quantile
from e2ebench.workloads import (
    REFERENCE_ENV,
    SessionResult,
    Workload,
    resolved_flags,
    run_session,
    scoped_flags,
    session_problems,
)

#: Steady ops of the unfused session (simulated time per op repeats, so
#: a few are enough; the same ops of the first fused session are used).
UNFUSED_OPS = 8

#: Sessions a run holds at the very least, whatever its budget.
MIN_SESSIONS = 3

#: Share of a traced run's budget spent on the untraced sessions that
#: the tracing overhead is measured against.
UNTRACED_SHARE = 0.4

#: The traced sessions' telemetry ring.  It is kept small and drained
#: after every op: a worker re-allocates its whole ring for every reply it
#: piggybacks events on, so a large ring slows the process substrate by a
#: multiple (measured 4.0 -> 11.7 ms per ``swe-wide-process`` op at 2**20
#: events, 5.5 ms at the default 65536, 4.2 ms at 4096).
TELEMETRY_ENV = {"REPRO_TELEMETRY": "1", "REPRO_TELEMETRY_EVENTS": "4096"}


@dataclass
class Measurement:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    traced: bool
    flags: Dict[str, object]
    host: Dict[str, object]
    unfused: SessionResult
    sessions: List[SessionResult]
    traced_sessions: List[SessionResult] = field(default_factory=list)
    #: Per-layer values of each traced session.
    session_layers: List[Dict[str, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: Perfetto-loadable trace of the last traced session.
    trace: Optional[Dict[str, object]] = None


def host_facts() -> Dict[str, object]:
    """Facts recorded with every run (they explain differences between runs)."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = -1.0
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_average_at_start": load,
    }


def _run_sessions(
    workload: Workload,
    prepared,
    budget_s: Optional[float],
    count: Optional[int],
    on_session: Optional[Callable[[SessionResult], None]] = None,
    on_op: Optional[Callable[[Optional[int]], None]] = None,
) -> List[SessionResult]:
    """``count`` sessions, or as many as fit ``budget_s`` (at least three).

    The host's slowdown is sampled between sessions; a session's is the
    mean of the samples on either side of it.
    """
    sessions: List[SessionResult] = []
    started = time.perf_counter()
    slow_before = calibration.slowdown()
    while True:
        before = time.perf_counter()
        session = run_session(workload, prepared, on_op=on_op)
        slow_after = calibration.slowdown()
        session.slowdown = (slow_before + slow_after) / 2.0
        slow_before = slow_after
        sessions.append(session)
        if on_session is not None:
            on_session(session)
        now = time.perf_counter()
        if count is not None:
            if len(sessions) >= count:
                return sessions
        elif len(sessions) >= MIN_SESSIONS and (now - started) + (now - before) > budget_s:
            return sessions


def _unfused_session(workload: Workload, prepared) -> SessionResult:
    return run_session(
        workload, prepared, fusion=False,
        steady_ops=min(UNFUSED_OPS, workload.steady_ops),
    )


def measure(
    workload: Workload,
    seed: int,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
    traced: bool = False,
) -> Measurement:
    """Run ``workload`` for ``seconds`` (or ``sessions`` sessions per pass)."""
    if seconds is None and sessions is None:
        raise ValueError("measure() needs a time budget or a session count")
    with scoped_flags(workload.env):
        host = host_facts()
        prepared = workload.prepare(seed)
        flags = resolved_flags()
        share = UNTRACED_SHARE if traced else 1.0
        peak_rss_kb: List[int] = []

        def note_memory(_session: SessionResult) -> None:
            # After a fixed number of sessions, so that a faster build,
            # which fits more sessions into its budget, is not charged
            # for whatever grows from session to session.
            if len(peak_rss_kb) < MIN_SESSIONS:
                peak_rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

        plain = _run_sessions(
            workload, prepared,
            None if seconds is None else seconds * share,
            sessions, on_session=note_memory,
        )
    result = Measurement(
        workload=workload.name, seed=seed, traced=traced, flags=flags,
        host=host, unfused=SessionResult(), sessions=plain,
        peak_rss_mb=peak_rss_kb[-1] / 1024.0,
    )
    if traced:
        _measure_traced(
            workload, prepared, result,
            None if seconds is None else seconds * (1.0 - UNTRACED_SHARE),
            None if sessions is None else max(1, sessions // 4),
        )
    # The unfused session comes last: without fusion every temporary is
    # materialised, which would set the process's peak memory instead of
    # the configuration being measured.
    with scoped_flags(workload.env):
        result.unfused = unfused = _unfused_session(workload, prepared)
    result.problems = session_problems(workload, prepared, plain + result.traced_sessions)
    if unfused.error or unfused.failed:
        result.problems.append(f"unfused session: {unfused.error or 'oracle mismatch'}")
    return result


def reference(workload: Workload, seed: int) -> Dict[str, object]:
    """Reference results through the seed execution path (``expected.json``).

    Interpreter backend, no trace replay, no hot-path caches, thread
    substrate: the configuration every later layer is defined against,
    so a reference never comes from the configuration under test.
    """
    with scoped_flags(REFERENCE_ENV):
        prepared = workload.prepare(seed)
        unfused = _unfused_session(workload, prepared)
        fused = run_session(workload, prepared)
    measurement = Measurement(
        workload=workload.name, seed=seed, traced=False, flags={}, host={},
        unfused=unfused, sessions=[fused],
    )
    problems = [s.error or "oracle mismatch" for s in (unfused, fused) if s.error or s.failed]
    return {"checksum": fused.checksum, **simulated(measurement), "problems": problems}


def _measure_traced(
    workload: Workload,
    prepared,
    result: Measurement,
    budget_s: Optional[float],
    count: Optional[int],
) -> None:
    """The traced pass: wrappers installed, telemetry armed."""
    with scoped_flags({**workload.env, **TELEMETRY_ENV}):
        recorder = spans.install()
        events: List[tuple] = []
        dropped = 0
        #: Raw spans and events of the latest session, for the trace file.
        latest: tuple = ([], [], 0)

        def drain() -> None:
            nonlocal dropped
            events.extend(telemetry.merged_events())
            dropped += telemetry.dropped_events()
            telemetry.reset()

        def on_op(index: Optional[int]) -> None:
            drain()
            recorder.set_op(index)

        def harvest(session: SessionResult) -> None:
            nonlocal dropped, latest
            drain()
            values = layers.session_layers(session, recorder.spans, events)
            values["telemetry.dropped_events"] = dropped
            result.session_layers.append(values)
            # Keep only the latest session's raw spans: one session is
            # what a person can read in Perfetto, and the file stays a
            # few megabytes.
            latest = (recorder.spans, list(events), dropped)
            recorder.reset()
            events.clear()
            dropped = 0

        try:
            telemetry.reset()
            result.traced_sessions = _run_sessions(
                workload, prepared, budget_s, count,
                on_session=harvest, on_op=on_op,
            )
            result.trace = spans.chrome_trace(*latest)
        finally:
            spans.uninstall()


# ----------------------------------------------------------------------
# Reduction to named metrics.
# ----------------------------------------------------------------------
def _good(sessions: List[SessionResult]) -> List[SessionResult]:
    return [session for session in sessions if not session.error and session.op_s]


def end_to_end(workload: Workload, measurement: Measurement) -> Dict[str, float]:
    """The end-to-end metrics (``BENCHMARK.json`` ``end_to_end``).

    Timings are medians over sessions, in reference-speed seconds: each
    session's value is divided by the host's slowdown during it.
    """
    sessions = _good(measurement.sessions)
    if not sessions:
        return {}
    ops = len(sessions[0].op_s)

    def typical(value) -> float:
        return median([value(s) / s.slowdown for s in sessions])

    return {
        "setup_s": typical(lambda s: s.setup_s),
        "warmup_s": typical(lambda s: s.warmup_s),
        "op_ms": typical(lambda s: median(s.op_s)) * 1e3,
        "ops_per_s": ops / typical(lambda s: s.steady_s),
        "cpu_ms_per_op": typical(lambda s: s.cpu_s) / ops * 1e3,
        "peak_rss_mb": measurement.peak_rss_mb,
    }


def simulated(measurement: Measurement) -> Dict[str, float]:
    """``sim.*``: deterministic, from the first session and its unfused twin."""
    sessions = _good(measurement.sessions)
    unfused = measurement.unfused
    if not sessions or unfused.error or not unfused.sim_op_s:
        return {"sim.ops_per_s": 0.0, "sim.fusion_speedup": 0.0}
    first = sessions[0]
    shared = len(unfused.sim_op_s)
    return {
        "sim.ops_per_s": len(first.sim_op_s) / sum(first.sim_op_s),
        "sim.fusion_speedup": sum(unfused.sim_op_s) / sum(first.sim_op_s[:shared]),
    }


def per_layer(workload: Workload, measurement: Measurement) -> Dict[str, float]:
    """The per-layer metrics (``BENCHMARK.json`` ``per_layer``)."""
    values = {metric.name: 0.0 for metric in layers.METRICS}
    for metric in layers.METRICS:
        samples = [row[metric.name] for row in measurement.session_layers]
        if samples:
            values[metric.name] = median(samples)
    values.update(simulated(measurement))
    plain, traced = _good(measurement.sessions), _good(measurement.traced_sessions)
    if plain:
        pooled = [seconds for session in plain for seconds in session.op_s]
        medians = [median(session.op_s) for session in plain]
        values["e2e.op_ms_p50"] = median(pooled) * 1e3
        values["e2e.op_ms_p99"] = quantile(pooled, min(0.99, tail_quantile(len(pooled)))) * 1e3
        values["e2e.samples"] = len(pooled)
        values["e2e.session_spread"] = quantile(medians, 0.9) / quantile(medians, 0.1)
        values["e2e.host_slowdown"] = median([session.slowdown for session in plain])
        if traced:
            values["trace.overhead_ratio"] = median(
                [median(s.op_s) / s.slowdown for s in traced]
            ) / median([median(s.op_s) / s.slowdown for s in plain])
    return values


def attempted_and_failed(workload: Workload, measurement: Measurement) -> Dict[str, int]:
    """Ops attempted and failed; a run with a problem fails every op.

    A disengaged layer, disagreeing checksums or a crashed session mean
    the numbers describe something other than the workload, so the whole
    run counts as failed rather than the few ops that noticed.
    """
    sessions = measurement.sessions + measurement.traced_sessions
    attempted = sum(session.attempted for session in sessions)
    failed = sum(session.failed for session in sessions)
    if measurement.problems:
        failed = attempted
    return {"attempted": attempted, "failed": failed}


# ----------------------------------------------------------------------
# Wire format between a child process and run.py.
# ----------------------------------------------------------------------
def to_json(workload: Workload, measurement: Measurement) -> str:
    """One line of JSON with everything ``run.py`` reports."""
    first = _good(measurement.sessions)[:1]
    payload = {
        "workload": measurement.workload,
        "seed": measurement.seed,
        "traced": measurement.traced,
        "flags": measurement.flags,
        "host": measurement.host,
        "sessions": len(measurement.sessions),
        "traced_sessions": len(measurement.traced_sessions),
        "problems": measurement.problems,
        "checksum": first[0].checksum if first else None,
        "end_to_end": end_to_end(workload, measurement),
        "per_layer": per_layer(workload, measurement) if measurement.traced else simulated(measurement),
        **attempted_and_failed(workload, measurement),
    }
    return json.dumps(payload)
