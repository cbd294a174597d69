"""Telemetry flight recorder (``REPRO_TELEMETRY``).

Acceptance bar: arming the recorder changes *nothing* about execution —
buffers, checksums, simulated seconds and the wire counters stay
bit-identical under the differential kernel backend on the process
substrate — while a CG run over worker processes exports a valid Chrome
trace-event JSON whose spans come from at least two OS processes
(parent plus pool workers), every begin matched by an end, nested within
its epoch, with per-worker recording order preserved across the merge.
The off path is provably free: with the flag unset no recorder call is
ever made.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict

import pytest

from repro import config
from repro.experiments.harness import ExperimentScale, run_application_experiment
from repro.runtime import telemetry
from repro.runtime.telemetry import SpanRecorder


@pytest.fixture(autouse=True)
def _reload_flags_after():
    yield
    config.reload_flags()


#: A small steady-replay CG configuration: enough epochs that capture,
#: replay, scheduling, point dispatch and the wire protocol all appear.
CG_SCALE = ExperimentScale({"grid_points_per_gpu": 16}, 1e-5, 6, 2)


def _run_cg(
    monkeypatch,
    telemetry_on: bool,
    point_workers: str = "4",
    workers: str = "4",
    kernel_backend: str = "codegen",
):
    """One CG run under the full replay stack; returns the RunResult."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1" if telemetry_on else "0")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", kernel_backend)
    monkeypatch.setenv("REPRO_HOTPATH_CACHE", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_WORKERS", workers)
    monkeypatch.setenv("REPRO_POINT_WORKERS", point_workers)
    config.reload_flags()
    telemetry.reset()
    return run_application_experiment("cg", num_gpus=4, fusion=True, scale=CG_SCALE)


# ----------------------------------------------------------------------
# Configuration flags.
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        config.reload_flags()
        assert config.telemetry_enabled() is False
        assert telemetry.active() is None
        assert not telemetry.enabled()

    @pytest.mark.parametrize("value", ["1", "on", "true", "TRUE"])
    def test_enabled_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        config.reload_flags()
        assert config.telemetry_enabled() is True
        assert isinstance(telemetry.active(), SpanRecorder)

    def test_capacity_default_floor_and_junk(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_EVENTS", raising=False)
        config.reload_flags()
        assert config.telemetry_event_capacity() == config.DEFAULT_TELEMETRY_EVENTS
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "4")
        config.reload_flags()
        assert config.telemetry_event_capacity() == 16
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "junk")
        config.reload_flags()
        assert config.telemetry_event_capacity() == config.DEFAULT_TELEMETRY_EVENTS
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "-5")
        config.reload_flags()
        assert config.telemetry_event_capacity() == config.DEFAULT_TELEMETRY_EVENTS

    def test_reload_resizes_ring(self, monkeypatch):
        """Satellite: ``reload_flags`` retires/resizes the ring buffer."""
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "64")
        config.reload_flags()
        first = telemetry.active()
        assert first is not None and first.capacity == 64
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "128")
        config.reload_flags()
        second = telemetry.active()
        assert second is not None and second.capacity == 128
        assert second is not first
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        config.reload_flags()
        assert telemetry.active() is None

    def test_reload_clears_worker_batches(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        config.reload_flags()
        telemetry.ingest_worker_events(
            12345, 0, 0.0, [("I", "x", "", 1.0, 1, 0.0, 0)]
        )
        assert any(pid == 12345 for pid, _, _ in telemetry.merged_events())
        config.reload_flags()
        assert not any(pid == 12345 for pid, _, _ in telemetry.merged_events())


# ----------------------------------------------------------------------
# The ring buffer.
# ----------------------------------------------------------------------
class TestSpanRecorder:
    def test_records_in_order(self):
        recorder = SpanRecorder(8)
        recorder.record("B", "a", "first", 1.0)
        recorder.record("E", "a", "first", 2.0)
        events = recorder.events()
        assert [e[0] for e in events] == ["B", "E"]
        assert [e[6] for e in events] == [0, 1]
        assert events[0][3] <= events[1][3]
        assert recorder.recorded == 2 and recorder.dropped == 0

    def test_wraparound_keeps_newest(self):
        recorder = SpanRecorder(4)
        for index in range(6):
            recorder.record("I", "k", str(index), 0.0)
        assert recorder.recorded == 6
        assert recorder.dropped == 2
        events = recorder.events()
        assert [e[6] for e in events] == [2, 3, 4, 5]
        assert [e[2] for e in events] == ["2", "3", "4", "5"]

    def test_drain_clears(self):
        recorder = SpanRecorder(4)
        recorder.record("I", "k", "", 0.0)
        assert len(recorder.drain()) == 1
        assert recorder.events() == []
        assert recorder.recorded == 0

    def test_drain_costs_what_was_recorded_not_the_capacity(self):
        """Workers drain once per reply: no per-call ring re-allocation."""
        recorder = SpanRecorder(1 << 16)
        ring = recorder._events
        assert recorder.drain() == []
        recorder.record("I", "k", "only", 0.0)
        assert [e[2] for e in recorder.drain()] == ["only"]
        assert recorder._events is ring
        assert ring[0] is None and len(ring) == 1 << 16
        # The ring keeps working after an in-place clear.
        recorder.record("I", "k", "again", 0.0)
        assert [(e[2], e[6]) for e in recorder.drain()] == [("again", 0)]

    def test_wrapped_ring_drains_oldest_first(self):
        recorder = SpanRecorder(4)
        ring = recorder._events
        for index in range(6):
            recorder.record("I", "k", str(index), 0.0)
        assert recorder.dropped == 2
        drained = recorder.drain()
        # The two overwritten events are gone; their loss shows as the
        # gap before the first surviving sequence number.
        assert [e[6] for e in drained] == [2, 3, 4, 5]
        assert [e[2] for e in drained] == ["2", "3", "4", "5"]
        assert recorder._events is ring and ring == [None] * 4
        assert recorder.recorded == 0

    def test_span_context_manager_pairs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        config.reload_flags()
        with telemetry.span("unit.test", "label", sim=3.5):
            telemetry.instant("unit.instant")
        events = telemetry.active().events()
        assert [(e[0], e[1]) for e in events] == [
            ("B", "unit.test"),
            ("I", "unit.instant"),
            ("E", "unit.test"),
        ]
        assert events[0][5] == 3.5


# ----------------------------------------------------------------------
# The off path is free.
# ----------------------------------------------------------------------
class TestOffPath:
    def test_span_returns_shared_noop(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        config.reload_flags()
        assert telemetry.span("a", "b") is telemetry.span("c")
        assert telemetry.instant("a") is None

    def test_zero_recorder_calls_when_off(self, monkeypatch):
        """A full CG run with the flag unset makes no recorder call."""
        calls = []

        original = SpanRecorder.record

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpanRecorder, "record", counting)
        _run_cg(monkeypatch, telemetry_on=False, point_workers="1")
        assert calls == []


# ----------------------------------------------------------------------
# Bit-identity: telemetry on changes nothing about execution.
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_differential_run_identical_with_telemetry(self, monkeypatch):
        """Differential-backend CG on the process substrate, off vs on.

        The differential executor aborts on any bitwise kernel
        divergence, and the scalar results compared here are exact —
        simulated seconds (via throughput/warmup), checksum, and the
        wire counters (the telemetry handshake must bypass the meter).
        """
        off = _run_cg(monkeypatch, telemetry_on=False, kernel_backend="differential")
        on = _run_cg(monkeypatch, telemetry_on=True, kernel_backend="differential")
        assert on.checksum == off.checksum
        assert on.throughput == off.throughput
        assert on.warmup_seconds == off.warmup_seconds
        for counter in ("wire_bytes", "wire_requests", "trace_hits"):
            assert on.counters[counter] == off.counters[counter]


# ----------------------------------------------------------------------
# Span integrity across processes.
# ----------------------------------------------------------------------
def _lane_events(merged):
    """Group merged events by (pid, tid) lane, preserving merge order."""
    lanes = defaultdict(list)
    for pid, worker, event in merged:
        lanes[(pid, event[4])].append((worker, event))
    return lanes


@pytest.mark.parametrize("workers", ["1", "4"])
class TestSpanIntegrity:
    def test_process_backend_spans(self, monkeypatch, workers):
        result = _run_cg(monkeypatch, telemetry_on=True, workers=workers)
        assert result.counters["point_process_chunks"] > 0
        merged = telemetry.merged_events()
        assert merged

        # Spans from at least two OS processes: the parent and >= 1
        # pool worker (pool size = max(workers, point workers) = 4).
        pids = {pid for pid, _, _ in merged}
        assert len(pids) >= 2

        # Every begin has a matching end, LIFO-nested, per lane — which
        # also proves plan/step/chunk spans nest inside their epoch span
        # (the epoch is the outermost frame on the scheduling thread).
        for (pid, tid), entries in _lane_events(merged).items():
            stack = []
            for _worker, (phase, kind, _label, _wall, _tid, _sim, _seq) in entries:
                if phase == "B":
                    stack.append(kind)
                elif phase == "E":
                    assert stack, f"end without begin on lane {(pid, tid)}: {kind}"
                    assert stack.pop() == kind
            assert stack == [], f"unclosed spans on lane {(pid, tid)}: {stack}"

        # Epoch nesting on the parent's scheduling lane: every
        # plan.level begin sits inside an open epoch.replay span.
        for (pid, tid), entries in _lane_events(merged).items():
            depth = 0
            for _worker, event in entries:
                phase, kind = event[0], event[1]
                if kind == "epoch.replay":
                    depth += 1 if phase == "B" else -1
                elif kind == "plan.level" and phase == "B":
                    assert depth > 0, "plan.level began outside an epoch.replay"

        # The merge preserves each worker's recording order.  The worker
        # ring is drained per reply, so sequence numbers restart at 0
        # every batch; the cross-batch invariant is that the worker's
        # wall clock never goes backwards in merge order, and within a
        # drained batch (seq > 0 continues the run) seq stays monotone.
        per_worker = defaultdict(list)
        for pid, worker, event in merged:
            if worker >= 0:
                per_worker[(pid, worker)].append((event[3], event[6]))
        assert per_worker, "no worker events were piggybacked back"
        for key, entries in per_worker.items():
            walls = [wall for wall, _seq in entries]
            assert walls == sorted(walls), f"worker {key} events reordered"
            for (_, prev_seq), (_, seq) in zip(entries, entries[1:]):
                assert seq == 0 or seq == prev_seq + 1, (
                    f"worker {key} drained batch out of order"
                )

        # Worker spans really are execution spans.
        worker_kinds = {
            event[1] for _pid, worker, event in merged if worker >= 0
        }
        assert "worker.resident" in worker_kinds


# ----------------------------------------------------------------------
# Chrome trace export.
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_export_is_valid_chrome_trace(self, monkeypatch, tmp_path):
        _run_cg(monkeypatch, telemetry_on=True)
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())

        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        assert events
        phases = set()
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            phases.add(event["ph"])
            if event["ph"] != "M":
                assert event["ts"] >= 0.0
                assert {"label", "sim_seconds", "seq"} <= set(event["args"])
        assert {"B", "E", "M"} <= phases

        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert "repro-parent" in names
        assert any(name.startswith("repro-worker-") for name in names)
        pids = {event["pid"] for event in events if event["ph"] != "M"}
        assert len(pids) >= 2
        assert trace["otherData"]["dropped_events"] == 0

    def test_capacity_overflow_reports_drops(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_EVENTS", "16")
        config.reload_flags()
        for index in range(40):
            telemetry.instant("unit.flood", str(index))
        trace = telemetry.export_chrome_trace()
        assert trace["otherData"]["dropped_events"] == 24
        spans = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(spans) == 16


# ----------------------------------------------------------------------
# Pool retirement on reload (satellite: mirrors the pool singleton).
# ----------------------------------------------------------------------
class TestPoolRetirement:
    def test_telemetry_flip_retires_process_pool(self, monkeypatch):
        from repro.runtime.procpool import process_pool, shutdown_process_pool

        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_POINT_WORKERS", "2")
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        config.reload_flags()
        try:
            unarmed = process_pool()
            assert unarmed._telemetry_state == (False, config.telemetry_event_capacity())
            monkeypatch.setenv("REPRO_TELEMETRY", "1")
            config.reload_flags()
            armed = process_pool()
            assert armed is not unarmed
            assert armed._telemetry_state[0] is True
            # Same armed state: the pool survives the reload (it only
            # receives a fire-and-forget ring reset).
            config.reload_flags()
            assert process_pool() is armed
            monkeypatch.setenv("REPRO_TELEMETRY", "0")
            config.reload_flags()
            assert process_pool() is not armed
        finally:
            shutdown_process_pool()


# ----------------------------------------------------------------------
# The per-epoch span summary.
# ----------------------------------------------------------------------
class TestSpanSummary:
    @pytest.mark.parametrize("point_workers", ["1", "4"])
    def test_counts_reconcile_with_the_profiler(self, monkeypatch, point_workers):
        """The table is computed from the recorder's events alone; what
        it counts must be what the profiler counted."""
        result = _run_cg(monkeypatch, telemetry_on=True, point_workers=point_workers)
        epochs, table = telemetry.span_summary()
        assert telemetry.dropped_events() == 0
        assert epochs == result.counters["trace_hits"] > 0
        assert table["epoch.replay"][0] == epochs
        assert table["superkernel.call"][0] == result.counters["superkernel_calls"] > 0
        for kind, (count, total, self_seconds) in table.items():
            assert count > 0 and 0.0 <= self_seconds <= total, kind
        # Everything on the parent's scheduling thread nests in a replay.
        assert table["plan.level"][1] <= table["epoch.replay"][1]

    def test_worker_chunks_record_the_parents_runner_spans(
        self, monkeypatch, force_dispatch
    ):
        """A worker runs its chunks through the parent's own runners, so
        they record the same ``superkernel.call`` / ``opaque.chunk``
        spans, nested in the entry's ``worker.resident`` span: over both
        processes there is one ``superkernel.call`` span per chunk the
        profiler counted."""
        result = _run_cg(monkeypatch, telemetry_on=True, workers="1")
        assert result.counters["point_process_chunks"] > 0
        assert telemetry.dropped_events() == 0
        calls, in_workers = 0, defaultdict(int)
        for (pid, _tid), entries in _lane_events(telemetry.merged_events()).items():
            stack = []
            for _worker, (phase, kind, *_rest) in entries:
                if phase == "B":
                    calls += kind == "superkernel.call"
                    if pid != os.getpid() and kind in ("superkernel.call", "opaque.chunk"):
                        assert stack == ["worker.resident"], kind
                        in_workers[kind] += 1
                    stack.append(kind)
                elif phase == "E":
                    stack.pop()
        assert calls == result.counters["superkernel_calls"]
        assert in_workers["superkernel.call"] > 0
        assert in_workers["opaque.chunk"] > 0


# ----------------------------------------------------------------------
# The tracedump CLI.
# ----------------------------------------------------------------------
class TestTracedump:
    @pytest.mark.parametrize("app", ["cg", "torchswe-manual"])
    def test_tracedump_smoke_writes_valid_trace(self, tmp_path, app):
        """The CI artifact: ``-m repro.tools.tracedump --smoke`` output,
        and the ``--summary`` table, for an app with a trace-scale size
        override and for one that falls back to its default scale."""
        import os
        import subprocess
        import sys

        output = tmp_path / "TRACE_cg.json"
        metrics = tmp_path / "METRICS_cg.json"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.tracedump",
                "--app",
                app,
                "--smoke",
                "--summary",
                "--iterations",
                "3",
                "--output",
                str(output),
                "--metrics-output",
                str(metrics),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        assert "replayed epochs" in completed.stdout and "plan.level" in completed.stdout
        shapes = {"cg": "2 stacked, 0 ranked", "torchswe-manual": "0 stacked, 2 ranked (nd_or_broadcast_tiling 2)"}
        assert "super-kernel sections: " in completed.stdout
        assert shapes[app] in completed.stdout
        # The default four-way pool: this thread and three worker
        # processes, where they run (placed when the host has a CPU per
        # slot), the mean size of what crossed a pipe and how often a
        # round trip preempted the sending thread.
        cpus = len(os.sched_getaffinity(0))
        placement = (
            "slot 0 on CPUs {" if cpus >= 4 else f"unplaced: 4 slots > {cpus} CPUs; "
        )
        assert (
            "point dispatch: 4 slots (the scheduling thread and 3 worker processes); "
            + placement
        ) in completed.stdout, completed.stdout
        assert re.search(r"frames of \d+ bytes", completed.stdout), completed.stdout
        assert re.search(
            r"slot 0 preempted \d+\.\d\d times per round trip", completed.stdout
        ), completed.stdout
        # One worker process is singular.
        from repro.tools.tracedump import format_dispatch

        two_way = format_dispatch(
            dict(
                trace_hits=1, wire_bytes=250, wire_requests=1, point_process_chunks=1,
                point_chunks=2, point_placement="slot 0 on CPUs {0}, worker 1 on CPU 1",
                slot0_preemptions=0, wire_round_trips=1,
            ),
            2,
        )
        assert two_way.startswith(
            "point dispatch: 2 slots (the scheduling thread and 1 worker process); "
            "slot 0 on CPUs {0}, worker 1 on CPU 1; "
        ), two_way
        trace = json.loads(output.read_text())
        assert trace["traceEvents"]
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] != "M"}
        assert len(pids) >= 2
        snapshot = trace["otherData"]["profiler"]
        assert snapshot["trace_hits"] > 0
        assert snapshot == json.loads(metrics.read_text())
