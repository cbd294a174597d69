"""Per-layer metrics of one traced session.

Three sources, all read from outside the layers: the wrapper spans of
:mod:`e2ebench.spans` (self time per layer, and the counts annotated on
them), the deltas of the public counters over the steady phase
(``Profiler.snapshot()``, ``FusionStatistics``, ``MemoizationCache``,
``CompilerStats``, ``codegen_stats()``), and the program's own
``REPRO_TELEMETRY`` events for what only exists inside pool workers.

Unless its description says *per session*, a metric is per steady op:
the steady phase's total divided by ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from e2ebench import spans as span_module
from e2ebench.workloads import SessionResult


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``time`` metrics are divided by the session's host slowdown; every
    #: metric is then the median over the traced sessions (counts repeat
    #: exactly from session to session).
    kind: str
    what: str


def _m(name: str, unit: str, better: str, kind: str, what: str) -> LayerMetric:
    return LayerMetric(name, unit, better, kind, what)


LO, HI = "lower", "higher"

#: Every per-layer metric, in the order the report prints them.
METRICS: Tuple[LayerMetric, ...] = (
    _m("frontend.submit_calls", "count", LO, "count", "RuntimeContext.submit calls"),
    _m("frontend.self_ms", "ms", LO, "time", "self time of RuntimeContext.submit/flush/read_*"),
    _m("fusion.windows", "count", LO, "count", "fusion-window rounds (TaskWindow.drain calls)"),
    _m("fusion.self_ms", "ms", LO, "time", "self time of fusion.engine/algorithm/temporaries + ir.window"),
    _m("fusion.tasks_in", "count", LO, "count", "library tasks submitted to Diffuse"),
    _m("fusion.tasks_out", "count", LO, "count", "tasks Diffuse launched (forwarded + fused)"),
    _m("fusion.task_reduction", "x", HI, "ratio", "tasks_in / tasks_out"),
    _m("fusion.prefix_len_mean", "count", HI, "ratio", "mean tasks drained per window round"),
    _m("memo.lookups", "count", LO, "count", "MemoizationCache.lookup calls"),
    _m("memo.hits", "count", HI, "count", "lookups answered from the cache"),
    _m("memo.hit_ratio", "ratio", HI, "ratio", "hits / lookups"),
    _m("memo.self_ms", "ms", LO, "time", "self time of canonicalize_window, lookup/store, resolve_temporaries"),
    _m("kernel.compiles", "count", LO, "count", "Diffuse JITCompiler.compile calls that missed its cache"),
    _m("kernel.compile_self_ms", "ms", LO, "time", "self time of JITCompiler.compile, lower, generate_source"),
    _m("kernel.passes_self_ms", "ms", LO, "time", "self time of PassPipeline.run"),
    _m("kernel.kir_stmts_in", "count", LO, "count", "KIR statements entering the pass pipeline"),
    _m("kernel.kir_stmts_out", "count", LO, "count", "KIR statements leaving the pass pipeline"),
    _m("kernel.source_compilations", "count", LO, "count", "generated sources compiled by Python"),
    _m("kernel.source_cache_hits", "count", HI, "count", "generated sources found in the closure cache"),
    _m("kernel.source_bytes", "count", LO, "count", "characters of generated kernel source"),
    _m("kernel.body_calls", "count", LO, "count", "compiled-closure calls in the driver process"),
    _m("kernel.body_self_ms", "ms", LO, "time", "time inside generated closures (driver process)"),
    _m("kernel.bytes_computed", "count", LO, "count", "memory traffic of those calls, computed by kernel/cost.py"),
    _m("kernel.flops_computed", "count", LO, "count", "arithmetic of those calls, computed by kernel/cost.py"),
    _m("trace.epochs", "count", LO, "count", "epochs that reached a trace boundary (hits + misses)"),
    _m("trace.hits", "count", HI, "count", "epochs replayed from a captured plan"),
    _m("trace.misses", "count", LO, "count", "epochs run through the eager pipeline"),
    _m("trace.hit_ratio", "ratio", HI, "ratio", "hits / epochs"),
    _m("trace.captures", "count", LO, "count", "execution plans captured (TraceRecorder.build_plan)"),
    _m("trace.capture_self_ms", "ms", LO, "time", "self time of missed boundaries + build_plan"),
    _m("trace.replay_self_ms", "ms", LO, "time", "self time of replayed boundaries"),
    _m("trace.defer_self_ms", "ms", LO, "time", "self time of TraceController.add"),
    _m("trace.scalar_pattern_flips", "count", LO, "count", "re-records forced by a scalar-equality flip"),
    _m("sched.plan_replays", "count", LO, "count", "PlanScheduler.execute calls that analysed a DAG"),
    _m("sched.levels", "count", LO, "count", "dependence levels executed"),
    _m("sched.width_max", "count", HI, "ratio", "widest level seen in the session"),
    _m("sched.dispatched_steps", "count", HI, "count", "steps handed to the thread pool"),
    _m("sched.self_ms", "ms", LO, "time", "self time of PlanScheduler.execute + analyze_plan"),
    _m("sched.worker_utilization", "ratio", HI, "ratio", "dispatched steps / scheduled steps"),
    _m("superkernel.fusions", "count", HI, "ratio", "fused units built, per session"),
    _m("superkernel.fused_steps", "count", HI, "ratio", "compiled steps absorbed, per session"),
    _m("superkernel.calls", "count", LO, "count", "fused-closure calls"),
    _m("superkernel.closure_calls_per_epoch", "count", LO, "ratio", "compiled-closure calls per replayed epoch"),
    _m("superkernel.lower_ms", "ms", LO, "time", "time in maybe_lower_plan, per session (warm-up)"),
    _m("superkernel.self_ms", "ms", LO, "time", "self time of run_superkernel_ranks (binding) + maybe_lower_plan"),
    _m("exec.compiled_launches", "count", LO, "count", "launches executed through a compiled kernel"),
    _m("exec.opaque_launches", "count", LO, "count", "launches executed through an opaque operator"),
    _m("exec.point_chunks", "count", LO, "count", "rank chunks dispatched"),
    _m("exec.thread_chunks", "count", LO, "count", "rank chunks run on the thread pool"),
    _m("exec.process_chunks", "count", LO, "count", "rank chunks run on the process pool"),
    _m("exec.batched_launches", "count", HI, "count", "element-wise launches run as merged calls"),
    _m("exec.self_ms", "ms", LO, "time", "self time of TaskExecutor.execute_*"),
    _m("opaque.rank_calls", "count", LO, "count", "opaque library calls made per rank"),
    _m("opaque.chunk_calls", "count", LO, "count", "opaque library calls made per chunk"),
    _m("opaque.calls_per_epoch", "count", LO, "ratio", "opaque library calls per replayed epoch"),
    _m("opaque.body_self_ms", "ms", LO, "time", "time inside opaque operators (driver process)"),
    _m("wire.bytes_per_epoch", "count", LO, "ratio", "bytes pickled onto worker pipes per replayed epoch"),
    _m("wire.requests_per_epoch", "count", LO, "ratio", "request messages per replayed epoch"),
    _m("wire.roundtrip_wait_ms", "ms", LO, "time", "driver blocked in ProcessWorkerPool.run_* (send + wait)"),
    _m("wire.send_ms", "ms", LO, "time", "request in flight: send instant to worker start, queueing excluded"),
    _m("wire.recv_ms", "ms", LO, "time", "reply in flight: worker end to the driver's receive instant"),
    _m("worker.busy_ms", "ms", LO, "time", "time workers spent inside chunk requests, all workers summed"),
    _m("worker.utilization", "ratio", HI, "ratio", "busy time / (workers x steady wall)"),
    _m("procpool.resident_chunks", "count", HI, "count", "chunks sent as resident-plan run messages"),
    _m("procpool.fallback_chunks", "count", LO, "count", "chunks sent through the per-chunk protocol"),
    _m("procpool.spawn_ms", "ms", LO, "time", "ProcessWorkerPool construction, per session (warm-up)"),
    _m("shm.alloc_calls", "count", LO, "count", "SharedArena.allocate calls"),
    _m("shm.reclaims", "count", HI, "count", "SharedArena.release calls"),
    _m("shm.self_ms", "ms", LO, "time", "self time of SharedArena.allocate/release"),
    _m("shm.segments", "count", LO, "ratio", "arena segments at session end"),
    _m("region.allocated_bytes", "count", LO, "ratio", "live region-field bytes at session end"),
    _m("region.allocated_fields", "count", LO, "ratio", "live region fields at session end"),
    _m("runtime.launched_tasks", "count", LO, "count", "index tasks the runtime recorded"),
    _m("runtime.resolve_self_ms", "ms", LO, "time", "self time of LegionRuntime.resolve (coherence pricing)"),
    _m("runtime.execute_self_ms", "ms", LO, "time", "self time of LegionRuntime.execute_resolved (accounting)"),
    _m("sim.ops_per_s", "1/s", HI, "ratio", "steady ops per simulated second (the paper's y-axis)"),
    _m("sim.fusion_speedup", "x", HI, "ratio", "simulated seconds unfused / fused over the same ops"),
    _m("e2e.op_ms_p50", "ms", LO, "info", "pooled median steady-op time, as the clock read it (untraced sessions)"),
    _m("e2e.op_ms_p99", "ms", LO, "info", "pooled tail steady-op time, as the clock read it (untraced sessions)"),
    _m("e2e.samples", "count", HI, "info", "steady ops timed (untraced sessions)"),
    _m("e2e.session_spread", "x", LO, "info", "q90 / q10 of the per-session medians, as the clock read them"),
    _m("e2e.host_slowdown", "x", LO, "info", "median calibration slowdown of the run (1 = reference host, usual state)"),
    _m("trace.overhead_ratio", "x", LO, "info", "traced / untraced op_ms"),
    _m("span.unattributed_share", "ratio", LO, "info", "steady wall-clock inside no wrapper span"),
    _m("telemetry.dropped_events", "count", LO, "info", "REPRO_TELEMETRY events lost to ring wrap-around"),
)

BY_NAME: Dict[str, LayerMetric] = {metric.name: metric for metric in METRICS}

#: Span layer -> the self-time metric it feeds.
_SELF_METRIC = {
    "frontend": "frontend.self_ms",
    "fusion": "fusion.self_ms",
    "memo": "memo.self_ms",
    "kernel.compile": "kernel.compile_self_ms",
    "kernel.passes": "kernel.passes_self_ms",
    "kernel.body": "kernel.body_self_ms",
    "sched": "sched.self_ms",
    "superkernel": "superkernel.self_ms",
    "exec": "exec.self_ms",
    "opaque": "opaque.body_self_ms",
    "procpool": "wire.roundtrip_wait_ms",
    "runtime": None,  # split by span name below
    "trace": None,
    "shm": "shm.self_ms",
}

_COUNTER_OF = {
    "trace.hits": "trace_hits",
    "trace.misses": "trace_misses",
    "trace.captures": "captured_plans",
    "trace.scalar_pattern_flips": "scalar_pattern_flips",
    "memo.hits": "memo_hits",
    "kernel.compiles": "kernel_compilations",
    "kernel.source_compilations": "source_compilations",
    "kernel.source_cache_hits": "source_cache_hits",
    "fusion.tasks_in": "submitted_tasks",
    "sched.plan_replays": "plan_replays",
    "sched.levels": "plan_levels",
    "sched.dispatched_steps": "plan_dispatched_steps",
    "superkernel.calls": "superkernel_calls",
    "exec.point_chunks": "point_chunks",
    "exec.thread_chunks": "point_thread_chunks",
    "exec.process_chunks": "point_process_chunks",
    "exec.batched_launches": "batched_launches",
    "opaque.rank_calls": "opaque_rank_calls",
    "opaque.chunk_calls": "opaque_chunk_calls",
    "runtime.launched_tasks": "total_index_tasks",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def session_layers(
    session: SessionResult,
    recorded: List[span_module.Span],
    telemetry_events: Sequence,
) -> Dict[str, float]:
    """Per-layer values of one traced session (``sim.*``/``e2e.*`` excluded)."""
    ops = max(1, len(session.op_s))
    per_op = 1.0 / ops
    values: Dict[str, float] = {metric.name: 0.0 for metric in METRICS}

    # -- self time ------------------------------------------------------
    selfs = span_module.self_times(recorded)
    child_names: Dict[int, set] = {}
    for span in recorded:
        child_names.setdefault(span[1], set()).add(span[2])
    attributed = 0.0
    for span_id, _parent, name, start, end, _tid, op, extra in recorded:
        own = selfs.get(span_id, 0.0) * 1e3
        if name == "superkernel.lower":
            values["superkernel.lower_ms"] += (end - start) * 1e3
        if name == "procpool.spawn":
            values["procpool.spawn_ms"] += (end - start) * 1e3
        if op is None:
            continue
        attributed += own
        layer = span_module.LAYER_OF[name]
        metric = _SELF_METRIC[layer]
        if layer == "runtime":
            metric = "runtime.resolve_self_ms" if name == "runtime.resolve" else "runtime.execute_self_ms"
        elif layer == "trace":
            if name == "trace.add":
                metric = "trace.defer_self_ms"
            elif "sched.execute" in child_names.get(span_id, ()):
                metric = "trace.replay_self_ms"
            else:
                metric = "trace.capture_self_ms"
        values[metric] += own * per_op

        # -- counts annotated on spans ----------------------------------
        if name == "frontend.submit":
            values["frontend.submit_calls"] += per_op
        elif name == "fusion.window_drain":
            values["fusion.windows"] += per_op
            values["fusion.prefix_len_mean"] += extra or 0
        elif name == "memo.lookup":
            values["memo.lookups"] += per_op
        elif name == "kernel.passes" and extra:
            values["kernel.kir_stmts_in"] += extra[0] * per_op
            values["kernel.kir_stmts_out"] += extra[1] * per_op
        elif name == "kernel.generate_source" and extra:
            values["kernel.source_bytes"] += extra * per_op
        elif name == "kernel.body":
            values["kernel.body_calls"] += per_op
        elif name == "procpool.run_resident_chunks":
            values["procpool.resident_chunks"] += (extra or 0) * per_op
        elif name in ("procpool.run_chunks", "procpool.run_opaque_chunks"):
            values["procpool.fallback_chunks"] += (extra or 0) * per_op
        elif name == "shm.allocate":
            values["shm.alloc_calls"] += per_op
        elif name == "shm.release":
            values["shm.reclaims"] += per_op
        if name in ("kernel.body", "superkernel.call") and extra:
            values["kernel.bytes_computed"] += extra[0] * per_op
            values["kernel.flops_computed"] += extra[1] * per_op
    windows = values["fusion.windows"] * ops
    values["fusion.prefix_len_mean"] = _ratio(values["fusion.prefix_len_mean"], windows)
    steady_wall_ms = sum(session.op_s) * 1e3
    values["span.unattributed_share"] = 1.0 - _ratio(attributed, steady_wall_ms)

    # -- public counters over the steady phase --------------------------
    now, warm = session.counters, session.counters_warm

    def delta(counter: str) -> float:
        return now.get(counter, 0) - warm.get(counter, 0)

    for metric, counter in _COUNTER_OF.items():
        values[metric] = delta(counter) * per_op
    hits, misses = delta("trace_hits"), delta("trace_misses")
    values["trace.epochs"] = (hits + misses) * per_op
    values["trace.hit_ratio"] = _ratio(hits, hits + misses)
    values["memo.hit_ratio"] = _ratio(delta("memo_hits"), delta("memo_hits") + delta("memo_misses"))
    launched = delta("forwarded_tasks") + delta("fused_tasks")
    values["fusion.tasks_out"] = launched * per_op
    values["fusion.task_reduction"] = _ratio(delta("submitted_tasks"), launched)
    values["sched.width_max"] = now.get("plan_width_max", 0)
    values["sched.worker_utilization"] = _ratio(delta("plan_dispatched_steps"), delta("plan_steps"))
    values["superkernel.fusions"] = now.get("superkernel_fusions", 0)
    values["superkernel.fused_steps"] = now.get("superkernel_fused_steps", 0)
    values["superkernel.closure_calls_per_epoch"] = _ratio(delta("replay_closure_calls"), hits)
    values["opaque.calls_per_epoch"] = _ratio(
        delta("opaque_rank_calls") + delta("opaque_chunk_calls"), hits
    )
    values["wire.bytes_per_epoch"] = _ratio(delta("wire_bytes"), hits)
    values["wire.requests_per_epoch"] = _ratio(delta("wire_requests"), hits)
    opaque = delta("opaque_launches")
    values["exec.opaque_launches"] = opaque * per_op
    values["exec.compiled_launches"] = (delta("total_index_tasks") - opaque) * per_op
    values["shm.segments"] = session.region.get("segments", 0)
    values["region.allocated_bytes"] = session.region.get("allocated_bytes", 0)
    values["region.allocated_fields"] = session.region.get("allocated_fields", 0)

    # -- inside the pool workers ----------------------------------------
    values.update(_worker_metrics(session, telemetry_events, per_op))

    # Times are reported at the host's reference speed.
    for metric in METRICS:
        if metric.kind == "time":
            values[metric.name] /= session.slowdown
    return values


def _worker_metrics(
    session: SessionResult, telemetry_events: Sequence, per_op: float
) -> Dict[str, float]:
    """``worker.*`` and ``wire.send/recv_ms`` from ``REPRO_TELEMETRY`` events.

    Only events inside the steady phase count.  A worker serves its pipe
    in FIFO order, so its n-th request, n-th chunk span and n-th reply
    belong together; the in-flight times are left at zero when the three
    counts of a worker disagree (a plan ship or handshake fell inside the
    window), rather than pairing the wrong messages.
    """
    out = {"worker.busy_ms": 0.0, "worker.utilization": 0.0, "wire.send_ms": 0.0, "wire.recv_ms": 0.0}
    if not session.op_windows:
        return out
    first, last = session.op_windows[0][0], session.op_windows[-1][1]
    sends: Dict[int, List[float]] = {}
    recvs: Dict[int, List[float]] = {}
    opened: Dict[Tuple[int, int], float] = {}
    chunks: Dict[int, List[Tuple[float, float]]] = {}
    for _pid, worker, (phase, kind, label, wall, tid, _sim, _seq) in telemetry_events:
        if not first <= wall <= last:
            continue
        if worker < 0:
            if kind in ("wire.send", "wire.recv"):
                index = int(label.split()[0].split("=")[1])
                (sends if kind == "wire.send" else recvs).setdefault(index, []).append(wall)
        elif kind.startswith("worker."):
            if phase == "B":
                opened[(worker, tid)] = wall
            elif phase == "E" and (worker, tid) in opened:
                chunks.setdefault(worker, []).append((opened.pop((worker, tid)), wall))
    busy = sum(end - start for spans in chunks.values() for start, end in spans)
    out["worker.busy_ms"] = busy * 1e3 * per_op
    out["worker.utilization"] = _ratio(busy, len(chunks) * session.steady_s)
    for worker, spans in chunks.items():
        sent, received = sorted(sends.get(worker, ())), sorted(recvs.get(worker, ()))
        if not len(sent) == len(spans) == len(received):
            continue
        spans.sort()
        idle_since = first
        for send, (start, end), receive in zip(sent, spans, received):
            out["wire.send_ms"] += max(0.0, start - max(send, idle_since)) * 1e3 * per_op
            out["wire.recv_ms"] += max(0.0, receive - end) * 1e3 * per_op
            idle_since = end
    return out
