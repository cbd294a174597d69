"""Self-check of the end-to-end benchmark (collected by the tier-1 suite).

Runs the benchmark's own machinery in-process at ``quick`` sizes: the
manifest and the metric registry agree, the program generator is
reproducible and agrees with NumPy, span counts reconcile with the
public counters, and self times never add up to more than an op took.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import repro.frontend.cunumeric as cn  # noqa: E402
from repro import config  # noqa: E402
from repro.frontend.legate.context import RuntimeContext, set_context  # noqa: E402

import compare  # noqa: E402
from e2ebench import churn, layers, runner, spans, workloads  # noqa: E402

MANIFEST = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# BENCHMARK.json against the code.
# ----------------------------------------------------------------------
def test_manifest_names_match_the_code():
    assert [w["name"] for w in MANIFEST["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS
    }
    registry = [(m.name, m.unit, m.better) for m in layers.METRICS]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == registry
    _measurement, end_to_end, _per_layer = _quick("cg-manyrank")
    assert {m["name"] for m in MANIFEST["end_to_end"]} == set(end_to_end)


def test_manifest_respects_the_contract_limits():
    assert MANIFEST["paths"] == ["benchmarks/e2e"]
    assert len(MANIFEST["workloads"]) == 4
    assert 1 <= len(MANIFEST["end_to_end"]) <= 9
    assert len(MANIFEST["per_layer"]) <= 128
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"] + MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RULE.match(name) for name in names)
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])


# ----------------------------------------------------------------------
# The program generator.
# ----------------------------------------------------------------------
def test_generator_is_reproducible_and_seed_changes_contents_not_shapes():
    inputs_a, programs_a = churn.generate_session(5, 512, 12)
    inputs_b, programs_b = churn.generate_session(5, 512, 12)
    assert programs_a == programs_b
    assert all(np.array_equal(a, b) for a, b in zip(inputs_a, inputs_b))

    _, other = churn.generate_session(6, 512, 12)
    assert other != programs_a

    def shapes(programs):
        return sorted(tuple(i[0] for i in p.instructions) for p in set(programs))

    # Fresh programs have the same instruction kinds whatever the seed.
    fresh = 12 - 12 // churn.REPEAT_EVERY
    assert len(set(programs_a)) == fresh
    assert shapes(programs_a) == shapes(other)
    lengths = [len(p) for p in set(programs_a)]
    assert min(lengths) >= churn.MIN_LENGTH and max(lengths) <= churn.MAX_LENGTH + 8
    # Every fourth program repeats an earlier one.
    for index in range(churn.REPEAT_EVERY - 1, 12, churn.REPEAT_EVERY):
        assert any(programs_a[index] is earlier for earlier in programs_a[:index])


def test_generated_programs_agree_with_numpy():
    inputs, programs = churn.generate_session(3, 4 * 128, 10)
    before = [data.copy() for data in inputs]
    with np.errstate(all="raise"):
        oracle = [churn.evaluate(np, program, inputs) for program in programs]
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
    with workloads.scoped_flags({}):
        context = RuntimeContext(num_gpus=4)
        set_context(context)
        try:
            arrays = [cn.array(data) for data in inputs]
            for program, want in zip(programs, oracle):
                assert churn.evaluate(cn, program, arrays) == pytest.approx(want, rel=1e-9)
        finally:
            set_context(None)


# ----------------------------------------------------------------------
# Quick runs: metrics, guards, reconciliation.
# ----------------------------------------------------------------------
_CACHE = {}


def _quick(name: str):
    """(measurement, end-to-end, per-layer) of one traced quick run per workload."""
    if name not in _CACHE:
        workload = workloads.BY_NAME[name].quick()
        measurement = runner.measure(workload, seed=0, sessions=2, traced=True)
        _CACHE[name] = (
            measurement,
            runner.end_to_end(workload, measurement),
            runner.per_layer(workload, measurement),
        )
    return _CACHE[name]


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_quick_run_is_correct_and_engaged(name):
    environment = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    flags = workloads.resolved_flags()
    measurement, end_to_end, per_layer = _quick(name)
    assert measurement.problems == []
    workload = workloads.BY_NAME[name]
    counts = runner.attempted_and_failed(workload, measurement)
    assert counts["failed"] == 0 and counts["attempted"] > 0
    assert set(per_layer) == {m.name for m in layers.METRICS}
    assert all(value > 0 for value in end_to_end.values())
    assert per_layer["span.unattributed_share"] < 1.0
    assert per_layer["sim.ops_per_s"] > 0
    # Environment and memoized flags are as they were before the run.
    assert environment == {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    assert flags == workloads.resolved_flags()
    assert spans._UNDO == []


def test_disengaged_layer_fails_the_whole_run():
    workload = workloads.BY_NAME["cg-manyrank"]
    measurement = _quick("cg-manyrank")[0]
    counters = dict(measurement.sessions[0].counters, superkernel_calls=0)
    assert workloads.failed_guards(workload, counters) == ["superkernel_calls > 0 (got 0)"]
    broken = runner.Measurement(
        workload=workload.name, seed=0, traced=False, flags={}, host={},
        unfused=measurement.unfused, sessions=measurement.sessions,
        problems=["session 0: not engaged: superkernel_calls > 0 (got 0)"],
    )
    counts = runner.attempted_and_failed(workload, broken)
    assert counts["failed"] == counts["attempted"] > 0


def _traced_session(name: str):
    """One quick session with the wrappers installed; returns (session, spans)."""
    workload = workloads.BY_NAME[name].quick()
    with workloads.scoped_flags(workload.env):
        prepared = workload.prepare(0)
        recorder = spans.install()
        try:
            session = workloads.run_session(workload, prepared, on_op=recorder.set_op)
            return session, list(recorder.spans)
        finally:
            spans.uninstall()


@pytest.mark.parametrize("name", ["cg-manyrank", "stream-churn"])
def test_span_counts_reconcile_with_public_counters(name):
    session, recorded = _traced_session(name)
    assert not session.error and not session.failed
    steady = [span for span in recorded if span[6] is not None]

    def delta(counter):
        return session.counters[counter] - session.counters_warm[counter]

    children = {}
    for span in recorded:
        children.setdefault(span[1], []).append(span[2])
    by_id = {span[0]: span for span in recorded}

    replays = [s for s in steady if s[2] == "sched.execute"]
    assert len(replays) == delta("trace_hits")
    replay_boundaries = [
        s for s in steady
        if s[2] == "trace.boundary" and "sched.execute" in children.get(s[0], ())
    ]
    assert len(replay_boundaries) == delta("trace_hits")
    with workloads.scoped_flags(workloads.BY_NAME[name].env):
        scheduled = config.worker_count() > 1
    if scheduled:
        assert len(replays) == delta("plan_replays")

    # JIT misses of the Diffuse compiler: compile spans that ran the pass
    # pipeline and were called from the fusion layer.
    misses = [
        s for s in steady
        if s[2] == "kernel.compile"
        and "kernel.passes" in children.get(s[0], ())
        and spans.LAYER_OF[by_id[s[1]][2]] == "fusion"
    ]
    assert len(misses) == delta("kernel_compilations")
    lookups = [s for s in steady if s[2] == "memo.lookup"]
    assert len(lookups) == delta("memo_hits") + delta("memo_misses")
    captures = [s for s in steady if s[2] == "trace.build_plan"]
    assert len(captures) == delta("captured_plans")

    # Self times of an op never add up to more than the op took.
    selfs = spans.self_times(recorded)
    per_op = {}
    for span in steady:
        per_op[span[6]] = per_op.get(span[6], 0.0) + selfs.get(span[0], 0.0)
    assert len(per_op) == len(session.op_s)
    for index, wall in enumerate(session.op_s):
        assert per_op[index] <= wall * (1 + 1e-9)


def test_self_times_share_overlapping_children():
    # A 10 s root; two children on other threads overlap for 4 s.
    recorded = [
        (1, 0, "sched.execute", 0.0, 10.0, 1, 0, None),
        (2, 1, "exec.opaque", 1.0, 7.0, 2, 0, None),
        (3, 1, "exec.opaque", 3.0, 9.0, 3, 0, None),
        (4, 2, "opaque.body", 2.0, 6.0, 2, 0, None),
    ]
    selfs = spans.self_times(recorded)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert selfs[1] == pytest.approx(2.0)  # 10 s minus the 8 s the children cover
    assert selfs[2] + selfs[4] == pytest.approx(selfs[3])  # equal durations, equal shares
    assert selfs[4] == pytest.approx(4.0 * 8.0 / 12.0)


# ----------------------------------------------------------------------
# compare.py verdicts.
# ----------------------------------------------------------------------
def test_compare_verdicts():
    assert compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.10) == "regressed"
    assert compare.verdict([10.0, 10.1, 9.9], [9.0, 9.1, 8.9], "lower", 0.10) == "improved"
    assert compare.verdict([10.0, 10.1, 9.9], [10.0, 10.2, 9.8], "lower", 0.10) == "unchanged"
    assert compare.verdict([10.0, 12.0, 8.0], [10.5, 9.0, 11.5], "lower", 0.10) == "unresolved"
    assert compare.verdict([100.0, 101.0], [120.0, 121.0], "higher", 0.10) == "improved"
    assert compare.verdict([100.0], [85.0], "higher", 0.10) == "regressed"
    assert compare.verdict([100.0], [95.0], "higher", 0.10) == "unchanged"
