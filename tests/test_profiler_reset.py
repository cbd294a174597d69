"""``Profiler.reset()`` must restore exactly the freshly-built state.

The profiler grows a few counters every PR; a counter added to
``__init__`` but forgotten in ``reset()`` silently leaks state across
experiment runs that reuse a context.  This regression test compares a
reset profiler against a fresh one field by field — discovering the
fields from ``__init__`` itself, so a newly added counter is covered the
day it lands — and checks :meth:`Profiler.snapshot` the same way.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

from repro.kernel.codegen import codegen_stats
from repro.runtime.profiler import Profiler


def _public_state(profiler: Profiler) -> dict:
    """Every non-lock attribute of the profiler, by name."""
    lock_type = type(threading.Lock())
    return {
        name: value
        for name, value in vars(profiler).items()
        if not isinstance(value, lock_type)
    }


def _dirty(profiler: Profiler) -> None:
    """Touch every counter the instrumented layers mutate."""
    profiler.begin_iteration()
    profiler.record_task(
        name="t",
        constituents=3,
        kernel_seconds=1.0,
        communication_seconds=0.5,
        overhead_seconds=0.1,
        launches=2,
        fused=True,
    )
    profiler.compile_seconds = 1.5
    profiler.analysis_seconds = 0.25
    profiler.trace_hits = 7
    profiler.trace_misses = 2
    profiler.trace_replayed_tasks = 11
    profiler.tasks_materialised["miss"] = 9
    profiler.record_capture(SimpleNamespace(replays=0), cold=True)
    profiler.first_replay_run = 2
    profiler.plan_replays = 5
    profiler.plan_steps = 20
    profiler.plan_levels = 10
    profiler.plan_width_max = 3
    profiler.plan_dispatched_steps = 12
    profiler.plan_level_widths.update({1: 4, 3: 2})
    profiler.point_launches = 6
    profiler.point_chunks = 24
    profiler.point_process_chunks = 18
    profiler.point_ranks = 96
    profiler.point_width_max = 4
    profiler.point_width_budget = 32
    profiler.record_thread_chunks(2, 32768)
    profiler.record_thread_chunks(2, 32768, eager=True)
    profiler.batched_launches = 3
    profiler.batched_calls = 9
    profiler.record_merged_launch(4, stacked=True)
    profiler.record_per_rank_reduction("ragged_tiling")
    profiler.opaque_rank_calls = 10
    profiler.opaque_chunk_calls = 4
    profiler.opaque_process_chunks = 2
    profiler.scalar_pattern_flips = 1
    profiler.future_scalars = 8
    profiler.round_fences = 4
    profiler.record_superkernel_fusion(["merged", "stacked", "ragged_tiling"])
    profiler.superkernel_calls = 12
    profiler.replay_closure_calls = 40
    profiler.record_round_trip(64, 1, 3, "slot 0 on CPUs {0}, worker 1 on CPU 1")
    profiler.wire_bytes = 4096
    profiler.wire_requests = 17
    profiler.record_decline("below_volume")
    profiler.record_plan_not_hot()
    profiler.record_field_allocation(uninitialised=True)
    profiler.record_field_allocation(uninitialised=False)
    # Process-wide: the profiler reports the calls since its own baseline.
    codegen_stats().multi_block_calls += 2


def test_reset_equals_fresh_field_by_field():
    dirty = Profiler()
    _dirty(dirty)
    dirty.reset()
    fresh_state = _public_state(Profiler())
    reset_state = _public_state(dirty)
    assert set(reset_state) == set(fresh_state)
    for name, fresh_value in fresh_state.items():
        assert reset_state[name] == fresh_value, (
            f"Profiler.reset() left '{name}' at {reset_state[name]!r}; "
            f"a fresh profiler has {fresh_value!r}"
        )


def test_dirty_profiler_differs_from_fresh_everywhere():
    """The dirtying helper really exercises every resettable field."""
    dirty = Profiler()
    _dirty(dirty)
    fresh_state = _public_state(Profiler())
    dirty_state = _public_state(dirty)
    unchanged = [
        name for name in fresh_state if dirty_state[name] == fresh_state[name]
    ]
    assert unchanged == [], (
        f"fields the dirtying helper missed (add them there AND check "
        f"reset() covers them): {unchanged}"
    )


def test_snapshot_reflects_counters_and_reset():
    profiler = Profiler()
    _dirty(profiler)
    snapshot = profiler.snapshot()
    assert snapshot["trace_hits"] == 7
    assert snapshot["plan_level_widths"] == {1: 4, 3: 2}
    assert snapshot["wire_bytes"] == 4096
    assert snapshot["decline_below_volume"] == 1
    assert snapshot["decline_worker_lost"] == 0
    assert snapshot["decline_plan_not_hot"] == 1
    assert snapshot["superkernel_fused_steps"] == 3
    assert snapshot["superkernel_sections_stacked"] == 1
    assert snapshot["superkernel_sections_ranked"] == snapshot["ranked_ragged_tiling"] == 1
    assert snapshot["ranked_uninterned_table"] == 0
    assert snapshot["fields_uninitialised"] == 1
    assert snapshot["fields_zero_filled"] == 1
    assert snapshot["multi_block_calls"] == 2
    assert snapshot["total_index_tasks"] == 1
    assert snapshot["total_constituent_tasks"] == 3
    assert snapshot["trace_hit_rate"] == 7 / 9
    # JSON-serialisable by construction.
    import json

    json.dumps(snapshot)
    profiler.reset()
    assert profiler.snapshot() == Profiler().snapshot()
