"""Plan→super-kernel lowering: fusing captured plans across launch boundaries.

Kernel fusion (PR 1) stops at the fusion-window boundary, so a captured
:class:`~repro.runtime.trace.ExecutionPlan` still replays a *sequence* of
compiled launches — each a separate Python-level closure call with its
own buffer materialisation, and each non-element-wise launch one call
*per rank*.  This module extends fusion across those launch boundaries:
once per plan — at its first replay while a speculation slot is free,
else at its break-even replay (:func:`lower_when_earned`) — maximal
contiguous runs of :class:`CompiledStep`\\ s are spliced into a single
generated ``__kernel__``
(:func:`repro.kernel.codegen.generate_superkernel_source`) that
executes the constituent kernels section by section in recorded order.
Steps the capture-time verdict merged (``CompiledStep.verdict``, from
``pool.launch_verdict``) become straight-line *merged* sections over the
chunk's span — element-wise steps, and stacked steps, whose reductions
run as one ``reduce(axis=1)`` over ``(ranks, tile)`` rows.  Every other
step becomes a *ranked* section whose per-rank closure calls collapse
into an internal Python loop.  Either way it is one closure call per
plan step run, instead of one per step per rank.  A lone element-wise
step is left alone (it is one call per chunk already); a lone
reducing step still lowers, though a stacked one saves no closure call
by it — the lone-step rule now pays only for unstackable steps.

Because recorded order is program order, a contiguous run covers both of
the paper-motivated fusion shapes at once: producer→consumer chains
(vertical splicing, Filipovič et al.) and independent same-level steps
recorded back to back (horizontal merging, Li et al.) — the generated
function simply contains both sections with disjoint outputs.

Cross-launch dead intermediates — slots whose liveness was captured as
dead in the trace key and that no step outside the run touches — are
demoted to fused-local values: the writer section assigns a local, the
consumer sections read it, the slot is dropped from the fused step's
buffer bindings and its region field is never materialised.

Soundness fallbacks (the unit breaks or the step stays unfused):

* opaque steps (data-dependent cost models) break every run;
* a step that reads or writes a slot an *earlier* unit member reduces
  into splits the unit — the serial schedule folds the reduction into
  the store between the two steps, which the fused unit defers to its
  single join;
* the interpreter backend skips lowering entirely;
* the differential backend lowers in *verify* mode: every fused unit
  executes both the fused closure and the constituent steps and raises
  :class:`BackendDivergenceError` unless buffers and reduction partials
  agree bit-for-bit.

Accounting never changes: the fused step carries its recorded
constituent subsequence (including interior analysis charges) and the
scheduler charges the recorded per-step seconds in recorded order, so
simulated time and profiler records are bit-identical to unfused replay.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import config
from repro.kernel import codegen
from repro.kernel.codegen import SuperKernelSection, generate_superkernel_source
from repro.kernel.kir import assignment_loads_buffers, sole_buffer_assignment
from repro.kernel.lowering import BackendDivergenceError
from repro.runtime import procpool, telemetry
from repro.runtime.executor import compiled_ranks, span_slices
from repro.runtime.pool import ELEMENTWISE, merged_table_span
from repro.runtime.trace import AnalysisCharge, CompiledStep, ExecutionPlan


@dataclass(frozen=True)
class SectionInfo:
    """One constituent compiled step of a fused unit (execution metadata)."""

    prefix: str
    step: CompiledStep
    mode: str  # "merged" | "ranked"
    #: Elements per rank of a merged section that reduces by rows.
    tile: Optional[int] = None
    #: Why a ranked section is not merged (``profiler.RANKED_REASONS``).
    ranked_because: Optional[str] = None

    @property
    def shape(self) -> str:
        """What the profiler counts the section as."""
        return self.ranked_because or ("merged" if self.tile is None else "stacked")


class SuperKernel:
    """The kernel-like vehicle of a fused unit.

    Mirrors the parts of ``CompiledKernel`` the replay paths touch:
    ``executor`` is the fused body (obtained through the process-wide
    source-keyed cache, so structurally-identical units share one
    compiled function) run by the codegen driver under ``plan``, and
    ``source`` is the generated body.
    ``binding_plan`` is its calling convention, one ``(kind, payload)``
    per buffer binding of the unit: ``("ranked", per-rank slice
    tuples)``, ``("merged", span slices)`` or ``("reduction", None)``.
    The slice tuples are precomputed from the interned rect tables at
    lowering time, so :func:`call_superkernel` binds by direct NumPy
    slicing instead of per-rank memoized-view lookups.  A worker process
    rebuilds the kernel from its ``procpool.SuperKernelSpec``.
    """

    is_superkernel = True

    def __init__(
        self, source: str, plan: codegen.KernelPlan, name: str, binding_plan: tuple
    ) -> None:
        self.source = source
        self.plan = plan
        self.name = name
        self.binding_plan = binding_plan
        self.executor, self.freshly_compiled = codegen.bind(source, plan, name)

    def scratch_elements(self, block: int, tile: Optional[int] = None) -> int:
        """Elements of the scratch one call blocking at ``block`` uses."""
        return codegen.scratch_elements(self.plan, block)


@dataclass
class SuperKernelStep(CompiledStep):
    """A fused unit, shaped like a :class:`CompiledStep`.

    Subclassing keeps every generic plan mechanism working unchanged —
    dependence analysis, scalar rebinding, binding preparation and the
    reduction fold all operate on the inherited fields (prefixed names,
    concatenated scalar order, merged footprint).  Scheduler paths that
    must treat fused units specially test ``isinstance`` *before* the
    ``CompiledStep`` branch.
    """

    #: Constituent compiled steps in section order.
    sections: Tuple[SectionInfo, ...] = ()
    #: The recorded constituent subsequence — compiled steps *and*
    #: interior analysis charges — replayed verbatim by the accounting
    #: fold so simulated seconds stay bit-identical.
    fused_steps: Tuple[object, ...] = ()
    #: True when the unit may be split into rank chunks (all sections
    #: share the rank count and shared written slots have identical
    #: tables); otherwise the unit always executes as one chunk.
    chunkable: bool = False
    #: Differential backend: execute fused and constituent forms, compare.
    verify: bool = False
    #: Dead intermediate slots folded into locals (never materialised).
    folded_slots: Tuple[int, ...] = ()


#: Sentinel cached on plans whose lowering produced no fused units.
_NO_UNITS = object()

#: Weak references to plans carrying a cached lowering, retired on config
#: reloads so a backend flip cannot replay stale fused closures.  A plain
#: weakref list because ``ExecutionPlan`` is an unhashable (eq-comparing)
#: dataclass.
_LOWERED_PLANS: List["weakref.ref"] = []


def _register_lowered(plan: ExecutionPlan) -> None:
    _LOWERED_PLANS.append(weakref.ref(plan))


def _reload_superkernels() -> None:
    """Config-reload hook: drop every cached plan lowering.

    Also retires the resident-process registration of each plan *and* of
    its lowered form (the lowered plan is what the scheduler executes, so
    it is what carries the ``resident`` cache).  The process pool's own
    reload hook already bumps the resident generation — this drop is
    hygiene so a discarded lowering cannot keep a dead registration (and
    its parent-side template tuples) alive through the plan it hangs off.
    A retired speculative lowering returns its slot.
    """
    for ref in _LOWERED_PLANS:
        plan = ref()
        if plan is not None:
            cached = plan.superkernel
            if cached is not None and cached is not _NO_UNITS:
                procpool.retire_resident_plan(cached)
            procpool.retire_resident_plan(plan)
            plan.superkernel = None
            _repay(plan)
    _LOWERED_PLANS.clear()


config.register_reload_callback(_reload_superkernels)


def lowered_plan_count() -> int:
    """Plans currently holding a cached lowering (tests/observability)."""
    count = 0
    for ref in _LOWERED_PLANS:
        plan = ref()
        if plan is not None and plan.superkernel is not None:
            count += 1
    return count


# ----------------------------------------------------------------------
# Unit formation.
# ----------------------------------------------------------------------
def _collect_units(plan: ExecutionPlan) -> List[List[int]]:
    """Plan-index subsequences worth fusing, in recorded order.

    Each unit is a contiguous run of compiled steps (with interior
    analysis charges riding along for accounting), split at opaque
    steps, at steps without a non-reduction binding, and at reduce→use
    hazards; runs that would not save closure calls are dropped.
    """
    units: List[List[int]] = []
    current: List[int] = []
    reduced_slots: set = set()

    def flush() -> None:
        nonlocal current, reduced_slots
        if current:
            # Trim trailing analysis charges — they stay standalone.
            while current and isinstance(plan.steps[current[-1]], AnalysisCharge):
                current.pop()
            compiled = [
                index
                for index in current
                if isinstance(plan.steps[index], CompiledStep)
            ]
            if len(compiled) >= 2 or (
                len(compiled) == 1
                and not plan.steps[compiled[0]].elementwise
                and plan.steps[compiled[0]].num_points > 1
            ):
                units.append(current)
        current = []
        reduced_slots = set()

    for index, step in enumerate(plan.steps):
        if isinstance(step, AnalysisCharge):
            if current:
                current.append(index)
            continue
        if not isinstance(step, CompiledStep) or isinstance(step, SuperKernelStep):
            flush()
            continue
        if not any(not is_red for _n, _s, is_red, _t in step.buffer_bindings):
            # No non-reduction binding: the ranked emission cannot derive
            # a rank count — leave the step unfused.
            flush()
            continue
        if reduced_slots and any(
            (reads or writes) and slot in reduced_slots
            for slot, reads, writes, _reduces in step.footprint
        ):
            # The serial schedule folds earlier reductions into the slot
            # store before this step observes it; split so the fused
            # unit's single deferred join stays equivalent.
            flush()
        current.append(index)
        for slot, _reads, _writes, reduces in step.footprint:
            if reduces:
                reduced_slots.add(slot)
    flush()
    return units


def _fold_decisions(
    plan: ExecutionPlan,
    members: Sequence[Tuple[int, CompiledStep, str]],
) -> Dict[int, str]:
    """Dead intermediates of one unit that fold into fused locals.

    Returns ``slot -> local identifier``.  A slot folds only when the
    trace key captured it dead, every plan step touching it is an
    element-wise section of this unit (a section that reduces by rows
    broadcasts 0-d operands over its index buffer, which a folded buffer
    no longer is), the (single) writer defines it with one
    buffer-loading element-wise assignment and never reads it, the
    readers only read it, and every touching binding shares one interned
    rect table (so chunked execution keeps writer and reader spans
    aligned).
    """
    liveness = plan.liveness
    if not liveness:
        return {}
    member_indices = {index for index, _step, _mode in members}
    touchers: Dict[int, List[int]] = {}
    for index, step in enumerate(plan.steps):
        if isinstance(step, AnalysisCharge):
            continue
        for slot, reads, writes, reduces in step.footprint:
            if reads or writes or reduces:
                touchers.setdefault(slot, []).append(index)

    folds: Dict[int, str] = {}
    for slot, touching in touchers.items():
        if slot >= len(liveness) or liveness[slot]:
            continue
        if not set(touching) <= member_indices:
            continue
        infos = [
            (index, step, mode)
            for index, step, mode in members
            if any(slot == s for s, _r, _w, _x in step.footprint)
        ]
        if len(infos) < 2 or any(not step.elementwise for _i, step, _m in infos):
            continue
        writers = [
            (index, step)
            for index, step, _mode in infos
            if any(s == slot and w for s, _r, w, _x in step.footprint)
        ]
        if len(writers) != 1 or writers[0][0] != infos[0][0]:
            continue
        if any(
            s == slot and x
            for _i, step, _m in infos
            for s, _r, _w, x in step.footprint
        ):
            continue
        ok = True
        table_ref = None
        writer_index = writers[0][0]
        for index, step, _mode in infos:
            bindings = [b for b in step.buffer_bindings if b[1] == slot]
            if len(bindings) != 1 or bindings[0][2]:
                ok = False
                break
            name, _slot, _is_red, table = bindings[0]
            if table_ref is None:
                table_ref = table
            elif table is not table_ref:
                ok = False
                break
            function = step.kernel.function
            if index == writer_index:
                assign = sole_buffer_assignment(function, name)
                if assign is None or not assignment_loads_buffers(function, assign):
                    ok = False
                    break
            else:
                if name in function.buffers_written() or any(
                    alloc.name == name for alloc in function.allocs
                ):
                    ok = False
                    break
        if ok:
            folds[slot] = f"_fold{len(folds)}_{slot}"
    return folds


def _build_unit(
    plan: ExecutionPlan,
    indices: Sequence[int],
    tasks,
    verify: bool,
) -> SuperKernelStep:
    """Lower one collected unit into a :class:`SuperKernelStep`."""
    members: List[Tuple[int, CompiledStep, str]] = []
    for index in indices:
        step = plan.steps[index]
        if isinstance(step, CompiledStep):
            members.append((index, step, "merged" if step.verdict.merged else "ranked"))

    folds = {} if verify else _fold_decisions(plan, members)

    # Chunkability: every section must agree on the rank count, and any
    # slot one section writes while another binds it must use the same
    # interned table, so a chunk's writer and reader spans coincide.
    num_points = members[0][1].num_points
    chunkable = (
        not verify
        and num_points > 1
        and all(step.num_points == num_points for _i, step, _m in members)
    )
    if chunkable:
        slot_tables: Dict[int, List] = {}
        written: set = set()
        for _index, step, _mode in members:
            for slot, _reads, writes, reduces in step.footprint:
                if writes or reduces:
                    written.add(slot)
            for _name, slot, is_red, table in step.buffer_bindings:
                if not is_red:
                    slot_tables.setdefault(slot, []).append(table)
        for slot in written:
            tables = slot_tables.get(slot, [])
            if len(tables) > 1 and any(t is not tables[0] for t in tables):
                chunkable = False
                break

    sections: List[SuperKernelSection] = []
    infos: List[SectionInfo] = []
    bindings: List[Tuple[str, int, bool, list]] = []
    binding_plan: List[Tuple[str, object]] = []
    scalar_positions: List[int] = []
    scalar_order: List[Tuple[str, int]] = []
    reductions: Dict[str, Tuple[int, object]] = {}
    footprint_merge: Dict[int, List[bool]] = {}
    scalar_offset = 0

    for section_index, (index, step, mode) in enumerate(members):
        prefix = f"k{section_index}:"
        function = step.kernel.function
        tile, ranked_because = step.verdict.tile, step.verdict.why
        reduction_params = tuple(
            name for name, _slot, is_red, _table in step.buffer_bindings if is_red
        )
        fold_writes: List[Tuple[str, str]] = []
        fold_reads: List[Tuple[str, str]] = []
        step_writes = {
            slot for slot, _r, w, _x in step.footprint if w
        }
        for name, slot, is_red, table in step.buffer_bindings:
            ident = folds.get(slot)
            if ident is not None:
                if slot in step_writes:
                    fold_writes.append((name, ident))
                else:
                    fold_reads.append((name, ident))
                continue
            bindings.append((prefix + name, slot, is_red, table))
            if is_red:
                binding_plan.append(("reduction", None))
            elif mode == "ranked":
                binding_plan.append(("ranked", tuple(rect.slices() for rect, _v in table)))
            else:
                binding_plan.append(
                    ("merged", merged_table_span(table, 0, len(table)).slices())
                )
        sections.append(
            SuperKernelSection(
                prefix=prefix,
                function=function,
                mode=mode,
                reduction_params=reduction_params,
                tile=tile,
                fold_writes=tuple(fold_writes),
                fold_reads=tuple(fold_reads),
            )
        )
        infos.append(SectionInfo(prefix, step, mode, tile, ranked_because))

        scalar_positions.extend(step.scalar_positions)
        for name, flat_index in step.scalar_order:
            scalar_order.append((prefix + name, flat_index + scalar_offset))
        scalar_offset += sum(
            len(tasks[position].scalar_args) for position in step.scalar_positions
        )
        for name, (slot, redop) in step.reductions.items():
            reductions[prefix + name] = (slot, redop)
        for slot, reads, writes, reduces in step.footprint:
            if slot in folds:
                continue
            entry = footprint_merge.setdefault(slot, [False, False, False])
            entry[0] = entry[0] or reads
            entry[1] = entry[1] or writes
            entry[2] = entry[2] or reduces

    name = "superkernel_" + "_".join(
        step.task_name for _i, step, _m in members[:3]
    )
    source = generate_superkernel_source(sections, name)
    kernel = SuperKernel(source, source.plan, name, tuple(binding_plan))

    fused_steps = tuple(plan.steps[index] for index in indices)
    return SuperKernelStep(
        kernel=kernel,
        task_name=name,
        fused=True,
        constituents=sum(step.constituents for _i, step, _m in members),
        launches=sum(step.launches for _i, step, _m in members),
        num_points=num_points if chunkable else 1,
        buffer_bindings=tuple(bindings),
        scalar_order=tuple(scalar_order),
        scalar_positions=tuple(scalar_positions),
        reductions=reductions,
        footprint=tuple(
            (slot, reads, writes, reduces)
            for slot, (reads, writes, reduces) in sorted(footprint_merge.items())
        ),
        kernel_seconds=sum(step.kernel_seconds for _i, step, _m in members),
        communication_seconds=sum(
            step.communication_seconds for _i, step, _m in members
        ),
        overhead_seconds=sum(step.overhead_seconds for _i, step, _m in members),
        sections=tuple(infos),
        fused_steps=fused_steps,
        chunkable=chunkable,
        verify=verify,
        folded_slots=tuple(sorted(folds)),
    )


def _fusible_units(plan: ExecutionPlan) -> List[List[int]]:
    """:func:`_collect_units` of a plan with no lowering; "none" is cached on it."""
    units = _collect_units(plan)
    if not units:
        plan.superkernel = _NO_UNITS
        _register_lowered(plan)
    return units


def maybe_lower_plan(plan: ExecutionPlan, tasks, profiler=None) -> Optional[ExecutionPlan]:
    """The super-kernel lowering of ``plan``, or None when nothing fuses.

    The lowering is computed once per plan and cached on it (retired by
    :func:`config.reload_flags` via the registered callback).  The
    caller gates on ``config.SUPERKERNEL`` (a test lever), and
    :func:`lower_when_earned` on the plan having earned it;
    the interpreter backend never lowers and the differential backend
    lowers in verify mode.
    """
    cached = plan.superkernel
    if cached is not None:
        return None if cached is _NO_UNITS else cached
    backend = config.default_backend()
    if backend == "interpreter":
        return None

    units = _fusible_units(plan)
    if not units:
        return None

    verify = backend == "differential"
    fused_by_start: Dict[int, SuperKernelStep] = {}
    consumed: set = set()
    for indices in units:
        unit = _build_unit(plan, indices, tasks, verify)
        fused_by_start[indices[0]] = unit
        consumed.update(indices)
        if profiler is not None:
            profiler.record_superkernel_fusion([info.shape for info in unit.sections])

    steps: List[object] = []
    for index, step in enumerate(plan.steps):
        unit = fused_by_start.get(index)
        if unit is not None:
            steps.append(unit)
        elif index not in consumed:
            steps.append(step)

    lowered = ExecutionPlan(
        steps=tuple(steps),
        exit_states=plan.exit_states,
        bytes_moved=plan.bytes_moved,
        forwarded_tasks=plan.forwarded_tasks,
        fused_tasks=plan.fused_tasks,
        fused_constituents=plan.fused_constituents,
        temporaries_eliminated=plan.temporaries_eliminated,
        liveness=plan.liveness,
        uninitialised_slots=plan.uninitialised_slots,
    )
    plan.superkernel = lowered
    _register_lowered(plan)
    return lowered


# ----------------------------------------------------------------------
# The gate: when the one lowering runs.
# ----------------------------------------------------------------------
#: ``B``, the break-even replay count: lowering a plan costs about what
#: ``B`` replays of its super-kernel save (the sweep is in
#: ``docs/architecture.md``, "Cold path").  A plan that has replayed
#: ``B`` times is lowered unconditionally — buying at break-even costs
#: at most twice the optimum whatever the plan's lifetime (ski rental).
BREAK_EVEN_REPLAYS = 6

#: ``N``, the speculation budget: how many plans of one scheduler may
#: hold a lowering built *before* their ``B``-th replay.  A speculative
#: lowering is repaid — its slot returned — when its plan reaches ``B``.
#: At least the three plans of a CG iteration, so an application's
#: handful of hot plans lower at first replay as they always did, while
#: a stream of short-lived plans stops paying for lowerings it never
#: amortises once ``N`` of them are outstanding.
SPECULATIVE_LOWERINGS = 4


def _repay(plan: ExecutionPlan) -> None:
    """Return the speculation slot ``plan``'s lowering holds, if any."""
    lender = plan.speculative
    if lender is not None:
        lender.speculating -= 1
        plan.speculative = None


def lower_when_earned(plan: ExecutionPlan, tasks, lender, profiler) -> Optional[ExecutionPlan]:
    """The lowering of ``plan``, at a replay already counted, if it may
    have one yet.

    ``lender`` is the plan scheduler replaying the plan and
    ``lender.speculating`` its count of outstanding speculative
    lowerings.  A plan is lowered (:func:`maybe_lower_plan`, the one
    lowering routine) at its first replay while a slot is free, and at
    its ``B``-th replay otherwise; a replay that runs un-lowered for
    want of a slot records ``decline_plan_not_hot``.  Plans with no
    fusible unit take no slot.  The state is all counts, so which
    replay lowers which plan repeats exactly from run to run.
    """
    earned = plan.replays >= BREAK_EVEN_REPLAYS
    if earned:
        _repay(plan)
    fresh = plan.superkernel is None
    if fresh and not earned and lender.speculating >= SPECULATIVE_LOWERINGS:
        if config.default_backend() != "interpreter" and _fusible_units(plan):
            profiler.record_plan_not_hot()
        return None
    lowered = maybe_lower_plan(plan, tasks, profiler)
    if fresh and lowered is not None:
        # The un-lowered plan may have replayed resident in the
        # worker processes: one live registration per plan.
        procpool.retire_resident_plan(plan)
        if not earned:
            plan.speculative = lender
            lender.speculating += 1
    return lowered


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def run_superkernel_ranks(
    step: SuperKernelStep,
    prepared: Sequence[Tuple[str, object, bool, list]],
    scalars: Dict[str, float],
    start: int,
    stop: int,
    block: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[list, tuple]:
    """Run rank chunk ``[start, stop)`` of a fused unit (one closure call).

    The local runner of a super-kernel :class:`~repro.runtime.executor
    .ChunkWork`: :func:`call_superkernel`, or — for a unit lowered in
    verify mode (never chunked) — the differential execution.
    Non-chunkable units ignore the chunk range and execute every rank.
    """
    if step.verify:
        return [_run_verify(step, prepared, scalars)], ()
    return call_superkernel(
        step.kernel, prepared, scalars, start, stop, step.chunkable, block, scratch
    )


def call_superkernel(
    kernel: SuperKernel,
    rows: Sequence[Tuple[str, object, bool, list]],
    scalars: Dict[str, float],
    start: int,
    stop: int,
    chunked: bool = True,
    block: Optional[int] = None,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[list, tuple]:
    """One fused-closure call over ranks ``[start, stop)``.

    The super-kernel runner of both sides of the pipe: a worker process
    calls it with rows whose fields are attached shared-memory blocks.
    Merged bindings hand the closure one contiguous span view; ranked
    bindings hand it the chunk's per-rank view list; reduction targets
    are ``None`` in both (their values come back as partials).  Without
    ``chunked`` the call covers every rank.  ``block`` is the elements
    per block the closure plans at (``None``: ``codegen.BLOCK``; a thread
    chunk passes more) and ``scratch`` the buffer its registers are cut
    from (``None``: allocated per call).  Returns the chunk result
    shape every substrate returns: the closure's partials — per
    reduction target, a rank-ordered float64 array — as the chunk's
    single entry, and no seconds (replay charges the captured ones).

    Binding slices the rows' backing arrays directly with the slice
    tuples precomputed at lowering time (``kernel.binding_plan``) —
    NumPy basic slicing always yields a view, so writes land in place
    exactly as through the memoized per-rect views of the per-step
    path, without its per-rank cache lookups.
    """
    buffers: Dict[str, object] = {}
    for (name, resolved, _is_reduction, table), (kind, payload) in zip(
        rows, kernel.binding_plan
    ):
        if kind == "reduction":
            buffers[name] = None
        elif kind == "ranked":
            data = resolved.data
            rank_slices = payload[start:stop] if chunked else payload
            buffers[name] = [data[entry] for entry in rank_slices]
        elif chunked and (start, stop) != (0, len(table)):
            buffers[name] = resolved.data[span_slices(table, start, stop)]
        else:
            buffers[name] = resolved.data[payload]
    with telemetry.span(
        "superkernel.call",
        f"{kernel.name} ranks=[{start}:{stop})" if telemetry.enabled() else "",
    ):
        return [kernel.executor(buffers, scalars, block, scratch)], ()


def _run_verify(
    step: SuperKernelStep,
    prepared: Sequence[Tuple[str, object, bool, list]],
    scalars: Dict[str, float],
) -> Dict[str, list]:
    """Differential execution of a fused unit; returns the fused partials.

    Runs the constituent steps first (the reference — themselves under
    their own differential executors), snapshots the written fields,
    rewinds to the pre-state, runs the fused closure, and demands
    bitwise agreement on every written field and reduction partial (the
    reduction operator is the step's, so values are what is compared).
    """
    resolved_by_slot: Dict[int, object] = {}
    for (name, slot, _is_red, _table), (_n, resolved, _r, _t) in zip(
        step.buffer_bindings, prepared
    ):
        if resolved is not None:
            resolved_by_slot[slot] = resolved

    written_slots = [slot for slot, _r, w, _x in step.footprint if w]
    pre = {
        slot: np.array(resolved_by_slot[slot].data, copy=True)
        for slot in written_slots
        if slot in resolved_by_slot
    }

    reference: Dict[str, list] = {}
    for info in step.sections:
        member = info.step
        member_prepared = [
            (name, None if is_red else resolved_by_slot[slot], is_red, table)
            for name, slot, is_red, table in member.buffer_bindings
        ]
        member_scalars = {
            name: scalars[info.prefix + name] for name, _index in member.scalar_order
        }
        for partials in compiled_ranks(
            member.kernel.executor, member_prepared, member_scalars,
            0, member.num_points, ELEMENTWISE if member.elementwise else None,
        ):
            for name, partial in (partials or {}).items():
                if name in member.reductions:
                    reference.setdefault(info.prefix + name, []).append(partial)

    post = {slot: np.array(resolved_by_slot[slot].data, copy=True) for slot in pre}
    for slot, snapshot in pre.items():
        resolved_by_slot[slot].data[...] = snapshot

    buffers: Dict[str, object] = {}
    for (name, resolved, _is_reduction, table), (kind, _payload) in zip(
        prepared, step.kernel.binding_plan
    ):
        if kind == "reduction":
            buffers[name] = None
        elif kind == "ranked":
            buffers[name] = [
                resolved.view(table[rank][0]) for rank in range(len(table))
            ]
        else:
            buffers[name] = resolved.view(merged_table_span(table, 0, len(table)))
    partials = step.kernel.executor(buffers, scalars)

    for slot, expected in post.items():
        actual = resolved_by_slot[slot].data
        if not np.array_equal(actual, expected, equal_nan=True):
            raise BackendDivergenceError(
                f"super-kernel '{step.task_name}': fused and constituent "
                f"execution disagree on slot {slot}"
            )
    totals = {
        name: values
        for name, values in partials.items()
        if name in step.reductions and values.size
    }
    if set(totals) != set(reference):
        raise BackendDivergenceError(
            f"super-kernel '{step.task_name}': reduction targets differ "
            f"({sorted(reference)} vs {sorted(totals)})"
        )
    for name, expected_list in reference.items():
        expected = np.array([partial.value for partial in expected_list], dtype=np.float64)
        if not np.array_equal(totals[name], expected, equal_nan=True):
            raise BackendDivergenceError(
                f"super-kernel '{step.task_name}': reduction partials "
                f"'{name}' diverged ({expected} vs {totals[name]})"
            )
    return partials
