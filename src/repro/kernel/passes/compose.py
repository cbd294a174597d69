"""Composition of constituent kernel bodies into a fused kernel.

Given a fused task and its constituent tasks, this pass calls each
constituent's generator, renames the positional parameters (``a0``,
``a1``, ...) to per-view names shared across constituents, concatenates
the loop nests in program order, and prepends task-local allocations for
every distributed temporary (paper Figures 8b and 8c).

The result is a single :class:`~repro.kernel.kir.Function` plus a
:class:`KernelBinding` that records how the kernel's parameters map back
onto the fused task's arguments — the runtime executor needs that mapping
to hand the right sub-store slices to the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ir.future import Future
from repro.ir.partition import Partition
from repro.ir.store import Store
from repro.ir.task import FusedTask, IndexTask, scalar_bits
from repro.kernel.generators import GeneratorRegistry
from repro.kernel.kir import (
    Alloc,
    Function,
    Loop,
    Param,
    ParamKind,
    Stmt,
    buffers_defined_first,
    substitute_stmt,
)

#: A symbolic description of a loop's iteration space: the shape of the
#: store being iterated plus the partition slicing it.  Two loops with
#: equal index-space keys provably iterate over identically-shaped tiles
#: on every launch point, which is the legality condition for loop fusion.
IndexSpaceKey = Tuple[Tuple[int, ...], Partition]


@dataclass
class KernelBinding:
    """Mapping from kernel parameter names back to task arguments."""

    #: buffer parameter name -> index into the task's ``args`` tuple.
    buffer_args: Dict[str, int] = field(default_factory=dict)
    #: scalar parameter name -> index into the task's ``scalar_args`` tuple.
    scalar_args: Dict[str, int] = field(default_factory=dict)
    #: task-local allocation name -> the demoted temporary store.
    temporaries: Dict[str, Store] = field(default_factory=dict)
    #: buffer or alloc name -> symbolic iteration-space key.
    index_spaces: Dict[str, IndexSpaceKey] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metadata, attached once per compiled kernel (after the pass
    # pipeline ran) so the runtime executor's launch loop iterates plain
    # tuples instead of rebuilding dict views per launch.
    # ------------------------------------------------------------------
    #: ``buffer_args`` items in declaration order (hot-loop iteration).
    buffer_order: Tuple[Tuple[str, int], ...] = ()
    #: ``scalar_args`` items in declaration order.
    scalar_order: Tuple[Tuple[str, int], ...] = ()
    #: Buffer parameters the kernel assigns whole before anything
    #: observes them (``kir.buffers_defined_first``): condition (2) of
    #: the uninitialised-allocation rule of ``RegionManager.field``.
    defined_first: FrozenSet[str] = frozenset()

    def arg_index_for(self, param_name: str) -> Optional[int]:
        """The task argument index backing a kernel parameter, if any."""
        return self.buffer_args.get(param_name)

    def attach_function_metadata(self, function: Function) -> None:
        """Freeze the parameter ordering of the function that executes.

        The snapshot is filtered against the function's parameter list so
        that a pass which drops a parameter also drops it from the hot
        launch loop (no rect tables or views for dead buffers).
        """
        names = function.param_names()
        self.buffer_order = tuple(
            item for item in self.buffer_args.items() if item[0] in names
        )
        self.scalar_order = tuple(
            item for item in self.scalar_args.items() if item[0] in names
        )
        self.defined_first = buffers_defined_first(function)


class CompositionError(RuntimeError):
    """Raised when a constituent task has no registered kernel generator."""


def _view_key(store: Store, partition: Partition) -> Tuple[int, Partition]:
    return (store.uid, partition)


def compose_task(
    task: IndexTask,
    registry: GeneratorRegistry,
) -> Tuple[Function, KernelBinding]:
    """Build the kernel for a single (unfused) task.

    Scalar parameters are never deduplicated here: single-task kernels
    are cached by the runtime's task-variant cache, whose key does not
    include scalar values.
    """
    return _compose(task, [task], temporaries=(), registry=registry)


def compose_fused_task(
    fused: FusedTask,
    registry: GeneratorRegistry,
) -> Tuple[Function, KernelBinding]:
    """Build the kernel for a fused task from its constituents.

    Scalar parameters carrying bit-identical values are deduplicated
    into one kernel parameter (bound to the first flat scalar position).
    This is sound because both the memoization key and the trace key
    embed the window's scalar *equality pattern* — a stream whose scalar
    equalities differ compiles (and replays) a different kernel.
    """
    from repro.config import normalize_enabled

    return _compose(
        fused,
        fused.constituents,
        fused.temporary_stores,
        registry,
        dedupe_scalars=normalize_enabled(),
    )


def _compose(
    target: IndexTask,
    constituents: Sequence[IndexTask],
    temporaries: Sequence[Store],
    registry: GeneratorRegistry,
    dedupe_scalars: bool = False,
) -> Tuple[Function, KernelBinding]:
    binding = KernelBinding()
    temp_ids = {store.uid for store in temporaries}

    # 1. Name the fused kernel's buffer parameters after the target task's
    #    argument views, in argument order.
    view_names: Dict[Tuple[int, Partition], str] = {}
    params: List[Param] = []
    for index, arg in enumerate(target.args):
        key = _view_key(arg.store, arg.partition)
        if key in view_names:
            continue
        name = f"v{len(view_names)}"
        view_names[key] = name
        params.append(Param.buffer(name))
        binding.buffer_args[name] = index
        binding.index_spaces[name] = (arg.store.shape, arg.partition)

    # 2. Name temporaries; their partition is taken from the first
    #    constituent argument that references them.
    temp_names: Dict[int, str] = {}
    for store in temporaries:
        name = f"tmp{store.uid}"
        temp_names[store.uid] = name
        binding.temporaries[name] = store
        for task in constituents:
            arg = next((a for a in task.args if a.store.uid == store.uid), None)
            if arg is not None:
                binding.index_spaces[name] = (store.shape, arg.partition)
                break

    # 3. Generate, rename and concatenate each constituent's body.
    body: List[Stmt] = []
    scalar_params: List[Param] = []
    scalar_names: Dict[object, str] = {}
    scalar_cursor = 0
    for task in constituents:
        fragment = registry.generate(task)
        if fragment is None:
            raise CompositionError(
                f"task '{task.task_name}' has no registered kernel generator"
            )
        mapping: Dict[str, str] = {}
        for position, arg in enumerate(task.args):
            positional = f"a{position}"
            if arg.store.uid in temp_ids:
                mapping[positional] = temp_names[arg.store.uid]
            else:
                mapping[positional] = view_names[_view_key(arg.store, arg.partition)]
        for position, value in enumerate(task.scalar_args):
            flat_index = scalar_cursor + position
            mapping_name = None
            if dedupe_scalars:
                # A future's value is unknown until launch: never shared.
                bits = scalar_bits(value) if type(value) is not Future else flat_index
                mapping_name = scalar_names.get(bits)
                if mapping_name is None:
                    mapping_name = f"s{flat_index}"
                    scalar_names[bits] = mapping_name
                    scalar_params.append(Param.scalar(mapping_name))
                    binding.scalar_args[mapping_name] = flat_index
            else:
                mapping_name = f"s{flat_index}"
                scalar_params.append(Param.scalar(mapping_name))
                binding.scalar_args[mapping_name] = flat_index
            mapping[f"s{position}"] = mapping_name
        scalar_cursor += len(task.scalar_args)

        # Rename the fragment's body in place.  The fragment's parameter
        # list is discarded (the fused function declares its own params),
        # so duplicate names caused by two positional arguments mapping to
        # the same view are harmless here.
        for stmt in fragment.body:
            if isinstance(stmt, Loop):
                body.append(
                    Loop(
                        index_buffer=mapping.get(stmt.index_buffer, stmt.index_buffer),
                        body=tuple(substitute_stmt(s, mapping) for s in stmt.body),
                        parallel=stmt.parallel,
                    )
                )
            elif isinstance(stmt, Alloc):
                body.append(
                    Alloc(
                        name=mapping.get(stmt.name, stmt.name),
                        like=mapping.get(stmt.like, stmt.like),
                    )
                )
            else:  # pragma: no cover - no other statement kinds exist
                body.append(stmt)

    # 4. Prepend allocations for the temporaries.  Each allocation is
    #    shaped "like" a non-temporary buffer that shares its iteration
    #    space, so the executor can size it per point task.
    allocs: List[Stmt] = []
    for store in temporaries:
        name = temp_names[store.uid]
        like = _pick_alloc_reference(name, body, binding, set(temp_names.values()))
        allocs.append(Alloc(name=name, like=like))

    function = Function(
        name=target.task_name,
        params=tuple(params) + tuple(scalar_params),
        body=tuple(allocs) + tuple(body),
    )
    return function, binding


def _pick_alloc_reference(
    temp_name: str,
    body: Sequence[Stmt],
    binding: KernelBinding,
    temp_names: set,
) -> str:
    """Choose the buffer whose per-point shape the allocation should copy.

    Preference order: a non-temporary buffer appearing in the first loop
    that writes the temporary (same iteration space by construction), then
    any non-temporary buffer with the same symbolic index space, then the
    first buffer parameter of the kernel.
    """
    temp_space = binding.index_spaces.get(temp_name)
    for stmt in body:
        if not isinstance(stmt, Loop):
            continue
        if temp_name not in stmt.buffers_written():
            continue
        candidates = (stmt.buffers_read() | stmt.buffers_written() | {stmt.index_buffer})
        for candidate in candidates:
            if candidate not in temp_names and candidate in binding.buffer_args:
                return candidate
        break
    if temp_space is not None:
        for name, space in binding.index_spaces.items():
            if name in binding.buffer_args and space[0] == temp_space[0]:
                return name
    for name in binding.buffer_args:
        return name
    raise CompositionError(
        f"could not find a reference buffer to size temporary '{temp_name}'"
    )
