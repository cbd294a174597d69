"""Scalarisation of task-local temporaries (paper Figure 8c -> 8d).

After loop fusion, a task-local allocation whose producer and consumers
all ended up inside the *same* loop is redundant: each element is written
and then read at the same loop index, so the value can live in a register
(a loop-local scalar in KIR terms).  This pass rewrites such allocations
away, which is the step that actually removes the memory traffic of
distributed temporaries — demotion alone (paper Figure 8c) only moved the
traffic from a distributed store to a task-local buffer.

Allocations that are still referenced from more than one loop (because
loop fusion could not merge their producer and consumers) are kept as
task-local buffers, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.kernel.kir import (
    Alloc,
    Assign,
    Expr,
    Function,
    LocalRef,
    Loop,
    LoopStmt,
    Reduce,
    Stmt,
    replace_loads,
)
from repro.kernel.passes.compose import KernelBinding


def _loops_touching(function: Function, buffers: List[str]) -> Dict[str, List[int]]:
    """Indices of the loops that touch each buffer, in one walk of the body."""
    touching: Dict[str, List[int]] = {buffer: [] for buffer in buffers}
    for index, stmt in enumerate(function.body):
        if not isinstance(stmt, Loop):
            continue
        touched = stmt.buffers_read() | stmt.buffers_written()
        touched.add(stmt.index_buffer)
        for buffer in touched.intersection(touching):
            touching[buffer].append(index)
    return touching


def scalarize_temporaries(function: Function, binding: KernelBinding) -> Function:
    """Replace single-loop task-local allocations with loop-local scalars."""
    alloc_names = [stmt.name for stmt in function.body if isinstance(stmt, Alloc)]
    if not alloc_names:
        return function

    scalarizable: Set[str] = set()
    loops_of = _loops_touching(function, alloc_names)
    for name in alloc_names:
        touching = loops_of[name]
        if len(touching) == 1:
            loop = function.body[touching[0]]
            assert isinstance(loop, Loop)
            if _writes_precede_reads(loop, name) and loop.index_buffer != name:
                scalarizable.add(name)

    if not scalarizable:
        return function

    locals_of = {name: LocalRef(_local_name(name)) for name in scalarizable}
    body: List[Stmt] = []
    for stmt in function.body:
        if isinstance(stmt, Alloc) and stmt.name in scalarizable:
            continue
        if isinstance(stmt, Loop):
            body.append(_rewrite_loop(stmt, locals_of))
        else:
            body.append(stmt)
    return function.with_body(body)


def _writes_precede_reads(loop: Loop, buffer: str) -> bool:
    """True when every read of ``buffer`` in the loop follows a write to it."""
    written = False
    for stmt in loop.body:
        if buffer in stmt.buffers_read() and not written:
            return False
        if buffer in stmt.buffers_written():
            written = True
    return written


def _rewrite_loop(loop: Loop, locals_of: Mapping[str, Expr]) -> Loop:
    """Turn writes to scalarizable buffers into local defs and reads into refs.

    ``locals_of`` maps each scalarizable buffer to its local reference.
    """
    new_body: List[LoopStmt] = []
    for stmt in loop.body:
        if isinstance(stmt, Assign):
            expr = replace_loads(stmt.expr, locals_of)
            if not stmt.is_local and stmt.target in locals_of:
                new_body.append(Assign(target=_local_name(stmt.target), expr=expr, is_local=True))
            else:
                new_body.append(Assign(target=stmt.target, expr=expr, is_local=stmt.is_local))
        elif isinstance(stmt, Reduce):
            new_body.append(
                Reduce(target=stmt.target, kind=stmt.kind, expr=replace_loads(stmt.expr, locals_of))
            )
        else:  # pragma: no cover - no other loop statement kinds exist
            new_body.append(stmt)
    return Loop(index_buffer=loop.index_buffer, body=tuple(new_body), parallel=loop.parallel)


def _local_name(buffer: str) -> str:
    return f"{buffer}_val"
