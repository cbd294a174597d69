"""Seeded array-program generator for the ``stream-churn`` workload.

A *program* is a short register-machine listing over three 1-D input
arrays: unary and binary ufuncs, scalar broadcasts, ``where``, in-place
updates, shifted slices (``x[1:] - x[:-1]``-style aliasing views) and
mid-chain reductions whose scalar is read back and fed into later
instructions (an epoch break for the runtime).  :func:`evaluate` runs a
listing against any module with NumPy's surface, so the very same
listing executes on ``repro.frontend.cunumeric`` (the program under
test) and on plain ``numpy`` (the oracle).

Two random streams build a session.  The *shape* stream is seeded by the
constant :data:`CORPUS_SEED` and fixes what costs analysis and
compilation time: each listing's length, its instruction kinds, the
register wiring, where views and read-backs fall, the order the programs
run in and which of them repeat.  The *fill* stream
is seeded by ``--seed`` and draws everything else: the input data, every
scalar constant, which ufunc of an equal-cost class fills each slot
(``sin``/``cos``, ``add``/``subtract``, ``maximum``/``minimum``,
``sum``/``max``/``min`` ...).  Drawing shapes from the seed as well was measured first:
the per-session mean op time then moved by +-7 % between seeds (a listing
of one length costs +-30 % depending on how its wiring fuses), wider than
any regression bound worth recording; with shapes fixed, seeds differ in
the generated source and data but not in the amount of work.

Only this module sees the seed; the program under test receives the
listings and the input arrays.

Numerics are kept tame by construction so no instruction can produce a
NaN, an infinity or a denormal (which would make timing data-dependent):
the generator tracks a magnitude bound per register and clamps to
[-1, 1] before the bound can exceed ``_MAX_MAGNITUDE``; ``sqrt`` only
ever sees ``|x| + 1``; division is by ``y*y + 1``; and the
final result is a sum of squares, so the oracle comparison never divides
by a cancelled sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Shortest and longest listing, in instructions (the issue's 4–40 ops).
MIN_LENGTH = 4
MAX_LENGTH = 40

#: Every fourth program of a session repeats an earlier one.
REPEAT_EVERY = 4

#: Seed of the shape stream (see the module docstring).
CORPUS_SEED = 20250927

_MAX_MAGNITUDE = 1.0e3

Instruction = Tuple


@dataclass(frozen=True)
class Program:
    """One generated listing plus what the harness needs to schedule it."""

    instructions: Tuple[Instruction, ...]
    #: Number of scalar read-backs before the final one (epoch breaks).
    reductions: int

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class _Reg:
    """Generation-time facts about one register."""

    lo: int  # first index of the full range this value covers
    hi: int  # one past the last index
    bound: float  # magnitude bound of the contents
    owned: bool  # storage is program-local, so in-place updates are safe


class _Builder:
    def __init__(self, shape: random.Random, fill: random.Random, size: int) -> None:
        #: Decides structure (kinds, wiring, views); seed-independent.
        self.rng = shape
        #: Decides constants and the member of an equal-cost class.
        self.fill = fill
        self.size = size
        self.regs: List[_Reg] = [_Reg(0, size, 2.0, False) for _ in range(3)]
        self.out: List[Instruction] = []
        self.scalars = 0
        self.diffs = 0

    # -- register selection --------------------------------------------
    def pick(self) -> int:
        """A source register, biased towards recent ones (builds chains)."""
        count = len(self.regs)
        if count > 3 and self.rng.random() < 0.7:
            return self.rng.randrange(max(0, count - 4), count)
        return self.rng.randrange(count)

    def new(self, lo: int, hi: int, bound: float, owned: bool = True) -> int:
        self.regs.append(_Reg(lo, hi, bound, owned))
        return len(self.regs) - 1

    def tame(self, src: int) -> int:
        """``src`` itself, or ``src`` clamped to [-1, 1] when its bound got large."""
        reg = self.regs[src]
        if reg.bound <= _MAX_MAGNITUDE:
            return src
        return self.clamp(src)

    def clamp(self, src: int) -> int:
        reg = self.regs[src]
        dst = self.new(reg.lo, reg.hi, 1.0)
        self.out.append(("clamp", dst, src))
        return dst

    def aligned(self, a: int, b: int) -> Tuple[int, int, int, int]:
        """Views of ``a`` and ``b`` over their common index range."""
        ra, rb = self.regs[a], self.regs[b]
        lo, hi = max(ra.lo, rb.lo), min(ra.hi, rb.hi)
        return self.view(a, lo, hi), self.view(b, lo, hi), lo, hi

    def view(self, src: int, lo: int, hi: int) -> int:
        reg = self.regs[src]
        if (reg.lo, reg.hi) == (lo, hi):
            return src
        dst = self.new(lo, hi, reg.bound, owned=reg.owned)
        self.out.append(("slice", dst, src, lo - reg.lo, hi - reg.lo))
        return dst

    # -- instruction emitters ------------------------------------------
    # ``self.rng`` picks the shape; ``self.fill`` picks within a class of
    # equal cost, so bounds are computed for the class's worst member.
    def unary(self) -> None:
        src = self.tame(self.pick())
        reg = self.regs[src]
        choice = self.rng.randrange(8)
        if choice < 3:
            name, bound = self.fill.choice(("negative", "absolute")), reg.bound
        elif choice < 6:
            # sqrt(|x| + 1): always real, never denormal.
            name, bound = "sqrt1p", math.sqrt(reg.bound + 1.0)
        elif choice == 6:
            name, bound = self.fill.choice(("sin", "cos")), 1.0
        else:
            # exp only of a clamped value, so it cannot overflow.
            if reg.bound > 4.0:
                src = self.clamp(src)
                reg = self.regs[src]
            name, bound = "exp", math.exp(reg.bound)
        dst = self.new(reg.lo, reg.hi, bound)
        self.out.append(("unary", dst, name, src))

    def binary(self) -> None:
        a, b, lo, hi = self.aligned(self.tame(self.pick()), self.tame(self.pick()))
        ba, bb = self.regs[a].bound, self.regs[b].bound
        choice = self.rng.randrange(6)
        if choice == 0:
            # a / (b*b + 1): the divisor is at least one.
            dst = self.new(lo, hi, ba)
            self.out.append(("divide1p", dst, a, b))
            return
        if choice == 1:
            name, bound = "multiply", ba * bb
        elif choice < 4:
            name, bound = self.fill.choice(("add", "subtract")), ba + bb
        else:
            name, bound = self.fill.choice(("maximum", "minimum")), max(ba, bb)
        dst = self.new(lo, hi, bound)
        self.out.append(("binary", dst, name, a, b))

    def constant(self) -> float:
        return round(self.fill.uniform(0.25, 2.0), 6)

    def scalar(self) -> None:
        src = self.tame(self.pick())
        reg = self.regs[src]
        value = self.constant()
        if self.rng.random() < 0.5:
            name, bound = self.fill.choice(("add", "rsubtract")), reg.bound + 2.0
        else:
            name, bound = self.fill.choice(("multiply", "divide")), reg.bound * 4.0
        dst = self.new(reg.lo, reg.hi, bound)
        self.out.append(("scalar", dst, name, src, value))

    def where(self) -> None:
        a, b, lo, hi = self.aligned(self.pick(), self.pick())
        t = self.view(self.pick_covering(lo, hi), lo, hi)
        f = self.view(self.pick_covering(lo, hi), lo, hi)
        bound = max(self.regs[t].bound, self.regs[f].bound)
        dst = self.new(lo, hi, bound)
        self.out.append(("where", dst, a, b, t, f))

    def pick_covering(self, lo: int, hi: int) -> int:
        """A register whose range covers ``[lo, hi)`` (an input always does)."""
        for _ in range(4):
            candidate = self.pick()
            reg = self.regs[candidate]
            if reg.lo <= lo and reg.hi >= hi:
                return candidate
        return self.rng.randrange(3)

    def inplace(self) -> None:
        owned = [i for i, reg in enumerate(self.regs) if reg.owned]
        if not owned:
            self.binary()
            return
        dst = self.tame(self.rng.choice(owned[-4:]))
        reg = self.regs[dst]
        if self.rng.random() < 0.5:
            if self.rng.random() < 0.5:
                name, reg.bound = "add", reg.bound + 2.0
            else:
                name, reg.bound = "multiply", reg.bound * 2.0
            self.out.append(("inplace_scalar", dst, name, self.constant()))
            return
        src = self.view(self.tame(self.pick_covering(reg.lo, reg.hi)), reg.lo, reg.hi)
        reg.bound += self.regs[src].bound
        self.out.append(("inplace", dst, self.fill.choice(("add", "subtract")), src))

    def diff(self) -> None:
        src = self.tame(self.pick())
        reg = self.regs[src]
        if self.diffs >= 3:
            self.unary()
            return
        self.diffs += 1
        dst = self.new(reg.lo + 1, reg.hi, 2.0 * reg.bound)
        self.out.append(("diff", dst, self.fill.choice(("subtract", "add")), src))

    def reduce(self) -> None:
        src = self.tame(self.pick())
        kind = self.fill.choice(("sum", "max", "min"))
        self.out.append(("reduce", self.scalars, kind, src))
        self.scalars += 1

    def scalar_use(self) -> None:
        if not self.scalars:
            self.scalar()
            return
        src = self.tame(self.pick())
        reg = self.regs[src]
        which = self.rng.randrange(self.scalars)
        # A read-back scalar is normalised into (-1, 1) before use.
        if self.rng.random() < 0.5:
            name, bound = "add", reg.bound + 1.0
        else:
            name, bound = "multiply", reg.bound
        dst = self.new(reg.lo, reg.hi, bound)
        self.out.append(("scalar_use", dst, name, src, which))


_KINDS = (
    (_Builder.unary, 25),
    (_Builder.binary, 30),
    (_Builder.scalar, 12),
    (_Builder.where, 8),
    (_Builder.inplace, 9),
    (_Builder.diff, 6),
    (_Builder.scalar_use, 10),
)


def generate_program(
    shape: random.Random, fill: random.Random, size: int, length: int
) -> Program:
    """One listing of about ``length`` instructions over arrays of ``size``.

    ``shape`` draws the structure and ``fill`` the contents (see the
    module docstring).  The number of mid-chain read-backs is a function
    of ``length`` alone: one per 16 instructions, at least one.
    """
    builder = _Builder(shape, fill, size)
    reductions = max(1, length // 16)
    # Read-backs split the listing into equal stretches.
    reduce_at = {
        (index + 1) * length // (reductions + 1) for index in range(reductions)
    }
    emitters = [kind for kind, _weight in _KINDS]
    weights = [weight for _kind, weight in _KINDS]
    while len(builder.out) < length:
        if reduce_at and len(builder.out) >= min(reduce_at):
            reduce_at.discard(min(reduce_at))
            builder.reduce()
            continue
        shape.choices(emitters, weights)[0](builder)
    last = builder.tame(len(builder.regs) - 1)
    builder.out.append(("final", last))
    return Program(tuple(builder.out), reductions)


def session_lengths(count: int) -> List[int]:
    """``count`` listing lengths spread evenly over the allowed range."""
    if count == 1:
        return [(MIN_LENGTH + MAX_LENGTH) // 2]
    span = MAX_LENGTH - MIN_LENGTH
    return [MIN_LENGTH + round(index * span / (count - 1)) for index in range(count)]


def generate_session(seed: int, size: int, count: int) -> Tuple[List[np.ndarray], List[Program]]:
    """Input arrays and ``count`` programs for the sessions of one run.

    ``count - count // REPEAT_EVERY`` programs are fresh, one per length
    of :func:`session_lengths`; every ``REPEAT_EVERY``-th slot repeats a
    program that already ran.  The order, and which programs repeat, are
    part of the shape (the adaptive fusion window and the caches make
    the cost of a program depend on what ran before it); the seed fills
    in the data and the contents.
    """
    fill = random.Random(seed)
    shape = random.Random(CORPUS_SEED)
    data = np.random.default_rng(seed)
    inputs = [data.uniform(0.5, 2.0, size) for _ in range(3)]
    repeats = count // REPEAT_EVERY
    fresh = [
        generate_program(random.Random(CORPUS_SEED + 1 + slot), fill, size, length)
        for slot, length in enumerate(session_lengths(count - repeats))
    ]
    shape.shuffle(fresh)
    programs: List[Program] = []
    unrepeated: List[Program] = []
    for index in range(count):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and unrepeated:
            choice = unrepeated.pop(shape.randrange(len(unrepeated)))
        else:
            choice = fresh.pop()
            unrepeated.append(choice)
        programs.append(choice)
    return inputs, programs


# ----------------------------------------------------------------------
# Evaluation: one interpreter for the program under test and the oracle.
# ----------------------------------------------------------------------
def _apply_binary(xp, name: str, a, b):
    if name == "add":
        return a + b
    if name == "subtract":
        return a - b
    if name == "multiply":
        return a * b
    if name == "maximum":
        return xp.maximum(a, b)
    return xp.minimum(a, b)


def evaluate(xp, program: Program, inputs: Sequence) -> float:
    """Run ``program`` with array module ``xp``; returns its final scalar.

    ``inputs`` are ``xp`` arrays and are never written.  ``float()`` of a
    reduction result is the blocking read-back.
    """
    regs: Dict[int, object] = dict(enumerate(inputs))
    scalars: Dict[int, float] = {}
    for instruction in program.instructions:
        kind = instruction[0]
        if kind == "unary":
            _, dst, name, src = instruction
            value = regs[src]
            if name == "sqrt1p":
                regs[dst] = xp.sqrt(xp.absolute(value) + 1.0)
            else:
                regs[dst] = getattr(xp, name)(value)
        elif kind == "clamp":
            _, dst, src = instruction
            regs[dst] = xp.minimum(xp.maximum(regs[src], -1.0), 1.0)
        elif kind == "binary":
            _, dst, name, a, b = instruction
            regs[dst] = _apply_binary(xp, name, regs[a], regs[b])
        elif kind == "divide1p":
            _, dst, a, b = instruction
            regs[dst] = regs[a] / (regs[b] * regs[b] + 1.0)
        elif kind == "scalar":
            _, dst, name, src, value = instruction
            if name == "add":
                regs[dst] = regs[src] + value
            elif name == "multiply":
                regs[dst] = regs[src] * value
            elif name == "rsubtract":
                regs[dst] = value - regs[src]
            else:
                regs[dst] = regs[src] / value
        elif kind == "where":
            _, dst, a, b, t, f = instruction
            regs[dst] = xp.where(regs[a] > regs[b], regs[t], regs[f])
        elif kind == "inplace":
            _, dst, name, src = instruction
            target = regs[dst]
            if name == "add":
                target += regs[src]
            else:
                target -= regs[src]
        elif kind == "inplace_scalar":
            _, dst, name, value = instruction
            target = regs[dst]
            if name == "add":
                target += value
            else:
                target *= value
        elif kind == "diff":
            _, dst, name, src = instruction
            value = regs[src]
            regs[dst] = _apply_binary(xp, name, value[1:], value[:-1])
        elif kind == "slice":
            _, dst, src, start, stop = instruction
            regs[dst] = regs[src][start:stop]
        elif kind == "reduce":
            _, index, name, src = instruction
            raw = float(getattr(regs[src], name)())
            scalars[index] = raw / (1.0 + abs(raw))
        elif kind == "scalar_use":
            _, dst, name, src, which = instruction
            if name == "add":
                regs[dst] = regs[src] + scalars[which]
            else:
                regs[dst] = regs[src] * scalars[which]
        else:  # "final"
            value = regs[instruction[1]]
            return float(value.dot(value))
    raise ValueError("program has no final instruction")
