"""The NumPy fact rank-stacked reductions rest on, swept.

A super-kernel section that reduces over a uniform contiguous tiling
computes every rank's partial with one call,

    ufunc.reduce(operand.reshape(-1, tile), axis=1)

where the per-rank loop computed ``float(ufunc.reduce(operand[i * tile :
(i + 1) * tile], axis=None))`` for each rank ``i``.  The two must agree
bit for bit (sign of zero and NaN payload included) for the four
reduction ufuncs, for operands that are contiguous spans and for the
zero-stride operand a 0-d value is ``broadcast_to``.  NumPy documents
neither (pairwise summation is applied along the reduced axis "when it
is the fast axis"), so this script checks it on the NumPy at hand:

    python3 docs/bench/pr23/reduce_identity_sweep.py > reduce_identity_sweep.txt

``tests/test_kernel_blocked.py::test_row_reduce_matches_stacked_reduce``
runs :func:`mismatches` over a trimmed grid on every CI interpreter.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Tuple

import numpy as np

UFUNCS = (np.add, np.multiply, np.maximum, np.minimum)
SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, 5e-324)
#: 0-d operands (summing one counts elements; 0.1 and 1.0000001 round at
#: every step, so a different summation order shows).
ZERO_D = (1.0, 0.1, 1.0000001, -0.0, np.nan, 1e308)

RANKS = (1, 2, 3, 7, 64, 257, 1000)
TILES = tuple(range(1, 70)) + (127, 128, 129, 255, 256, 257, 1000, 4096, 4097, 16384, 20000)
#: Largest operand swept, in elements (16 MiB of float64).
MAX_ELEMENTS = 1 << 21


def _rows(ufunc, operand: np.ndarray, ranks: int, tile: int) -> Tuple[bytes, bytes]:
    stacked = ufunc.reduce(operand.reshape(-1, tile), axis=1)
    looped = [
        float(ufunc.reduce(operand[rank * tile : (rank + 1) * tile], axis=None))
        for rank in range(ranks)
    ]
    return stacked.tobytes(), np.array(looped, dtype=np.float64).tobytes()


def mismatches(
    rank_counts: Iterable[int], tiles: Iterable[int], seed: int = 0
) -> Tuple[int, List[str]]:
    """``(comparisons made, descriptions of the ones that differed)``."""
    rng = np.random.default_rng(seed)
    compared = 0
    failures: List[str] = []
    with np.errstate(all="ignore"):
        for ranks in rank_counts:
            for tile in tiles:
                if ranks * tile > MAX_ELEMENTS:
                    continue
                span = rng.uniform(-2.0, 2.0, ranks * tile)
                salt = rng.random(span.shape) < 0.1
                span[salt] = rng.choice(SPECIAL, size=int(salt.sum()))
                operands = [("span", span)] + [
                    (f"0-d {value!r}", np.broadcast_to(np.float64(value), span.shape))
                    for value in ZERO_D
                ]
                for label, operand in operands:
                    for ufunc in UFUNCS:
                        compared += 1
                        stacked, looped = _rows(ufunc, operand, ranks, tile)
                        if stacked != looped:
                            failures.append(
                                f"{ufunc.__name__} ranks={ranks} tile={tile} operand={label}"
                            )
    return compared, failures


def main() -> int:
    start = time.perf_counter()
    compared, failures = mismatches(RANKS, TILES)
    print(f"numpy {np.__version__}")
    print(f"ranks {RANKS}")
    print(f"tiles 1..69 and {TILES[69:]}, operands of at most {MAX_ELEMENTS} elements")
    print(f"operands: salted span ({', '.join(map(repr, SPECIAL))}), 0-d {ZERO_D}")
    print(f"ufuncs {[ufunc.__name__ for ufunc in UFUNCS]}")
    print(f"{compared} comparisons, {len(failures)} mismatches")
    for failure in failures:
        print("MISMATCH", failure)
    print(f"# {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
