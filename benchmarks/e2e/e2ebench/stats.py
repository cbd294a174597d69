"""Estimators shared by the runner, the comparison tool and the self-check.

Every timing metric is the *median over sessions* of a per-session
value that was first divided by the host's slowdown during that session
(:mod:`e2ebench.calibration`).  The median was chosen from measurements,
not by default: the issue this benchmark was written to proposed the
10th percentile over sessions, which suits a host whose noise is
one-sided, but the hosts it actually runs on also have a *faster* state
that holds for 10-15 % of the sessions — exactly where a 10th percentile
lands — so that estimate moved by 19 % between identical 24 s runs of
``cg-manyrank`` while the median moved by 1 % (README, "Estimator").
"""

from __future__ import annotations

import math
from typing import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def tail_quantile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if count < 20:
        return 0.5
    return 1.0 - 10.0 / count
