"""Black-Scholes option pricing (paper Section 7.1, Figure 10a).

A trivially-parallel micro-benchmark: every iteration re-prices a batch of
European call and put options with the closed-form Black-Scholes formula.
Written naturally, the formula decomposes into a long chain (~67) of
element-wise cuPyNumeric operations, all of which are fusible — the paper
uses it as the upper bound on what fusion can deliver.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.frontend.cunumeric as cn
from repro.apps.base import Application, register_application
from repro.frontend.legate.context import RuntimeContext

_SQRT_TWO = float(np.sqrt(2.0))


def _cdf(values):
    """Standard normal CDF built from the error function."""
    return 0.5 * (cn.erf(values / _SQRT_TWO) + 1.0)


@register_application("black-scholes")
class BlackScholes(Application):
    """Batched European option pricing."""

    def __init__(
        self,
        elements_per_gpu: int = 65536,
        risk_free_rate: float = 0.02,
        volatility: float = 0.30,
        context: Optional[RuntimeContext] = None,
        seed: int = 7,
    ) -> None:
        super().__init__(context)
        total = int(elements_per_gpu) * self.context.num_gpus
        rng = np.random.default_rng(seed)
        self._spot_host = rng.uniform(10.0, 100.0, total)
        self._strike_host = rng.uniform(10.0, 100.0, total)
        self._expiry_host = rng.uniform(0.1, 2.0, total)
        self.spot = cn.array(self._spot_host, name="spot")
        self.strike = cn.array(self._strike_host, name="strike")
        self.expiry = cn.array(self._expiry_host, name="expiry")
        self.rate = float(risk_free_rate)
        self.volatility = float(volatility)
        self.call = cn.zeros(total, name="call")
        self.put = cn.zeros(total, name="put")

    def step(self) -> None:
        """Re-price the whole batch (one long fusible chain of tasks)."""
        rate = self.rate
        vol = self.volatility
        spot, strike, expiry = self.spot, self.strike, self.expiry

        sqrt_t = cn.sqrt(expiry)
        vol_sqrt_t = vol * sqrt_t
        log_moneyness = cn.log(spot / strike)
        drift = (rate + 0.5 * vol * vol) * expiry
        d1 = (log_moneyness + drift) / vol_sqrt_t
        d2 = d1 - vol_sqrt_t

        cdf_d1 = _cdf(d1)
        cdf_d2 = _cdf(d2)
        cdf_neg_d1 = _cdf(-d1)
        cdf_neg_d2 = _cdf(-d2)

        discount = cn.exp(-rate * expiry)
        discounted_strike = strike * discount

        call = spot * cdf_d1 - discounted_strike * cdf_d2
        put = discounted_strike * cdf_neg_d2 - spot * cdf_neg_d1

        # Clamp tiny negative values caused by round-off, as the original
        # benchmark does, and store the results.
        self.call[...] = cn.maximum(call, 0.0)
        self.put[...] = cn.maximum(put, 0.0)

    def checksum(self) -> float:
        """Mean call plus mean put price."""
        total = float(self.call.sum()) + float(self.put.sum())
        return total / self.call.size

    def reference_checksum(self) -> float:
        """The same computation with plain NumPy (for the tests)."""
        spot, strike, expiry = self._spot_host, self._strike_host, self._expiry_host
        rate, vol = self.rate, self.volatility
        sqrt_t = np.sqrt(expiry)
        d1 = (np.log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / (vol * sqrt_t)
        d2 = d1 - vol * sqrt_t

        def cdf(values):
            from math import erf

            # ``math.erf`` element by element straight into one float64
            # array: no object array beside the data.
            scaled = (values / _SQRT_TWO).ravel().tolist()
            erfs = np.fromiter(map(erf, scaled), np.float64, count=len(scaled))
            return 0.5 * (erfs.reshape(values.shape) + 1.0)

        discounted = strike * np.exp(-rate * expiry)
        call = np.maximum(spot * cdf(d1) - discounted * cdf(d2), 0.0)
        put = np.maximum(discounted * cdf(-d2) - spot * cdf(-d1), 0.0)
        return float(np.sum(call) + np.sum(put)) / len(call)
