"""Received powers, spectral efficiencies, and the secrecy-rate metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def to_db(power: float) -> float:
    """10 log10(p); zero maps to -inf."""
    if power < 0:
        raise ValueError("power must be non-negative")
    if power == 0:
        return float("-inf")
    return 10.0 * math.log10(power)


def from_db(power_db: float) -> float:
    return 10.0 ** (power_db / 10.0)


@dataclass(frozen=True)
class LinkPowers:
    """Linear received powers at the two receivers."""

    p_lu: float
    p_ed: float

    def __post_init__(self):
        if self.p_lu < 0 or self.p_ed < 0:
            raise ValueError("powers must be non-negative")

    @property
    def lu_db(self) -> float:
        return to_db(self.p_lu)

    @property
    def ed_db(self) -> float:
        return to_db(self.p_ed)

    def to_dict(self) -> dict:
        return {
            "p_lu": self.p_lu,
            "p_ed": self.p_ed,
            "lu_db": self.lu_db,
            "ed_db": self.ed_db,
        }


@dataclass
class SecrecyReport:
    """Sum rates of both links and their difference.

    `r_sec_raw` is the unclamped difference; `r_sec` clamps it at zero.
    Both are kept because measured comparisons are usually reported without
    the clamp, where negative values mean no secrecy is attainable; so the
    raw difference is the headline `sse` that `to_dict` writes.
    """

    r_lu: float
    r_ed: float
    r_sec_raw: float
    r_sec: float
    n0: float
    num_occupied: int

    @property
    def per_subcarrier_mean(self) -> float:
        """Raw secrecy rate averaged over the occupied subcarriers."""
        return self.r_sec_raw / self.num_occupied

    def to_dict(self) -> dict:
        return {
            "r_lu": self.r_lu,
            "r_ed": self.r_ed,
            "r_sec_raw": self.r_sec_raw,
            "r_sec": self.r_sec,
            "sse": self.r_sec_raw,
            "headline_clamped": False,
            "n0": self.n0,
            "num_occupied": self.num_occupied,
            "per_subcarrier_mean": self.per_subcarrier_mean,
        }


def link_powers(p: np.ndarray) -> LinkPowers:
    """Received powers summed over subcarriers, from the (2, K) LU and ED
    powers per subcarrier `p` (a row of `EvaluatorBatch.powers`, or
    `channel_powers`)."""
    return LinkPowers(float(p[0].sum()), float(p[1].sum()))


def sum_sse(p: np.ndarray, n0: float) -> SecrecyReport:
    """Sum secrecy spectral efficiency over the subcarriers of the (2, K)
    LU and ED powers per subcarrier `p` (a row of `EvaluatorBatch.powers`,
    or `channel_powers`).

    Rates are Shannon efficiencies of the noiseless effective signal power
    over `n0`.
    """
    if n0 <= 0:
        raise ValueError("noise power must be positive")
    r_lu, r_ed = np.log2(1.0 + p / n0)
    raw = float(r_lu.sum() - r_ed.sum())
    return SecrecyReport(
        r_lu=float(r_lu.sum()),
        r_ed=float(r_ed.sum()),
        r_sec_raw=raw,
        r_sec=max(0.0, raw),
        n0=n0,
        num_occupied=p.shape[1],
    )
