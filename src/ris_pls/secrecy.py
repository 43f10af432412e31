"""Received powers, spectral efficiencies, and the secrecy-rate metric."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .ofdm import TxSignal, effective_gains
from .ris import RisResponse


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
    the clamp, where negative values mean no secrecy is attainable.
    """

    r_lu: float
    r_ed: float
    r_sec_raw: float
    r_sec: float
    n0: float
    num_occupied: int
    headline_clamped: bool = False
    per_subcarrier: list | None = field(default=None, repr=False)

    @property
    def value(self) -> float:
        """The headline number: clamped or raw per `headline_clamped`."""
        return self.r_sec if self.headline_clamped else self.r_sec_raw

    @property
    def per_subcarrier_mean(self) -> float:
        """Raw secrecy rate averaged over the occupied subcarriers."""
        return self.r_sec_raw / self.num_occupied

    def to_dict(self) -> dict:
        out = {
            "r_lu": self.r_lu,
            "r_ed": self.r_ed,
            "r_sec_raw": self.r_sec_raw,
            "r_sec": self.r_sec,
            "sse": self.value,
            "headline_clamped": self.headline_clamped,
            "n0": self.n0,
            "num_occupied": self.num_occupied,
            "per_subcarrier_mean": self.per_subcarrier_mean,
        }
        if self.per_subcarrier is not None:
            out["per_subcarrier"] = [list(row) for row in self.per_subcarrier]
        return out

    def save_per_subcarrier_csv(self, path) -> None:
        """One row per occupied subcarrier: index, LU rate, ED rate."""
        if self.per_subcarrier is None:
            raise ValueError("report was computed without per-subcarrier detail")
        with open(path, "w") as fh:
            fh.write("# schema=sse-per-subcarrier-v1\n")
            fh.write("subcarrier,r_lu,r_ed\n")
            for v, r_l, r_e in self.per_subcarrier:
                fh.write(f"{v},{r_l!r},{r_e!r}\n")


def _occupied_signal_powers(channels: ChannelSet, response: RisResponse, tx: TxSignal):
    eff_lu, eff_ed = effective_gains(channels, response)
    if tx.num_subcarriers != channels.num_subcarriers:
        raise ValueError("transmit signal and channel set disagree on subcarrier count")
    x = tx.amplitudes()
    mask = tx.occupied_mask
    p_lu = np.abs(eff_lu[mask] * x[mask]) ** 2
    p_ed = np.abs(eff_ed[mask] * x[mask]) ** 2
    return p_lu, p_ed


def received_power(
    channels: ChannelSet, response: RisResponse, tx: TxSignal, user: str = "lu"
) -> float:
    """Noiseless effective received power summed over occupied subcarriers."""
    if user not in ("lu", "ed"):
        raise ValueError("user must be 'lu' or 'ed'")
    p_lu, p_ed = _occupied_signal_powers(channels, response, tx)
    return float(p_lu.sum() if user == "lu" else p_ed.sum())


def link_powers(channels: ChannelSet, response: RisResponse, tx: TxSignal) -> LinkPowers:
    p_lu, p_ed = _occupied_signal_powers(channels, response, tx)
    return LinkPowers(float(p_lu.sum()), float(p_ed.sum()))


def power_ratio(channels: ChannelSet, response: RisResponse, tx: TxSignal) -> float:
    """Received-power ratio LU/ED, the greedy objective of the full-surface
    sweep. A zero ED power gives inf, or nan when the LU power is zero too,
    as the optimizers' evaluator does."""
    powers = link_powers(channels, response, tx)
    if powers.p_ed == 0:
        return math.inf if powers.p_lu > 0 else math.nan
    return powers.p_lu / powers.p_ed


def _sse_report(
    p_lu, p_ed, tx: TxSignal, n0: float, apply_max: bool = False, per_subcarrier: bool = False
) -> SecrecyReport:
    if n0 <= 0:
        raise ValueError("noise power must be positive")
    r_lu = np.log2(1.0 + p_lu / n0)
    r_ed = np.log2(1.0 + p_ed / n0)
    raw = float(r_lu.sum() - r_ed.sum())
    detail = None
    if per_subcarrier:
        occupied = np.flatnonzero(tx.occupied_mask)
        detail = [(int(v), float(rl), float(re)) for v, rl, re in zip(occupied, r_lu, r_ed)]
    return SecrecyReport(
        r_lu=float(r_lu.sum()),
        r_ed=float(r_ed.sum()),
        r_sec_raw=raw,
        r_sec=max(0.0, raw),
        n0=n0,
        num_occupied=int(tx.occupied_mask.sum()),
        headline_clamped=apply_max,
        per_subcarrier=detail,
    )


def sum_sse(
    channels: ChannelSet,
    response: RisResponse,
    tx: TxSignal,
    n0: float,
    apply_max: bool = False,
    per_subcarrier: bool = False,
) -> SecrecyReport:
    """Sum secrecy spectral efficiency over the occupied subcarriers.

    Rates are Shannon efficiencies of the noiseless effective signal power
    over `n0`. With `apply_max` the clamped difference is the headline
    value of the report; the raw difference is always carried alongside.
    """
    p_lu, p_ed = _occupied_signal_powers(channels, response, tx)
    return _sse_report(p_lu, p_ed, tx, n0, apply_max, per_subcarrier)


def powers_and_sse(channels: ChannelSet, response: RisResponse, tx: TxSignal, n0: float) -> tuple:
    """(`link_powers`, `sum_sse`) of one configuration from a single
    evaluation of the occupied-subcarrier powers."""
    p_lu, p_ed = _occupied_signal_powers(channels, response, tx)
    return LinkPowers(float(p_lu.sum()), float(p_ed.sum())), _sse_report(p_lu, p_ed, tx, n0)
