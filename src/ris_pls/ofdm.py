"""Transmit waveforms on an OFDM subcarrier grid.

Two transmit modes are supported: a single complex tone offset from the
carrier, and a wideband positioning-reference-style comb grid. Both are
represented in the frequency domain as a `TxSignal` that holds only the
subcarriers carrying signal, so the one receive equation
(`optimize.received_signal`) serves both and no consumer handles empty
bins. `ResourceGrid` keeps the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import check_types

SUBCARRIERS_PER_RB = 12

#: Most resource blocks one carrier holds: the NR maximum transmission
#: bandwidth configuration of 3GPP TS 38.211.
MAX_NUM_RB = 275


@dataclass(frozen=True)
class Numerology:
    """Subcarrier spacing and slot structure selector (mu in 0..4)."""

    mu: int = 2
    cp_mode: str = "extended"

    def __post_init__(self):
        check_types(self)
        if self.mu not in range(5):
            raise ValueError("mu must be one of 0..4")
        if self.cp_mode not in ("normal", "extended"):
            raise ValueError("cp_mode must be 'normal' or 'extended'")

    @property
    def subcarrier_spacing_hz(self) -> float:
        return 2**self.mu * 15_000.0

    @property
    def symbols_per_slot(self) -> int:
        return 12 if self.cp_mode == "extended" else 14


@dataclass
class ResourceGrid:
    """Frequency/time grid: `symbols` is (subcarriers, OFDM symbols).

    Subcarrier k sits at center_freq + (k - K//2) * spacing.
    """

    numerology: Numerology
    num_resource_blocks: int
    occupied_per_rb: int
    occupied_mask: np.ndarray
    symbols: np.ndarray
    center_freq_hz: float = 3.55e9

    def __post_init__(self):
        self.occupied_mask = np.asarray(self.occupied_mask, dtype=bool)
        self.symbols = np.asarray(self.symbols, dtype=complex)
        k = self.num_resource_blocks * SUBCARRIERS_PER_RB
        if self.occupied_mask.shape != (k,):
            raise ValueError("occupied mask must cover every subcarrier")
        expected = self.num_resource_blocks * self.occupied_per_rb
        if int(self.occupied_mask.sum()) != expected:
            raise ValueError(
                f"mask occupies {int(self.occupied_mask.sum())} subcarriers, "
                f"expected {expected}"
            )
        if self.symbols.ndim != 2 or self.symbols.shape[0] != k:
            raise ValueError("symbols must be (subcarriers, ofdm symbols)")

    @property
    def num_subcarriers(self) -> int:
        return self.num_resource_blocks * SUBCARRIERS_PER_RB

    @property
    def bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.numerology.subcarrier_spacing_hz

    def subcarrier_freqs(self) -> np.ndarray:
        k = self.num_subcarriers
        offsets = (np.arange(k) - k // 2) * self.numerology.subcarrier_spacing_hz
        return self.center_freq_hz + offsets


def build_prs_grid(
    numerology: Numerology,
    num_rb: int = 52,
    seed: int = 0,
    center_freq_hz: float = 3.55e9,
) -> ResourceGrid:
    """Comb-occupied reference grid filled with seeded QPSK symbols.

    12/mu subcarriers per resource block are occupied, evenly spaced; the
    occupancy rule breaks down for mu = 0, which is rejected.
    """
    if numerology.mu < 1:
        raise ValueError("comb occupancy 12/mu requires mu >= 1")
    if not 1 <= num_rb <= MAX_NUM_RB:
        raise ValueError(f"need 1 to {MAX_NUM_RB} resource blocks, not {num_rb}")
    occupied_per_rb = SUBCARRIERS_PER_RB // numerology.mu
    step = SUBCARRIERS_PER_RB // occupied_per_rb
    k = num_rb * SUBCARRIERS_PER_RB
    mask = (np.arange(k) % step) == 0
    n_sym = numerology.symbols_per_slot
    rng = np.random.default_rng(seed)
    quadrants = rng.integers(0, 4, size=(int(mask.sum()), n_sym))
    qpsk = np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * quadrants))
    symbols = np.zeros((k, n_sym), dtype=complex)
    symbols[mask, :] = qpsk
    return ResourceGrid(
        numerology=numerology,
        num_resource_blocks=num_rb,
        occupied_per_rb=occupied_per_rb,
        occupied_mask=mask,
        symbols=symbols,
        center_freq_hz=center_freq_hz,
    )


@dataclass
class TxSignal:
    """Frequency-domain transmit profile used by the receive equation.

    Holds only the subcarriers that carry signal: `freqs` and `symbols`
    have one entry per carried subcarrier. The canonical constructors keep
    the symbols at unit average power.
    """

    mode: str
    freqs: np.ndarray
    symbols: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.symbols = np.asarray(self.symbols, dtype=complex)
        k = self.freqs.size
        if self.symbols.shape != (k,):
            raise ValueError("symbols must have one entry per subcarrier")
        if self.mode == "tone" and k != 1:
            raise ValueError("tone mode carries exactly one subcarrier")

    @property
    def num_subcarriers(self) -> int:
        return self.freqs.size


def tone_signal(
    numerology: Numerology,
    center_freq_hz: float = 3.55e9,
    offset_hz: float = 100e3,
) -> TxSignal:
    """One subcarrier, at the grid frequency nearest to `offset_hz`."""
    spacing = numerology.subcarrier_spacing_hz
    bin_offset = round(offset_hz / spacing)
    freq = center_freq_hz + bin_offset * spacing
    return TxSignal(
        mode="tone",
        freqs=np.array([freq]),
        symbols=np.array([1.0 + 0.0j]),
    )


def prs_signal(grid: ResourceGrid) -> TxSignal:
    """Transmit profile of the first OFDM symbol of a reference grid, on
    the grid's occupied subcarriers only."""
    mask = grid.occupied_mask
    return TxSignal(
        mode="prs",
        freqs=grid.subcarrier_freqs()[mask],
        symbols=grid.symbols[mask, 0],
    )
