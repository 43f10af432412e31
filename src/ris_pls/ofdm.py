"""Waveforms, the OFDM modem and I/Q files.

Two transmit modes are supported: a single complex tone offset from the
carrier, and a wideband positioning-reference-style comb grid. Both are
represented in the frequency domain as a `TxSignal`, so the one receive
equation (`optimize.received_signal`) serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUBCARRIERS_PER_RB = 12


@dataclass(frozen=True)
class Numerology:
    """Subcarrier spacing and slot structure selector (mu in 0..4)."""

    mu: int = 2
    cp_mode: str = "extended"

    def __post_init__(self):
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

    @property
    def slots_per_subframe(self) -> int:
        return 2**self.mu


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
    def num_symbols(self) -> int:
        return self.symbols.shape[1]

    @property
    def bandwidth_hz(self) -> float:
        return self.num_subcarriers * self.numerology.subcarrier_spacing_hz

    def subcarrier_freqs(self) -> np.ndarray:
        k = self.num_subcarriers
        offsets = (np.arange(k) - k // 2) * self.numerology.subcarrier_spacing_hz
        return self.center_freq_hz + offsets

    def to_dict(self) -> dict:
        return {
            "numerology": {"mu": self.numerology.mu, "cp_mode": self.numerology.cp_mode},
            "num_resource_blocks": self.num_resource_blocks,
            "occupied_per_rb": self.occupied_per_rb,
            "occupied_mask": self.occupied_mask.astype(int).tolist(),
            "symbols": np.stack([self.symbols.real, self.symbols.imag], axis=-1).tolist(),
            "center_freq_hz": self.center_freq_hz,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResourceGrid":
        symbols = np.asarray(data["symbols"], dtype=float)
        return cls(
            numerology=Numerology(**data["numerology"]),
            num_resource_blocks=data["num_resource_blocks"],
            occupied_per_rb=data["occupied_per_rb"],
            occupied_mask=np.asarray(data["occupied_mask"], dtype=bool),
            symbols=symbols[..., 0] + 1j * symbols[..., 1],
            center_freq_hz=data["center_freq_hz"],
        )

    def save_csv(self, path) -> None:
        """One row per resource element: subcarrier, symbol, re, im."""
        with open(path, "w") as fh:
            fh.write("# schema=resource-grid-v1\n")
            fh.write("subcarrier,symbol,re,im\n")
            for v in range(self.num_subcarriers):
                for s in range(self.num_symbols):
                    x = self.symbols[v, s]
                    fh.write(f"{v},{s},{float(x.real)!r},{float(x.imag)!r}\n")


def build_prs_grid(
    numerology: Numerology,
    num_rb: int = 52,
    seed: int = 0,
    center_freq_hz: float = 3.55e9,
    num_symbols: int | None = None,
) -> ResourceGrid:
    """Comb-occupied reference grid filled with seeded QPSK symbols.

    12/mu subcarriers per resource block are occupied, evenly spaced; the
    occupancy rule breaks down for mu = 0, which is rejected.
    """
    if numerology.mu < 1:
        raise ValueError("comb occupancy 12/mu requires mu >= 1")
    if num_rb < 1:
        raise ValueError("need at least one resource block")
    occupied_per_rb = SUBCARRIERS_PER_RB // numerology.mu
    step = SUBCARRIERS_PER_RB // occupied_per_rb
    k = num_rb * SUBCARRIERS_PER_RB
    mask = (np.arange(k) % step) == 0
    n_sym = numerology.symbols_per_slot if num_symbols is None else int(num_symbols)
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

    The canonical constructors keep occupied symbols at unit average power;
    `power_scale` multiplies the transmitted power on top of that.
    """

    mode: str
    freqs: np.ndarray
    symbols: np.ndarray
    occupied_mask: np.ndarray
    power_scale: float = 1.0

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.symbols = np.asarray(self.symbols, dtype=complex)
        self.occupied_mask = np.asarray(self.occupied_mask, dtype=bool)
        k = self.freqs.size
        if self.symbols.shape != (k,) or self.occupied_mask.shape != (k,):
            raise ValueError("symbols and mask must have one entry per subcarrier")
        if self.mode == "tone" and int(self.occupied_mask.sum()) != 1:
            raise ValueError("tone mode occupies exactly one subcarrier")
        if self.power_scale < 0:
            raise ValueError("power scale must be non-negative")

    @property
    def num_subcarriers(self) -> int:
        return self.freqs.size

    def amplitudes(self) -> np.ndarray:
        return self.symbols * math.sqrt(self.power_scale)


def tone_signal(
    numerology: Numerology,
    center_freq_hz: float = 3.55e9,
    offset_hz: float = 100e3,
    power_scale: float = 1.0,
) -> TxSignal:
    """Single occupied bin at the grid bin nearest to `offset_hz`."""
    spacing = numerology.subcarrier_spacing_hz
    bin_offset = round(offset_hz / spacing)
    freq = center_freq_hz + bin_offset * spacing
    return TxSignal(
        mode="tone",
        freqs=np.array([freq]),
        symbols=np.array([1.0 + 0.0j]),
        occupied_mask=np.array([True]),
        power_scale=power_scale,
    )


def prs_signal(grid: ResourceGrid, symbol_index: int = 0, power_scale: float = 1.0) -> TxSignal:
    """Transmit profile of one OFDM symbol of a reference grid."""
    if not 0 <= symbol_index < grid.num_symbols:
        raise IndexError("symbol index out of range")
    return TxSignal(
        mode="prs",
        freqs=grid.subcarrier_freqs(),
        symbols=grid.symbols[:, symbol_index].copy(),
        occupied_mask=grid.occupied_mask.copy(),
        power_scale=power_scale,
    )


def _fft_size(num_subcarriers: int) -> int:
    return 1 << max(0, (num_subcarriers - 1)).bit_length()


def _bin_indices(num_subcarriers: int, nfft: int) -> np.ndarray:
    offsets = np.arange(num_subcarriers) - num_subcarriers // 2
    return np.mod(offsets, nfft)


def modulate(grid: ResourceGrid) -> np.ndarray:
    """Time-domain sample stream of the grid (unitary IFFT, extended CP).

    The FFT size is the smallest power of two holding all subcarriers and
    the cyclic prefix is a quarter of the symbol duration.
    """
    if grid.numerology.cp_mode != "extended":
        raise ValueError("only extended-CP modulation is implemented")
    k = grid.num_subcarriers
    nfft = _fft_size(k)
    cp = nfft // 4
    idx = _bin_indices(k, nfft)
    out = np.empty((grid.num_symbols, nfft + cp), dtype=complex)
    for s in range(grid.num_symbols):
        spec = np.zeros(nfft, dtype=complex)
        spec[idx] = grid.symbols[:, s]
        body = np.fft.ifft(spec, norm="ortho")
        out[s, :cp] = body[-cp:]
        out[s, cp:] = body
    return out.reshape(-1)


def demodulate(
    samples: np.ndarray,
    numerology: Numerology,
    num_rb: int,
    center_freq_hz: float = 3.55e9,
) -> ResourceGrid:
    """Invert `modulate`: strip prefixes, FFT, and collect the grid bins."""
    if numerology.mu < 1:
        raise ValueError("comb occupancy 12/mu requires mu >= 1")
    samples = np.asarray(samples, dtype=complex)
    k = num_rb * SUBCARRIERS_PER_RB
    nfft = _fft_size(k)
    cp = nfft // 4
    sym_len = nfft + cp
    if samples.size == 0 or samples.size % sym_len:
        raise ValueError(
            f"sample stream length {samples.size} is not a multiple of {sym_len}"
        )
    n_sym = samples.size // sym_len
    idx = _bin_indices(k, nfft)
    occupied_per_rb = SUBCARRIERS_PER_RB // numerology.mu
    step = SUBCARRIERS_PER_RB // occupied_per_rb
    mask = (np.arange(k) % step) == 0
    symbols = np.empty((k, n_sym), dtype=complex)
    blocks = samples.reshape(n_sym, sym_len)
    for s in range(n_sym):
        spec = np.fft.fft(blocks[s, cp:], norm="ortho")
        symbols[:, s] = spec[idx]
    return ResourceGrid(
        numerology=numerology,
        num_resource_blocks=num_rb,
        occupied_per_rb=occupied_per_rb,
        occupied_mask=mask,
        symbols=symbols,
        center_freq_hz=center_freq_hz,
    )


def write_iq(samples: np.ndarray, path) -> None:
    """Interleaved little-endian float32 I/Q file."""
    samples = np.asarray(samples, dtype=complex)
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real.astype("<f4")
    interleaved[1::2] = samples.imag.astype("<f4")
    interleaved.tofile(str(path))


def read_iq(path) -> np.ndarray:
    raw = np.fromfile(str(path), dtype="<f4")
    if raw.size % 2:
        raise ValueError("I/Q file holds an odd number of floats")
    return raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
