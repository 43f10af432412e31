"""1-bit reconfigurable surface: panel geometry, binary configurations, and
the element model giving each bit state's reflection phase per frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import check_types

SPEED_OF_LIGHT = 299_792_458.0

#: Half-wavelength element pitch at the 3.55 GHz carrier.
DEFAULT_ELEMENT_SPACING_M = SPEED_OF_LIGHT / 3.55e9 / 2.0


@dataclass(frozen=True)
class RisArrayGeometry:
    """Planar panel of n_v x n_h unit cells built from fixed-size tiles.

    The panel lies in the x-z plane with its center at the origin and
    broadside along +y. Elements are indexed row-major: element
    m = row * n_h + col, rows running top to bottom, columns left to right.
    """

    n_v: int = 32
    n_h: int = 32
    element_spacing_m: float = DEFAULT_ELEMENT_SPACING_M
    tile_rows: int = 16
    tile_cols: int = 16

    def __post_init__(self):
        check_types(self)
        if self.n_v < 1 or self.n_h < 1:
            raise ValueError("panel dimensions must be positive")
        if self.element_spacing_m <= 0:
            raise ValueError("element spacing must be positive")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile dimensions must be positive")
        if self.n_v % self.tile_rows or self.n_h % self.tile_cols:
            raise ValueError(
                f"{self.n_v}x{self.n_h} panel is not tileable by "
                f"{self.tile_rows}x{self.tile_cols} tiles"
            )

    @property
    def num_elements(self) -> int:
        return self.n_v * self.n_h


@dataclass
class RisConfig:
    """Binary configuration c over the n_v x n_h grid, stored row-major."""

    bits: np.ndarray
    n_v: int
    n_h: int

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size != self.n_v * self.n_h:
            raise ValueError("bit vector length must equal n_v * n_h")
        if np.any(self.bits > 1):
            raise ValueError("configuration bits must be 0 or 1")

    @classmethod
    def zeros(cls, n_v: int, n_h: int) -> "RisConfig":
        return cls(np.zeros(n_v * n_h, dtype=np.uint8), n_v, n_h)

    @classmethod
    def from_bitstring(cls, s: str, n_v: int, n_h: int) -> "RisConfig":
        # Every character but "0" and "1" decodes above 1: the subtraction
        # wraps those below "0", and a non-ASCII one becomes "?". A
        # non-string is a TypeError.
        bits = np.frombuffer(str.encode(s, "ascii", "replace"), dtype=np.uint8) - ord("0")
        if (bits > 1).any():
            raise ValueError("bit-string may contain only '0' and '1'")
        return cls(bits, n_v, n_h)

    def to_bitstring(self) -> str:
        return (self.bits + ord("0")).tobytes().decode("ascii")

    def copy(self) -> "RisConfig":
        return RisConfig(self.bits.copy(), self.n_v, self.n_h)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RisConfig):
            return NotImplemented
        return (
            self.n_v == other.n_v
            and self.n_h == other.n_h
            and np.array_equal(self.bits, other.bits)
        )


_MODES = ("ideal", "linear_dispersion", "lorentzian")


@dataclass(frozen=True)
class ElementModel:
    """Per-element reflection model: amplitude and the two phase states.

    `phase_at_center` gives the reflection phase for bit 0 and bit 1 at the
    center frequency. In "ideal" mode the phases are frequency-flat; the
    dispersive modes perturb them with frequency, clamped back to [0, pi]
    so the phase range stays physical:

    * linear_dispersion: theta(f) = theta_c + slope * (f - center)
    * lorentzian:        theta(f) = theta_c - 2 atan(2 Q (f - f_r) / f_r),
      referenced so the deviation is zero at the center frequency.
    """

    mode: str = "ideal"
    phase_at_center: tuple = (0.0, math.pi)
    amplitude: float = 1.0
    center_hz: float = 3.55e9
    dispersion_rad_per_hz: float = 0.0
    resonance_hz: float = 3.55e9
    quality_factor: float = 50.0

    def __post_init__(self):
        check_types(self)
        object.__setattr__(self, "phase_at_center", tuple(self.phase_at_center))
        if self.mode not in _MODES:
            raise ValueError(f"unknown element mode {self.mode!r}")
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("amplitude must lie in (0, 1]")
        lo, hi = self.phase_at_center
        if not (0.0 <= lo <= math.pi and 0.0 <= hi <= math.pi):
            raise ValueError("center-frequency phases must lie in [0, pi]")
        if self.center_hz <= 0:
            raise ValueError("center frequency must be positive")
        if self.mode == "lorentzian" and (self.resonance_hz <= 0 or self.quality_factor <= 0):
            raise ValueError("lorentzian mode needs positive resonance and Q")

    def phase_curves(self, freqs) -> np.ndarray:
        """(K, 2) phase of each bit state at every frequency, in [0, pi]."""
        f = np.asarray(freqs, dtype=float)
        if f.size == 0:
            raise ValueError("frequency list must be non-empty")
        base = np.asarray(self.phase_at_center, dtype=float)
        if self.mode == "ideal":
            return np.broadcast_to(base, (f.size, 2)).copy()
        if self.mode == "linear_dispersion":
            dev = self.dispersion_rad_per_hz * (f - self.center_hz)
        else:  # lorentzian
            if np.any(f <= 0):
                raise ValueError("lorentzian response is undefined for f <= 0")
            dev = self._lorentzian_dev(f) - self._lorentzian_dev(self.center_hz)
        return np.clip(base[None, :] + dev[:, None], 0.0, math.pi)

    def _lorentzian_dev(self, f):
        return -2.0 * np.arctan(
            2.0 * self.quality_factor * (np.asarray(f, float) - self.resonance_hz) / self.resonance_hz
        )
