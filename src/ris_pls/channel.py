"""Desk-scale indoor layout and per-subcarrier channel synthesis.

Coordinate frame: the reflecting panel sits at the origin in the x-z plane
with broadside along +y. A node placed at (azimuth, range, height) is at

    (range * sin(azimuth), range * cos(azimuth), height)

so azimuth 0 is straight in front of the panel and positive azimuths are to
its right. Every link is a sum of rays: a deterministic line-of-sight ray
whose bulk phase follows the geometric path length at each subcarrier
frequency, plus optional scattered rays with random excess delays and
complex gains whose total power is set by the Rician K-factor. Links ending
on the panel additionally carry a plane-wave phase profile over the element
grid, evaluated at the carrier wavelength (narrowband-array model), which
is what makes the configurations angle-selective.

Random draws are taken from per-link streams keyed by (seed, link kind,
endpoint placement), so interchanging the two receiver placements
interchanges their channels exactly. The same keying makes a panel link a
pure function of its inputs, so synthesized panel links are memoized and
shared read-only between channel sets.
"""

from __future__ import annotations

import math
import struct
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import check_types, is_number
from .ris import SPEED_OF_LIGHT, RisArrayGeometry


@dataclass(frozen=True)
class Placement:
    """Node location relative to the panel center.

    Azimuth is measured from broadside in degrees; range is the distance to
    the panel center in meters.
    """

    azimuth_deg: float
    range_m: float
    height_m: float = 0.0

    def __post_init__(self):
        check_types(self)
        if self.range_m <= 0:
            raise ValueError("range must be positive")
        if not -90.0 <= self.azimuth_deg <= 90.0:
            raise ValueError("azimuth must lie in [-90, 90] degrees")

    def position(self) -> np.ndarray:
        az = math.radians(self.azimuth_deg)
        return np.array(
            [self.range_m * math.sin(az), self.range_m * math.cos(az), self.height_m]
        )


@dataclass(frozen=True)
class SectorGrid:
    """Circular sectors covering the service area in front of the panel."""

    sector_width_deg: float = 15.0
    sector_centers_deg: tuple = (0.0, 15.0, 30.0, 45.0)
    user_range_m: float = 7.0

    def __post_init__(self):
        check_types(self)
        centers = self.sector_centers_deg
        if not isinstance(centers, (list, tuple)) or not all(map(is_number, centers)):
            raise ValueError(f"sector centers must be a list of finite numbers, not {centers!r}")
        centers = tuple(float(c) for c in centers)
        object.__setattr__(self, "sector_centers_deg", centers)
        if len(centers) < 1:
            raise ValueError("grid needs at least one sector")
        if self.user_range_m <= 0:
            raise ValueError("user range must be positive")
        for a, b in zip(centers, centers[1:]):
            if b <= a:
                raise ValueError("sector centers must be strictly increasing")
            if not math.isclose(b - a, self.sector_width_deg, rel_tol=1e-9):
                raise ValueError("adjacent sector centers must differ by the sector width")

    def placement(self, center_deg: float) -> Placement:
        """Placement of a user standing at a sector center."""
        if center_deg not in self.sector_centers_deg:
            raise ValueError(f"{center_deg} is not a sector center of this grid")
        return Placement(center_deg, self.user_range_m)

    def nearest_center(self, angle_deg: float) -> tuple:
        """(center, distance) of the sector center closest to an angle."""
        best = min(self.sector_centers_deg, key=lambda c: abs(c - angle_deg))
        return best, abs(best - angle_deg)


def build_default_geometry() -> tuple:
    """Transmitter placement and user sector grid of the reference setup."""
    tx = Placement(azimuth_deg=-15.0, range_m=5.0)
    grid = SectorGrid()
    return tx, grid


#: Largest total power of the scattered rays relative to the line-of-sight
#: ray (1 / K, linear). A received cascade crosses two links, so its power
#: grows with the square of this ratio; powers overflow from about 1e150 on
#: a 4x4 panel, and 1e100 keeps every panel far inside the float range.
MAX_SCATTER_TO_LOS = 1e100


@dataclass(frozen=True)
class ChannelParams:
    """Knobs of the ray-based channel model."""

    carrier_hz: float = 3.55e9
    num_paths: int = 8
    rician_k_db: float = 10.0
    max_excess_delay_s: float = 100e-9
    tx_beamwidth_deg: float = 20.0
    direct_path_suppression_db: float = 30.0
    rng_seed: int = 0

    def __post_init__(self):
        # +inf dB is a pure line-of-sight link.
        check_types(self, may_be_inf=("rician_k_db",))
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.num_paths < 1:
            raise ValueError("need at least one path per link")
        if self.max_excess_delay_s < 0:
            raise ValueError("max excess delay must be non-negative")
        if self.tx_beamwidth_deg <= 0:
            raise ValueError("beamwidth must be positive")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        try:
            scatter_to_los = 10.0 ** (-self.rician_k_db / 10.0)
        except OverflowError:
            scatter_to_los = math.inf
        # A single-path link has no scattered rays.
        if self.num_paths > 1 and scatter_to_los > MAX_SCATTER_TO_LOS:
            raise ValueError(
                f"rician_k_db {self.rician_k_db!r} gives the scattered rays more than "
                f"{MAX_SCATTER_TO_LOS:g} times the line-of-sight power"
            )


@dataclass
class ChannelSet:
    """Per-subcarrier channels of all five links.

    Shapes: scalars h_d_* are (K,), the panel-side links are (K, M).
    """

    freqs: np.ndarray
    h_d_lu: np.ndarray
    h_d_ed: np.ndarray
    h_ris_lu: np.ndarray
    h_ris_ed: np.ndarray
    g_ris: np.ndarray

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        for name in ("h_d_lu", "h_d_ed"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=complex))
        for name in ("h_ris_lu", "h_ris_ed", "g_ris"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=complex))
        k = self.freqs.size
        if self.h_d_lu.shape != (k,) or self.h_d_ed.shape != (k,):
            raise ValueError("direct channels must have one entry per subcarrier")
        m = self.g_ris.shape[1] if self.g_ris.ndim == 2 else -1
        for name in ("h_ris_lu", "h_ris_ed", "g_ris"):
            if getattr(self, name).shape != (k, m):
                raise ValueError("panel-side channels must share one (K, M) shape")
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def num_subcarriers(self) -> int:
        return self.freqs.size

    @property
    def num_elements(self) -> int:
        return self.g_ris.shape[1]


# Link kind tags for the per-link RNG streams.
_LINK_DIRECT = 1
_LINK_RIS_NODE = 2
_LINK_TX_RIS = 3


def _float_key(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def _placement_key(p: Placement) -> tuple:
    return (_float_key(p.azimuth_deg), _float_key(p.range_m), _float_key(p.height_m))


def _link_rng(seed: int, kind: int, *placements: Placement) -> np.random.Generator:
    entropy = [int(seed), kind]
    for p in placements:
        entropy.extend(_placement_key(p))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _checked_freqs(freqs) -> np.ndarray:
    f = np.asarray(freqs, dtype=float)
    if f.size == 0:
        raise ValueError("frequency list must be non-empty")
    if not np.all(np.isfinite(f)) or np.any(f <= 0):
        raise ValueError("subcarrier frequencies must be finite and positive")
    return f


def _free_space_amplitude(distance_m: float, carrier_hz: float) -> float:
    return SPEED_OF_LIGHT / (4.0 * math.pi * distance_m * carrier_hz)


def _scatter_sigma(amp_los: float, params: ChannelParams) -> float:
    # Total scattered power is LOS power divided by the linear K-factor,
    # split evenly across the scattered rays. A K-factor beyond the float
    # range, like +inf dB, leaves a pure line-of-sight link.
    try:
        k_lin = 10.0 ** (params.rician_k_db / 10.0)
    except OverflowError:
        return 0.0
    if not math.isfinite(k_lin):
        return 0.0
    return amp_los**2 / k_lin / (params.num_paths - 1)


def _tx_beam(tx: Placement) -> tuple:
    """The transmitter's position, its boresight (toward the panel center)
    and the boresight's norm, which every direct link of one transmitter
    shares."""
    position = tx.position()
    boresight = -position
    return position, boresight, np.linalg.norm(boresight)


def _outside_beam(beam: tuple, toward: np.ndarray, distance: float, beamwidth_deg: float) -> bool:
    """Whether a node at `toward` from the transmitter, `distance` away,
    lies outside the transmitter beam `beam` (`_tx_beam`)."""
    _, boresight, boresight_norm = beam
    cosang = np.dot(boresight, toward) / (boresight_norm * distance)
    return math.degrees(math.acos(np.clip(cosang, -1.0, 1.0))) > beamwidth_deg / 2.0


def _direct_link(tx: Placement, node: Placement, params: ChannelParams, f: np.ndarray, beam: tuple):
    """(K,) channel from the transmitter to a node; `beam` is `_tx_beam(tx)`,
    which every direct link of a synthesis or a scan shares."""
    toward = node.position() - beam[0]
    d = float(np.linalg.norm(toward))
    if d == 0.0:
        raise ValueError(
            f"receiver at {node.azimuth_deg:g} degrees, {node.range_m:g} m stands at the transmitter"
        )
    amp = _free_space_amplitude(d, params.carrier_hz)
    if _outside_beam(beam, toward, d, params.tx_beamwidth_deg):
        amp *= 10.0 ** (-params.direct_path_suppression_db / 20.0)
    tau0 = d / SPEED_OF_LIGHT
    h = amp * np.exp(-2j * math.pi * f * tau0)
    n_scatter = params.num_paths - 1
    if n_scatter > 0:
        rng = _link_rng(params.rng_seed, _LINK_DIRECT, tx, node)
        sigma2 = _scatter_sigma(amp, params)
        excess = rng.uniform(0.0, params.max_excess_delay_s, n_scatter)
        gains = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n_scatter) + 1j * rng.standard_normal(n_scatter)
        )
        h = h + (gains[None, :] * np.exp(-2j * math.pi * np.outer(f, tau0 + excess))).sum(axis=1)
    return h


def _steering(elem: np.ndarray, unit_dir: np.ndarray, carrier_hz: float) -> np.ndarray:
    # Narrowband array model: the element phase profile is evaluated at the
    # carrier wavelength; per-subcarrier selectivity comes from the tapped
    # delays, not from the aperture.
    return np.exp(2j * math.pi * carrier_hz / SPEED_OF_LIGHT * (elem @ unit_dir))


def _panel_link(node: Placement, params: ChannelParams, f, elem: np.ndarray, kind: int):
    """(K, M) channel between the panel and a node (either direction)."""
    pos = node.position()
    d = float(np.linalg.norm(pos))
    if d == 0.0:  # the norm underflows for ranges below about 1e-154 m
        raise ValueError(f"node at {node.range_m:g} m is too close to the panel center to model")
    u = pos / d
    amp = _free_space_amplitude(d, params.carrier_hz)
    tau0 = d / SPEED_OF_LIGHT
    h = amp * np.outer(np.exp(-2j * math.pi * f * tau0), _steering(elem, u, params.carrier_hz))
    n_scatter = params.num_paths - 1
    if n_scatter > 0:
        rng = _link_rng(params.rng_seed, kind, node)
        sigma2 = _scatter_sigma(amp, params)
        az = np.radians(rng.uniform(-90.0, 90.0, n_scatter))
        el = np.radians(rng.uniform(-30.0, 30.0, n_scatter))
        excess = rng.uniform(0.0, params.max_excess_delay_s, n_scatter)
        gains = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n_scatter) + 1j * rng.standard_normal(n_scatter)
        )
        dirs = np.column_stack(
            [np.sin(az) * np.cos(el), np.cos(az) * np.cos(el), np.sin(el)]
        )
        for l in range(n_scatter):
            h = h + gains[l] * np.outer(
                np.exp(-2j * math.pi * f * (tau0 + excess[l])),
                _steering(elem, dirs[l], params.carrier_hz),
            )
    return h


#: Bytes of panel links the memo keeps. A comparison re-synthesizes each
#: placement pair once per method but touches only the transmitter link and
#: one link per receiver placement, and a codebook touches one per sector.
#: The budget holds ten wideband links of 5 MB (the 312 occupied
#: subcarriers of a 52-block comb grid by 1024 elements), or a few
#: thousand single-tone ones.
PANEL_LINK_CACHE_BYTES = 10 * 312 * 1024 * 16

_MemoInfo = namedtuple("_MemoInfo", "hits misses links nbytes max_bytes")


class _PanelLinkMemo:
    """Least-recently-used memo of panel links, bounded by their total bytes.

    Lookups and misses run under one lock, so concurrent callers that need
    the same link compute it once. Stored links are read-only.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._links = OrderedDict()
        self._nbytes = 0
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, kind, node_bits, node, params, freqs_bytes, ris):
        """The panel link; a miss is computed and kept if it fits the budget."""
        # node_bits joins the key because Placement compares -0.0 equal to
        # 0.0 while the link's random stream tells them apart.
        key = (kind, node_bits, node, params, freqs_bytes, ris)
        with self._lock:
            h = self._links.get(key)
            if h is not None:
                self._links.move_to_end(key)
                self._hits += 1
                return h
            self._misses += 1
            f = np.frombuffer(freqs_bytes, dtype=float)
            nbytes = f.size * ris.num_elements * np.dtype(complex).itemsize
            keep = nbytes <= self.max_bytes
            # Make room first, so the memo never holds more than its budget.
            while keep and self._nbytes + nbytes > self.max_bytes:
                self._nbytes -= self._links.popitem(last=False)[1].nbytes
            h = _panel_link(node, params, f, ris.element_positions(), kind)
            h.setflags(write=False)
            if keep:
                self._links[key] = h
                self._nbytes += nbytes
            return h

    def cache_info(self) -> _MemoInfo:
        with self._lock:
            return _MemoInfo(
                self._hits, self._misses, len(self._links), self._nbytes, self.max_bytes
            )

    def cache_clear(self) -> None:
        with self._lock:
            self._links.clear()
            self._nbytes = self._hits = self._misses = 0


_memo_panel_link = _PanelLinkMemo(PANEL_LINK_CACHE_BYTES)


def synthesize_channels(
    tx: Placement,
    lu: Placement,
    ed: Placement,
    ris: RisArrayGeometry,
    params: ChannelParams,
    freqs,
) -> ChannelSet:
    """Deterministic channel realization for one transmitter/receiver layout.

    The direct transmitter-to-receiver links are attenuated by the
    configured suppression whenever the receiver sits outside the
    transmitter beam aimed at the panel. All links are read-only: the
    panel links come from a bounded memo, and receivers at one placement
    share one array.
    """
    f = _checked_freqs(freqs)
    freqs_bytes = f.tobytes()

    def panel(node, kind):
        return _memo_panel_link(kind, _placement_key(node), node, params, freqs_bytes, ris)

    same = _placement_key(ed) == _placement_key(lu)
    beam = _tx_beam(tx)
    h_d_lu = _direct_link(tx, lu, params, f, beam)
    h_d_lu.setflags(write=False)
    h_ris_lu = panel(lu, _LINK_RIS_NODE)
    if same:
        h_d_ed, h_ris_ed = h_d_lu, h_ris_lu
    else:
        h_d_ed = _direct_link(tx, ed, params, f, beam)
        h_d_ed.setflags(write=False)
        h_ris_ed = panel(ed, _LINK_RIS_NODE)
    return ChannelSet(
        freqs=f,
        h_d_lu=h_d_lu,
        h_d_ed=h_d_ed,
        h_ris_lu=h_ris_lu,
        h_ris_ed=h_ris_ed,
        g_ris=panel(tx, _LINK_TX_RIS),
    )


def probe_links(tx: Placement, probes, ris: RisArrayGeometry, params: ChannelParams, freqs) -> tuple:
    """The transmitter's panel link g, and an iterator over the probe
    placements' (direct link, panel link) pairs, computed lazily at
    `freqs`, the subcarriers a transmit signal carries.

    The links equal those `synthesize_channels` gives at the same
    frequencies, but none is read from or kept in the panel-link memo: a
    probe link is used once, and keeping it would crowd out reusable
    links. The transmitter's geometry is worked out once per scan.
    """
    f = _checked_freqs(freqs)
    elem = ris.element_positions()
    g = _panel_link(tx, params, f, elem, _LINK_TX_RIS)
    beam = _tx_beam(tx)
    links = (
        (_direct_link(tx, p, params, f, beam), _panel_link(p, params, f, elem, _LINK_RIS_NODE))
        for p in probes
    )
    return g, links
