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
is what makes the configurations angle-selective. Its phase k·(u_x·x + u_z·z)
separates over the grid: a row factor times a column factor, n_v + n_h exps.

Random draws are taken from per-link streams keyed by (seed, link kind,
endpoint placement), so interchanging the two receiver placements
interchanges their channels exactly. The same keying makes every link a
pure function of its inputs, so a `LinkTable` computes each receiver
placement's cascades once and shares them read-only between the batches
that read them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

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
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
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


def _scatter_rays(rng: np.random.Generator, amp: float, tau0: float, params: ChannelParams) -> tuple:
    """(gains, delays) of a link's scattered rays, drawn next from `rng`."""
    n = params.num_paths - 1
    excess = rng.uniform(0.0, params.max_excess_delay_s, n)
    gains = math.sqrt(_scatter_sigma(amp, params) / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return gains, tau0 + excess


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A,) dot products of the rows of (A, 3) `a` with (3,) `b` or the rows
    of (A, 3) `b`, each as `np.dot` works it out; `(a * b).sum(1)` does not."""
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _tx_beam(tx: Placement) -> tuple:
    """The transmitter's position, its boresight (toward the panel center)
    and the boresight's norm, which every direct link of one transmitter
    shares."""
    position = tx.position()
    boresight = -position
    return position, boresight, math.sqrt(boresight.dot(boresight))


def _direct_ray(beam: tuple, pos: np.ndarray, params: ChannelParams) -> tuple:
    """(A,) distances, amplitudes and delays of the line-of-sight rays from
    the transmitter (`beam` is `_tx_beam(tx)`) to nodes at the rows of
    (A, 3) `pos`. A node at distance 0 is the caller's error to raise."""
    position, boresight, boresight_norm = beam
    toward = pos - position
    with np.errstate(all="ignore"):
        d = np.sqrt(_dots(toward, toward))
        amp = _free_space_amplitude(d, params.carrier_hz)
        cosang = np.clip(_dots(toward, boresight) / (boresight_norm * d), -1.0, 1.0)
    # math.acos, not np.arccos: numpy's kernel rounds some cosines otherwise.
    outside = np.degrees(np.array(list(map(math.acos, cosang.tolist())))) > params.tx_beamwidth_deg / 2.0
    amp[outside] *= 10.0 ** (-params.direct_path_suppression_db / 20.0)
    return d, amp, d / SPEED_OF_LIGHT


def _panel_ray(pos: np.ndarray, params: ChannelParams) -> tuple:
    """(A,) distances, amplitudes and delays, and (A, 3) unit directions, of
    the line-of-sight rays between the panel center and nodes at the rows
    of (A, 3) `pos`. A distance of 0 (the norm underflows for ranges below
    about 1e-154 m) is the caller's error to raise."""
    with np.errstate(all="ignore"):
        d = np.sqrt(_dots(pos, pos))
        return d, _free_space_amplitude(d, params.carrier_hz), d / SPEED_OF_LIGHT, pos / d[:, None]


def _direct_link(tx: Placement, node: Placement, params: ChannelParams, f: np.ndarray, beam: tuple):
    """(K,) channel from the transmitter to a node; `beam` is `_tx_beam(tx)`,
    which every direct link of a `LinkTable` or a scan shares."""
    d, amp, tau0 = (x.item() for x in _direct_ray(beam, node.position()[None], params))
    if d == 0.0:
        raise ValueError(f"receiver at {node.azimuth_deg:g} degrees, {node.range_m:g} m stands at the transmitter")
    h = amp * np.exp(-2j * math.pi * f * tau0)
    if params.num_paths > 1:
        rng = _link_rng(params.rng_seed, _LINK_DIRECT, tx, node)
        gains, delays = _scatter_rays(rng, amp, tau0, params)
        h = h + (gains[None, :] * np.exp(-2j * math.pi * np.outer(f, delays))).sum(axis=1)
    return h


def _steering(ris: RisArrayGeometry, dirs: np.ndarray, carrier_hz: float) -> np.ndarray:
    """Plane-wave phase profile over the panel's row-major elements toward
    one unit direction (3,), as (M,), or toward each row of (A, 3), as
    (A, M): the product of its n_v row and n_h column factors."""
    # Narrowband array model: the element phase profile is evaluated at the
    # carrier wavelength; per-subcarrier selectivity comes from the tapped
    # delays, not from the aperture.
    k = 2 * math.pi * carrier_hz / SPEED_OF_LIGHT
    x = (np.arange(ris.n_h) - (ris.n_h - 1) / 2.0) * ris.element_spacing_m
    z = ((ris.n_v - 1) / 2.0 - np.arange(ris.n_v)) * ris.element_spacing_m
    rows = np.exp(1j * (k * np.multiply.outer(dirs[..., 2], z)))
    cols = np.exp(1j * (k * np.multiply.outer(dirs[..., 0], x)))
    return (rows[..., :, None] * cols[..., None, :]).reshape(*dirs.shape[:-1], -1)


def _panel_link(node: Placement, params: ChannelParams, f, ris: RisArrayGeometry, kind: int):
    """(K, M) channel between the panel and a node (either direction)."""
    d, amp, tau0, u = _panel_ray(node.position()[None], params)
    if d[0] == 0.0:
        raise ValueError(f"node at {node.range_m:g} m is too close to the panel center to model")
    amp, tau0 = amp.item(), tau0.item()
    h = np.outer(np.exp(-2j * math.pi * f * tau0), _steering(ris, u[0], params.carrier_hz))
    h *= amp
    n_scatter = params.num_paths - 1
    if n_scatter > 0:
        rng = _link_rng(params.rng_seed, kind, node)
        az = np.radians(rng.uniform(-90.0, 90.0, n_scatter))
        el = np.radians(rng.uniform(-30.0, 30.0, n_scatter))
        dirs = np.column_stack(
            [np.sin(az) * np.cos(el), np.cos(az) * np.cos(el), np.sin(el)]
        )
        gains, delays = _scatter_rays(rng, amp, tau0, params)
        # The scattered rays as one product: (K, L) taps, each ray's gain
        # times its delay phase per subcarrier, by (L, M) steering profiles;
        # the line-of-sight term is added into it in place.
        taps = gains * np.exp(np.outer(-2j * math.pi * f, delays))
        scattered = taps @ _steering(ris, dirs, params.carrier_hz)
        scattered += h
        h = scattered
    return h


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cascade_row(h_d: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple:
    """The one maker of receiver cascades: the read-only row (h_d, (h * g)^T,
    the (K,) sum of h * g along its element axis) of a receiver's fresh
    (K,) direct and (K, M) panel links under the transmitter's g, checked
    to be finite. It takes both links over: h is multiplied by g in place
    and dropped once its element-major copy is made."""
    # numpy (2.4, x86-64) rounds a one-element in-place product unlike h * g.
    w = np.multiply(h, g, out=h if h.size > 1 else None)
    row = h_d, w.T.copy(), w.sum(axis=1)
    if not all(np.isfinite(a).all() for a in row):
        raise ValueError("a receiver's links give non-finite cascades")
    return tuple(map(_read_only, row))


class LinkTable:
    """The links from one transmitter over one panel to the receiver
    placements a caller asks for, at one subcarrier grid.

    The transmitter's panel link g is computed with the table, read-only
    and shared. A receiver placement's entry is its `cascade_row`, made on
    first use from fresh links, so the table keeps no panel link of a
    receiver; it is kept until `pair_rows` drops it, with no byte budget.
    Placements are keyed by their bits: `Placement` compares -0.0 equal to
    0.0, while a link's random stream tells them apart.
    """

    def __init__(self, tx: Placement, ris: RisArrayGeometry, params: ChannelParams, freqs):
        self.tx, self.ris, self.params = tx, ris, params
        self.freqs = _read_only(_checked_freqs(freqs).copy())
        self._beam = _tx_beam(tx)
        self._g = _read_only(_panel_link(tx, params, self.freqs, ris, _LINK_TX_RIS))
        self._rows = {}

    def _links(self, node: Placement) -> tuple:
        """Fresh direct and panel links of a receiver at `node`, and g."""
        h_d = _direct_link(self.tx, node, self.params, self.freqs, self._beam)
        return h_d, _panel_link(node, self.params, self.freqs, self.ris, _LINK_RIS_NODE), self._g

    def channels(self, lu: Placement, ed: Placement) -> ChannelSet:
        """The channel set of a legitimate user at `lu` and an eavesdropper
        at `ed`, from fresh read-only links; the table keeps only g."""
        (h_d_lu, h_lu, g), (h_d_ed, h_ed, _) = self._links(lu), self._links(ed)
        return ChannelSet(self.freqs, *map(_read_only, (h_d_lu, h_d_ed, h_lu, h_ed)), g)

    def pair_rows(self, pairs: list):
        """Per (lu, ed) pair of `pairs`, in order, its (LU row, ED row). A
        placement's row is computed once and dropped from the table as the
        last pair that needs it has it, so the table keeps no row that no
        pair still to come needs."""
        last = {_placement_key(node): i for i, pair in enumerate(pairs) for node in pair}
        for i, pair in enumerate(pairs):
            keys = [_placement_key(node) for node in pair]
            for key, node in zip(keys, pair):
                if key not in self._rows:
                    self._rows[key] = cascade_row(*self._links(node))
            rows = tuple(self._rows[key] for key in keys)
            for key in {key for key in keys if last[key] == i}:
                del self._rows[key]
            yield rows


#: Bytes of each per-probe array one chunk of a scan holds (one probe at
#: least): its (A, M) steering rows and its (A, K) direct links and delay
#: profiles. A probe's row on a 32x32 panel takes 16 KB, so a chunk holds
#: 64 probes on one tone or on the 312 subcarriers of a 52-block comb grid.
PROBE_CHUNK_BYTES = 2**20


def _probe_rays(angles: np.ndarray, range_m: float, beam: tuple, params: ChannelParams) -> tuple:
    """The direct and the panel rays (`_direct_ray`, `_panel_ray`) of probes
    at azimuths `angles` (degrees), `range_m` from the panel center at
    height 0, each position as `Placement.position` works it out."""
    az = np.radians(angles)
    pos = np.column_stack([range_m * np.sin(az), range_m * np.cos(az), np.zeros(az.size)])
    return _direct_ray(beam, pos, params), _panel_ray(pos, params)


def _probe_chunks(tx: Placement, angles: np.ndarray, range_m: float, params: ChannelParams, f, ris, size: int):
    """Per run of at most `size` consecutive probes (`_probe_rays`), (A, K)
    direct links and the panel links' factors: (A,) amp, (A, K) delay and
    (A, M) steering, by the operations of `_direct_link` and `_panel_link`.
    A probe whose ray fails ends the iteration with the error its links
    raise in a synthesis, after the chunk of the probes before it."""
    beam = _tx_beam(tx)
    for start in range(0, angles.size, size):
        (d_d, amp_d, tau_d), (d_p, amp_p, tau_p, u) = _probe_rays(angles[start:start + size], range_m, beam, params)
        failed = np.flatnonzero((d_d == 0.0) | (d_p == 0.0))
        n = failed[0] if failed.size else u.shape[0]
        if n:
            h_d = amp_d[:n, None] * np.exp(-2j * math.pi * f * tau_d[:n, None])
            delay = np.exp(-2j * math.pi * f * tau_p[:n, None])
            yield h_d, amp_p[:n], delay, _steering(ris, u[:n], params.carrier_hz)
        if failed.size:
            probe = Placement(float(angles[start + n]), range_m)
            _direct_link(tx, probe, params, f, beam)
            _panel_link(probe, params, f, ris, _LINK_RIS_NODE)


def probe_links(tx: Placement, angles, range_m: float, ris: RisArrayGeometry, params: ChannelParams, freqs) -> tuple:
    """The transmitter's panel link g, and an iterator over chunks of the
    links of probes at azimuths `angles` (degrees), `range_m` from the panel
    center at height 0, computed lazily at `freqs`, the subcarriers a
    transmit signal carries: per chunk of A consecutive probes, (A, K)
    direct links and the panel links' factors, (A,) amplitudes, (A, K)
    delay profiles and (A, M) steering rows, each of `PROBE_CHUNK_BYTES`.

    Probes see the single line-of-sight ray of each link: `params` are the
    scenario's channel parameters, taken with `num_paths=1`, so a probe's
    panel link is rank one, amp * outer(delay, steering). The links equal
    those a `LinkTable` gives placements there with those parameters, but
    none is built as (A, K, M), and none is kept in a `LinkTable`: a probe
    link is used once. The transmitter's geometry is worked out once per
    scan, and a chunk's as arrays, with no placement per probe.
    """
    params = replace(params, num_paths=1)
    f = _checked_freqs(freqs)
    g = _panel_link(tx, params, f, ris, _LINK_TX_RIS)
    size = max(1, PROBE_CHUNK_BYTES // (max(f.size, ris.num_elements) * np.dtype(complex).itemsize))
    return g, _probe_chunks(tx, np.asarray(angles, dtype=float), range_m, params, f, ris, size)
