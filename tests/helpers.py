"""Shared builders for the tests, and the references their invariants are checked against."""

import math

import numpy as np

from ris_pls.channel import (
    ChannelParams,
    ChannelSet,
    Placement,
    SectorGrid,
    _free_space_amplitude,
    _link_rng,
    _scatter_sigma,
    LinkTable,
    _steering,
)
from ris_pls.ofdm import Numerology, TxSignal, build_prs_grid, prs_signal, tone_signal
from ris_pls.optimize import EvaluatorBatch, SweepLog, _full_surface_moves, _sweep, greedy_sweep
from ris_pls.ris import SPEED_OF_LIGHT, RisArrayGeometry, RisConfig
from ris_pls.secrecy import sum_sse

CARRIER = 3.55e9

SECTOR_ANGLES = (0.0, 15.0, 30.0, 45.0)


def panel(n_v, n_h):
    return RisArrayGeometry(n_v=n_v, n_h=n_h, tile_rows=1, tile_cols=1)


def build_default_geometry() -> tuple:
    """Transmitter placement and user sector grid of the reference setup."""
    return Placement(azimuth_deg=-15.0, range_m=5.0), SectorGrid()


def unit_tone():
    return tone_signal(Numerology())


def model_instance(seed, n_v, n_h, rician_k_db=10.0, waveform="tone"):
    """One Rician channel draw with sector placements chosen by the seed.

    `waveform` "prs" swaps the single tone for a two-RB comb grid.
    """
    rng = np.random.default_rng(seed)
    lu_a, ed_a = rng.choice(SECTOR_ANGLES, size=2, replace=False)
    tx = Placement(-15.0, 5.0)
    params = ChannelParams(rician_k_db=rician_k_db, rng_seed=int(seed))
    if waveform == "tone":
        sig = unit_tone()
    else:
        sig = prs_signal(build_prs_grid(Numerology(), num_rb=2, seed=int(seed)))
    channels = LinkTable(tx, panel(n_v, n_h), params, sig.freqs).channels(Placement(lu_a, 7.0), Placement(ed_a, 7.0))
    return channels, sig


def handmade_channels(h_d_lu, h_d_ed, w_lu, w_ed):
    """K=1 channel set with the panel cascade set directly (g = 1)."""
    w_lu = np.asarray(w_lu, dtype=complex).reshape(1, -1)
    w_ed = np.asarray(w_ed, dtype=complex).reshape(1, -1)
    return ChannelSet(
        freqs=np.array([CARRIER]),
        h_d_lu=np.array([h_d_lu], dtype=complex),
        h_d_ed=np.array([h_d_ed], dtype=complex),
        h_ris_lu=w_lu,
        h_ris_ed=w_ed,
        g_ris=np.ones_like(w_lu),
    )


def single_tone_tx():
    return TxSignal(
        mode="tone",
        freqs=np.array([CARRIER]),
        symbols=np.array([1.0 + 0.0j]),
    )


def dense_receive(channels, model, config, tx):
    """Noiseless received signals (y_lu, y_ed) on every subcarrier by the
    dense direct sum (h_d + sum_m h_m * phi(c_m, f) * g_m) * x: the
    test-only reference for the evaluator and the pattern scan."""
    theta = model.phase_curves(channels.freqs)[:, config.bits]
    phi = model.amplitude * np.exp(1j * theta)
    x = tx.symbols
    y_lu = (channels.h_d_lu + np.einsum("km,km,km->k", channels.h_ris_lu, phi, channels.g_ris)) * x
    y_ed = (channels.h_d_ed + np.einsum("km,km,km->k", channels.h_ris_ed, phi, channels.g_ris)) * x
    return y_lu, y_ed


#: Relative tolerance of a report's powers against `direct_powers`: the
#: two sum the receive equation in other orders, and the worst-conditioned
#: power of these tests (optimized ED powers some 60 dB below the power
#: their terms give in phase) moves by about 1e-10 relative.
DIRECT_SUM_RTOL = 1e-9


def direct_powers(channels, model, config, tx) -> np.ndarray:
    """(2, K) noiseless LU and ED power per subcarrier of `config`, by the
    direct sum of the receive equation (`dense_receive`), as the
    benchmark's checks compute it: the independent reference for the
    powers the program reports, within `DIRECT_SUM_RTOL`."""
    return np.abs(np.array(dense_receive(channels, model, config, tx))) ** 2


def element_positions(ris) -> np.ndarray:
    """(M, 3) element coordinates of panel `ris` in meters, row-major order."""
    d = ris.element_spacing_m
    x = (np.arange(ris.n_h) - (ris.n_h - 1) / 2.0) * d
    z = ((ris.n_v - 1) / 2.0 - np.arange(ris.n_v)) * d
    pos = np.zeros((ris.num_elements, 3))
    pos[:, 0] = np.tile(x, ris.n_v)
    pos[:, 2] = np.repeat(z, ris.n_h)
    return pos


def dense_steering(elem, dirs, carrier_hz):
    """Plane-wave phase profile over the (M, 3) elements `elem` toward each
    unit direction of `dirs`, one exp per element: the reference for
    `channel._steering`, which separates the phase over the grid."""
    return np.exp(2j * math.pi * carrier_hz / SPEED_OF_LIGHT * (dirs @ elem.T))


def scalar_direct_ray(beam, pos, params) -> tuple:
    """(amplitude, delay) of the line-of-sight ray from the transmitter to
    one node at `pos`, with scalar norms and beam test: the per-probe
    reference for the rows of `channel._direct_ray`."""
    position, boresight, boresight_norm = beam
    toward = pos - position
    d = math.sqrt(toward.dot(toward))
    amp = _free_space_amplitude(d, params.carrier_hz)
    cosang = float(boresight.dot(toward)) / (boresight_norm * d)
    if math.degrees(math.acos(min(max(cosang, -1.0), 1.0))) > params.tx_beamwidth_deg / 2.0:
        amp *= 10.0 ** (-params.direct_path_suppression_db / 20.0)
    return amp, d / SPEED_OF_LIGHT


def scalar_panel_ray(pos, params) -> tuple:
    """(amplitude, delay, unit direction) of the line-of-sight ray between
    the panel center and one node at `pos`: the per-probe reference for the
    rows of `channel._panel_ray`."""
    d = math.sqrt(pos.dot(pos))
    return _free_space_amplitude(d, params.carrier_hz), d / SPEED_OF_LIGHT, pos / d


def per_ray_panel_link(node, params, f, ris, kind):
    """(K, M) panel link with its scattered rays added one outer product at
    a time: the slow reference for `channel._panel_link`, which takes them
    as one matrix product. Same random draws, same line-of-sight term."""
    amp, tau0, u = scalar_panel_ray(node.position(), params)
    h = amp * np.outer(np.exp(-2j * math.pi * f * tau0), _steering(ris, u, params.carrier_hz))
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
                _steering(ris, dirs[l], params.carrier_hz),
            )
    return h


def smallest_margin(run) -> float:
    """Smallest relative decision margin of a run: how near its closest
    decision came to going the other way, relative to the larger side.

    For a `SweepLog`, |after - before| / max(|after|, |before|) over every
    move scored for every row. For a codebook query, `run` is
    the list of the candidates' guarantees, and the margin is that of the
    best guarantee against the runner-up.
    """
    if isinstance(run, SweepLog):
        sides = (side for _, _, b, a, _ in run.entries for side in zip(b, a))
    else:
        best, runner_up = sorted(run, reverse=True)[:2]
        sides = [(best, runner_up)]
    return min(abs(a - b) / max(abs(a), abs(b)) for a, b in sides)


def flip(bits, n_h, kind, index, half=None) -> np.ndarray:
    """Copy of row-major `bits` with column or row `index` inverted, or the
    "left" (first n_h // 2 columns) or "right" half of that row. An index
    off the grid raises IndexError, a half other than those ValueError."""
    grid = np.array(bits).reshape(-1, n_h)
    if not 0 <= index < grid.shape[kind == "column"]:
        raise IndexError(f"{kind} {index} out of range for a {grid.shape[0]}x{n_h} grid")
    if (half is None) != (kind != "half_row") or half not in (None, "left", "right"):
        raise ValueError(f"half {half!r} does not fit a {kind} flip")
    if kind == "column":
        grid[:, index] ^= 1
    else:
        grid[index, {None: slice(None), "left": slice(n_h // 2), "right": slice(n_h // 2, None)}[half]] ^= 1
    return grid.reshape(-1)


def replay(trace, steps=None) -> RisConfig:
    """The trace's initial configuration with the accepted ones of `steps`
    (its `to_dict` steps by default) flipped: its final configuration,
    unless a rejected step leaked into the state."""
    n_v, n_h = trace.final_config.n_v, trace.final_config.n_h
    bits = trace.initial_config.bits
    for s in trace.to_dict()["steps"] if steps is None else steps:
        if s["accepted"]:
            bits = flip(bits, n_h, s["kind"], s["index"], s.get("half"))
    return RisConfig(bits, n_v, n_h)


def score(batch, objective, bits, read=None) -> float:
    """`objective` of one bit vector on a batch of one: the
    `EvaluatorBatch.values` of its `sums`, read once by `read`
    (`MeasurementNoise.reader`) when given."""
    return float(batch.values(objective, batch.sums(bits), None if read is None else [read])[0])


def sweep_one(method, channels, model, tx, geometry, noise=None):
    """The trace of greedy `method` on one channel set: a `greedy_sweep` of a batch of one."""
    return greedy_sweep(method, EvaluatorBatch([channels], model, tx), geometry, noise)[0]


def single_flip_improvements(channels, model, tx, config, objective="ratio") -> list:
    """Column and row flips that strictly improve `objective` from `config`,
    each a one-move sweep: empty when `config` is single-flip optimal."""
    batch = EvaluatorBatch([channels], model, tx)
    return [
        (step.kind, step.index, step.objective_after)
        for move in _full_surface_moves(objective)(config.n_v, config.n_h)
        for step in _sweep(batch, config.bits, [move], 1)[1].steps(0)
        if step.accepted
    ]


def rescore(scenario, config, lu, ed) -> float:
    """Raw secrecy rate of `config` for LU and ED sectors `lu` and `ed`, on
    a batch of one: the per-(candidate, sector) reference for
    `select_config`, whose batch rows equal it bit for bit."""
    tx = scenario.tx_signal()
    channels = scenario.channels_for(scenario.placement(lu), scenario.placement(ed), tx.freqs)
    powers = EvaluatorBatch([channels], scenario.element_model, tx).powers(config.bits)[0]
    return sum_sse(powers, scenario.noise_power()).r_sec_raw


def codebook_keys(cb, methods) -> set:
    """The (LU, ED, method) keys of a complete codebook over its grid."""
    centers = cb.grid.sector_centers_deg
    return {(lu, ed, m) for m in methods for lu in centers for ed in centers if lu != ed}


def detect_side_lobes(
    pattern,
    lu_angle_deg: float,
    threshold_db: float,
    sector_width_deg: float = 15.0,
) -> list:
    """Angles far from the serving direction whose power reaches within
    `threshold_db` of the serving power, in a `scan_power_pattern` result:
    the paper's side-lobe observation, which no command reports.

    Only angles at least two sector widths away qualify; threshold 0 flags
    lobes that meet or exceed the serving power.
    """
    angles = np.array([a for a, _ in pattern], dtype=float)
    powers = np.array([p for _, p in pattern], dtype=float)
    if not angles.min() <= lu_angle_deg <= angles.max():
        raise ValueError("serving angle lies outside the scanned pattern")
    order = np.argsort(angles)
    lu_power = float(np.interp(lu_angle_deg, angles[order], powers[order]))
    floor = lu_power * 10.0 ** (-threshold_db / 10.0)
    min_sep = 2.0 * sector_width_deg
    hits = (np.abs(angles - lu_angle_deg) >= min_sep) & (powers >= floor)
    return [float(a) for a in angles[hits]]
