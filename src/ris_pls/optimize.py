"""Greedy configuration search over columns and rows of the panel.

Two searches are implemented. The full-surface sweep walks every column
and then every row, keeping a flip only when it strictly improves the
received-power ratio between the intended receiver and the eavesdropper
(or, for the baselines, the single-user power). The partitioned sweep
splits the panel down the middle: the left columns and left half-rows
greedily raise the intended receiver's power while the right ones greedily
lower the eavesdropper's, with separate "last accepted" registers for the
two objectives. Both run a fixed number of passes by default; an optional
fixed-point mode repeats passes until none of the moves is accepted.

Both searches, and the single-user baselines, are one sweep engine driven
by the `METHODS` table: each method is a list of moves (which elements to
flip and which objective judges the flip). A move is scored by the change
its elements make to running per-receiver sums, and only an accepted move
flips its elements in the raw bit vector.

An exhaustive enumerator over all 2^M configurations is provided for
auditing the greedy results on small panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelSet
from .ofdm import TxSignal
from .ris import ElementModel, RisArrayGeometry, RisConfig, flip_column, flip_half_row, flip_row

#: objective key -> (name in trace steps, direction of improvement)
OBJECTIVES = {
    "ratio": ("ratio", "max"),
    "lu_power_max": ("lu_power", "max"),
    "ed_power_min": ("ed_power", "min"),
}


@dataclass(frozen=True)
class MeasurementNoise:
    """Emulates noisy power captures during optimization.

    Each power estimate becomes the average of `averages` noisy readings
    with per-subcarrier complex Gaussian noise of variance `n0`.
    """

    n0: float
    averages: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError("noise power must be non-negative")
        if self.averages < 1:
            raise ValueError("need at least one reading per estimate")

    def reader(self):
        """A power-reading function with its own generator seeded from
        `seed`, or None when `n0` is 0 (readings are then exact). Each sweep
        takes its own, so its draws do not depend on other sweeps."""
        if self.n0 == 0:
            return None
        rng = np.random.default_rng(self.seed)
        scale = math.sqrt(self.n0 / 2.0)

        def read(signal: np.ndarray) -> np.float64:
            if signal.ndim != 1:
                raise ValueError("noisy readings score one configuration at a time")
            total = 0.0
            for _ in range(self.averages):
                n = scale * (rng.standard_normal(signal.size) + 1j * rng.standard_normal(signal.size))
                total += (np.abs(signal + n) ** 2).sum()
            return total / self.averages

        return read


@dataclass
class TraceStep:
    kind: str            # "column" | "row" | "half_row"
    index: int
    iteration: int
    objective: str       # "ratio" | "lu_power" | "ed_power"
    direction: str       # "max" | "min"
    objective_before: float
    objective_after: float
    accepted: bool
    half: str | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "index": self.index,
            "iteration": self.iteration,
            "objective": self.objective,
            "direction": self.direction,
            "objective_before": self.objective_before,
            "objective_after": self.objective_after,
            "accepted": self.accepted,
        }
        if self.half is not None:
            out["half"] = self.half
        return out


@dataclass
class OptimizerTrace:
    method: str
    objective_kind: str
    initial_config: RisConfig
    final_config: RisConfig
    final_objective: float
    steps: list = field(default_factory=list)

    def accepted_steps(self) -> list:
        return [s for s in self.steps if s.accepted]

    def replay_accepted(self) -> RisConfig:
        """Re-apply only the accepted flips to the initial configuration.

        The result must equal `final_config`; anything else means a
        rejected step leaked bits into the state.
        """
        cfg = self.initial_config.copy()
        for step in self.accepted_steps():
            if step.kind == "column":
                cfg = flip_column(cfg, step.index)
            elif step.kind == "row":
                cfg = flip_row(cfg, step.index)
            else:
                cfg = flip_half_row(cfg, step.index, step.half)
        return cfg

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "objective": self.objective_kind,
            "initial_config": self.initial_config.to_bitstring(),
            "final_config": self.final_config.to_bitstring(),
            "final_objective": self.final_objective,
            "steps": [s.to_dict() for s in self.steps],
        }


#: The change a flip makes to an element's contribution: +w from 0 to 1,
#: -w from 1 to 0.
_FLIP_SIGN = np.array([1.0, -1.0], dtype=complex)


def reflection_coefficients(element_model: ElementModel, freqs) -> np.ndarray:
    """(K, 2) complex reflection coefficient phi(c, f) of bit 0 and bit 1."""
    return element_model.amplitude * np.exp(1j * element_model.phase_curves(freqs))


def received_signal(h_d, phi, w_sum, on, x):
    """The receive equation (h_d + sum_m h_m * phi(c_m, f) * g_m) * x per subcarrier.

    The panel term is written with the cascades w_m = h_m * g_m: `w_sum`
    is their sum over all elements and `on` their sum over the elements
    set to 1, so the term is phi(0) * (w_sum - on) + phi(1) * on. `phi`
    holds the (K, 2) coefficients of `reflection_coefficients`; `on` may
    carry a leading axis of configurations.
    """
    return (h_d + phi[:, 0] * (w_sum - on) + phi[:, 1] * on) * x


class PowerEvaluator:
    """Power evaluation of bit vectors on one channel set.

    Precomputes the per-element cascades h_m * g_m and the two per-bit
    reflection coefficients at every occupied subcarrier. A configuration
    (a row-major 0/1 vector of length M) enters only through its
    per-receiver sums of the cascades of the elements set to 1, so a full
    evaluation costs one matrix-vector product and a flip of n elements
    changes the sums by an O(K_occ * n) product (`flipped_sums`). The rows
    of an (N, M) 0/1 matrix are scored together by one matrix product.

    The cascades are stored once, as an (M, 2 * K_occ) array whose row m
    holds element m's LU cascades followed by its ED cascades: the
    elements of a column or a row are then a block of rows.

    The evaluator holds no state between calls, so one instance serves
    every sweep, report and re-score on its channel set.
    """

    def __init__(self, channels: ChannelSet, element_model: ElementModel, tx: TxSignal):
        if tx.num_subcarriers != channels.num_subcarriers:
            raise ValueError("transmit signal and channel set disagree on subcarrier count")
        mask = tx.occupied_mask
        self.occupied = np.flatnonzero(mask)
        self._x = tx.amplitudes()[mask]
        self._hd = (channels.h_d_lu[mask], channels.h_d_ed[mask])
        g = channels.g_ris[self.occupied]
        k, m = g.shape
        w = np.empty((m, 2, k), dtype=complex)
        w_r = np.empty_like(g)  # one receiver's (K_occ, M) cascades, reused
        self._w_sum = np.empty((2, k), dtype=complex)
        for r, h in enumerate((channels.h_ris_lu, channels.h_ris_ed)):
            # mode="clip" fills `w_r` in place; "raise" would buffer a copy.
            np.take(h, self.occupied, axis=0, out=w_r, mode="clip")
            w_r *= g
            self._w_sum[r] = w_r.sum(axis=1)
            w[:, r, :] = w_r.T
        self._w = w.reshape(m, 2 * k)
        self._phi = reflection_coefficients(element_model, channels.freqs[mask])

    def sums(self, bits: np.ndarray) -> np.ndarray:
        """LU and ED sums of the cascades of the elements set in `bits`:
        (2, K_occ) for one bit vector, (2, N, K_occ) for an (N, M) matrix."""
        out = np.asarray(bits, dtype=float) @ self._w
        if out.ndim == 1:
            return out.reshape(2, -1)
        return out.reshape(len(out), 2, -1).swapaxes(0, 1)

    def flipped_sums(self, sums: np.ndarray, bits: np.ndarray, elements) -> np.ndarray:
        """`sums` after flipping `bits[elements]`; neither input changes."""
        return sums + (_FLIP_SIGN[bits[elements]] @ self._w[elements]).reshape(2, -1)

    def _signal(self, r: int, sums: np.ndarray) -> np.ndarray:
        """Received signal of receiver r (0: LU, 1: ED) per occupied subcarrier."""
        return received_signal(self._hd[r], self._phi, self._w_sum[r], sums[r], self._x)

    def bin_powers(self, bits: np.ndarray) -> np.ndarray:
        """(2, K_occ) noiseless LU and ED received power per occupied subcarrier."""
        sums = self.sums(bits)
        return np.stack([np.abs(self._signal(r, sums)) ** 2 for r in (0, 1)])

    def _power(self, r: int, sums: np.ndarray, read):
        """Power of receiver r summed over subcarriers: a numpy float for
        one configuration, an (N,) array for N."""
        signal = self._signal(r, sums)
        if read is None:
            return (np.abs(signal) ** 2).sum(axis=-1)
        return read(signal)

    def value(self, objective: str, sums: np.ndarray, read=None):
        """Objective from `sums`: a float for one configuration, an (N,)
        array for N. A ratio reads the ED power before the LU power. `read`
        (`MeasurementNoise.reader`) takes noisy readings instead of exact
        powers."""
        name = OBJECTIVES[objective][0]
        if name == "lu_power":
            out = self._power(0, sums, read)
        else:
            out = self._power(1, sums, read)
            if name == "ratio":
                out = _ratio(self._power(0, sums, read), out)
        return float(out) if sums.ndim == 2 else out

    def evaluate(self, objective: str, bits: np.ndarray, read=None):
        """Score `bits`, one bit vector or the rows of an (N, M) 0/1 matrix,
        for an `OBJECTIVES` key."""
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        return self.value(objective, self.sums(bits), read)


def _ratio(p_lu, p_ed):
    """p_lu / p_ed of numpy powers: a zero ED power gives inf, or nan when
    the LU power is zero too."""
    if not isinstance(p_ed, np.ndarray) and p_ed:  # one nonzero power: skip the errstate's cost
        return p_lu / p_ed
    with np.errstate(divide="ignore", invalid="ignore"):
        return p_lu / p_ed


def _better(candidate: float, incumbent: float, direction: str) -> bool:
    # Ties are rejections: the sweeps only keep strict improvements.
    if direction == "max":
        return candidate > incumbent
    return candidate < incumbent


def _initial_config(geometry: RisArrayGeometry, init: RisConfig | None) -> RisConfig:
    if init is None:
        return RisConfig.zeros(geometry.n_v, geometry.n_h)
    if (init.n_v, init.n_h) != (geometry.n_v, geometry.n_h):
        raise ValueError("initial configuration does not match the panel geometry")
    return init.copy()


def uniform_config(n_v: int, n_h: int) -> RisConfig:
    """The all-zeros reference configuration."""
    return RisConfig.zeros(n_v, n_h)


def _full_surface_moves(objective: str):
    """Move-list builder: every column, then every row, all for `objective`."""

    def build(n_v: int, n_h: int) -> list:
        m = n_v * n_h
        return [("column", c, None, objective, slice(c, m, n_h)) for c in range(n_h)] + [
            ("row", r, None, objective, slice(r * n_h, (r + 1) * n_h)) for r in range(n_v)
        ]

    return build


def _partitioned_moves(n_v: int, n_h: int) -> list:
    """Left columns for LU power, right columns for ED power, then per row
    the left half-row for LU power and the right half-row for ED power."""
    if n_h % 2:
        raise ValueError("the partitioned sweep needs an even number of columns")
    split = n_h // 2
    m = n_v * n_h
    moves = [
        ("column", c, None, "lu_power_max" if c < split else "ed_power_min", slice(c, m, n_h))
        for c in range(n_h)
    ]
    for r in range(n_v):
        row = r * n_h
        moves.append(("half_row", r, "left", "lu_power_max", slice(row, row + split)))
        moves.append(("half_row", r, "right", "ed_power_min", slice(row + split, row + n_h)))
    return moves


#: method -> (objective reported as the trace's final objective, move-list
#: builder). A move is (kind, index, half, objective key, element slice).
METHODS = {
    "alg1": ("ratio", _full_surface_moves("ratio")),
    "alg2": ("ratio", _partitioned_moves),
    "lu_max": ("lu_power_max", _full_surface_moves("lu_power_max")),
    "ed_min": ("ed_power_min", _full_surface_moves("ed_power_min")),
}


def _sweep(ev: PowerEvaluator, bits: np.ndarray, moves: list, passes: int, fixpoint: bool = False, read=None):
    """Up to `passes` greedy passes over `moves`, flipping `bits` in place;
    with `fixpoint`, stops after a pass that accepts nothing. `read` is the
    sweep's noisy power reading, or None for exact powers.

    Each objective keeps one "last accepted" register, seeded from the
    starting bits in the order the objectives first appear in `moves`. A
    move is scored from the running per-receiver sums plus the change its
    elements make, and is kept only on strict improvement of its
    objective's register: then its sums become the running sums and its
    elements flip. A rejected move changes nothing.

    The running sums start from the same product as the registers and are
    never recomputed, so a register is always the value of the running sums
    it was accepted with: a move that changes no sum (zero cascades) scores
    exactly its register and is rejected, as under full evaluation. Each
    accepted move adds one rounding of an n-term sum, so the drift is
    bounded by the number of accepted moves. Returns (registers, trace
    steps)."""
    sums = ev.sums(bits)
    best = {obj: ev.value(obj, sums, read) for obj in dict.fromkeys(m[3] for m in moves)}
    steps = []
    for iteration in range(1, passes + 1):
        accepted_in_pass = 0
        for kind, index, half, objective, elements in moves:
            name, direction = OBJECTIVES[objective]
            candidate = ev.flipped_sums(sums, bits, elements)
            value = ev.value(objective, candidate, read)
            accepted = _better(value, best[objective], direction)
            steps.append(TraceStep(
                kind, index, iteration, name, direction, best[objective], value, accepted, half
            ))
            if accepted:
                best[objective] = value
                sums = candidate
                bits[elements] ^= 1
                accepted_in_pass += 1
        if fixpoint and accepted_in_pass == 0:
            break
    return best, steps


def greedy_sweep(
    method: str,
    ev: PowerEvaluator,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> OptimizerTrace:
    """Run the greedy method named in `METHODS` on the channel set of `ev`.

    `iters` passes by default; `run_to_fixpoint` instead repeats passes
    (at most 64) until one accepts nothing. The final objective is a fresh
    evaluation of the end configuration, so it equals what
    `exhaustive_oracle` computes for it. A noisy sweep instead reports the
    last accepted reading of the method objective, when a move is judged
    by it; alg2's ratio is always read afresh. Each noisy sweep draws from
    its own generator seeded from `noise.seed`.
    """
    objective_kind, build_moves = METHODS[method]
    moves = build_moves(geometry.n_v, geometry.n_h)
    read = None if noise is None else noise.reader()
    initial = _initial_config(geometry, init)
    bits = initial.bits.copy()
    best, steps = _sweep(ev, bits, moves, 64 if run_to_fixpoint else iters, run_to_fixpoint, read)
    if objective_kind in best and read is not None:
        final_objective = best[objective_kind]
    else:
        final_objective = ev.evaluate(objective_kind, bits, read)
    return OptimizerTrace(
        method=method,
        objective_kind=objective_kind,
        initial_config=initial,
        final_config=RisConfig(bits, geometry.n_v, geometry.n_h),
        final_objective=final_objective,
        steps=steps,
    )


def algorithm1(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> OptimizerTrace:
    """Full-surface greedy maximization of the LU/ED power ratio.

    Sweeps all columns then all rows per pass, starting from the all-zeros
    configuration, accepting a flip only on strict ratio improvement.
    """
    ev = PowerEvaluator(channels, element_model, tx)
    return greedy_sweep("alg1", ev, geometry, init, iters, noise, run_to_fixpoint)


def lu_max(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> OptimizerTrace:
    """Beamform toward the intended receiver, ignoring the eavesdropper."""
    ev = PowerEvaluator(channels, element_model, tx)
    return greedy_sweep("lu_max", ev, geometry, init, iters, noise, run_to_fixpoint)


def ed_min(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> OptimizerTrace:
    """Suppress the eavesdropper's power, ignoring the intended receiver."""
    ev = PowerEvaluator(channels, element_model, tx)
    return greedy_sweep("ed_min", ev, geometry, init, iters, noise, run_to_fixpoint)


def algorithm2(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> OptimizerTrace:
    """Partitioned greedy sweep: left half serves the intended receiver,
    right half suppresses the eavesdropper.

    Per pass: left columns are flipped for strictly higher LU power, right
    columns for strictly lower ED power; then for every row the left
    half-row is tried for LU power and the right half-row for ED power.
    The two objectives keep independent "last accepted" registers that are
    initialized once from the starting configuration. The final objective
    is the ratio of the end configuration.
    """
    ev = PowerEvaluator(channels, element_model, tx)
    return greedy_sweep("alg2", ev, geometry, init, iters, noise, run_to_fixpoint)


def single_flip_improvements(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    config: RisConfig,
    objective: str = "ratio",
) -> list:
    """All column/row flips that strictly improve the objective.

    Each move is scored from `config` on its own, as a one-move sweep.
    Empty result means the configuration is single-flip locally optimal.
    """
    ev = PowerEvaluator(channels, element_model, tx)
    return [
        (step.kind, step.index, step.objective_after)
        for move in _full_surface_moves(objective)(config.n_v, config.n_h)
        for step in _sweep(ev, config.bits.copy(), [move], 1)[1]
        if step.accepted
    ]


#: Block values this close (relative) to a block's best are re-scored by
#: the scalar evaluator. It must exceed the block-versus-scalar rounding
#: gap, which is about 1e-15 relative.
_RESCORE_REL_TOL = 1e-9


def exhaustive_oracle(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    objective: str,
    geometry: RisArrayGeometry,
) -> tuple:
    """Global optimum of an objective over all 2^M configurations.

    Enumerates in lexicographic bit-string order and keeps strictly better
    values only, so ties resolve to the smallest bit-string. Guarded to
    M <= 20.

    Each block of 4096 candidates is scored in one `evaluate` call.
    The block's non-finite values, and those within `_RESCORE_REL_TOL` of
    its best finite value, are then scored again by the scalar `evaluate`
    in ascending order against the running best. The scalar winner is
    among them, so the result is the one a scalar scan of every candidate
    returns.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    m = geometry.num_elements
    if m > 20:
        raise ValueError("exhaustive enumeration is limited to M <= 20 elements")
    ev = PowerEvaluator(channels, element_model, tx)
    direction = OBJECTIVES[objective][1]
    sign = 1.0 if direction == "max" else -1.0
    best_bits = None
    best_value = -math.inf if direction == "max" else math.inf
    # Element 0 is the most significant bit so ascending integers enumerate
    # bit-strings lexicographically.
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    block = 4096
    for start in range(0, 1 << m, block):
        stop = min(start + block, 1 << m)
        ints = np.arange(start, stop, dtype=np.uint64)
        bits = ((ints[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        scores = sign * ev.evaluate(objective, bits)  # higher is better
        finite = np.isfinite(scores)
        rescore = ~finite
        if finite.any():
            top = scores[finite].max()
            rescore |= scores >= top - _RESCORE_REL_TOL * abs(top)
        for row in np.flatnonzero(rescore):
            value = ev.evaluate(objective, bits[row])
            if _better(value, best_value, direction):
                best_value = value
                best_bits = bits[row].copy()
    if best_bits is None:
        raise ValueError(f"no configuration has a comparable {objective} value")
    return RisConfig(best_bits, geometry.n_v, geometry.n_h), float(best_value)
