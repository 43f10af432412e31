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
flips its elements in the raw bit vector. Independent sweeps of one method
on one transmit signal run in lockstep, as the rows of one batch.

An exhaustive enumerator over all 2^M configurations is provided for
auditing the greedy results on small panels.
"""

from __future__ import annotations

import math
import operator
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
            total = 0.0
            for _ in range(self.averages):
                n = scale * (rng.standard_normal(signal.size) + 1j * rng.standard_normal(signal.size))
                total += (np.abs(signal + n) ** 2).sum()
            return total / self.averages

        return read


@dataclass(slots=True)
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
    reflection coefficients at every subcarrier of the transmit signal,
    whose frequencies the channel set must share. A configuration (a
    row-major 0/1 vector of length M) enters only through its per-receiver
    sums of the cascades of the elements set to 1, so a full evaluation
    costs one matrix-vector product and a flip of n elements changes the
    sums by an O(K * n) product. The rows of an (N, M) 0/1 matrix are
    scored together by one matrix product.

    The cascades are stored once, as an (M, 2 * K) array whose row m
    holds element m's LU cascades followed by its ED cascades: the
    elements of a column or a row are then a block of rows.

    The evaluator holds no state between calls, so one instance serves
    every sweep, report and re-score on its channel set.
    """

    def __init__(self, channels: ChannelSet, element_model: ElementModel, tx: TxSignal):
        if not np.array_equal(tx.freqs, channels.freqs):
            raise ValueError("transmit signal and channel set disagree on subcarrier frequencies")
        self._x = tx.amplitudes()
        self._hd = np.concatenate([channels.h_d_lu, channels.h_d_ed]).reshape(2, -1)
        g = channels.g_ris
        k, m = g.shape
        w = np.empty((m, 2, k), dtype=complex)
        w_r = np.empty_like(g)  # one receiver's (K, M) cascades, reused
        self._w_sum = np.empty((2, k), dtype=complex)
        for r, h in enumerate((channels.h_ris_lu, channels.h_ris_ed)):
            np.multiply(h, g, out=w_r)
            self._w_sum[r] = w_r.sum(axis=1)
            w[:, r, :] = w_r.T
        self._w = w.reshape(m, 2 * k)
        # Column-major, so that phi(0) and phi(1) are contiguous over the
        # subcarriers in every receive equation.
        self._phi = np.asfortranarray(reflection_coefficients(element_model, channels.freqs))

    def sums(self, bits: np.ndarray) -> np.ndarray:
        """LU and ED sums of the cascades of the elements set in `bits`:
        (2, K) for one bit vector, (2, N, K) for an (N, M) matrix."""
        out = np.asarray(bits, dtype=float) @ self._w
        if out.ndim == 1:
            return out.reshape(2, -1)
        return out.reshape(len(out), 2, -1).swapaxes(0, 1)

    def bin_powers(self, bits: np.ndarray) -> np.ndarray:
        """(2, K) noiseless LU and ED received power per subcarrier."""
        return np.abs(received_signal(self._hd, self._phi, self._w_sum, self.sums(bits), self._x)) ** 2

    def value(self, objective: str, sums: np.ndarray, read=None):
        """Objective from `sums` by `_objective`: a float for one
        configuration, an (N,) array for N. `read`
        (`MeasurementNoise.reader`) takes noisy readings of one
        configuration instead of exact powers."""
        one = sums.ndim == 2
        if read is not None and not one:
            raise ValueError("noisy readings score one configuration at a time")
        name = OBJECTIVES[objective][0]
        rs = _RECEIVERS[name]
        # Receiver-major and contiguous, (receivers, N, K), so that each
        # receiver's (K,) links broadcast along the configurations in one
        # run of memory.
        s = np.ascontiguousarray((sums[:, None] if one else sums)[rs])
        y = received_signal(self._hd[rs, None], self._phi, self._w_sum[rs, None], s, self._x)
        if name == "ratio":
            y = y.swapaxes(0, 1)  # candidate-major, as `_objective` reads it
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _objective(name, y, None if read is None else [read], (0,))
        return float(out[0]) if one else out

    def evaluate(self, objective: str, bits: np.ndarray, read=None):
        """Score `bits`, one bit vector or the rows of an (N, M) 0/1 matrix,
        for an `OBJECTIVES` key."""
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        return self.value(objective, self.sums(bits), read)


#: The receivers (0: LU, 1: ED) whose power an objective reads, as an index
#: of the receiver axis: a ratio keeps the axis, a single power drops it.
_RECEIVERS = {"ratio": slice(0, 2), "lu_power": 0, "ed_power": 1}


def _objective(name, y, reads=None, rows=()):
    """Objective `name` of N candidates as an (N,) array, from their
    received signals at the `_RECEIVERS` of `name`: (N, 2, K) for a ratio,
    (N, K) for one receiver's power. This is the one scoring rule: the
    sweeps and `PowerEvaluator.value` both score by it.

    `reads` holds one noisy reading function per candidate; then only the
    candidates in `rows` are read, each ED before LU, and the others score
    nan, which no comparison accepts. A zero ED power gives a ratio of
    inf, or nan when the LU power is zero too (callers silence numpy's
    warnings for both).
    """
    if reads is None:
        p = (np.abs(y) ** 2).sum(axis=-1)
    else:
        p = np.full(y.shape[:-1], np.nan)
        for i in rows:
            if name == "ratio":
                p_ed = reads[i](y[i, 1])
                p[i] = reads[i](y[i, 0]), p_ed
            else:
                p[i] = reads[i](y[i])
    return p[:, 0] / p[:, 1] if name == "ratio" else p


#: direction -> test of a strict improvement, as (candidate, incumbent)
_IMPROVES = {"max": operator.gt, "min": operator.lt}


def _better(candidate: float, incumbent: float, direction: str) -> bool:
    # Ties are rejections: the sweeps only keep strict improvements.
    return _IMPROVES[direction](candidate, incumbent)


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


def _stack(arrays: list) -> np.ndarray:
    """The arrays along a new leading axis; a single array gives a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _sweep(evs: list, bits: np.ndarray, moves: list, passes: int, fixpoint: bool = False, reads=None):
    """Up to `passes` greedy passes over `moves`, run in lockstep on the N
    evaluators `evs`, which must share one transmit signal and one element
    model. Row i of the (N, M) `bits` starts sweep i and is flipped in
    place. With `fixpoint`, a row whose pass accepts nothing stops: it
    takes no further steps or readings while the other rows go on. (Its
    state no longer changes, so its exact scores reject every move again;
    unread noisy scores are nan, which rejects them too.) `reads` holds
    one noisy power reading per row (`MeasurementNoise.reader`), or is
    None for exact powers.

    Each objective keeps one "last accepted" register per row, seeded from
    the starting bits in the order the objectives first appear in `moves`.
    The cascades are stacked as (N, M, 2 * K), a view for N = 1, so a move
    is scored for every row by one product: the change its elements make,
    added to the running (N, 2, K) sums. A row keeps the move only on
    strict improvement of its register; then its candidate sums become its
    running sums and its elements flip. A rejected move changes nothing.

    The running sums start from the same product as the registers and are
    never recomputed, so a register is always the value of the running sums
    it was accepted with: a move that changes no sum (zero cascades) scores
    exactly its register and is rejected, as under full evaluation. Each
    accepted move adds one rounding of an n-term sum, so the drift is
    bounded by the number of accepted moves. Returns (registers as lists
    of N floats, one list of trace steps per row)."""
    ev = evs[0]
    for other in evs[1:]:
        if not (np.array_equal(other._x, ev._x) and np.array_equal(other._phi, ev._phi)):
            raise ValueError("lockstep sweeps need one transmit signal and one element model")
    n = len(evs)
    w = _stack([e._w for e in evs])
    hd = _stack([e._hd for e in evs])
    w_sum = _stack([e._w_sum for e in evs])
    sums = _stack([e.sums(b) for e, b in zip(evs, bits)])
    # objective -> (name, direction, its receivers with their direct links
    # and cascade sums)
    scored = {}
    for obj in dict.fromkeys(m[3] for m in moves):
        name, direction = OBJECTIVES[obj]
        rs = _RECEIVERS[name]
        scored[obj] = (name, direction, rs, hd[:, rs], w_sum[:, rs])
    rows = list(range(n))  # the rows still sweeping
    steps = [[] for _ in rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        best = {}
        for obj, (name, _, rs, hd_r, w_sum_r) in scored.items():
            y = received_signal(hd_r, ev._phi, w_sum_r, sums[:, rs], ev._x)
            best[obj] = _objective(name, y, reads, rows).tolist()
        for iteration in range(1, passes + 1):
            kept = [False] * n  # rows that accepted a move in this pass
            for kind, index, half, objective, elements in moves:
                name, direction, rs, hd_r, w_sum_r = scored[objective]
                delta = np.matmul(_FLIP_SIGN[bits[:, None, elements]], w[:, elements])
                candidate = sums + delta.reshape(sums.shape)
                y = received_signal(hd_r, ev._phi, w_sum_r, candidate[:, rs], ev._x)
                before, after = best[objective], _objective(name, y, reads, rows).tolist()
                flags = list(map(_IMPROVES[direction], after, before))
                for i in rows:
                    steps[i].append(TraceStep(
                        kind, index, iteration, name, direction, before[i], after[i], flags[i], half
                    ))
                if False not in flags:  # every row keeps the move
                    best[objective], sums = after, candidate
                    bits[:, elements] ^= 1
                    kept = flags
                elif True in flags:
                    best[objective] = [a if f else b for a, b, f in zip(after, before, flags)]
                    accepted = np.array(flags)
                    np.copyto(sums, candidate, where=accepted[:, None, None])
                    bits[accepted, elements] ^= 1
                    kept = list(map(operator.or_, kept, flags))
            if fixpoint:
                rows = [i for i in rows if kept[i]]
                if not rows:
                    break
    return best, steps


class TraceBatch(list):
    """The `OptimizerTrace`s of a lockstep batch, one per row."""

    @property
    def steps(self) -> list:
        """Every row's trace steps, row after row: one per scored candidate,
        as the benchmark's tracer (`perfbench/tracer.py`) counts them."""
        return [step for trace in self for step in trace.steps]


def greedy_sweep(
    method: str,
    evs: list,
    geometry: RisArrayGeometry,
    init: RisConfig | None = None,
    iters: int = 2,
    noise: MeasurementNoise | None = None,
    run_to_fixpoint: bool = False,
) -> TraceBatch:
    """Run the greedy method named in `METHODS` on the channel set of each
    evaluator in `evs`, all in one lockstep `_sweep`, from the same start;
    returns one trace per evaluator.

    `iters` passes by default; `run_to_fixpoint` instead repeats passes
    (at most 64) until one accepts nothing. The final objective is a fresh
    evaluation of the end configuration, so it equals what
    `exhaustive_oracle` computes for it. A noisy sweep instead reports the
    last accepted reading of the method objective, when a move is judged
    by it; alg2's ratio is always read afresh. Each noisy sweep draws from
    its own generator seeded from `noise.seed`, so its readings do not
    depend on the other rows.
    """
    objective_kind, build_moves = METHODS[method]
    moves = build_moves(geometry.n_v, geometry.n_h)
    reads = None if noise is None or noise.n0 == 0 else [noise.reader() for _ in evs]
    initial = _initial_config(geometry, init)
    bits = initial.bits[None].repeat(len(evs), axis=0)
    best, steps = _sweep(evs, bits, moves, 64 if run_to_fixpoint else iters, run_to_fixpoint, reads)
    traces = TraceBatch()
    for i, ev in enumerate(evs):
        if reads is None or objective_kind not in best:
            final_objective = ev.evaluate(objective_kind, bits[i], None if reads is None else reads[i])
        else:
            final_objective = best[objective_kind][i]
        traces.append(OptimizerTrace(
            method=method,
            objective_kind=objective_kind,
            initial_config=initial.copy() if i else initial,  # no two rows share one
            final_config=RisConfig(bits[i], geometry.n_v, geometry.n_h),
            final_objective=final_objective,
            steps=steps[i],
        ))
    return traces


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
    return greedy_sweep("alg1", [ev], geometry, init, iters, noise, run_to_fixpoint)[0]


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
    return greedy_sweep("lu_max", [ev], geometry, init, iters, noise, run_to_fixpoint)[0]


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
    return greedy_sweep("ed_min", [ev], geometry, init, iters, noise, run_to_fixpoint)[0]


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
    return greedy_sweep("alg2", [ev], geometry, init, iters, noise, run_to_fixpoint)[0]


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
        for step in _sweep([ev], config.bits[None].copy(), [move], 1)[1][0]
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
