"""Greedy configuration search over columns and rows of the panel.

Two searches are implemented. The full-surface sweep walks every column
and then every row, keeping a flip only when it strictly improves the
received-power ratio between the intended receiver and the eavesdropper
(or, for the baselines, the single-user power). The partitioned sweep
splits the panel down the middle: the left columns and left half-rows
greedily raise the intended receiver's power while the right ones greedily
lower the eavesdropper's, with separate "last accepted" registers for the
two objectives. Both run `PASSES` passes from the all-zeros configuration.

Both searches, and the single-user baselines, are one sweep engine driven
by the `METHODS` table: each method is a list of moves (which elements to
flip and which objective judges the flip). A move is scored by the change
its elements make to running per-receiver sums, and only an accepted move
flips its elements in the raw bit vector. Independent sweeps of one method
on one transmit signal run in lockstep, as the rows of one batch, and
record their traces together, one log entry per scored move.

An exhaustive enumerator over all 2^M configurations is provided for
auditing the greedy results on small panels.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet, cascade_row
from .ofdm import TxSignal
from .ris import ElementModel, RisArrayGeometry, RisConfig

#: objective key -> (name in trace steps, direction of improvement)
OBJECTIVES = {
    "ratio": ("ratio", "max"),
    "lu_power_max": ("lu_power", "max"),
    "ed_power_min": ("ed_power", "min"),
}

#: Greedy passes over the moves of every sweep.
PASSES = 2


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


class TraceStep(NamedTuple):
    """One scored move of a greedy sweep; the field order is its JSON key order."""

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
        """The step as JSON writes it: every field, `half` only when set."""
        out = self._asdict()
        if self.half is None:
            del out["half"]
        return out


@dataclass(frozen=True)
class PassSummary:
    """One pass of one sweep: how many moves it accepted, and each
    objective's "last accepted" register after it, by objective name."""

    iteration: int
    accepted: int
    registers: dict


class SweepLog:
    """What one lockstep `_sweep` scored, as it scored it: `entries` holds
    one (move number in `moves`, pass, before, after, accepted) per scored
    move, the last three with one value per row of the batch (Python
    floats and bools). A move's kind, index, half and objective come from
    `moves`. Trace steps are built from it only when read."""

    def __init__(self, moves: list):
        self.moves = moves
        self.entries = []

    def steps(self, i: int) -> list:
        """Row i's `TraceStep`s, one per scored move."""
        steps = []
        for j, iteration, before, after, accepted in self.entries:
            kind, index, half, objective, _ = self.moves[j]
            name, direction = OBJECTIVES[objective]
            steps.append(TraceStep(kind, index, iteration, name, direction, before[i], after[i], accepted[i], half))
        return steps

    def passes(self, i: int) -> list:
        """Row i's `PassSummary`s, one per pass."""
        out, registers = [], {}
        for iteration, group in itertools.groupby(self.steps(i), key=operator.attrgetter("iteration")):
            count = 0
            for step in group:
                registers[step.objective] = step.objective_after if step.accepted else step.objective_before
                count += step.accepted
            out.append(PassSummary(iteration, count, dict(registers)))
        return out


@dataclass(eq=False)
class OptimizerTrace:
    """One row of a lockstep greedy sweep, which starts from all zeros.
    Its steps and per-pass summaries are built on first read, from the
    sweep's log."""

    method: str
    objective_kind: str
    final_config: RisConfig
    final_objective: float
    log: SweepLog = field(repr=False)
    row: int

    @property
    def initial_config(self) -> RisConfig:
        return RisConfig.zeros(self.final_config.n_v, self.final_config.n_h)

    @functools.cached_property
    def steps(self) -> list:
        return self.log.steps(self.row)

    @functools.cached_property
    def passes(self) -> list:
        """Per-pass `PassSummary`s: accepted moves and registers after each pass."""
        return self.log.passes(self.row)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "objective": self.objective_kind,
            "initial_config": self.initial_config.to_bitstring(),
            "final_config": self.final_config.to_bitstring(),
            "final_objective": self.final_objective,
            "steps": [step.to_dict() for step in self.steps],
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


#: Rows of a bit matrix `EvaluatorBatch.sums` casts to complex at a time.
_SUMS_ROWS = 16


class EvaluatorBatch:
    """Power evaluation of bit vectors on N channel sets that share one
    transmit signal (and its frequencies) and one element model.

    A configuration (a row-major 0/1 vector of length M) enters only
    through each receiver's sum of the cascades h_m * g_m of the elements
    set to 1. The direct links `hd` and cascade sums `w_sum`, (N, 2, K),
    and the `cascades`, (N, M, 2 * K), are one C-contiguous stack each: row
    m of set i's cascades holds element m's LU then ED cascades, so the
    elements of a column or a row are a block of rows. The symbols `x` and
    the (K, 2) reflection coefficients `phi` serve every set. They stack
    `channel.cascade_row` rows: of each channel set's links, or as
    `LinkTable.pair_rows` gives them (`from_rows`).
    """

    def __init__(self, channel_sets: list, element_model: ElementModel, tx: TxSignal):
        if not all(np.array_equal(tx.freqs, ch.freqs) for ch in channel_sets):
            raise ValueError("transmit signal and channel set disagree on subcarrier frequencies")
        rows = [
            (cascade_row(ch.h_d_lu.copy(), ch.h_ris_lu.copy(), ch.g_ris),
             cascade_row(ch.h_d_ed.copy(), ch.h_ris_ed.copy(), ch.g_ris))
            for ch in channel_sets
        ]
        self._stack(rows, element_model, tx)

    @classmethod
    def from_rows(cls, rows: list, element_model: ElementModel, tx: TxSignal) -> "EvaluatorBatch":
        """The batch of (LU row, ED row) pairs `rows` on the subcarriers of `tx`."""
        batch = cls.__new__(cls)
        batch._stack(rows, element_model, tx)
        return batch

    def _stack(self, rows: list, element_model: ElementModel, tx: TxSignal) -> None:
        self.hd = np.array([(lu[0], ed[0]) for lu, ed in rows])
        self.w_sum = np.array([(lu[2], ed[2]) for lu, ed in rows])
        m, k = rows[0][0][1].shape
        cascades = np.empty((len(rows), m, 2, k), dtype=complex)
        for w, (lu, ed) in zip(cascades, rows):
            w[:, 0], w[:, 1] = lu[1], ed[1]
        self.cascades = cascades.reshape(len(rows), m, 2 * k)
        self.x = tx.symbols
        # Column-major, so that phi(0) and phi(1) are contiguous over the
        # subcarriers in every receive equation.
        self.phi = np.asfortranarray(reflection_coefficients(element_model, tx.freqs))

    def __len__(self) -> int:
        return len(self.hd)

    def sums(self, bits: np.ndarray) -> np.ndarray:
        """(N, 2, K) LU and ED sums of each set's cascades over the elements
        set in `bits`: an (M,) bit vector for every set, or row i of an
        (N, M) matrix for set i. Row i equals set i's vector-matrix product alone, bit for bit. A matrix
        is cast to complex `_SUMS_ROWS` rows at a time, so that its cast
        copy stays small (110 x 1024 bits would take 1.8 MB)."""
        bits, w = np.asarray(bits), self.cascades
        if bits.ndim == 1:
            return np.matmul(bits.astype(complex), w).reshape(len(w), 2, -1)
        out = np.empty((len(bits), 1, w.shape[-1]), dtype=complex)
        for i in range(0, len(bits), _SUMS_ROWS):
            rows = slice(i, i + _SUMS_ROWS)
            np.matmul(bits[rows, None].astype(complex), w[rows], out=out[rows])
        return out.reshape(len(bits), 2, -1)

    def powers(self, bits: np.ndarray) -> np.ndarray:
        """(N, 2, K) noiseless LU and ED power per subcarrier of `bits`."""
        return np.abs(received_signal(self.hd, self.phi, self.w_sum, self.sums(bits), self.x)) ** 2

    def values(self, objective: str, sums: np.ndarray, reads=None) -> np.ndarray:
        """(N,) values of the `OBJECTIVES` key `objective` from (N, 2, K)
        `sums`, by `_objective`; a batch of one takes every row. `reads`
        holds one noisy reader (`MeasurementNoise.reader`) per row, which
        then reads every row in order. A zero ED power scores a ratio of
        inf, or nan over a zero LU power, without numpy's warnings."""
        if objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        name = OBJECTIVES[objective][0]
        rs = _RECEIVERS[name]
        with np.errstate(divide="ignore", invalid="ignore"):
            y = received_signal(self.hd[:, rs], self.phi, self.w_sum[:, rs], sums[:, rs], self.x)
            return _objective(name, y, reads)


#: The receivers (0: LU, 1: ED) whose power an objective reads, as an index
#: of the receiver axis: a ratio keeps the axis, a single power drops it.
_RECEIVERS = {"ratio": slice(0, 2), "lu_power": 0, "ed_power": 1}


def _objective(name, y, reads=None):
    """Objective `name` of N candidates as an (N,) array, from their
    received signals at the `_RECEIVERS` of `name`: (N, 2, K) for a ratio,
    (N, K) for one receiver's power: the one scoring rule, which
    `EvaluatorBatch.values` applies.

    `reads` holds one noisy reading function per candidate; then every
    candidate is read, in order, each ED before LU.
    """
    if reads is None:
        p = (np.abs(y) ** 2).sum(axis=-1)
    else:
        p = np.empty(y.shape[:-1])
        for i in range(len(y)):
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
#:
#: alg1 (`algorithm1`) is the full-surface sweep of the LU/ED power ratio, alg2
#: the partitioned sweep, its registers seeded once from the start and its
#: final objective the end's ratio; lu_max and ed_min sweep one power.
METHODS = {
    "alg1": ("ratio", _full_surface_moves("ratio")),
    "alg2": ("ratio", _partitioned_moves),
    "lu_max": ("lu_power_max", _full_surface_moves("lu_power_max")),
    "ed_min": ("ed_power_min", _full_surface_moves("ed_power_min")),
}


def _sweep(batch: EvaluatorBatch, start: np.ndarray, moves: list, passes: int, reads=None):
    """`passes` greedy passes over `moves`, run in lockstep on the N rows
    of `batch`, every row from the (M,) bit vector `start`. `reads` holds
    one noisy power reading per row (`MeasurementNoise.reader`), or is
    None for exact powers.

    Each objective keeps one "last accepted" register per row, seeded by
    `EvaluatorBatch.values` from the starting bits in the order the
    objectives first appear in `moves`. The running (N, 2, K) sums start
    from one product over the batch's cascade stack
    (`EvaluatorBatch.sums`). A move's candidate sums are one product, the
    change its elements make, added to the running sums, and every row
    scores them by one `values` call. A row keeps the move only on strict
    improvement of its register; then its candidate sums become its
    running sums and its elements flip. A rejected move changes nothing.

    The running sums are never recomputed, so a register is always the
    value of the running sums it was accepted with: a move that changes no
    sum (zero cascades) scores exactly its register and is rejected, as
    under full evaluation. Each accepted move adds one rounding of an
    n-term sum, so the drift is bounded by the number of accepted moves.
    Returns (registers as lists of N floats, the `SweepLog` of every
    scored move, the (N, M) end bits)."""
    w = batch.cascades
    bits = np.tile(start, (len(batch), 1))
    sums = batch.sums(start)
    log = SweepLog(moves)
    best = {obj: batch.values(obj, sums, reads).tolist() for obj in dict.fromkeys(m[3] for m in moves)}
    for iteration in range(1, passes + 1):
        for j, (_, _, _, objective, elements) in enumerate(moves):
            delta = np.matmul(_FLIP_SIGN[bits[:, None, elements]], w[:, elements])
            candidate = sums + delta.reshape(sums.shape)
            before, after = best[objective], batch.values(objective, candidate, reads).tolist()
            flags = list(map(_IMPROVES[OBJECTIVES[objective][1]], after, before))
            log.entries.append((j, iteration, before, after, flags))
            if True in flags:
                best[objective] = [a if f else b for a, b, f in zip(after, before, flags)]
                accepted = np.array(flags)
                np.copyto(sums, candidate, where=accepted[:, None, None])
                bits[:, elements] ^= accepted[:, None]
    return best, log, bits


class TraceBatch(list):
    """The `OptimizerTrace`s of a lockstep batch, one per row."""

    @property
    def steps(self) -> list:
        """Every row's trace steps, row after row: one per scored candidate,
        as the benchmark's tracer (`perfbench/tracer.py`) counts them."""
        return [step for trace in self for step in trace.steps]


def greedy_sweep(
    method: str,
    batch: EvaluatorBatch,
    geometry: RisArrayGeometry,
    noise: MeasurementNoise | None = None,
) -> TraceBatch:
    """Run the greedy method named in `METHODS` on the channel set of each
    row of `batch`, all in one lockstep `_sweep` of `PASSES` passes from
    all zeros; returns one trace per row.

    The final objective is a fresh evaluation of the end configuration,
    every row's in one `EvaluatorBatch.values` call, so it equals what
    `exhaustive_oracle` computes for it. A noisy sweep instead reports the
    last accepted reading of the method objective, when a move is judged
    by it; alg2's ratio is always read afresh. Each noisy sweep draws from
    its own generator seeded from `noise.seed`, so its readings do not
    depend on the other rows.
    """
    objective_kind, build_moves = METHODS[method]
    moves = build_moves(geometry.n_v, geometry.n_h)
    reads = None if noise is None or noise.n0 == 0 else [noise.reader() for _ in range(len(batch))]
    best, log, bits = _sweep(batch, np.zeros(geometry.num_elements, dtype=np.uint8), moves, PASSES, reads)
    if reads is not None and objective_kind in best:
        final_objectives = best[objective_kind]
    else:
        final_objectives = batch.values(objective_kind, batch.sums(bits), reads).tolist()
    return TraceBatch(
        OptimizerTrace(method, objective_kind, RisConfig(b, geometry.n_v, geometry.n_h), value, log, i)
        for i, (b, value) in enumerate(zip(bits, final_objectives))
    )


def algorithm1(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    geometry: RisArrayGeometry,
    noise: MeasurementNoise | None = None,
) -> OptimizerTrace:
    """alg1 on one channel set: the `greedy_sweep` trace of a batch of one."""
    return greedy_sweep("alg1", EvaluatorBatch([channels], element_model, tx), geometry, noise)[0]


def _subset_sums(w: np.ndarray) -> np.ndarray:
    """(2, K, 2^n) subset sums of the (n, 2, K) cascades `w` by doubling, element 0 the top bit."""
    s = np.zeros((*w.shape[1:], 1), dtype=complex)
    for w_e in w[::-1]:
        s = np.concatenate([s, s + w_e[..., None]], axis=-1)
    return s


def _candidate_signals(batch: EvaluatorBatch, m: int, r):
    """Yields (first candidate, (..., K, B) signals at receivers `r`, (..., K, 1)
    bound E) per block of B consecutive candidates of a batch of one, 2^13 signals
    or one h: candidate h * 2^L + l sums s_hi[h] + s_lo[l], the subset sums of its
    first ceil(M/2) elements and of the other L, so a block is an outer sum."""
    w = batch.cascades[0].reshape(m, 2, -1)[:, r]
    high, k = (m + 1) // 2, w.shape[-1]
    s_hi, s_lo = _subset_sums(w[:high]), _subset_sums(w[high:])
    hd, w_sum, x = batch.hd[0, r], batch.w_sum[0, r], batch.x
    t = (np.abs(hd) + np.abs(batch.phi).sum(axis=1) * np.abs(w).sum(axis=0)) * np.abs(x)
    e = (8 * np.finfo(float).eps / 2 * (m + k + 8) * t)[..., None]
    step = max(1, (1 << 13) // w[0].size >> (m - high))
    for h in range(0, 1 << high, step):
        on = (s_hi[..., h : h + step, None] + s_lo[..., None, :]).reshape(*w.shape[1:], -1)
        y = received_signal(hd[..., None], batch.phi[:, :, None], w_sum[..., None], on, x[:, None])
        yield h << (m - high), y, e


def exhaustive_oracle(
    channels: ChannelSet,
    element_model: ElementModel,
    tx: TxSignal,
    objective: str,
    geometry: RisArrayGeometry,
) -> tuple:
    """Global optimum of an objective over all 2^M configurations.

    Enumerates in lexicographic bit-string order and keeps strictly better
    values only, so ties resolve to the smallest bit-string; M <= 20.

    The channel set is a batch of one. `_candidate_signals` gives every
    candidate's signals y at the receivers the objective reads, each within
    E = 8 u (M + K + 8) T of the scalar path's (`values` of `sums`), where
    u = eps / 2, S = sum_m |w_m|, T = (|h_d| + (|phi0| + |phi1|) S) |x| and
    g = M u / (1 - M u), barring underflow. Either path's `on` (at most M
    cascades summed per component; products with 0/1 bits are exact) is
    within sqrt(2) g S, which y scales by at most (|phi0| + |phi1|) |x|, and
    y adds three complex additions (u each, per component) and three
    products (sqrt(5) u each), so the paths differ by less than
    (2 sqrt(2) g + (6 + 4 sqrt(5)) u) T < (2.9 M + 15) u T. E exceeds that
    by over (8 K + 48) u T >= (8 K + 48) u |y|, twice as much relative on
    |y|^2: more than either path's rounding of |y|^2 and its sum over K
    subcarriers ((K + 8) u relative) and a ratio's division. So the scalar
    value lies within the objective of sum max(|y| - E, 0)^2 and of
    sum (|y| + E)^2 (a nan bound admits anything). In ascending order, a
    candidate gets its bits and the scalar path only if its upper bound
    beats the running best and reaches its block's best lower bound; any
    other is no better than an earlier candidate or worse than one of its
    block, so not the first best of a one-at-a-time scan.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    m = geometry.num_elements
    if m > 20:
        raise ValueError("exhaustive enumeration is limited to M <= 20 elements")
    batch = EvaluatorBatch([channels], element_model, tx)
    name, direction = OBJECTIVES[objective]
    sign = 1.0 if direction == "max" else -1.0
    best_bits, best_value = None, -sign * math.inf
    for first, y, e in _candidate_signals(batch, m, _RECEIVERS[name]):
        a = np.abs(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = (np.maximum(a - e, 0.0) ** 2).sum(axis=-2), ((a + e) ** 2).sum(axis=-2)
            lo, hi = (lo[0] / hi[1], hi[0] / lo[1]) if name == "ratio" else (lo, hi)
        lo, hi = (lo, hi) if sign > 0 else (-hi, -lo)  # bounds of higher-is-better scores
        lo[np.isnan(lo)], hi[np.isnan(hi)] = -math.inf, math.inf
        rows = np.flatnonzero((hi > sign * best_value) & (hi >= lo.max()))
        for row, bound in zip(rows.tolist(), hi[rows].tolist()):
            if bound > sign * best_value:
                bits = (((first + row) >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)
                value = batch.values(objective, batch.sums(bits))[0]
                if _better(value, best_value, direction):
                    best_value, best_bits = value, bits
    if best_bits is None:
        raise ValueError(f"no configuration has a comparable {objective} value")
    return RisConfig(best_bits, geometry.n_v, geometry.n_h), float(best_value)
