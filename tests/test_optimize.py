import math

import numpy as np
import pytest

from helpers import (
    CARRIER,
    flip,
    handmade_channels,
    model_instance,
    panel,
    replay,
    score,
    single_flip_improvements,
    single_tone_tx,
    sweep_one,
)
from ris_pls.channel import ChannelSet
from ris_pls.experiments import DEFAULT_PAIRS
from ris_pls.optimize import (
    _FLIP_SIGN,
    _RECEIVERS,
    METHODS,
    OBJECTIVES,
    PASSES,
    EvaluatorBatch,
    MeasurementNoise,
    TraceBatch,
    TraceStep,
    _better,
    _candidate_signals,
    _objective,
    _sweep,
    algorithm1,
    exhaustive_oracle,
    greedy_sweep,
    received_signal,
    reflection_coefficients,
)
from ris_pls.ofdm import TxSignal
from ris_pls.ris import ElementModel, RisConfig
from ris_pls.scenario import Scenario

MODEL = ElementModel()

#: The sweeps the `_sweep` parity tests run: every command's `PASSES`
#: passes from all zeros (id "iters2"), and three passes from a random
#: start, the kind of sweep the local-optimality audit
#: (`helpers.single_flip_improvements`) runs from an end state.
SWEEPS = pytest.mark.parametrize(
    "passes, start_seed", [(PASSES, None), (3, 7)], ids=["iters2", "iters3-random-start"]
)

#: The panels the greedy-sweep parity tests run on: the 4x6 panel (id
#: "iters2", the name its ids have always had) and a 5x4 one, with an odd
#: row count and a two-column alg2 split.
PANELS = pytest.mark.parametrize("n_v, n_h", [(4, 6), (5, 4)], ids=["iters2", "iters2-5x4"])

#: Every greedy method of `METHODS`, by name (ids "method0" to "method3").
EVERY_METHOD = pytest.mark.parametrize("method", list(METHODS), ids=[f"method{i}" for i in range(len(METHODS))])


def start_bits(m, seed=None) -> np.ndarray:
    """All zeros, or `m` random bits drawn from `seed`."""
    if seed is None:
        return np.zeros(m, dtype=np.uint8)
    return np.random.default_rng(seed).integers(0, 2, size=m, dtype=np.uint8)


class TestAlgorithm1:
    def test_immediate_local_optimum(self):
        # Every flip pulls the coherent sum away from the large direct term,
        # so nothing is ever accepted.
        ch = handmade_channels(10.0, 1.0, w_lu=[1.0, 1.0], w_ed=[0.0, 0.0])
        trace = algorithm1(ch, MODEL, single_tone_tx(), panel(1, 2))
        assert not any(s.accepted for s in trace.steps)
        assert trace.final_config == RisConfig.zeros(1, 2)
        assert len(trace.steps) == 2 * (2 + 1)  # two passes over 2 columns + 1 row

    def test_one_by_two_matches_enumeration(self):
        # Hand enumeration of the 4 configs (phase states +1/-1, w = [-1, 1],
        # direct 0.1): powers 0.01, 4.41, 3.61, 0.01 for 00, 10, 01, 11.
        # Greedy: accept col 0 (4.41), reject col 1, reject the row flip.
        ch = handmade_channels(0.1, 1.0, w_lu=[-1.0, 1.0], w_ed=[0.0, 0.0])
        ch.h_d_ed[:] = 1.0
        geom = panel(1, 2)
        trace = algorithm1(ch, MODEL, single_tone_tx(), geom)
        assert trace.final_config.to_bitstring() == "10"
        assert trace.final_objective == pytest.approx(4.41, rel=1e-12)
        best_cfg, best_val = exhaustive_oracle(ch, MODEL, single_tone_tx(), "ratio", geom)
        assert best_val == pytest.approx(trace.final_objective, rel=1e-12)
        assert best_cfg == trace.final_config

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rician_final_is_single_flip_optimal(self, seed):
        channels, sig = model_instance(seed, 3, 4)
        trace = algorithm1(channels, MODEL, sig, panel(3, 4))
        assert single_flip_improvements(channels, MODEL, sig, trace.final_config, "ratio") == []

    def test_starts_from_all_zeros(self):
        channels, sig = model_instance(0, 2, 2)
        trace = algorithm1(channels, MODEL, sig, panel(2, 2))
        assert trace.initial_config == RisConfig.zeros(2, 2)

    def test_determinism(self):
        channels, sig = model_instance(5, 3, 4)
        a = algorithm1(channels, MODEL, sig, panel(3, 4))
        b = algorithm1(channels, MODEL, sig, panel(3, 4))
        assert a.to_dict() == b.to_dict()


class TestTraceInvariants:
    @pytest.mark.parametrize("seed", range(20))
    @EVERY_METHOD
    def test_monotone_and_revertible(self, method, seed):
        channels, sig = model_instance(seed, 4, 4)
        trace = sweep_one(method, channels, MODEL, sig, panel(4, 4))
        # Accepted steps strictly improve their own objective register.
        registers = {}
        for step in trace.steps:
            key = step.objective
            if step.accepted:
                if key in registers:
                    if step.direction == "max":
                        assert step.objective_after > registers[key]
                    else:
                        assert step.objective_after < registers[key]
                registers[key] = step.objective_after
            assert step.accepted == (
                step.objective_after > step.objective_before
                if step.direction == "max"
                else step.objective_after < step.objective_before
            )
        # Replaying only the accepted flips reproduces the final bits.
        assert replay(trace) == trace.final_config

    @EVERY_METHOD
    def test_replay_catches_a_leaked_rejection(self, method):
        channels, sig = model_instance(3, 4, 4)
        trace = sweep_one(method, channels, MODEL, sig, panel(4, 4))
        steps = trace.to_dict()["steps"]
        next(s for s in steps if not s["accepted"])["accepted"] = True
        assert replay(trace, steps) != trace.final_config

    def test_written_steps_keep_their_key_order(self):
        # Each written step's keys follow `TraceStep`'s fields; `half` comes
        # last, and only in half-row steps.
        channels, sig = model_instance(3, 4, 4)
        keys = ["kind", "index", "iteration", "objective", "direction", "objective_before", "objective_after", "accepted"]
        for method in ("alg1", "alg2"):
            steps = sweep_one(method, channels, MODEL, sig, panel(4, 4)).to_dict()["steps"]
            assert steps[0]["kind"] == "column" and list(steps[0]) == keys
            assert {s["kind"] for s in steps} == ({"column", "row"} if method == "alg1" else {"column", "half_row"})
            for step in steps:
                assert list(step) == (keys + ["half"] if step["kind"] == "half_row" else keys)


class TestSlowPathParity:
    """Replaying every step with `helpers.flip` and a fresh
    evaluation must reproduce the trace. A step's value comes from running
    sums plus the move's change, so it may differ from the fresh value in
    its last bits; the registers and the final objective are exact."""

    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @PANELS
    @EVERY_METHOD
    def test_steps_match_fresh_scores(self, method, n_v, n_h, waveform):
        channels, sig = model_instance(4, n_v, n_h, waveform=waveform)
        trace = sweep_one(method, channels, MODEL, sig, panel(n_v, n_h))
        assert {s.iteration for s in trace.steps} == set(range(1, PASSES + 1))
        ev = EvaluatorBatch([channels], MODEL, sig)
        key = {name: objective for objective, (name, _) in OBJECTIVES.items()}

        def fresh(name, bits):
            return score(ev, key[name], bits)

        cfg = trace.initial_config
        registers = {name: fresh(name, cfg.bits) for name in {s.objective for s in trace.steps}}
        for step in trace.steps:
            candidate = RisConfig(flip(cfg.bits, n_h, step.kind, step.index, step.half), n_v, n_h)
            assert step.objective_before == registers[step.objective]
            assert step.objective_after == pytest.approx(
                fresh(step.objective, candidate.bits), rel=1e-12, abs=0
            )
            if step.accepted:
                cfg = candidate
                registers[step.objective] = step.objective_after
        assert any(s.accepted for s in trace.steps)
        assert cfg == trace.final_config
        assert trace.final_objective == score(ev, trace.objective_kind, cfg.bits)


def full_recompute_sweep(ev, bits, moves, passes, read=None):
    """The sweep with every candidate scored by a full evaluation of the
    flipped bit vector on the batch of one `ev`: the slow reference for
    `_sweep`'s running sums."""
    best = {obj: score(ev, obj, bits, read) for obj in dict.fromkeys(m[3] for m in moves)}
    steps = []
    for iteration in range(1, passes + 1):
        for kind, index, half, objective, elements in moves:
            name, direction = OBJECTIVES[objective]
            bits[elements] ^= 1
            value = score(ev, objective, bits, read)
            accepted = _better(value, best[objective], direction)
            steps.append(TraceStep(
                kind, index, iteration, name, direction, best[objective], value, accepted, half
            ))
            if accepted:
                best[objective] = value
            else:
                bits[elements] ^= 1
    return best, steps


def assert_sweep_parity(channels, sig, method, n_v, n_h, passes, noise=None, rel=1e-12, start_seed=None):
    """Run both sweeps from `start_bits(n_v * n_h, start_seed)` on one batch
    of one, each with its own noise reader (so noisy ones draw the same
    readings), and compare every decision and value."""

    def close(a, b):
        return a == b or a == pytest.approx(b, rel=rel, abs=0)

    def read():
        return None if noise is None else noise.reader()

    moves = METHODS[method][1](n_v, n_h)
    slow_bits = start_bits(n_v * n_h, start_seed)
    fast_reads = None if noise is None else [noise.reader()]
    batch = EvaluatorBatch([channels], MODEL, sig)
    fast_best, log, (fast_bits,) = _sweep(batch, slow_bits.copy(), moves, passes, fast_reads)
    fast = log.steps(0)
    fast_best = {k: float(v[0]) for k, v in fast_best.items()}
    slow_best, slow = full_recompute_sweep(batch, slow_bits, moves, passes, read())
    assert len(fast) == len(slow)
    for f, s in zip(fast, slow):
        assert (f.kind, f.index, f.half, f.iteration, f.accepted) == (
            s.kind, s.index, s.half, s.iteration, s.accepted
        )
        assert close(f.objective_before, s.objective_before)
        assert close(f.objective_after, s.objective_after)
    assert np.array_equal(fast_bits, slow_bits)
    assert fast_best.keys() == slow_best.keys()
    assert all(close(fast_best[k], slow_best[k]) for k in fast_best)
    return fast


#: The moves of column 1 and row 2, whose cascades `zero_cascades` zeroes
#: in the tie tests below.
ZERO_MOVES = (("column", 1), ("row", 2), ("half_row", 2))


def zero_elements(n_v, n_h) -> np.ndarray:
    """The elements of column 1 and row 2 of a row-major n_v x n_h panel."""
    return np.r_[1 : n_v * n_h : n_h, 2 * n_h : 3 * n_h]


def zero_cascades(channels, elements):
    """The channel set with the cascades of `elements` zeroed for both receivers."""
    h_ris_lu, h_ris_ed = channels.h_ris_lu.copy(), channels.h_ris_ed.copy()
    h_ris_lu[:, elements] = 0.0
    h_ris_ed[:, elements] = 0.0
    return ChannelSet(
        channels.freqs, channels.h_d_lu, channels.h_d_ed, h_ris_lu, h_ris_ed, channels.g_ris
    )


class TestRunningSumParity:
    """`_sweep` scores moves from running sums; the full recompute must
    take the same decisions step for step."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @SWEEPS
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_decisions_match_full_recompute(self, method, passes, start_seed, waveform, noisy):
        accepted = 0
        for seed in range(3):
            channels, sig = model_instance(seed, 4, 6, waveform=waveform)
            noise = MeasurementNoise(n0=1e-9, averages=2, seed=seed) if noisy else None
            steps = assert_sweep_parity(channels, sig, method, 4, 6, passes, noise, start_seed=start_seed)
            accepted += sum(s.accepted for s in steps)
        assert accepted

    @pytest.mark.parametrize("lu_deg, ed_deg", DEFAULT_PAIRS)
    def test_alg1_on_default_scenario_reference_pairs(self, lu_deg, ed_deg):
        scen = Scenario()
        sig = scen.tx_signal()
        channels = scen.channels_for(scen.placement(lu_deg), scen.placement(ed_deg), sig.freqs)
        assert (scen.ris.n_v, scen.ris.n_h) == (32, 32)
        # The optimized ED powers here sit 55-72 dB below the power their
        # terms give in phase, so reordered sums move values by up to 2e-12
        # relative; two layouts of the full product alone differ by 9e-13.
        assert_sweep_parity(channels, sig, "alg1", 32, 32, 2, rel=1e-11)

    @pytest.mark.parametrize("method", sorted(METHODS))
    @SWEEPS
    def test_zero_cascade_moves_tie_exactly(self, method, passes, start_seed):
        # Column 1 and row 2 have zero cascades: flipping them changes no
        # sum. With one objective the register is always the value of the
        # running sums, so such a move ties it exactly and is rejected in
        # every pass; alg2's moves must match the full recompute. (Sums
        # recomputed at each pass start would differ from the running ones
        # in their last bits and break about one in six of these sweeps.)
        for seed in range(12):
            for waveform in ("tone", "prs"):
                channels, sig = model_instance(seed, 4, 6, waveform=waveform)
                tied = zero_cascades(channels, zero_elements(4, 6))
                steps = assert_sweep_parity(tied, sig, method, 4, 6, passes, start_seed=start_seed)
                zero_moves = [s for s in steps if (s.kind, s.index) in ZERO_MOVES]
                assert zero_moves
                if method != "alg2":
                    assert all(s.objective_after == s.objective_before for s in zero_moves)
                    assert not any(s.accepted for s in zero_moves)

    def test_zero_move_right_after_acceptance_equals_register(self):
        # Column 0 is accepted (ratio 0.04 -> 25), then column 1 (zero
        # cascade) must score exactly the register column 0 set.
        ch = handmade_channels(0.5, 0.5, w_lu=[-1.0, 0.0, 1.0], w_ed=[1.0, 0.0, 1.0])
        trace = algorithm1(ch, MODEL, single_tone_tx(), panel(1, 3))
        first, second = trace.steps[:2]
        assert first.accepted and (second.kind, second.index) == ("column", 1)
        assert not second.accepted
        assert second.objective_after == second.objective_before == first.objective_after

    def test_sweep_starts_from_given_bits(self):
        # The audit sweeps from an end state: the register is seeded from
        # the start bits, and the accepted moves flip those bits.
        channels, sig = model_instance(0, 2, 2)
        start = RisConfig.from_bitstring("1100", 2, 2).bits
        batch = EvaluatorBatch([channels], MODEL, sig)
        best, log, (bits,) = _sweep(batch, start, METHODS["alg1"][1](2, 2), 1)
        steps = log.steps(0)
        assert steps[0].objective_before == score(batch, "ratio", start)
        cfg = start
        for step in steps:
            if step.accepted:
                cfg = flip(cfg, 2, step.kind, step.index, step.half)
        assert np.array_equal(cfg, bits)
        assert best["ratio"] == [max([steps[0].objective_before] + [s.objective_after for s in steps if s.accepted])]

    @EVERY_METHOD
    def test_final_objective_is_a_fresh_evaluation(self, method):
        channels, sig = model_instance(1, 4, 6, waveform="prs")
        trace = sweep_one(method, channels, MODEL, sig, panel(4, 6))
        ev = EvaluatorBatch([channels], MODEL, sig)
        assert trace.final_objective == score(ev, trace.objective_kind, trace.final_config.bits)

    def test_noisy_final_objective_is_the_last_accepted_reading(self):
        channels, sig = model_instance(2, 4, 6, waveform="prs")
        noise = MeasurementNoise(n0=1e-9, seed=5)
        trace = algorithm1(channels, MODEL, sig, panel(4, 6), noise=noise)
        assert trace.final_objective == [s for s in trace.steps if s.accepted][-1].objective_after


def per_sweep_reference(ev, bits, moves, passes, read=None):
    """The greedy sweep of one batch of one, as it ran before sweeps ran
    in lockstep batches, each move's change one vector-matrix product: the
    reference for `_sweep`. Returns (registers, trace steps) and flips
    `bits` in place."""
    reads = None if read is None else [read]

    def value(objective, sums):
        return float(ev.values(objective, sums, reads)[0])

    sums = ev.sums(bits)
    best = {obj: value(obj, sums) for obj in dict.fromkeys(m[3] for m in moves)}
    steps = []
    for iteration in range(1, passes + 1):
        for kind, index, half, objective, elements in moves:
            name, direction = OBJECTIVES[objective]
            candidate = sums + (_FLIP_SIGN[bits[elements]] @ ev.cascades[0, elements]).reshape(sums.shape)
            after = value(objective, candidate)
            accepted = _better(after, best[objective], direction)
            steps.append(TraceStep(
                kind, index, iteration, name, direction, best[objective], after, accepted, half
            ))
            if accepted:
                best[objective] = after
                sums = candidate
                bits[elements] ^= 1
    return best, steps


def reference_trace(method, ev, geometry, noise=None, passes=PASSES) -> dict:
    """`greedy_sweep`'s trace of one batch of one from all zeros, by
    `per_sweep_reference` over `passes` passes, as a dict."""
    objective_kind, build_moves = METHODS[method]
    read = None if noise is None else noise.reader()
    bits = np.zeros(geometry.num_elements, dtype=np.uint8)
    best, steps = per_sweep_reference(
        ev, bits, build_moves(geometry.n_v, geometry.n_h), passes, read
    )
    if objective_kind in best and read is not None:
        final_objective = best[objective_kind]
    else:
        final_objective = score(ev, objective_kind, bits, read)
    return {
        "final_config": RisConfig(bits, geometry.n_v, geometry.n_h).to_bitstring(),
        "final_objective": final_objective,
        "steps": [step.to_dict() for step in steps],
    }


def batch_instances(n, waveform, first_seed=0, n_v=4, n_h=6):
    """n placement pairs' channel sets on an n_v x n_h panel, from seeds
    `first_seed` on, on the transmit signal of the first seed. Every third
    set has zero cascades on `zero_elements`, so its column-1 and row-2
    moves tie."""
    sig = model_instance(first_seed, n_v, n_h, waveform=waveform)[1]
    channels = []
    for seed in range(first_seed, first_seed + n):
        ch = model_instance(seed, n_v, n_h, waveform=waveform)[0]
        assert np.array_equal(ch.freqs, sig.freqs)
        channels.append(zero_cascades(ch, zero_elements(n_v, n_h)) if seed % 3 == 2 else ch)
    return channels, sig


def lone_evaluators(channels, sig) -> list:
    """One batch of one per channel set: the per-sweep references score
    with these, not with the rows of the batch they check."""
    return [EvaluatorBatch([ch], MODEL, sig) for ch in channels]


class TestLockstepParity:
    """N sweeps in lockstep must give each row the trace, the bits and the
    noise draws its sweep gives alone, in the per-sweep reference."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @PANELS
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_rows_match_per_sweep_reference(self, method, n_v, n_h, waveform, noisy):
        geometry = panel(n_v, n_h)
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=3) if noisy else None
        for n in (1, 3, 7):
            channels, sig = batch_instances(n, waveform, n_v=n_v, n_h=n_h)
            batch = EvaluatorBatch(channels, MODEL, sig)
            traces = greedy_sweep(method, batch, geometry, noise=noise)
            assert isinstance(traces, TraceBatch) and len(traces) == n
            for ev, trace in zip(lone_evaluators(channels, sig), traces, strict=True):
                ref = reference_trace(method, ev, geometry, noise)
                got = trace.to_dict()
                assert len(got["steps"]) == len(ref["steps"])
                for g, r in zip(got["steps"], ref["steps"]):
                    decision = ("kind", "index", "half", "iteration", "accepted")
                    assert [g.get(k) for k in decision] == [r.get(k) for k in decision]
                    assert (g["objective_before"], g["objective_after"]) == (
                        r["objective_before"], r["objective_after"]
                    )
                assert got["final_config"] == ref["final_config"]
                assert got["final_objective"] == ref["final_objective"]
            assert traces.steps == [step for trace in traces for step in trace.steps]

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_noisy_rows_read_as_often_as_alone(self, method):
        # Each row reads from its own generator, ED before LU.
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=3)
        channels, sig = batch_instances(7, "tone")
        moves = METHODS[method][1](4, 6)

        def counted(i, log):
            read = noise.reader()

            def counting(signal):
                log[i].append(float(signal[0].real))
                return read(signal)

            return counting

        batch_log, alone_log = [[] for _ in channels], [[] for _ in channels]
        batch = EvaluatorBatch(channels, MODEL, sig)
        _sweep(batch, np.zeros(24, dtype=np.uint8), moves, 2, [counted(i, batch_log) for i in range(7)])
        for i, ev in enumerate(lone_evaluators(channels, sig)):
            per_sweep_reference(ev, np.zeros(24, dtype=np.uint8), moves, 2, counted(i, alone_log))
        assert batch_log == alone_log

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_lazy_views_match_per_sweep_reference(self, method, noisy):
        # Every row's dicts, accepted steps and replay come from its own
        # part of the shared log.
        geometry = panel(4, 6)
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=3) if noisy else None
        channels, sig = batch_instances(7, "prs")
        traces = greedy_sweep(method, EvaluatorBatch(channels, MODEL, sig), geometry, noise=noise)
        moves = METHODS[method][1](4, 6)
        for ev, trace in zip(lone_evaluators(channels, sig), traces, strict=True):
            got = trace.to_dict()
            ref = reference_trace(method, ev, geometry, noise)
            assert {k: got[k] for k in ref} == ref
            assert all(type(v) in (str, int, float, bool) for step in got["steps"] for v in step.values())
            assert got["initial_config"] == "0" * 24
            bits = np.zeros(24, dtype=np.uint8)
            _, steps = per_sweep_reference(ev, bits, moves, 2, None if noise is None else noise.reader())
            assert [s for s in trace.steps if s.accepted] == [s for s in steps if s.accepted]
            assert replay(trace) == RisConfig(bits, 4, 6) == trace.final_config


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: bit for bit, signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def vector_sums(cascades, bits) -> np.ndarray:
    """(2, K) sums of one set's (M, 2 * K) cascades over the elements set in
    `bits`, as one vector-matrix product: the per-set reference for the
    stacked product of `EvaluatorBatch.sums`."""
    return (np.asarray(bits, dtype=float) @ cascades).reshape(2, -1)


class TestEvaluatorBatch:
    """A batch's stacks are C-contiguous, row i of each equals the stack of
    a batch of set i alone bit for bit, the signal and element model are
    read once, and the batch sweeps as its channel sets do in batches of
    one."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @PANELS
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_shared_stack_matches_separate_evaluators(self, method, n_v, n_h, noisy):
        geometry = panel(n_v, n_h)
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=3) if noisy else None
        for n in (1, 3, 7):
            channels, sig = batch_instances(n, "prs", n_v=n_v, n_h=n_h)
            batch = EvaluatorBatch(channels, MODEL, sig)
            k = sig.num_subcarriers
            assert len(batch) == n
            assert batch.cascades.shape == (n, n_v * n_h, 2 * k) and batch.hd.shape == batch.w_sum.shape == (n, 2, k)
            assert all(stack.flags.c_contiguous for stack in (batch.cascades, batch.hd, batch.w_sum))
            assert batch.phi.shape == (k, 2) and batch.phi.flags.f_contiguous
            assert batch.x is sig.symbols
            for i, alone in enumerate(lone_evaluators(channels, sig)):
                for name in ("cascades", "hd", "w_sum"):
                    assert same_bits(getattr(batch, name)[i], getattr(alone, name)[0])
                assert same_bits(batch.x, alone.x) and same_bits(batch.phi, alone.phi)
            got = greedy_sweep(method, batch, geometry, noise=noise)
            assert all(len(g.passes) == PASSES for g in got)
            for g, ch in zip(got, channels, strict=True):
                alone = EvaluatorBatch([ch], MODEL, sig)
                (r,) = greedy_sweep(method, alone, geometry, noise=noise)
                assert g.to_dict() == r.to_dict()
                assert g.steps == r.steps
                assert np.array_equal(g.final_config.bits, r.final_config.bits)

    def test_batch_of_one_broadcasts_over_rows(self):
        # A lone set scores every row of a stack of sums, as the oracle
        # scores its blocks, each as it scores that row alone.
        channels, sig = batch_instances(1, "prs")
        ev = EvaluatorBatch(channels, MODEL, sig)
        assert len(ev) == 1 and ev.cascades.shape == (1, 24, 2 * sig.num_subcarriers)
        rows = np.random.default_rng(1).integers(0, 2, size=(5, 24), dtype=np.uint8)
        sums = np.concatenate([ev.sums(row) for row in rows])
        for objective in OBJECTIVES:
            values = ev.values(objective, sums)
            assert values.shape == (5,)
            assert [float(v) for v in values] == [score(ev, objective, row) for row in rows]

    def test_rows_must_share_the_subcarriers(self):
        channels, _ = batch_instances(2, "prs")
        with pytest.raises(ValueError, match="disagree on subcarrier frequencies"):
            EvaluatorBatch(channels, MODEL, single_tone_tx())

    def test_unknown_objective_rejected(self):
        channels, sig = batch_instances(2, "tone")
        batch = EvaluatorBatch(channels, MODEL, sig)
        with pytest.raises(ValueError, match="unknown objective 'snr'"):
            batch.values("snr", batch.sums(np.zeros(24, dtype=np.uint8)))

    @pytest.mark.parametrize("start", ["zeros", "shared", "per-row"])
    @pytest.mark.parametrize("n", [1, 3, 110])
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    def test_stack_sums_equal_row_sums(self, waveform, n, start):
        # The sweep's starting sums are one product over the cascade stack,
        # from one start vector for every row or one per row; each row's
        # must be its set's vector-matrix product, bit for bit.
        channels, sig = batch_instances(n, waveform)
        batch = EvaluatorBatch(channels, MODEL, sig)
        rng = np.random.default_rng(n)
        bits = {
            "zeros": np.zeros(24, dtype=np.uint8),
            "shared": rng.integers(0, 2, size=24, dtype=np.uint8),
            "per-row": rng.integers(0, 2, size=(n, 24), dtype=np.uint8),
        }[start]
        sums = batch.sums(bits)
        assert sums.shape == (n, 2, sig.num_subcarriers)
        rows = np.broadcast_to(bits, (n, 24))
        for alone, b, s in zip(lone_evaluators(channels, sig), rows, sums, strict=True):
            assert same_bits(s, vector_sums(alone.cascades[0], b))
        if start == "zeros":
            assert not sums.any()

    def test_codebook_batch_sums_equal_row_sums(self):
        # The 110 ordered pairs of an 11-sector tone codebook on the
        # default 32x32 panel, from all zeros, from one random start for
        # every row and from a random start per row.
        scen = Scenario()
        centers = [float(a) for a in range(-75, 76, 15)]
        pairs = [(scen.placement(lu), scen.placement(ed)) for lu in centers for ed in centers if lu != ed]
        sig = scen.tx_signal()
        channels = [scen.channels_for(lu, ed, sig.freqs) for lu, ed in pairs]
        batch = EvaluatorBatch(channels, scen.element_model, sig)
        assert len(batch) == 110
        rng = np.random.default_rng(0)
        for bits in (
            np.zeros(1024, dtype=np.uint8),
            rng.integers(0, 2, size=1024, dtype=np.uint8),
            rng.integers(0, 2, size=(110, 1024), dtype=np.uint8),
        ):
            rows = np.broadcast_to(bits, (110, 1024))
            for w, b, s in zip(batch.cascades, rows, batch.sums(bits), strict=True):
                assert same_bits(s, vector_sums(w, b))

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_end_state_rows_equal_batches_of_one(self, method, waveform, noisy):
        # `greedy_sweep` scores every row's end bits in one `values` call,
        # and `sweep_pairs` reads every row's powers in one `powers` call:
        # row i of each must be what a batch of set i alone reads, byte for
        # byte. Noisy rows read their final objective afresh when the
        # method's moves do not judge it, each from its own reader.
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=3) if noisy else None
        for n in (1, 7):
            channels, sig = batch_instances(n, waveform)
            batch = EvaluatorBatch(channels, MODEL, sig)
            traces = greedy_sweep(method, batch, panel(4, 6), noise=noise)
            bits = np.array([trace.final_config.bits for trace in traces])
            sums, powers = batch.sums(bits), batch.powers(bits)
            values = {objective: batch.values(objective, sums) for objective in OBJECTIVES}
            for i, (alone, trace) in enumerate(zip(lone_evaluators(channels, sig), traces, strict=True)):
                assert same_bits(sums[i], alone.sums(bits[i])[0])
                assert same_bits(powers[i], alone.powers(bits[i])[0])
                for objective, row_values in values.items():
                    assert same_bits(row_values[i:i + 1], alone.values(objective, alone.sums(bits[i])))
                if noise is None:
                    assert trace.final_objective == float(values[trace.objective_kind][i])


class TestResumedSweep:
    """A sweep from an end state, as the local-optimality audit runs one,
    goes on as the sweep that reached it would. For the one-objective
    methods a register always holds the value of the current bits, so one
    pass from the end bits of k passes decides as pass k + 1 does. (Not
    alg2: an ED move leaves its LU register as it was, so a fresh start
    reseeds that register with another value.)"""

    @pytest.mark.parametrize("seed", range(5))
    def test_pass_from_end_bits_is_the_next_pass(self, seed):
        channels, sig = model_instance(seed, 4, 6, waveform="prs")
        batch = EvaluatorBatch([channels], MODEL, sig)
        start = start_bits(24, seed)
        accepted = 0
        for method in ("alg1", "lu_max", "ed_min"):
            moves = METHODS[method][1](4, 6)
            for done in range(1, PASSES + 1):
                _, longer, (longer_bits,) = _sweep(batch, start, moves, done + 1)
                _, _, (end_bits,) = _sweep(batch, start, moves, done)
                _, resumed, (resumed_bits,) = _sweep(batch, end_bits, moves, 1)
                next_pass = [s for s in longer.steps(0) if s.iteration == done + 1]
                resumed = resumed.steps(0)
                assert [(s.kind, s.index, s.accepted) for s in resumed] == [
                    (s.kind, s.index, s.accepted) for s in next_pass
                ]
                for r, n in zip(resumed, next_pass):
                    assert r.objective_before == pytest.approx(n.objective_before, rel=1e-12, abs=0)
                    assert r.objective_after == pytest.approx(n.objective_after, rel=1e-12, abs=0)
                assert np.array_equal(resumed_bits, longer_bits)
                accepted += sum(s.accepted for s in resumed)
        assert accepted


class TestPassSummaries:
    @pytest.mark.parametrize("waveform", ["tone", "prs"])
    @PANELS
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_passes_summarize_the_steps(self, method, n_v, n_h, waveform):
        channels, sig = batch_instances(7, waveform, n_v=n_v, n_h=n_h)
        for trace in greedy_sweep(method, EvaluatorBatch(channels, MODEL, sig), panel(n_v, n_h)):
            summaries = trace.passes
            assert [p.iteration for p in summaries] == sorted({s.iteration for s in trace.steps})
            assert len(summaries) == PASSES
            assert sum(p.accepted for p in summaries) == sum(s.accepted for s in trace.steps)
            for p in summaries:
                upto = [s for s in trace.steps if s.iteration <= p.iteration]
                assert p.accepted == sum(s.accepted for s in upto if s.iteration == p.iteration)
                assert p.registers.keys() == {s.objective for s in upto}
                for name, value in p.registers.items():
                    accepted = [s for s in upto if s.objective == name and s.accepted]
                    initial = next(s for s in upto if s.objective == name).objective_before
                    assert value == (accepted[-1].objective_after if accepted else initial)


class TestAlgorithm2:
    def test_dead_ed_link_never_accepts_ed_steps(self):
        ch = handmade_channels(0.3, 0.0, w_lu=[1.0, -1.0, 0.5j, 0.2], w_ed=[0.0, 0.0, 0.0, 0.0])
        trace = sweep_one("alg2", ch, MODEL, single_tone_tx(), panel(2, 2))
        ed_steps = [s for s in trace.steps if s.objective == "ed_power"]
        assert ed_steps and all(not s.accepted for s in ed_steps)
        lu_accepted = [s for s in trace.steps if s.objective == "lu_power" and s.accepted]
        # LU half behaves like a pure power greedy over its own moves.
        ref = sweep_one("lu_max", ch, MODEL, single_tone_tx(), panel(2, 2))
        assert ref.final_objective >= max(
            (s.objective_after for s in lu_accepted), default=0.0
        )

    def test_two_by_two_hand_simulation(self):
        # Independent re-execution of the documented sweep with scalar
        # arithmetic only.
        w_lu = [1.0 + 0.0j, 0.3j, -0.8 + 0.0j, 0.5 + 0.5j]
        w_ed = [0.6 + 0.0j, -0.4j, 0.25 + 0.0j, -0.7 + 0.0j]
        hd_lu, hd_ed = 0.2 + 0.0j, 0.5 + 0.1j
        ch = handmade_channels(hd_lu, hd_ed, w_lu=w_lu, w_ed=w_ed)

        def power(bits, w, hd):
            eff = hd
            for b, wm in zip(bits, w):
                eff += (-1.0 if b else 1.0) * wm
            return abs(eff) ** 2

        bits = [0, 0, 0, 0]  # row-major: (0,0) (0,1) (1,0) (1,1)
        p_lu = power(bits, w_lu, hd_lu)
        p_ed = power(bits, w_ed, hd_ed)
        col = {0: [0, 2], 1: [1, 3]}
        left_half_row = {0: [0], 1: [2]}
        right_half_row = {0: [1], 1: [3]}

        def flip(positions):
            for i in positions:
                bits[i] ^= 1

        for _ in range(2):  # two passes
            flip(col[0])  # LU column
            cand = power(bits, w_lu, hd_lu)
            if cand > p_lu:
                p_lu = cand
            else:
                flip(col[0])
            flip(col[1])  # ED column
            cand = power(bits, w_ed, hd_ed)
            if cand < p_ed:
                p_ed = cand
            else:
                flip(col[1])
            for row in (0, 1):
                flip(left_half_row[row])
                cand = power(bits, w_lu, hd_lu)
                if cand > p_lu:
                    p_lu = cand
                else:
                    flip(left_half_row[row])
                flip(right_half_row[row])
                cand = power(bits, w_ed, hd_ed)
                if cand < p_ed:
                    p_ed = cand
                else:
                    flip(right_half_row[row])

        trace = sweep_one("alg2", ch, MODEL, single_tone_tx(), panel(2, 2))
        assert trace.final_config.bits.tolist() == bits
        lu_steps = [s for s in trace.steps if s.objective == "lu_power" and s.accepted]
        ed_steps = [s for s in trace.steps if s.objective == "ed_power" and s.accepted]
        final_lu = lu_steps[-1].objective_after if lu_steps else power([0] * 4, w_lu, hd_lu)
        final_ed = ed_steps[-1].objective_after if ed_steps else power([0] * 4, w_ed, hd_ed)
        assert final_lu == pytest.approx(p_lu, rel=1e-12)
        assert final_ed == pytest.approx(p_ed, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_discipline(self, seed):
        channels, sig = model_instance(seed, 4, 4)
        geom = panel(4, 4)
        trace = sweep_one("alg2", channels, MODEL, sig, geom)
        split = geom.n_h // 2
        cfg = trace.initial_config.copy()
        for step in (s for s in trace.steps if s.accepted):
            nxt = RisConfig(flip(cfg.bits, geom.n_h, step.kind, step.index, step.half), 4, 4)
            changed_cols = sorted({i % geom.n_h for i in np.flatnonzero(nxt.bits != cfg.bits)})
            if step.objective == "lu_power":
                assert all(c < split for c in changed_cols)
            else:
                assert all(c >= split for c in changed_cols)
            cfg = nxt

    def test_odd_width_rejected(self):
        channels, sig = model_instance(0, 2, 3)
        with pytest.raises(ValueError):
            sweep_one("alg2", channels, MODEL, sig, panel(2, 3))


class TestBaselines:
    @pytest.mark.parametrize("seed", range(5))
    def test_lu_max_never_below_start(self, seed):
        channels, sig = model_instance(seed, 3, 4)
        ev = EvaluatorBatch([channels], MODEL, sig)
        start = score(ev, "lu_power_max", RisConfig.zeros(3, 4).bits)
        trace = sweep_one("lu_max", channels, MODEL, sig, panel(3, 4))
        assert trace.final_objective >= start

    def test_ed_min_dead_link_makes_no_moves(self):
        ch = handmade_channels(0.3, 0.0, w_lu=[1.0, 1.0], w_ed=[0.0, 0.0])
        trace = sweep_one("ed_min", ch, MODEL, single_tone_tx(), panel(1, 2))
        assert not any(s.accepted for s in trace.steps)

    def test_lu_max_usually_beats_ratio_objective_on_lu_power(self):
        wins = 0
        draws = 100
        for seed in range(draws):
            channels, sig = model_instance(seed, 3, 4)
            ev = EvaluatorBatch([channels], MODEL, sig)
            p_lu_max = score(ev, "lu_power_max", sweep_one("lu_max", channels, MODEL, sig, panel(3, 4)).final_config.bits)
            p_alg1 = score(ev, "lu_power_max", algorithm1(channels, MODEL, sig, panel(3, 4)).final_config.bits)
            if p_lu_max >= p_alg1:
                wins += 1
        print(f"lu_max LU power >= alg1 LU power in {wins}/{draws} draws")
        assert wins > draws // 2


class TestZeroEavesdropperPower:
    def test_evaluator_reports_infinite_ratio(self):
        # The metric itself signals division by zero; ranking treats it as
        # +inf so sweeps over dead eavesdropper links still run.
        ch = handmade_channels(1.0, 0.0, w_lu=[1.0, 1.0], w_ed=[0.0, 0.0])
        ev = EvaluatorBatch([ch], MODEL, single_tone_tx())
        assert score(ev, "ratio", RisConfig.zeros(1, 2).bits) == math.inf
        trace = algorithm1(ch, MODEL, single_tone_tx(), panel(1, 2))
        assert trace.final_objective == math.inf
        assert replay(trace) == trace.final_config


class TestUniform:
    def test_all_zero_bits(self):
        cfg = RisConfig.zeros(2, 2)
        assert cfg.to_bitstring() == "0000"
        assert cfg.bits.size == 4

    def test_uniform_response_is_unit(self):
        phi = reflection_coefficients(MODEL, [3.55e9])[:, RisConfig.zeros(2, 2).bits]
        np.testing.assert_allclose(phi, 1.0, atol=1e-15)


class TestReceivedSignal:
    """The receive equation on hand-set cascades w = h * g and the ideal
    coefficients phi(0) = 1, phi(1) = -1 unless drawn at random."""

    PHI = np.array([[1.0, -1.0]], dtype=complex)

    def test_perfect_cancellation(self):
        one = np.ones(1, dtype=complex)
        y = received_signal(one, self.PHI, w_sum=one, on=one, x=one)
        assert y[0] == pytest.approx(0.0, abs=1e-15)

    def test_passthrough(self):
        one = np.ones(1, dtype=complex)
        y = received_signal(np.zeros(1, complex), self.PHI, w_sum=one, on=np.zeros(1, complex), x=one)
        assert y[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_summation(self, seed):
        # Independent oracle: plain python loop over elements.
        rng = np.random.default_rng(seed)
        k, m = 2, 3

        def c(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h_d, h, g, phi, x = c(k), c(k, m), c(k, m), c(k, 2), c(k)
        bits = rng.integers(0, 2, m)
        w = h * g
        y = received_signal(h_d, phi, w.sum(axis=1), w @ bits.astype(float), x)
        for v in range(k):
            expected = h_d[v]
            for i in range(m):
                expected += h[v, i] * phi[v, bits[i]] * g[v, i]
            expected *= x[v]
            assert abs(y[v] - expected) <= 1e-12 * abs(expected)

    def test_linearity_in_x(self):
        h_d = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        phi, w_sum, on = np.ones((2, 2), complex), np.full(2, 2.0 + 0j), np.ones(2, complex)
        y1 = received_signal(h_d, phi, w_sum, on, np.ones(2, complex))
        y2 = received_signal(h_d, phi, w_sum, on, np.full(2, 2.0 + 0j))
        np.testing.assert_array_equal(y2, 2.0 * y1)


class TestExhaustiveOracle:
    def test_single_element_hand_case(self):
        # c=0 reflects +1: |1 + 1|^2 = 4. c=1 reflects -1: |1 - 1|^2 = 0.
        ch = handmade_channels(1.0, 1.0, w_lu=[1.0], w_ed=[1.0])
        cfg, value = exhaustive_oracle(ch, MODEL, single_tone_tx(), "lu_power_max", panel(1, 1))
        assert cfg.to_bitstring() == "0"
        assert value == pytest.approx(4.0, rel=1e-12)

    def test_symmetric_tie_breaks_to_zeros(self):
        # |1 + 2*0.5j|^2 == |1 - 2*0.5j|^2: 00 ties 11 and wins lexicographically.
        ch = handmade_channels(1.0, 1.0, w_lu=[0.5j, 0.5j], w_ed=[0.5j, 0.5j])
        cfg, value = exhaustive_oracle(ch, MODEL, single_tone_tx(), "lu_power_max", panel(1, 2))
        assert cfg.to_bitstring() == "00"
        assert value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_greedy(self, seed):
        channels, sig = model_instance(seed, 2, 3)
        geom = panel(2, 3)
        _, best = exhaustive_oracle(channels, MODEL, sig, "ratio", geom)
        trace = algorithm1(channels, MODEL, sig, geom)
        assert best >= trace.final_objective

    def test_min_objective_direction(self):
        channels, sig = model_instance(3, 2, 2)
        geom = panel(2, 2)
        _, best = exhaustive_oracle(channels, MODEL, sig, "ed_power_min", geom)
        trace = sweep_one("ed_min", channels, MODEL, sig, geom)
        assert best <= trace.final_objective

    def test_large_panel_rejected(self):
        channels, sig = model_instance(0, 5, 5)
        with pytest.raises(ValueError):
            exhaustive_oracle(channels, MODEL, sig, "ratio", panel(5, 5))

    def test_unknown_objective_rejected(self):
        channels, sig = model_instance(0, 2, 2)
        with pytest.raises(ValueError):
            exhaustive_oracle(channels, MODEL, sig, "snr", panel(2, 2))


def per_row_oracle(channels, element_model, tx, objective, geometry):
    """The exhaustive scan scored one candidate at a time on a batch of
    one: the slow reference for `exhaustive_oracle`."""
    m = geometry.num_elements
    ev = EvaluatorBatch([channels], element_model, tx)
    direction = OBJECTIVES[objective][1]
    best_bits = None
    best_value = -math.inf if direction == "max" else math.inf
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    ints = np.arange(1 << m, dtype=np.uint64)
    for row in ((ints[:, None] >> shifts[None, :]) & 1).astype(np.uint8):
        value = score(ev, objective, row)
        if _better(value, best_value, direction):
            best_value = value
            best_bits = row.copy()
    return RisConfig(best_bits, geometry.n_v, geometry.n_h), float(best_value)


def assert_oracle_parity(channels, sig, geom):
    for objective in OBJECTIVES:
        fast = exhaustive_oracle(channels, MODEL, sig, objective, geom)
        slow = per_row_oracle(channels, MODEL, sig, objective, geom)
        assert fast[0] == slow[0], objective
        assert fast[1] == slow[1], objective


@pytest.fixture
def scalar_calls(monkeypatch):
    """One entry per `EvaluatorBatch.sums` call: the oracle's scalar re-scores."""
    calls = []
    sums = EvaluatorBatch.sums
    monkeypatch.setattr(EvaluatorBatch, "sums", lambda ev, bits: calls.append(1) or sums(ev, bits))
    return calls


class TestBlockOracleParity:
    @pytest.mark.parametrize(
        "n_v, n_h, waveform, seeds",
        [
            (1, 1, "tone", range(3)),
            (1, 2, "tone", range(3)),
            (2, 3, "tone", range(3)),
            (4, 4, "tone", range(1)),
            (3, 3, "prs", range(2)),
        ],
    )
    def test_matches_per_row_scan(self, n_v, n_h, waveform, seeds):
        for seed in seeds:
            channels, sig = model_instance(seed, n_v, n_h, waveform=waveform)
            assert_oracle_parity(channels, sig, panel(n_v, n_h))

    @pytest.mark.parametrize("element", [0, 2, 5])
    def test_exact_tie_resolves_to_smallest_bit_string(self, element):
        # A zero cascade makes the element's two states tie exactly, so the
        # winner must leave it at 0.
        channels, sig = model_instance(4, 2, 3)
        h_ris_lu, h_ris_ed = channels.h_ris_lu.copy(), channels.h_ris_ed.copy()
        h_ris_lu[:, element] = 0.0
        h_ris_ed[:, element] = 0.0
        tied = ChannelSet(
            channels.freqs, channels.h_d_lu, channels.h_d_ed, h_ris_lu, h_ris_ed, channels.g_ris
        )
        for objective in OBJECTIVES:
            cfg, value = exhaustive_oracle(tied, MODEL, sig, objective, panel(2, 3))
            assert cfg.bits[element] == 0
            flipped = cfg.bits.copy()
            flipped[element] = 1
            assert score(EvaluatorBatch([tied], MODEL, sig), objective, flipped) == value
        assert_oracle_parity(tied, sig, panel(2, 3))

    def test_zero_ed_power_yields_inf(self):
        # p_ed is 0 everywhere; "00" has p_lu = 0 too (nan), "01" is the
        # first inf.
        ch = handmade_channels(-2.0, 0.0, w_lu=[1.0, 1.0], w_ed=[0.0, 0.0])
        assert_oracle_parity(ch, single_tone_tx(), panel(1, 2))
        cfg, value = exhaustive_oracle(ch, MODEL, single_tone_tx(), "ratio", panel(1, 2))
        assert cfg.to_bitstring() == "01"
        assert value == math.inf

    def test_no_comparable_objective_is_rejected(self):
        ch = handmade_channels(0.0, 0.0, w_lu=[0.0, 0.0], w_ed=[0.0, 0.0])
        with pytest.raises(ValueError, match="no configuration has a comparable"):
            exhaustive_oracle(ch, MODEL, single_tone_tx(), "ratio", panel(1, 2))

    @pytest.mark.parametrize("waveform, n_v, n_h", [("tone", 2, 3), ("prs", 3, 3)])
    def test_ill_conditioned_ed_minimum(self, waveform, n_v, n_h):
        # The ED direct link cancels the panel's ED term at one configuration
        # to 1e-6 of its amplitude, so the ED minimum lies 120 dB below the
        # in-phase power, where rounding is largest against the value.
        channels, sig = model_instance(5, n_v, n_h, waveform=waveform)
        ev = EvaluatorBatch([channels], MODEL, sig)
        target = np.random.default_rng(5).integers(0, 2, size=n_v * n_h, dtype=np.uint8)
        on = ev.sums(target)[0, 1]
        panel_term = ev.phi[:, 0] * (ev.w_sum[0, 1] - on) + ev.phi[:, 1] * on
        cancelled = ChannelSet(
            channels.freqs, channels.h_d_lu, -panel_term * (1 + 1e-6), channels.h_ris_lu,
            channels.h_ris_ed, channels.g_ris,
        )
        assert_oracle_parity(cancelled, sig, panel(n_v, n_h))
        cfg, value = exhaustive_oracle(cancelled, MODEL, sig, "ed_power_min", panel(n_v, n_h))
        np.testing.assert_array_equal(cfg.bits, target)
        in_phase = np.abs(cancelled.h_d_ed) + np.abs(channels.h_ris_ed * channels.g_ris).sum(axis=1)
        assert value <= 1e-10 * ((in_phase * np.abs(sig.symbols)) ** 2).sum()

    def test_degenerate_panel_rescores_few_rows(self, scalar_calls):
        # A zero ED channel makes every ED power exactly 0: each ratio is
        # inf (nan for all zeros, whose LU power cancels too) and each ED
        # power ties. The bounds see it, so the scalar path runs at most
        # twice, not once per row.
        ch = handmade_channels(-16.0, 0.0, w_lu=np.ones(16), w_ed=np.zeros(16))
        for objective, bits, expected in [("ratio", "0" * 15 + "1", math.inf), ("ed_power_min", "0" * 16, 0.0)]:
            scalar_calls.clear()
            cfg, value = exhaustive_oracle(ch, MODEL, single_tone_tx(), objective, panel(4, 4))
            assert (cfg.to_bitstring(), value) == (bits, expected)
            assert len(scalar_calls) <= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_generic_panel_rescores_at_most_one_row_per_block(self, seed, scalar_calls):
        # On a 4x4 tone panel a block holds 4096 candidates. Only a row
        # that may beat both the running best and its block's best is
        # scored again, which a generic panel offers about once a block.
        channels, sig = model_instance(seed, 4, 4)
        for objective in OBJECTIVES:
            scalar_calls.clear()
            exhaustive_oracle(channels, MODEL, sig, objective, panel(4, 4))
            assert 1 <= len(scalar_calls) <= 16

    def test_nan_bound_admits_the_candidate(self):
        # LU is 0 everywhere, so every ratio is 0 or nan. "00" leaves an ED
        # signal of about 1e-15, inside E, so its ratio's upper bound is
        # 0 / 0; it must still be scored, and wins with 0.
        ch = handmade_channels(0.0, -2.0 + 1e-15, w_lu=[0.0, 0.0], w_ed=[1.0, 1.0])
        assert_oracle_parity(ch, single_tone_tx(), panel(1, 2))
        cfg, value = exhaustive_oracle(ch, MODEL, single_tone_tx(), "ratio", panel(1, 2))
        assert (cfg.to_bitstring(), value) == ("00", 0.0)

    def test_block_values_track_scalar_values(self):
        # Every candidate's objective from the oracle's block signals
        # (`_candidate_signals` through `_objective`), and from `values` of
        # a batch's rows at once, as `_sweep` scores them, against one
        # configuration at a time.
        channels, sig = model_instance(2, 2, 3, waveform="prs")
        ev = EvaluatorBatch([channels], MODEL, sig)
        rows = ((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1).astype(np.uint8)
        many = EvaluatorBatch([channels] * len(rows), MODEL, sig)
        for objective in OBJECTIVES:
            name = OBJECTIVES[objective][0]
            scalar = [score(ev, objective, row) for row in rows]
            signals = _candidate_signals(ev, 6, _RECEIVERS[name])
            blocks = [_objective(name, np.moveaxis(y, -1, 0)) for _, y, _ in signals]
            np.testing.assert_allclose(np.concatenate(blocks), scalar, rtol=1e-12, atol=0)
            np.testing.assert_allclose(many.values(objective, many.sums(rows)), scalar, rtol=1e-12, atol=0)


def bound_instance(seed):
    """A random channel set of at most 10 elements on up to 4 subcarriers,
    with cascades from 1e-8 to 1e8 in magnitude and a dispersive element
    model. For odd seeds the direct links cancel, to 1e-13 of its size, the
    panel's term at a configuration with half its elements set."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 11)), int(rng.integers(1, 5))

    def draw(*shape):
        return 10.0 ** rng.uniform(-8, 8, shape) * np.exp(2j * np.pi * rng.random(shape))

    model = ElementModel(
        mode="lorentzian", phase_at_center=(0.3, 2.9), amplitude=0.8, resonance_hz=3.6e9, quality_factor=20.0
    )
    sig = TxSignal("prs", CARRIER + 30e6 * np.arange(k), draw(k))
    w_lu, w_ed, h_d = draw(k, m), draw(k, m), draw(2, k)
    if seed % 2:
        half = np.zeros(m, dtype=bool)
        half[rng.permutation(m)[: m // 2]] = True
        phi = reflection_coefficients(model, sig.freqs)
        for r, w in enumerate((w_lu, w_ed)):
            term = phi[:, 0] * w[:, ~half].sum(axis=1) + phi[:, 1] * w[:, half].sum(axis=1)
            h_d[r] = -term * (1 + 1e-13 * np.exp(2j * np.pi * rng.random(k)))
    return ChannelSet(sig.freqs, h_d[0], h_d[1], w_lu, w_ed, np.ones((k, m))), model, sig


def bound_gap(seed, receivers=slice(0, 2)) -> float:
    """The largest |y_block - y_scalar| / E of `bound_instance(seed)`, over
    every candidate, subcarrier and one or both receivers: block signals from
    `_candidate_signals`, scalar ones from `EvaluatorBatch.sums` and the
    receive equation, as `values` computes them. Also checks that the
    blocks enumerate every candidate, in order."""
    channels, model, sig = bound_instance(seed)
    ev = EvaluatorBatch([channels], model, sig)
    m = channels.g_ris.shape[1]
    seen, gap = 0, 0.0
    for first, y, e in _candidate_signals(ev, m, receivers):
        assert first == seen
        seen += y.shape[-1]
        ints = np.arange(first, seen)
        bits = ((ints[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)
        y_scalar = [received_signal(ev.hd, ev.phi, ev.w_sum, ev.sums(b), ev.x)[0, receivers] for b in bits]
        gap = max(gap, (np.abs(y - np.stack(y_scalar, axis=-1)) / e).max())
    assert seen == 1 << m
    return gap


class TestOracleBound:
    @pytest.mark.parametrize("seed", range(40))
    def test_block_signals_within_bound_of_scalar_signals(self, seed):
        # The exactness of `exhaustive_oracle` rests on this.
        assert bound_gap(seed) <= 1.0

    @pytest.mark.parametrize("receiver", [0, 1])
    @pytest.mark.parametrize("seed", range(40))
    def test_one_receiver_within_bound_of_scalar_signals(self, seed, receiver):
        # A single-power objective's blocks hold the one receiver it reads.
        assert bound_gap(seed, receiver) <= 1.0

    def test_bound_is_not_vacuous(self):
        # The two paths do differ, so the test above checks real gaps.
        assert max(bound_gap(seed) for seed in range(10)) > 0.0


class TestMeasurementNoise:
    def test_zero_noise_reads_exact_powers(self):
        channels, sig = batch_instances(3, "prs")
        batch = EvaluatorBatch(channels, MODEL, sig)
        silent = MeasurementNoise(n0=0.0, averages=3, seed=1)
        for method in sorted(METHODS):
            exact = greedy_sweep(method, batch, panel(4, 6))
            zero = greedy_sweep(method, batch, panel(4, 6), noise=silent)
            assert [t.to_dict() for t in zero] == [t.to_dict() for t in exact]

    def test_noisy_mode_changes_decisions_deterministically(self):
        channels, sig = model_instance(7, 3, 4)
        noise = MeasurementNoise(n0=1e-9, averages=2, seed=11)
        a = algorithm1(channels, MODEL, sig, panel(3, 4), noise=noise)
        b = algorithm1(channels, MODEL, sig, panel(3, 4), noise=noise)
        assert a.to_dict() == b.to_dict()
        assert replay(a) == a.final_config

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementNoise(n0=-1.0)
        with pytest.raises(ValueError):
            MeasurementNoise(n0=1.0, averages=0)

