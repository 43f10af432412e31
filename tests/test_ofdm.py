import numpy as np
import pytest

from ris_pls.ofdm import MAX_NUM_RB, Numerology, TxSignal, build_prs_grid, prs_signal, tone_signal

CARRIER = 3.55e9


class TestNumerology:
    @pytest.mark.parametrize("mu", range(5))
    def test_spacing(self, mu):
        assert Numerology(mu=mu).subcarrier_spacing_hz == 2**mu * 15_000.0

    def test_extended_cp_symbol_count(self):
        assert Numerology(mu=2, cp_mode="extended").symbols_per_slot == 12
        assert Numerology(mu=2, cp_mode="normal").symbols_per_slot == 14

    def test_validation(self):
        with pytest.raises(ValueError):
            Numerology(mu=5)
        with pytest.raises(ValueError):
            Numerology(cp_mode="short")


class TestPrsGrid:
    def test_reference_dimensions(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=52, seed=0)
        assert grid.num_subcarriers == 624
        assert int(grid.occupied_mask.sum()) == 312
        assert grid.bandwidth_hz == 37_440_000.0

    def test_single_rb_occupancy(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=1, seed=0)
        assert grid.occupied_per_rb == 6
        assert int(grid.occupied_mask.sum()) == 6

    def test_occupied_symbols_unit_modulus(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=4, seed=3)
        occupied = grid.symbols[grid.occupied_mask]
        np.testing.assert_allclose(np.abs(occupied), 1.0, atol=1e-12)
        assert np.all(grid.symbols[~grid.occupied_mask] == 0)

    def test_mu_zero_rejected(self):
        with pytest.raises(ValueError):
            build_prs_grid(Numerology(mu=0), num_rb=4)

    def test_resource_blocks_bounded_by_a_carrier(self):
        assert MAX_NUM_RB == 275
        assert build_prs_grid(Numerology(mu=2), num_rb=MAX_NUM_RB).num_subcarriers == 3300
        for num_rb in (0, MAX_NUM_RB + 1, 101010101010101):
            with pytest.raises(ValueError, match="resource blocks"):
                build_prs_grid(Numerology(mu=2), num_rb=num_rb)

    def test_comb_evenly_spaced(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=0)
        occupied = np.flatnonzero(grid.occupied_mask)
        assert np.all(np.diff(occupied) == 2)

    @pytest.mark.parametrize("mu,rb", [(1, 4), (2, 52), (3, 10), (4, 7)])
    def test_bandwidth_arithmetic(self, mu, rb):
        grid = build_prs_grid(Numerology(mu=mu), num_rb=rb, seed=0)
        assert grid.bandwidth_hz == rb * 12 * 2**mu * 15_000.0

    def test_grid_is_seeded(self):
        a = build_prs_grid(Numerology(mu=2), num_rb=2, seed=1)
        b = build_prs_grid(Numerology(mu=2), num_rb=2, seed=1)
        c = build_prs_grid(Numerology(mu=2), num_rb=2, seed=2)
        np.testing.assert_array_equal(a.symbols, b.symbols)
        assert not np.array_equal(a.symbols, c.symbols)


class TestToneSignal:
    def test_tone_occupies_single_nearest_bin(self):
        sig = tone_signal(Numerology(mu=2), CARRIER, offset_hz=100e3)
        assert sig.num_subcarriers == 1
        # 100 kHz rounds to the +120 kHz bin at 60 kHz spacing
        assert sig.freqs[0] == CARRIER + 120e3

    def test_tone_invariant_enforced(self):
        with pytest.raises(ValueError):
            TxSignal(
                mode="tone",
                freqs=np.array([CARRIER, CARRIER + 60e3]),
                symbols=np.ones(2, complex),
            )


class TestPrsSignal:
    def test_prs_signal_extraction(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=4)
        sig = prs_signal(grid)
        mask = grid.occupied_mask
        # The draw fills a slot of symbols; the signal reads its first.
        assert grid.symbols.shape == (grid.num_subcarriers, grid.numerology.symbols_per_slot)
        np.testing.assert_array_equal(sig.symbols, grid.symbols[mask, 0])
        np.testing.assert_array_equal(sig.freqs, grid.subcarrier_freqs()[mask])
        assert sig.freqs.size == 12
