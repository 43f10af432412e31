import math

import numpy as np
import pytest

from ris_pls.ofdm import (
    Numerology,
    ResourceGrid,
    TxSignal,
    build_prs_grid,
    demodulate,
    modulate,
    prs_signal,
    read_iq,
    tone_signal,
    write_iq,
)

CARRIER = 3.55e9


class TestNumerology:
    @pytest.mark.parametrize("mu", range(5))
    def test_spacing(self, mu):
        assert Numerology(mu=mu).subcarrier_spacing_hz == 2**mu * 15_000.0

    def test_extended_cp_symbol_count(self):
        assert Numerology(mu=2, cp_mode="extended").symbols_per_slot == 12
        assert Numerology(mu=2, cp_mode="normal").symbols_per_slot == 14

    def test_slots_per_subframe(self):
        assert Numerology(mu=3).slots_per_subframe == 8

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
        np.testing.assert_array_equal(sig.bins, [0])
        # 100 kHz rounds to the +120 kHz bin at 60 kHz spacing
        assert sig.freqs[0] == CARRIER + 120e3

    def test_tone_invariant_enforced(self):
        with pytest.raises(ValueError):
            TxSignal(
                mode="tone",
                freqs=np.array([CARRIER, CARRIER + 60e3]),
                symbols=np.ones(2, complex),
                bins=np.arange(2),
            )


class TestModem:
    def test_round_trip(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=52, seed=9)
        back = demodulate(modulate(grid), grid.numerology, grid.num_resource_blocks)
        err = np.abs(back.symbols - grid.symbols).max()
        scale = np.abs(grid.symbols).max()
        assert err <= 1e-9 * scale
        np.testing.assert_array_equal(back.occupied_mask, grid.occupied_mask)

    def test_all_zero_grid(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=0)
        grid.symbols[:] = 0.0
        samples = modulate(grid)
        assert np.all(samples == 0)

    def test_single_bin_is_complex_exponential(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=1, seed=0)
        grid.symbols[:] = 0.0
        bin_index = 8  # arbitrary occupied position
        grid.symbols[bin_index, :] = 1.0
        nfft = 16
        cp = 4
        samples = modulate(grid)
        body = samples[cp : cp + nfft]
        # Closed form: the IDFT of a delta at fft bin (k - K//2) mod nfft.
        fft_bin = (bin_index - grid.num_subcarriers // 2) % nfft
        n = np.arange(nfft)
        ref = np.exp(2j * math.pi * fft_bin * n / nfft) / math.sqrt(nfft)
        proj = np.vdot(ref, body)
        assert abs(proj) ** 2 / np.vdot(body, body).real > 0.999

    def test_parseval(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=4, seed=5)
        nfft = 64
        cp = 16
        samples = modulate(grid).reshape(grid.num_symbols, nfft + cp)
        for s in range(grid.num_symbols):
            time_energy = np.sum(np.abs(samples[s, cp:]) ** 2)
            freq_energy = np.sum(np.abs(grid.symbols[:, s]) ** 2)
            assert time_energy == pytest.approx(freq_energy, rel=1e-9)

    def test_truncated_stream_rejected(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=0)
        samples = modulate(grid)
        with pytest.raises(ValueError):
            demodulate(samples[:-3], grid.numerology, grid.num_resource_blocks)

    def test_normal_cp_not_supported(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=1, seed=0)
        bad = ResourceGrid(
            numerology=Numerology(mu=2, cp_mode="normal"),
            num_resource_blocks=1,
            occupied_per_rb=grid.occupied_per_rb,
            occupied_mask=grid.occupied_mask,
            symbols=np.zeros((12, 14), complex),
            center_freq_hz=CARRIER,
        )
        with pytest.raises(ValueError):
            modulate(bad)

    def test_prs_signal_extraction(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=4)
        sig = prs_signal(grid, symbol_index=3)
        mask = grid.occupied_mask
        np.testing.assert_array_equal(sig.symbols, grid.symbols[mask, 3])
        np.testing.assert_array_equal(sig.freqs, grid.subcarrier_freqs()[mask])
        np.testing.assert_array_equal(sig.bins, np.flatnonzero(mask))
        assert sig.freqs.size == 12
        with pytest.raises(IndexError):
            prs_signal(grid, symbol_index=99)


class TestGridSerialization:
    def test_dict_round_trip(self):
        grid = build_prs_grid(Numerology(mu=2), num_rb=2, seed=7)
        back = ResourceGrid.from_dict(grid.to_dict())
        np.testing.assert_array_equal(back.symbols, grid.symbols)
        np.testing.assert_array_equal(back.occupied_mask, grid.occupied_mask)
        assert back.numerology == grid.numerology
        assert back.bandwidth_hz == grid.bandwidth_hz

    def test_csv_export(self, tmp_path):
        grid = build_prs_grid(Numerology(mu=2), num_rb=1, seed=0)
        path = tmp_path / "grid.csv"
        grid.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=resource-grid-v1"
        assert lines[1] == "subcarrier,symbol,re,im"
        assert len(lines) == 2 + grid.num_subcarriers * grid.num_symbols
        v, s, re, im = lines[2].split(",")
        assert (int(v), int(s)) == (0, 0)
        assert complex(float(re), float(im)) == grid.symbols[0, 0]


class TestIqFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        path = tmp_path / "stream.iq"
        write_iq(samples, path)
        back = read_iq(path)
        np.testing.assert_allclose(back, samples, atol=1e-6)

    def test_odd_file_rejected(self, tmp_path):
        path = tmp_path / "bad.iq"
        np.zeros(3, dtype="<f4").tofile(path)
        with pytest.raises(ValueError):
            read_iq(path)
