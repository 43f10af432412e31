import math

import numpy as np
import pytest

from ris_pls.ris import (
    DEFAULT_ELEMENT_SPACING_M,
    ElementModel,
    RisArrayGeometry,
    RisConfig,
    build_response,
    flip_column,
    flip_half_row,
    flip_row,
)


class TestGeometry:
    def test_default_panel_is_four_tiles(self):
        geom = RisArrayGeometry()
        assert (geom.n_v, geom.n_h) == (32, 32)
        assert geom.num_elements == 1024
        assert (geom.n_v // geom.tile_rows) * (geom.n_h // geom.tile_cols) == 4

    def test_default_spacing_is_half_wavelength(self):
        assert DEFAULT_ELEMENT_SPACING_M == pytest.approx(0.042224, abs=1e-5)

    def test_alternative_tiling(self):
        geom = RisArrayGeometry(n_v=16, n_h=64)
        assert geom.num_elements == 1024

    def test_untileable_panel_rejected(self):
        with pytest.raises(ValueError):
            RisArrayGeometry(n_v=17, n_h=32)

    def test_element_positions_row_major(self):
        geom = RisArrayGeometry(n_v=2, n_h=2, element_spacing_m=1.0, tile_rows=1, tile_cols=1)
        pos = geom.element_positions()
        assert pos.shape == (4, 3)
        # row 0 (top) first, columns left to right
        np.testing.assert_allclose(pos[0], [-0.5, 0.0, 0.5])
        np.testing.assert_allclose(pos[1], [0.5, 0.0, 0.5])
        np.testing.assert_allclose(pos[2], [-0.5, 0.0, -0.5])
        np.testing.assert_allclose(pos[3], [0.5, 0.0, -0.5])


class TestConfig:
    def test_zeros_and_size(self):
        cfg = RisConfig.zeros(2, 2)
        assert cfg.to_bitstring() == "0000"
        assert cfg.bits.size == 4

    def test_bitstring_round_trip(self):
        cfg = RisConfig.from_bitstring("0110", 2, 2)
        assert cfg.to_bitstring() == "0110"
        assert cfg.grid().tolist() == [[0, 1], [1, 0]]

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            RisConfig(np.array([0, 1, 2, 0]), 2, 2)
        with pytest.raises(ValueError):
            RisConfig.from_bitstring("01x0", 2, 2)
        with pytest.raises(ValueError):
            RisConfig(np.zeros(3, dtype=np.uint8), 2, 2)

    def test_csv_round_trip(self, tmp_path):
        cfg = RisConfig.from_bitstring("011010", 2, 3)
        path = tmp_path / "cfg.csv"
        cfg.save_csv(path)
        assert RisConfig.load_csv(path) == cfg


class TestFlips:
    def test_flip_first_column_2x2(self):
        cfg = flip_column(RisConfig.zeros(2, 2), 0)
        assert cfg.grid().tolist() == [[1, 0], [1, 0]]

    def test_flip_row(self):
        cfg = flip_row(RisConfig.zeros(2, 3), 1)
        assert cfg.grid().tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_half_row_flips_exactly_half(self):
        base = RisConfig.zeros(32, 32)
        flipped = flip_half_row(base, 5, "left")
        assert int((flipped.bits != base.bits).sum()) == 16
        assert flipped.grid()[5, :16].tolist() == [1] * 16
        flipped_r = flip_half_row(base, 5, "right")
        assert flipped_r.grid()[5, 16:].tolist() == [1] * 16

    @pytest.mark.parametrize("seed", range(5))
    def test_flips_are_involutions(self, seed):
        rng = np.random.default_rng(seed)
        cfg = RisConfig(rng.integers(0, 2, 12).astype(np.uint8), 3, 4)
        for col in range(4):
            assert flip_column(flip_column(cfg, col), col) == cfg
        for row in range(3):
            assert flip_row(flip_row(cfg, row), row) == cfg
            for half in ("left", "right"):
                assert flip_half_row(flip_half_row(cfg, row, half), row, half) == cfg

    def test_out_of_range_rejected(self):
        cfg = RisConfig.zeros(2, 2)
        with pytest.raises(IndexError):
            flip_column(cfg, 2)
        with pytest.raises(IndexError):
            flip_row(cfg, -1)
        with pytest.raises(ValueError):
            flip_half_row(cfg, 0, "top")

    def test_flip_does_not_mutate_input(self):
        cfg = RisConfig.zeros(2, 2)
        flip_column(cfg, 0)
        assert cfg.to_bitstring() == "0000"


class TestElementModel:
    def test_ideal_all_zero_config_reflects_unit(self):
        model = ElementModel()
        resp = build_response(RisConfig.zeros(2, 2), model, [3.55e9, 3.56e9])
        np.testing.assert_allclose(resp.diagonals, 1.0 + 0.0j, atol=1e-15)

    def test_ideal_all_ones_config_reflects_minus_one(self):
        model = ElementModel()
        resp = build_response(RisConfig.ones(2, 2), model, [3.55e9])
        np.testing.assert_allclose(resp.diagonals, -1.0 + 0.0j, atol=1e-12)

    def test_linear_dispersion_single_element(self):
        # Hand evaluation: theta = clamp(pi + s * delta, 0, pi).
        s = 2e-8
        model = ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=s)
        cfg = RisConfig.ones(1, 1)
        for delta in (5e6, -5e6, -1e9):
            expected_phase = min(max(math.pi + s * delta, 0.0), math.pi)
            resp = build_response(cfg, model, [model.center_hz + delta])
            assert np.angle(resp.diagonals[0, 0]) == pytest.approx(expected_phase, abs=1e-12)

    def test_ideal_mode_is_frequency_flat(self):
        model = ElementModel()
        freqs = 3.55e9 + np.linspace(-18.72e6, 18.72e6, 7)
        cfg = RisConfig.from_bitstring("0110", 2, 2)
        resp = build_response(cfg, model, freqs)
        for v in range(1, freqs.size):
            np.testing.assert_array_equal(resp.diagonals[v], resp.diagonals[0])

    def test_unit_magnitude_everywhere(self):
        model = ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=1e-7)
        freqs = 3.55e9 + np.linspace(-18.72e6, 18.72e6, 9)
        cfg = RisConfig.from_bitstring("0101", 2, 2)
        resp = build_response(cfg, model, freqs)
        np.testing.assert_allclose(np.abs(resp.diagonals), 1.0, atol=1e-14)

    def test_binary_image_in_ideal_mode(self):
        cfg = RisConfig(np.random.default_rng(3).integers(0, 2, 64).astype(np.uint8), 8, 8)
        resp = build_response(cfg, ElementModel(), 3.55e9 + 60e3 * np.arange(4))
        distinct = np.unique(np.round(resp.diagonals.reshape(-1), 12))
        assert distinct.size <= 2

    def test_phases_clamped_to_valid_range(self):
        model = ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=1e-6)
        theta = model.phase_curves(3.55e9 + np.linspace(-50e6, 50e6, 21))
        assert theta.min() >= 0.0
        assert theta.max() <= math.pi

    def test_lorentzian_referenced_at_center(self):
        model = ElementModel(mode="lorentzian", resonance_hz=3.55e9, quality_factor=30.0)
        theta = model.phase_curves([model.center_hz])
        np.testing.assert_allclose(theta[0], model.phase_at_center, atol=1e-12)

    def test_lorentzian_rejects_nonpositive_frequency(self):
        model = ElementModel(mode="lorentzian")
        with pytest.raises(ValueError):
            model.phase_curves([-1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ElementModel(amplitude=0.0)
        with pytest.raises(ValueError):
            ElementModel(amplitude=1.5)
        with pytest.raises(ValueError):
            ElementModel(phase_at_center=(0.0, 4.0))
        with pytest.raises(ValueError):
            ElementModel(mode="cubic")
        with pytest.raises(ValueError):
            build_response(RisConfig.zeros(1, 1), ElementModel(), [])

    def test_reduced_amplitude_scales_response(self):
        model = ElementModel(amplitude=0.8)
        resp = build_response(RisConfig.zeros(2, 2), model, [3.55e9])
        np.testing.assert_allclose(np.abs(resp.diagonals), 0.8, atol=1e-15)

    @pytest.mark.parametrize(
        "model",
        [
            ElementModel(amplitude=0.9),
            ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=2e-8),
            ElementModel(mode="lorentzian", resonance_hz=3.56e9, quality_factor=20.0),
        ],
        ids=lambda m: m.mode,
    )
    def test_gathered_response_matches_dense_exponential(self, model):
        # The per-bit coefficients are gathered, not exponentiated per
        # element; the result must equal the dense formula bit for bit.
        freqs = 3.55e9 + 60e3 * (np.arange(624) - 312)
        bits = np.random.default_rng(5).integers(0, 2, 1024).astype(np.uint8)
        cfg = RisConfig(bits, 32, 32)
        dense = model.amplitude * np.exp(1j * model.phase_curves(freqs)[:, cfg.bits])
        gathered = build_response(cfg, model, freqs).diagonals
        assert (gathered == dense).all()
        bit_view = lambda a: np.ascontiguousarray(a).view(np.uint64)
        assert np.array_equal(bit_view(gathered), bit_view(dense))
