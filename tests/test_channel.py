import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    build_default_geometry,
    dense_steering,
    element_positions,
    per_ray_panel_link,
    scalar_direct_ray,
    scalar_panel_ray,
)
from ris_pls import channel as channel_module
from ris_pls.channel import (
    _LINK_RIS_NODE,
    _LINK_TX_RIS,
    ChannelParams,
    ChannelSet,
    LinkTable,
    Placement,
    SectorGrid,
    _direct_link,
    _free_space_amplitude,
    _panel_link,
    _probe_rays,
    _steering,
    _tx_beam,
    probe_links,
)
from ris_pls.ofdm import Numerology, build_prs_grid, prs_signal, tone_signal
from ris_pls.ris import SPEED_OF_LIGHT, RisArrayGeometry

CARRIER = 3.55e9


def small_panel(n_v=2, n_h=2):
    return RisArrayGeometry(n_v=n_v, n_h=n_h, tile_rows=1, tile_cols=1)


class TestPlacements:
    def test_default_geometry(self):
        tx, grid = build_default_geometry()
        assert tx.azimuth_deg == -15.0
        assert tx.range_m == 5.0
        assert grid.user_range_m == 7.0
        assert grid.sector_centers_deg == (0.0, 15.0, 30.0, 45.0)

    def test_position_convention(self):
        p = Placement(90.0, 2.0)
        np.testing.assert_allclose(p.position(), [2.0, 0.0, 0.0], atol=1e-12)
        p = Placement(0.0, 3.0, height_m=1.0)
        np.testing.assert_allclose(p.position(), [0.0, 3.0, 1.0], atol=1e-12)

    def test_invalid_placements(self):
        with pytest.raises(ValueError):
            Placement(0.0, 0.0)
        with pytest.raises(ValueError):
            Placement(120.0, 1.0)
        with pytest.raises(ValueError):
            Placement(float("nan"), 1.0)

    @pytest.mark.parametrize("centers", [["0", "15"], [False, True], [0.0, float("nan")], [0.0, None], 15.0, "0"])
    def test_sector_centers_must_be_finite_numbers(self, centers):
        with pytest.raises(ValueError, match="sector centers"):
            SectorGrid(sector_width_deg=15.0, sector_centers_deg=centers)

    def test_sector_grid_validation(self):
        with pytest.raises(ValueError):
            SectorGrid(sector_centers_deg=(0.0, 10.0, 30.0))
        with pytest.raises(ValueError):
            SectorGrid(sector_centers_deg=(15.0, 0.0))
        grid = SectorGrid()
        assert grid.placement(15.0).range_m == 7.0
        with pytest.raises(ValueError):
            grid.placement(7.5)
        assert grid.nearest_center(21.0) == (15.0, 6.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(num_paths=0)
        with pytest.raises(ValueError):
            ChannelParams(carrier_hz=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(max_excess_delay_s=float("inf"))
        with pytest.raises(ValueError):
            ChannelParams(direct_path_suppression_db=float("nan"))

    def test_scatter_bound_spares_single_path_links(self):
        with pytest.raises(ValueError, match="line-of-sight power"):
            ChannelParams(num_paths=2, rician_k_db=-3000.0)
        assert ChannelParams(num_paths=1, rician_k_db=-3000.0).rician_k_db == -3000.0

    @pytest.mark.parametrize("k_db, ok", [(-999.0, True), (-1001.0, False), (-1e308, False)])
    def test_scatter_bound_is_on_scattered_power(self, k_db, ok):
        # MAX_SCATTER_TO_LOS is 1e100: K-factors above -1000 dB pass.
        if ok:
            assert ChannelParams(num_paths=2, rician_k_db=k_db).rician_k_db == k_db
        else:
            with pytest.raises(ValueError, match="line-of-sight power"):
                ChannelParams(num_paths=2, rician_k_db=k_db)


def default_links(seed=0, **kwargs):
    tx, grid = build_default_geometry()
    params = ChannelParams(rng_seed=seed, **kwargs)
    freqs = CARRIER + 60e3 * np.arange(4)
    return LinkTable(tx, small_panel(), params, freqs).channels(grid.placement(0.0), grid.placement(15.0))


class TestSynthesis:
    def test_shapes(self):
        ch = default_links()
        assert ch.num_subcarriers == 4
        assert ch.num_elements == 4
        assert ch.h_d_lu.shape == (4,)
        assert ch.h_ris_lu.shape == (4, 4)
        assert ch.g_ris.shape == (4, 4)

    def test_nonfinite_rejected(self):
        ch = default_links()
        bad = ch.h_d_lu.copy()
        bad[0] = float("nan")
        with pytest.raises(ValueError):
            ChannelSet(
                freqs=ch.freqs,
                h_d_lu=bad,
                h_d_ed=ch.h_d_ed,
                h_ris_lu=ch.h_ris_lu,
                h_ris_ed=ch.h_ris_ed,
                g_ris=ch.g_ris,
            )

    @pytest.mark.parametrize("name", ["h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"])
    def test_every_link_checked_for_finiteness(self, name):
        ch = default_links()
        links = {n: getattr(ch, n).copy() for n in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris")}
        links[name].flat[-1] = complex(0.0, float("inf"))
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            ChannelSet(freqs=ch.freqs, **links)

    def test_empty_frequency_list_rejected(self):
        tx, grid = build_default_geometry()
        with pytest.raises(ValueError):
            LinkTable(tx, small_panel(), ChannelParams(), []).channels(grid.placement(0.0), grid.placement(15.0))

    def test_receiver_at_transmitter_rejected(self):
        tx, grid = build_default_geometry()
        at_tx = Placement(tx.azimuth_deg, tx.range_m)
        with pytest.raises(ValueError, match="at the transmitter"):
            LinkTable(tx, small_panel(), ChannelParams(), GRIDS["tone"]).channels(grid.placement(0.0), at_tx)

    def test_determinism(self):
        a = default_links(seed=7)
        b = default_links(seed=7)  # a table of its own: every link computed again
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            assert getattr(a, name) is not getattr(b, name)
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_channels(self):
        a = default_links(seed=7)
        b = default_links(seed=8)
        assert not np.array_equal(a.h_ris_lu, b.h_ris_lu)

    def test_swap_symmetry(self):
        tx, grid = build_default_geometry()
        params = ChannelParams(rng_seed=3)
        freqs = [CARRIER]
        lu, ed = grid.placement(0.0), grid.placement(30.0)
        fwd = LinkTable(tx, small_panel(), params, freqs).channels(lu, ed)
        rev = LinkTable(tx, small_panel(), params, freqs).channels(ed, lu)
        np.testing.assert_array_equal(fwd.h_d_lu, rev.h_d_ed)
        np.testing.assert_array_equal(fwd.h_d_ed, rev.h_d_lu)
        np.testing.assert_array_equal(fwd.h_ris_lu, rev.h_ris_ed)
        np.testing.assert_array_equal(fwd.h_ris_ed, rev.h_ris_lu)
        np.testing.assert_array_equal(fwd.g_ris, rev.g_ris)

    def test_pure_los_plane_wave_magnitudes(self):
        # One ray only: the plane-wave magnitude is identical on every element.
        tx, grid = build_default_geometry()
        params = ChannelParams(num_paths=1, rician_k_db=float("inf"))
        ch = LinkTable(tx, small_panel(), params, [CARRIER]).channels(grid.placement(0.0), grid.placement(15.0))
        mags = np.abs(ch.h_ris_lu[0])
        np.testing.assert_allclose(mags, mags[0], rtol=1e-12)

    def test_monostatic_cascade_phase(self):
        # Single element at the origin, transmitter and receiver both at
        # range r on broadside: the cascade phase must be -2 pi f (2 r) / c.
        r = 4.0
        tx = Placement(0.0, r)
        rx = Placement(0.0, r, height_m=1e-6)  # epsilon offset keeps the direct link finite
        params = ChannelParams(num_paths=1)
        panel = RisArrayGeometry(n_v=1, n_h=1, tile_rows=1, tile_cols=1)
        f = CARRIER
        ch = LinkTable(tx, panel, params, [f]).channels(rx, Placement(30.0, r))
        cascade = ch.g_ris[0, 0] * ch.h_ris_lu[0, 0]
        expected = -2.0 * math.pi * f * (2.0 * r) / SPEED_OF_LIGHT
        delta = np.angle(cascade * np.exp(-1j * expected))
        assert abs(delta) < 1e-9

    def test_los_limit_is_frequency_flat(self):
        # At a 60 dB K-factor and sub-meter excess path lengths, magnitudes
        # vary by well under 0.1 dB across the 37.44 MHz band.
        tx, grid = build_default_geometry()
        params = ChannelParams(
            rician_k_db=60.0, max_excess_delay_s=1.0 / SPEED_OF_LIGHT, rng_seed=5
        )
        freqs = CARRIER + np.linspace(-18.72e6, 18.72e6, 13)
        ch = LinkTable(tx, small_panel(), params, freqs).channels(grid.placement(0.0), grid.placement(15.0))
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            mags_db = 20.0 * np.log10(np.abs(getattr(ch, name)))
            assert np.ptp(mags_db, axis=0).max() < 0.1

    def test_direct_path_beam_suppression(self):
        # A node on the transmitter-to-panel ray sits inside the beam; the
        # sector users sit far outside and get the configured suppression.
        tx, grid = build_default_geometry()
        freqs = [CARRIER]
        panel = small_panel()
        inside = Placement(-15.0, 0.5)
        outside = grid.placement(0.0)
        lo = ChannelParams(num_paths=1, direct_path_suppression_db=30.0)
        hi = ChannelParams(num_paths=1, direct_path_suppression_db=60.0)
        ch_lo = LinkTable(tx, panel, lo, freqs).channels(inside, outside)
        ch_hi = LinkTable(tx, panel, hi, freqs).channels(inside, outside)
        # in-beam link unaffected by the suppression setting
        np.testing.assert_allclose(np.abs(ch_lo.h_d_lu), np.abs(ch_hi.h_d_lu), rtol=1e-12)
        # out-of-beam link attenuated by exactly the extra 30 dB
        ratio_db = 20.0 * np.log10(np.abs(ch_lo.h_d_ed[0]) / np.abs(ch_hi.h_d_ed[0]))
        assert ratio_db == pytest.approx(30.0, abs=1e-9)


GRIDS = {
    "tone": tone_signal(Numerology()).freqs,
    "prs": prs_signal(build_prs_grid(Numerology(), num_rb=2, seed=0)).freqs,
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestOccupiedSubcarrierParity:
    """Channels synthesized at a prs signal's frequencies are the occupied
    rows of the channels synthesized on the full grid, bit for bit, so
    carrying only the occupied subcarriers changes no output."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("num_paths", [1, 8])
    def test_occupied_rows_equal_full_grid(self, num_paths, seed):
        grid = build_prs_grid(Numerology(), num_rb=4, seed=seed)
        sig = prs_signal(grid)
        params = ChannelParams(num_paths=num_paths, rng_seed=seed)
        tx, lu, ed = Placement(-15.0, 5.0), Placement(0.0, 7.0), Placement(30.0, 7.0)
        full = LinkTable(tx, small_panel(3, 4), params, grid.subcarrier_freqs()).channels(lu, ed)
        occupied = LinkTable(tx, small_panel(3, 4), params, sig.freqs).channels(lu, ed)
        rows = grid.occupied_mask
        assert same_bits(occupied.freqs, full.freqs[rows])
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            assert same_bits(getattr(occupied, name), getattr(full, name)[rows]), name


class TestRaySumParity:
    """`_panel_link` adds its scattered rays as one matrix product; it must
    match `helpers.per_ray_panel_link`, which adds one outer product per
    ray, to 1e-13 of the link's largest magnitude."""

    @pytest.mark.parametrize("kind", [_LINK_RIS_NODE, _LINK_TX_RIS], ids=["node", "tx"])
    @pytest.mark.parametrize("num_paths", [2, 8])
    @pytest.mark.parametrize("grid", ["tone", "prs", "prs-52"])
    def test_matches_per_ray_sum(self, grid, num_paths, kind):
        if grid == "prs-52":  # the benchmark's wideband grid and 32x32 panel
            freqs = prs_signal(build_prs_grid(Numerology(), num_rb=52, seed=0)).freqs
            ris = RisArrayGeometry(n_v=32, n_h=32, tile_rows=16, tile_cols=16)
            nodes = [Placement(30.0, 7.0)]
        else:
            freqs = GRIDS[grid]
            ris = small_panel(4, 6)
            nodes = [Placement(a, r) for a, r in ((-60.0, 2.0), (-0.0, 7.0), (0.0, 7.0), (45.0, 5.0))]
        for seed in (0, 3):
            params = ChannelParams(num_paths=num_paths, rng_seed=seed)
            for node in nodes:
                h = _panel_link(node, params, freqs, ris, kind)
                ref = per_ray_panel_link(node, params, freqs, ris, kind)
                assert h.shape == ref.shape == (freqs.size, ris.num_elements)
                assert np.abs(h - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_single_path_link_is_the_line_of_sight_term(self):
        # Without scattered rays the link is the per-ray reference bit for bit.
        args = Placement(15.0, 7.0), ChannelParams(num_paths=1, rng_seed=2)
        ris = small_panel(4, 6)
        for grid, freqs in GRIDS.items():
            h = _panel_link(*args, freqs, ris, _LINK_RIS_NODE)
            assert same_bits(h, per_ray_panel_link(*args, freqs, ris, _LINK_RIS_NODE)), grid


#: A large and a small panel; neither has an element on an axis.
STEERING_PANELS = {
    "32x32": RisArrayGeometry(n_v=32, n_h=32, tile_rows=16, tile_cols=16),
    "4x6": small_panel(4, 6),
}


class TestSeparableSteering:
    """`_steering` takes each profile as the product of its row and column
    factors; `helpers.dense_steering` takes one exp per element."""

    @pytest.mark.parametrize("name", sorted(STEERING_PANELS))
    def test_zero_elevation_equals_dense_steering(self, name):
        # Every probe, and a transmitter at height 0, lies in the plane of
        # the panel's normal: u_z = 0, so each row factor is exp(0j) and
        # the product is the dense exp bit for bit.
        ris = STEERING_PANELS[name]
        degrees = np.concatenate([np.arange(-900, 901) / 10.0, np.random.default_rng(4).uniform(-90.0, 90.0, 500)])
        dirs = np.array([p.position() / p.range_m for p in (Placement(float(a), 7.0) for a in degrees)])
        assert not dirs[:, 2].any()
        dense = dense_steering(element_positions(ris), dirs, CARRIER)
        assert same_bits(_steering(ris, dirs, CARRIER), dense)
        assert same_bits(_steering(ris, dirs[1234], CARRIER), dense[1234])  # one direction, as (M,)

    @pytest.mark.parametrize("name", sorted(STEERING_PANELS))
    def test_elevated_directions_within_phase_rounding(self, name):
        # Scattered rays arrive from above and below: the two factors'
        # phases round apart from the dense phase by a few units in the
        # last place of the largest phase.
        ris = STEERING_PANELS[name]
        rng = np.random.default_rng(8)
        az, el = np.radians(rng.uniform(-90.0, 90.0, 2000)), np.radians(rng.uniform(-90.0, 90.0, 2000))
        dirs = np.column_stack([np.sin(az) * np.cos(el), np.cos(az) * np.cos(el), np.sin(el)])
        elem = element_positions(ris)
        max_phase = np.abs(2.0 * math.pi * CARRIER / SPEED_OF_LIGHT * (dirs @ elem.T)).max()
        error = np.abs(_steering(ris, dirs, CARRIER) - dense_steering(elem, dirs, CARRIER)).max()
        assert 0.0 < error <= 4.0 * np.finfo(float).eps * max_phase


class TestPanelLinkMemo:
    """Links a `LinkTable` computes once and shares read-only."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        azimuth=st.floats(-90.0, 90.0),
        range_m=st.floats(0.5, 4.5),  # never on the transmitter or receivers below
        grid=st.sampled_from(sorted(GRIDS)),
    )
    def test_memoized_links_equal_fresh_synthesis(self, seed, azimuth, range_m, grid):
        freqs = GRIDS[grid]
        params = ChannelParams(rng_seed=seed)
        panel = small_panel(2, 3)
        node = Placement(azimuth, range_m)
        tx, lu, ed = Placement(-15.0, 5.0), Placement(0.0, 7.0), Placement(45.0, 7.0)
        from_tx, from_node = LinkTable(tx, panel, params, freqs), LinkTable(node, panel, params, freqs)
        for _ in range(2):  # computed, then read from the tables
            as_rx = from_tx.channels(node, ed)
            as_tx = from_node.channels(lu, ed)
            assert same_bits(as_rx.h_ris_lu, _panel_link(node, params, freqs, panel, _LINK_RIS_NODE))
            assert same_bits(as_rx.g_ris, _panel_link(tx, params, freqs, panel, _LINK_TX_RIS))
            assert same_bits(as_tx.g_ris, _panel_link(node, params, freqs, panel, _LINK_TX_RIS))
            assert same_bits(as_tx.h_ris_ed, _panel_link(ed, params, freqs, panel, _LINK_RIS_NODE))

    def test_swap_symmetry_on_memo_hits(self):
        tx, grid = build_default_geometry()
        params = ChannelParams(rng_seed=4)
        freqs = GRIDS["prs"]
        lu, ed = grid.placement(15.0), grid.placement(45.0)
        table = LinkTable(tx, small_panel(), params, freqs)
        fwd = table.channels(lu, ed)
        rev = table.channels(ed, lu)  # every link read from the table
        assert rev.h_d_lu is fwd.h_d_ed and rev.h_ris_lu is fwd.h_ris_ed
        assert rev.h_d_ed is fwd.h_d_lu and rev.h_ris_ed is fwd.h_ris_lu
        assert rev.g_ris is fwd.g_ris
        assert same_bits(fwd.h_d_lu, rev.h_d_ed) and same_bits(fwd.h_d_ed, rev.h_d_lu)
        assert same_bits(fwd.h_ris_lu, rev.h_ris_ed) and same_bits(fwd.h_ris_ed, rev.h_ris_lu)
        assert same_bits(fwd.g_ris, rev.g_ris)

    def test_signed_zero_azimuths_stay_distinct_links(self):
        # -0.0 == 0.0, but the two placements key different random streams.
        tx, _ = build_default_geometry()
        params = ChannelParams(rng_seed=2)
        freqs = GRIDS["tone"]
        pos, neg = Placement(0.0, 7.0), Placement(-0.0, 7.0)
        ch = LinkTable(tx, small_panel(), params, freqs).channels(pos, neg)
        assert not np.array_equal(ch.h_ris_lu, ch.h_ris_ed)
        assert same_bits(ch.h_ris_ed, _panel_link(neg, params, freqs, small_panel(), _LINK_RIS_NODE))
        assert params.num_paths > 1
        assert not np.array_equal(ch.h_d_lu, ch.h_d_ed)
        assert same_bits(ch.h_d_ed, _direct_link(tx, neg, params, freqs, _tx_beam(tx)))

    @pytest.mark.parametrize("num_paths", [1, 8])
    @pytest.mark.parametrize("ed_deg", [30.0, 45.0])
    def test_direct_links_equal_fresh_links_and_are_read_only(self, num_paths, ed_deg):
        # An ED at the LU placement shares its link.
        tx, grid = build_default_geometry()
        params = ChannelParams(num_paths=num_paths, rng_seed=5)
        freqs = GRIDS["prs"]
        lu, ed = grid.placement(30.0), Placement(ed_deg, 7.0)
        ch = LinkTable(tx, small_panel(), params, freqs).channels(lu, ed)
        assert (ch.h_d_ed is ch.h_d_lu) == (ed == lu)
        assert same_bits(ch.h_d_lu, _direct_link(tx, lu, params, freqs, _tx_beam(tx)))
        assert same_bits(ch.h_d_ed, _direct_link(tx, ed, params, freqs, _tx_beam(tx)))
        for name in ("h_d_lu", "h_d_ed"):
            with pytest.raises(ValueError):
                getattr(ch, name)[0] = 0.0

    def test_failed_link_is_not_kept(self):
        tx, grid = build_default_geometry()
        table = LinkTable(tx, small_panel(), ChannelParams(), GRIDS["tone"])
        at_tx = Placement(tx.azimuth_deg, tx.range_m)
        for _ in range(2):  # the second call computes the link again and fails alike
            with pytest.raises(ValueError, match="at the transmitter"):
                table.channels(grid.placement(0.0), at_tx)
        ch = table.channels(grid.placement(0.0), grid.placement(15.0))
        assert ch.g_ris is table.channels(grid.placement(15.0), grid.placement(0.0)).g_ris

    def test_synthesized_panel_links_are_read_only(self):
        ch = default_links(seed=3)
        for name in ("h_ris_lu", "h_ris_ed", "g_ris"):
            with pytest.raises(ValueError):
                getattr(ch, name)[0, 0] = 0.0


def per_probe(chunks) -> list:
    """The (direct link, panel link) pair of each probe, from `probe_links`'
    chunks: each panel link rebuilt from its factors as
    amp * outer(delay, steering)."""
    return [
        (h_d_a, amp_a * np.outer(delay_a, steering_a))
        for h_d, amp, delay, steering in chunks
        for h_d_a, amp_a, delay_a, steering_a in zip(h_d, amp, delay, steering)
    ]


class TestProbeLinks:
    @pytest.mark.parametrize("per_chunk", [None, 1, 3])
    @pytest.mark.parametrize("num_paths", [1, 8])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_links_equal_synthesized_links_and_bypass_the_memo(self, monkeypatch, grid, num_paths, per_chunk):
        # In chunks of every probe, of one and of three (a ragged last
        # one). A chunk's steering phases are one matrix product, a
        # synthesized link's one matrix-vector product. Probes drop the
        # scenario's scattered rays: under 8 paths their links, panel links
        # rebuilt from their factors, are bit for bit the single-path
        # synthesized links.
        tx, _ = build_default_geometry()
        params = ChannelParams(num_paths=num_paths, rng_seed=7)
        freqs = GRIDS[grid]
        panel = small_panel(2, 3)
        if per_chunk is not None:
            monkeypatch.setattr(channel_module, "PROBE_CHUNK_BYTES", per_chunk * max(freqs.size, 6) * 16)
        angles = (-60.0, -0.0, 0.0, 45.0, 12.3)
        g, chunks = probe_links(tx, angles, 6.0, panel, params, freqs)
        chunks = list(chunks)
        sizes = [len(h_d) for h_d, *_ in chunks]
        assert sizes == {None: [5], 1: [1] * 5, 3: [3, 2]}[per_chunk]
        for h_d, amp, delay, steering in chunks:
            a = len(h_d)
            assert h_d.shape == delay.shape == (a, freqs.size)
            assert amp.shape == (a,) and steering.shape == (a, 6)
        links = per_probe(chunks)
        assert len(links) == len(angles)
        single_ray = replace(params, num_paths=1)
        for angle, (h_d, h) in zip(angles, links):
            ch = LinkTable(tx, panel, single_ray, freqs).channels(Placement(angle, 6.0), Placement(80.0, 6.0))
            assert same_bits(g, ch.g_ris)
            assert same_bits(h_d, ch.h_d_lu) and same_bits(h, ch.h_ris_lu)

    @pytest.mark.parametrize("num_paths", [1, 8])
    def test_direct_links_equal_per_probe_geometry(self, num_paths):
        # Probes every degree, and around the beam edges (half-beamwidth 10
        # degrees about the boresight), against the single-ray geometry
        # worked out afresh for each probe, whatever the scenario's paths.
        tx, _ = build_default_geometry()
        params = ChannelParams(num_paths=num_paths, rng_seed=3)
        freqs = GRIDS["prs"]
        angles = [float(a) for a in range(-90, 91)] + [-41.3, -40.0, -39.99, 10.0, 10.01, 12.7]
        relative = []
        for r in (2.0, 7.0):
            _, chunks = probe_links(tx, angles, r, small_panel(2, 3), params, freqs)
            for angle, (h_d, _) in zip(angles, per_probe(chunks), strict=True):
                probe = Placement(angle, r)
                assert same_bits(h_d, per_probe_direct_link(tx, probe, params, freqs))
                d = float(np.linalg.norm(probe.position() - tx.position()))
                relative.append(abs(h_d[0]) / _free_space_amplitude(d, params.carrier_hz))
        assert min(relative) < 0.1 < max(relative)  # both sides of the beam edge were probed

    @pytest.mark.parametrize(
        "angles, range_m",
        [
            ([-90.0 + 0.1 * i for i in range(1801)], 7.0),
            ([-90.0 + 0.1 * i for i in range(1801)], 2.0),  # across the beam's edges
            ([-90.0, -89.9, -0.0, 0.0, 89.9, 90.0], 7.0),
        ],
        ids=["1801-at-7m", "1801-at-2m", "ends"],
    )
    def test_chunk_geometry_equals_scalar_rays(self, angles, range_m):
        # A chunk's rays, worked out as arrays, against each probe's scalar
        # rays from its placement's position, bit for bit.
        tx, _ = build_default_geometry()
        params, beam = ChannelParams(), _tx_beam(tx)
        (d_d, amp_d, tau_d), (d_p, amp_p, tau_p, u) = _probe_rays(np.array(angles), range_m, beam, params)
        positions = [Placement(a, range_m).position() for a in angles]
        direct = np.array([scalar_direct_ray(beam, pos, params) for pos in positions])
        panel = [scalar_panel_ray(pos, params) for pos in positions]
        assert same_bits(amp_d, direct[:, 0]) and same_bits(tau_d, direct[:, 1])
        assert same_bits(amp_p, np.array([a for a, _, _ in panel]))
        assert same_bits(tau_p, np.array([t for _, t, _ in panel]))
        assert same_bits(u, np.array([v for _, _, v in panel]))
        suppressed = amp_d < 0.1 * _free_space_amplitude(d_d, params.carrier_hz)
        if range_m == 2.0:  # probes on both sides of the beam's edges
            assert suppressed.any() and not suppressed.all()

    def test_transmitter_geometry_is_worked_out_once(self, monkeypatch):
        calls = []
        position = Placement.position

        def counting(self):
            calls.append(self)
            return position(self)

        monkeypatch.setattr(Placement, "position", counting)
        tx, _ = build_default_geometry()
        angles = [float(a) for a in range(-50, 50)]
        g, chunks = probe_links(tx, angles, 6.0, small_panel(2, 3), ChannelParams(num_paths=1), GRIDS["tone"])
        assert len(per_probe(chunks)) == 100
        # One for the transmitter's beam and one for its panel link; none
        # per probe: a chunk's positions are worked out as arrays.
        assert calls.count(tx) == 2
        assert len(calls) == 2


def per_probe_direct_link(tx, node, params, f):
    """The single-ray direct link with the transmitter's position,
    boresight and norms worked out afresh, as every probe once did."""
    d = float(np.linalg.norm(node.position() - tx.position()))
    amp = _free_space_amplitude(d, params.carrier_hz)
    boresight = -tx.position()
    toward = node.position() - tx.position()
    cosang = np.dot(boresight, toward) / (np.linalg.norm(boresight) * np.linalg.norm(toward))
    if math.degrees(math.acos(np.clip(cosang, -1.0, 1.0))) > params.tx_beamwidth_deg / 2.0:
        amp *= 10.0 ** (-params.direct_path_suppression_db / 20.0)
    tau0 = d / SPEED_OF_LIGHT
    return amp * np.exp(-2j * math.pi * f * tau0)
