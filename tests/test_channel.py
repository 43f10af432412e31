import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ris_pls.channel import (
    _LINK_RIS_NODE,
    _LINK_TX_RIS,
    ChannelParams,
    ChannelSet,
    PANEL_LINK_CACHE_BYTES,
    Placement,
    SectorGrid,
    _LINK_DIRECT,
    _direct_link,
    _free_space_amplitude,
    _link_rng,
    _memo_panel_link,
    _panel_link,
    _PanelLinkMemo,
    _placement_key,
    _scatter_sigma,
    _tx_beam,
    build_default_geometry,
    probe_links,
    synthesize_channels,
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
    return synthesize_channels(
        tx, grid.placement(0.0), grid.placement(15.0), small_panel(), params, freqs
    )


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
            synthesize_channels(
                tx, grid.placement(0.0), grid.placement(15.0), small_panel(), ChannelParams(), []
            )

    def test_receiver_at_transmitter_rejected(self):
        tx, grid = build_default_geometry()
        at_tx = Placement(tx.azimuth_deg, tx.range_m)
        with pytest.raises(ValueError, match="at the transmitter"):
            synthesize_channels(
                tx, grid.placement(0.0), at_tx, small_panel(), ChannelParams(), GRIDS["tone"]
            )

    def test_determinism(self):
        a = default_links(seed=7)
        _memo_panel_link.cache_clear()  # make the second call a real synthesis
        b = default_links(seed=7)
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
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
        fwd = synthesize_channels(tx, lu, ed, small_panel(), params, freqs)
        rev = synthesize_channels(tx, ed, lu, small_panel(), params, freqs)
        np.testing.assert_array_equal(fwd.h_d_lu, rev.h_d_ed)
        np.testing.assert_array_equal(fwd.h_d_ed, rev.h_d_lu)
        np.testing.assert_array_equal(fwd.h_ris_lu, rev.h_ris_ed)
        np.testing.assert_array_equal(fwd.h_ris_ed, rev.h_ris_lu)
        np.testing.assert_array_equal(fwd.g_ris, rev.g_ris)

    def test_pure_los_plane_wave_magnitudes(self):
        # One ray only: the plane-wave magnitude is identical on every element.
        tx, grid = build_default_geometry()
        params = ChannelParams(num_paths=1, rician_k_db=float("inf"))
        ch = synthesize_channels(
            tx, grid.placement(0.0), grid.placement(15.0), small_panel(), params, [CARRIER]
        )
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
        ch = synthesize_channels(tx, rx, Placement(30.0, r), panel, params, [f])
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
        ch = synthesize_channels(
            tx, grid.placement(0.0), grid.placement(15.0), small_panel(), params, freqs
        )
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
        ch_lo = synthesize_channels(tx, inside, outside, panel, lo, freqs)
        ch_hi = synthesize_channels(tx, inside, outside, panel, hi, freqs)
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
        full = synthesize_channels(tx, lu, ed, small_panel(3, 4), params, grid.subcarrier_freqs())
        occupied = synthesize_channels(tx, lu, ed, small_panel(3, 4), params, sig.freqs)
        rows = grid.occupied_mask
        assert same_bits(occupied.freqs, full.freqs[rows])
        for name in ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris"):
            assert same_bits(getattr(occupied, name), getattr(full, name)[rows]), name


class TestPanelLinkMemo:
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
        elem = panel.element_positions()
        node = Placement(azimuth, range_m)
        tx, lu, ed = Placement(-15.0, 5.0), Placement(0.0, 7.0), Placement(45.0, 7.0)
        for _ in range(2):  # a miss, then a hit
            as_rx = synthesize_channels(tx, node, ed, panel, params, freqs)
            as_tx = synthesize_channels(node, lu, ed, panel, params, freqs)
            assert same_bits(as_rx.h_ris_lu, _panel_link(node, params, freqs, elem, _LINK_RIS_NODE))
            assert same_bits(as_rx.g_ris, _panel_link(tx, params, freqs, elem, _LINK_TX_RIS))
            assert same_bits(as_tx.g_ris, _panel_link(node, params, freqs, elem, _LINK_TX_RIS))
            assert same_bits(as_tx.h_ris_ed, _panel_link(ed, params, freqs, elem, _LINK_RIS_NODE))

    def test_swap_symmetry_on_memo_hits(self):
        tx, grid = build_default_geometry()
        params = ChannelParams(rng_seed=4)
        freqs = GRIDS["prs"]
        lu, ed = grid.placement(15.0), grid.placement(45.0)
        _memo_panel_link.cache_clear()
        fwd = synthesize_channels(tx, lu, ed, small_panel(), params, freqs)
        rev = synthesize_channels(tx, ed, lu, small_panel(), params, freqs)
        assert _memo_panel_link.cache_info().hits == 3
        assert same_bits(fwd.h_d_lu, rev.h_d_ed) and same_bits(fwd.h_d_ed, rev.h_d_lu)
        assert same_bits(fwd.h_ris_lu, rev.h_ris_ed) and same_bits(fwd.h_ris_ed, rev.h_ris_lu)
        assert same_bits(fwd.g_ris, rev.g_ris)

    def test_signed_zero_azimuths_stay_distinct_links(self):
        # -0.0 == 0.0, but the two placements key different random streams.
        tx, _ = build_default_geometry()
        params = ChannelParams(rng_seed=2)
        freqs = GRIDS["tone"]
        elem = small_panel().element_positions()
        pos, neg = Placement(0.0, 7.0), Placement(-0.0, 7.0)
        ch = synthesize_channels(tx, pos, neg, small_panel(), params, freqs)
        assert not np.array_equal(ch.h_ris_lu, ch.h_ris_ed)
        assert same_bits(ch.h_ris_ed, _panel_link(neg, params, freqs, elem, _LINK_RIS_NODE))
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
        ch = synthesize_channels(tx, lu, ed, small_panel(), params, freqs)
        assert (ch.h_d_ed is ch.h_d_lu) == (ed == lu)
        assert same_bits(ch.h_d_lu, _direct_link(tx, lu, params, freqs, _tx_beam(tx)))
        assert same_bits(ch.h_d_ed, _direct_link(tx, ed, params, freqs, _tx_beam(tx)))
        for name in ("h_d_lu", "h_d_ed"):
            with pytest.raises(ValueError):
                getattr(ch, name)[0] = 0.0

    def test_byte_budget_evicts_least_recently_used(self):
        params = ChannelParams(rng_seed=3)
        freqs = GRIDS["prs"]
        ris = small_panel(2, 3)
        link_bytes = freqs.size * ris.num_elements * 16
        memo = _PanelLinkMemo(max_bytes=2 * link_bytes)
        a, b, c = (Placement(angle, 7.0) for angle in (0.0, 15.0, 30.0))

        def get(node):
            return memo(_LINK_RIS_NODE, _placement_key(node), node, params, freqs.tobytes(), ris)

        link_a = get(a)
        assert link_a.nbytes == link_bytes
        get(b)
        assert get(a) is link_a  # a is now the most recently used
        get(c)  # over budget: b goes
        info = memo.cache_info()
        assert (info.hits, info.misses, info.links, info.nbytes) == (1, 3, 2, 2 * link_bytes)
        assert get(a) is link_a and get(c) is get(c)
        get(b)  # computed again, evicting a
        assert memo.cache_info().misses == 4
        assert get(a) is not link_a and same_bits(get(a), link_a)

    def test_link_larger_than_budget_is_not_kept(self):
        params = ChannelParams(rng_seed=3)
        freqs = GRIDS["prs"]
        ris = small_panel(2, 3)
        memo = _PanelLinkMemo(max_bytes=freqs.size * ris.num_elements * 16 - 1)
        node = Placement(0.0, 7.0)
        h = memo(_LINK_RIS_NODE, _placement_key(node), node, params, freqs.tobytes(), ris)
        assert same_bits(h, _panel_link(node, params, freqs, ris.element_positions(), _LINK_RIS_NODE))
        assert not h.flags.writeable
        assert memo.cache_info().links == 0

    def test_concurrent_lookups_keep_the_memo_consistent(self):
        # More threads than cores hammer a memo that holds 3 of 5 links.
        params = ChannelParams(rng_seed=9)
        freqs = GRIDS["tone"]
        ris = small_panel(2, 3)
        elem = ris.element_positions()
        nodes = [Placement(angle, 7.0) for angle in (0.0, 15.0, 30.0, 45.0, 60.0)]
        fresh = [_panel_link(n, params, freqs, elem, _LINK_RIS_NODE) for n in nodes]
        link_bytes = fresh[0].nbytes
        memo = _PanelLinkMemo(max_bytes=3 * link_bytes)
        mismatches, calls_per_thread = [], 200

        def worker(offset):
            for i in range(calls_per_thread):
                j = (offset + i * (offset + 1)) % len(nodes)
                node = nodes[j]
                h = memo(_LINK_RIS_NODE, _placement_key(node), node, params, freqs.tobytes(), ris)
                if not same_bits(h, fresh[j]):
                    mismatches.append(j)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        info = memo.cache_info()
        assert not mismatches
        assert info.hits + info.misses == 8 * calls_per_thread
        assert info.links == 3 and info.nbytes == 3 * link_bytes

    def test_budget_holds_five_wideband_links(self):
        # The reference comparison's transmitter and four receiver links on
        # the 624-subcarrier grid of 52 resource blocks and a 32 x 32 panel.
        assert PANEL_LINK_CACHE_BYTES == 5 * 624 * 1024 * 16

    def test_synthesized_panel_links_are_read_only(self):
        ch = default_links(seed=3)
        for name in ("h_ris_lu", "h_ris_ed", "g_ris"):
            with pytest.raises(ValueError):
                getattr(ch, name)[0, 0] = 0.0


class TestProbeLinks:
    @pytest.mark.parametrize("num_paths", [1, 8])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_links_equal_synthesized_links_and_bypass_the_memo(self, grid, num_paths):
        tx, _ = build_default_geometry()
        params = ChannelParams(num_paths=num_paths, rng_seed=7)
        freqs = GRIDS[grid]
        probes = [Placement(a, 6.0) for a in (-60.0, -0.0, 0.0, 45.0)]
        before = _memo_panel_link.cache_info()
        g, links = probe_links(tx, probes, small_panel(2, 3), params, freqs)
        links = list(links)
        assert _memo_panel_link.cache_info() == before
        for probe, (h_d, h) in zip(probes, links):
            ch = synthesize_channels(tx, probe, Placement(80.0, 6.0), small_panel(2, 3), params, freqs)
            assert same_bits(g, ch.g_ris)
            assert same_bits(h_d, ch.h_d_lu) and same_bits(h, ch.h_ris_lu)


    @pytest.mark.parametrize("num_paths", [1, 8])
    def test_direct_links_equal_per_probe_geometry(self, num_paths):
        # Probes every degree, and around the beam edges (half-beamwidth 10
        # degrees about the boresight), against the geometry worked out
        # afresh for each probe.
        tx, _ = build_default_geometry()
        params = ChannelParams(num_paths=num_paths, rng_seed=3)
        freqs = GRIDS["prs"]
        angles = [float(a) for a in range(-90, 91)] + [-41.3, -40.0, -39.99, 10.0, 10.01, 12.7]
        probes = [Placement(a, r) for a in angles for r in (2.0, 7.0)]
        _, links = probe_links(tx, probes, small_panel(2, 3), params, freqs)
        relative = []
        for probe, (h_d, _) in zip(probes, links):
            assert same_bits(h_d, per_probe_direct_link(tx, probe, params, freqs))
            d = float(np.linalg.norm(probe.position() - tx.position()))
            relative.append(abs(h_d[0]) / _free_space_amplitude(d, params.carrier_hz))
        if num_paths == 1:  # both sides of the beam edge were probed
            assert min(relative) < 0.1 < max(relative)

    def test_transmitter_geometry_is_worked_out_once(self, monkeypatch):
        calls = []
        position = Placement.position

        def counting(self):
            calls.append(self)
            return position(self)

        monkeypatch.setattr(Placement, "position", counting)
        tx, _ = build_default_geometry()
        probes = [Placement(float(a), 6.0) for a in range(-50, 50)]
        g, links = probe_links(tx, probes, small_panel(2, 3), ChannelParams(num_paths=1), GRIDS["tone"])
        assert len(list(links)) == 100
        # One for the transmitter's beam and one for its panel link; two
        # per probe: its direct link and its panel link.
        assert calls.count(tx) == 2
        assert len(calls) == 2 + 2 * 100


def per_probe_direct_link(tx, node, params, f):
    """The direct link with the transmitter's position, boresight and
    norms worked out afresh, as every probe once did."""
    d = float(np.linalg.norm(node.position() - tx.position()))
    amp = _free_space_amplitude(d, params.carrier_hz)
    boresight = -tx.position()
    toward = node.position() - tx.position()
    cosang = np.dot(boresight, toward) / (np.linalg.norm(boresight) * np.linalg.norm(toward))
    if math.degrees(math.acos(np.clip(cosang, -1.0, 1.0))) > params.tx_beamwidth_deg / 2.0:
        amp *= 10.0 ** (-params.direct_path_suppression_db / 20.0)
    tau0 = d / SPEED_OF_LIGHT
    h = amp * np.exp(-2j * math.pi * f * tau0)
    n_scatter = params.num_paths - 1
    if n_scatter > 0:
        rng = _link_rng(params.rng_seed, _LINK_DIRECT, tx, node)
        sigma2 = _scatter_sigma(amp, params)
        excess = rng.uniform(0.0, params.max_excess_delay_s, n_scatter)
        gains = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n_scatter) + 1j * rng.standard_normal(n_scatter)
        )
        h = h + (gains[None, :] * np.exp(-2j * math.pi * np.outer(f, tau0 + excess))).sum(axis=1)
    return h
