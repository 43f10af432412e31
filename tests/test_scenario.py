import numpy as np
import pytest

from ris_pls.channel import (
    _LINK_RIS_NODE,
    _LINK_TX_RIS,
    ChannelParams,
    Placement,
    _direct_link,
    _panel_link,
    _placement_key,
    _tx_beam,
)
from ris_pls.ofdm import MAX_NUM_RB
from ris_pls.optimize import EvaluatorBatch, channel_powers
from ris_pls.ris import RisArrayGeometry, RisConfig
from ris_pls.scenario import Scenario
from ris_pls.secrecy import link_powers, to_db


def small_scenario(**kwargs):
    defaults = dict(
        ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
        channel=ChannelParams(rng_seed=1),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestRoundTrip:
    def test_dict_round_trip(self):
        sc = small_scenario()
        back = Scenario.from_dict(sc.to_dict())
        assert back.to_dict() == sc.to_dict()

    def test_file_round_trip(self, tmp_path):
        sc = small_scenario(tx_mode="prs", num_rb=4)
        path = tmp_path / "scenario.json"
        sc.save(path)
        assert Scenario.load(path).to_dict() == sc.to_dict()

    def test_malformed_document_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"tx": {"azimuth_deg": 0.0}})


class TestDigest:
    def test_digest_is_stable(self):
        assert small_scenario().digest() == small_scenario().digest()

    def test_digest_tracks_content(self):
        a = small_scenario()
        b = small_scenario(channel=ChannelParams(rng_seed=2))
        assert a.digest() != b.digest()

    def test_with_seed_changes_digest_only_via_seed(self):
        a = small_scenario()
        b = a.with_seed(99)
        assert b.seed == 99
        assert a.digest() != b.digest()
        assert b.with_seed(a.seed).digest() == a.digest()


class TestSignals:
    def test_tone_signal_single_bin(self):
        sig = small_scenario().tx_signal()
        assert sig.mode == "tone"
        assert sig.num_subcarriers == 1

    def test_prs_signal_covers_grid(self):
        sc = small_scenario(tx_mode="prs", num_rb=4)
        sig = sc.tx_signal()
        assert sig.mode == "prs"
        assert sig.num_subcarriers == 24
        np.testing.assert_array_equal(sig.freqs, sc.prs_grid().subcarrier_freqs()[::2])

    def test_channels_match_tx_freqs(self):
        sc = small_scenario()
        ch = sc.channels_for(sc.placement(0.0), sc.placement(15.0))
        assert ch.num_subcarriers == 1
        assert ch.num_elements == 16


LINKS = ("h_d_lu", "h_d_ed", "h_ris_lu", "h_ris_ed", "g_ris")


def reference_links(sc, lu, ed) -> dict:
    """The five links of (lu, ed) on the scenario's transmit grid, each from
    its own link function."""
    f, params = sc.tx_signal().freqs, sc.channel
    return {
        "h_d_lu": _direct_link(sc.tx, lu, params, f, _tx_beam(sc.tx)),
        "h_d_ed": _direct_link(sc.tx, ed, params, f, _tx_beam(sc.tx)),
        "h_ris_lu": _panel_link(lu, params, f, sc.ris, _LINK_RIS_NODE),
        "h_ris_ed": _panel_link(ed, params, f, sc.ris, _LINK_RIS_NODE),
        "g_ris": _panel_link(sc.tx, params, f, sc.ris, _LINK_TX_RIS),
    }


class TestLinkTables:
    @pytest.mark.parametrize("tx_mode", ["tone", "prs"])
    def test_pairs_share_the_links_of_a_placement(self, tx_mode):
        sc = small_scenario(tx_mode=tx_mode, num_rb=2)
        a, b, c = (sc.placement(angle) for angle in (0.0, 15.0, 30.0))
        ab, ac, cb = sc.channels_for(a, b), sc.channels_for(a, c), sc.channels_for(c, b)
        assert ab.h_d_lu is ac.h_d_lu and ab.h_ris_lu is ac.h_ris_lu
        assert ab.h_d_ed is cb.h_d_ed and ab.h_ris_ed is cb.h_ris_ed
        assert ac.h_d_ed is cb.h_d_lu and ac.h_ris_ed is cb.h_ris_lu
        assert ab.g_ris is ac.g_ris is cb.g_ris
        for name, link in reference_links(sc, a, c).items():
            assert not getattr(ac, name).flags.writeable
            assert getattr(ac, name).tobytes() == link.tobytes()

    def test_grids_keep_links_of_their_own(self):
        sc = small_scenario()
        a, b = sc.placement(0.0), sc.placement(15.0)
        tone = sc.channels_for(a, b)
        wide = sc.channels_for(a, b, small_scenario(tx_mode="prs", num_rb=2).tx_signal().freqs)
        assert wide.num_subcarriers == 12 and tone.num_subcarriers == 1
        assert sc.channels_for(a, b).g_ris is tone.g_ris
        assert sc.channels_for(a, b, wide.freqs).g_ris is wide.g_ris

    def test_with_seed_gives_fresh_links(self):
        sc = small_scenario()
        a, b = sc.placement(0.0), sc.placement(30.0)
        old = sc.channels_for(a, b)
        other = sc.with_seed(7)
        new = other.channels_for(a, b)
        for name, link in reference_links(other, a, b).items():
            assert getattr(new, name) is not getattr(old, name)
            assert getattr(new, name).tobytes() == link.tobytes()
        assert not np.array_equal(new.h_ris_lu, old.h_ris_lu)
        # The same seed again is a new scenario too, with links of its own.
        again = sc.with_seed(sc.seed).channels_for(a, b)
        assert again.g_ris is not old.g_ris and again.g_ris.tobytes() == old.g_ris.tobytes()

    @pytest.mark.parametrize("tx_mode", ["tone", "prs"])
    def test_channel_sets_drop_links_after_their_last_pair(self, tx_mode):
        sc = small_scenario(tx_mode=tx_mode, num_rb=2)
        a, b, c, d = (sc.placement(angle) for angle in (0.0, 15.0, 30.0, 45.0))
        pairs = [(a, b), (c, a), (d, c)]
        table = sc.link_table()
        held = []
        sets = []
        for channels in table.channel_sets(pairs):
            held.append(sorted(table._receivers))
            sets.append(channels)
        # After (a, b) only a is needed again, after (c, a) only c.
        assert held == [[_placement_key(a)], [_placement_key(c)], []]
        assert sets[1].h_ris_ed is sets[0].h_ris_lu and sets[2].h_ris_ed is sets[1].h_ris_lu
        for (lu, ed), channels in zip(pairs, sets):
            for name, link in reference_links(sc, lu, ed).items():
                assert getattr(channels, name).tobytes() == link.tobytes()
        # A link kept by `channels_for` is dropped after its last pair too.
        sc.channels_for(a, b)
        list(table.channel_sets([(a, c)]))
        assert list(table._receivers) == [_placement_key(b)]


class TestNoiseCalibration:
    def test_uniform_reference_snr_is_target(self):
        sc = small_scenario()
        n0 = sc.noise_power()
        sig = sc.tx_signal()
        ch = sc.channels_for(Placement(0.0, 7.0), Placement(15.0, 7.0), sig.freqs)
        batch = EvaluatorBatch([ch], sc.element_model, sig)
        per_bin = link_powers(batch.powers(RisConfig.zeros(4, 4).bits)[0]).p_lu / sig.num_subcarriers
        assert to_db(per_bin / n0) == pytest.approx(10.0, abs=1e-9)

    @pytest.mark.parametrize("tx_mode", ["tone", "prs"])
    def test_calibration_reads_only_the_lu(self, monkeypatch, tx_mode):
        # Receiver rows are worked out each on its own, so the LU row of a
        # pair with itself is the LU row of a pair with any ED, bit for bit.
        sc = small_scenario(tx_mode=tx_mode, num_rb=2)
        sig, bits = sc.tx_signal(), RisConfig.zeros(4, 4).bits
        lu, ed = Placement(0.0, 7.0), Placement(15.0, 7.0)
        pairs = []
        channels_for = sc.channels_for

        def recording(lu, ed, freqs):
            pairs.append((lu, ed))
            return channels_for(lu, ed, freqs)

        monkeypatch.setattr(sc, "channels_for", recording)
        sc.noise_power()
        assert pairs == [(lu, lu)]

        def lu_row(ed):
            return channel_powers(channels_for(lu, ed, sig.freqs), sc.element_model, sig, bits)[0]

        assert lu_row(lu).tobytes() == lu_row(ed).tobytes()

    def test_explicit_n0_wins(self):
        sc = small_scenario(n0=1e-12)
        assert sc.noise_power() == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(n0=0.0)
        with pytest.raises(ValueError):
            small_scenario(tx_mode="chirp")

    def test_resource_blocks_bounded_by_a_carrier(self):
        assert small_scenario(tx_mode="prs", num_rb=MAX_NUM_RB).tx_signal().num_subcarriers == 1650
        for num_rb in (0, MAX_NUM_RB + 1):
            with pytest.raises(ValueError, match="num_rb"):
                small_scenario(num_rb=num_rb)
