"""Shared builders for optimizer and codebook tests."""

import numpy as np

from ris_pls.channel import ChannelParams, ChannelSet, Placement, synthesize_channels
from ris_pls.ofdm import Numerology, TxSignal, build_prs_grid, prs_signal, tone_signal
from ris_pls.ris import RisArrayGeometry

CARRIER = 3.55e9

SECTOR_ANGLES = (0.0, 15.0, 30.0, 45.0)


def panel(n_v, n_h):
    return RisArrayGeometry(n_v=n_v, n_h=n_h, tile_rows=1, tile_cols=1)


def unit_tone():
    return tone_signal(Numerology())


def model_instance(seed, n_v, n_h, rician_k_db=10.0, waveform="tone"):
    """One Rician channel draw with sector placements chosen by the seed.

    `waveform` "prs" swaps the single tone for a two-RB comb grid.
    """
    rng = np.random.default_rng(seed)
    lu_a, ed_a = rng.choice(SECTOR_ANGLES, size=2, replace=False)
    tx = Placement(-15.0, 5.0)
    params = ChannelParams(rician_k_db=rician_k_db, rng_seed=int(seed))
    if waveform == "tone":
        sig = unit_tone()
    else:
        sig = prs_signal(build_prs_grid(Numerology(), num_rb=2, seed=int(seed)))
    channels = synthesize_channels(
        tx, Placement(lu_a, 7.0), Placement(ed_a, 7.0), panel(n_v, n_h), params, sig.freqs
    )
    return channels, sig


def handmade_channels(h_d_lu, h_d_ed, w_lu, w_ed):
    """K=1 channel set with the panel cascade set directly (g = 1)."""
    w_lu = np.asarray(w_lu, dtype=complex).reshape(1, -1)
    w_ed = np.asarray(w_ed, dtype=complex).reshape(1, -1)
    return ChannelSet(
        freqs=np.array([CARRIER]),
        h_d_lu=np.array([h_d_lu], dtype=complex),
        h_d_ed=np.array([h_d_ed], dtype=complex),
        h_ris_lu=w_lu,
        h_ris_ed=w_ed,
        g_ris=np.ones_like(w_lu),
    )


def single_tone_tx():
    return TxSignal(
        mode="tone",
        freqs=np.array([CARRIER]),
        symbols=np.array([1.0 + 0.0j]),
    )


def dense_receive(channels, model, config, tx):
    """Noiseless received signals (y_lu, y_ed) on every subcarrier by the
    dense direct sum (h_d + sum_m h_m * phi(c_m, f) * g_m) * x: the
    test-only reference for the evaluator and the pattern scan."""
    theta = model.phase_curves(channels.freqs)[:, config.bits]
    phi = model.amplitude * np.exp(1j * theta)
    x = tx.amplitudes()
    y_lu = (channels.h_d_lu + np.einsum("km,km,km->k", channels.h_ris_lu, phi, channels.g_ris)) * x
    y_ed = (channels.h_d_ed + np.einsum("km,km,km->k", channels.h_ris_ed, phi, channels.g_ris)) * x
    return y_lu, y_ed
