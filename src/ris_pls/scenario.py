"""Scenario files: one JSON document describing a complete simulated setup.

A scenario pins the transmitter placement, the user sector grid, the panel
geometry, the element reflection model, the ray-channel parameters, the
transmit waveform, and the noise power. Everything derived from it
(channels, codebooks, experiment outputs) is reproducible from the file
alone; a digest of the canonical JSON ties derived artifacts back to it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import ChannelParams, ChannelSet, LinkTable, Placement, SectorGrid
from .fields import check_types
from .ofdm import MAX_NUM_RB, Numerology, ResourceGrid, TxSignal, build_prs_grid, prs_signal, tone_signal
from .ris import ElementModel, RisArrayGeometry, RisConfig
from .secrecy import from_db
from .codebook import pair_evaluators

SCENARIO_SCHEMA = "ris-pls/scenario-v1"


@dataclass
class Scenario:
    tx: Placement = field(default_factory=lambda: Placement(-15.0, 5.0))
    sector_grid: SectorGrid = field(default_factory=SectorGrid)
    ris: RisArrayGeometry = field(default_factory=RisArrayGeometry)
    element_model: ElementModel = field(default_factory=ElementModel)
    channel: ChannelParams = field(default_factory=ChannelParams)
    tx_mode: str = "tone"
    tone_offset_hz: float = 100e3
    numerology: Numerology = field(default_factory=Numerology)
    num_rb: int = 52
    n0: float | None = None
    target_snr_db: float = 10.0

    def __post_init__(self):
        check_types(self)
        if self.tx_mode not in ("tone", "prs"):
            raise ValueError("tx_mode must be 'tone' or 'prs'")
        if not 1 <= self.num_rb <= MAX_NUM_RB:
            raise ValueError(f"num_rb must be 1 to {MAX_NUM_RB} resource blocks, not {self.num_rb}")
        if self.n0 is not None and self.n0 <= 0:
            raise ValueError("n0 must be positive when given")
        try:
            snr = from_db(self.target_snr_db)
        except OverflowError:
            snr = math.inf
        if not 0.0 < snr < math.inf:
            raise ValueError(f"target_snr_db {self.target_snr_db!r} is no positive finite linear SNR")
        self._n0_cache = None
        self._link_tables = {}

    @property
    def seed(self) -> int:
        return self.channel.rng_seed

    def with_seed(self, seed: int) -> "Scenario":
        """A copy at channel seed `seed`, with link tables of its own."""
        return replace(self, channel=replace(self.channel, rng_seed=int(seed)))

    # ------------------------------------------------------------------
    # Waveform and channels
    # ------------------------------------------------------------------

    def tx_signal(self) -> TxSignal:
        if self.tx_mode == "tone":
            return tone_signal(self.numerology, self.channel.carrier_hz, self.tone_offset_hz)
        return prs_signal(self.prs_grid())

    def prs_grid(self) -> ResourceGrid:
        return build_prs_grid(
            self.numerology,
            num_rb=self.num_rb,
            seed=self.seed,
            center_freq_hz=self.channel.carrier_hz,
        )

    def placement(self, angle_deg: float) -> Placement:
        return Placement(angle_deg, self.sector_grid.user_range_m)

    def link_table(self, freqs=None) -> LinkTable:
        """The scenario's `LinkTable` for the grid `freqs` (default: the
        subcarriers of the transmit signal). The tables follow the fields
        as they were set: `replace` builds a scenario with its own."""
        if freqs is None:
            freqs = self.tx_signal().freqs
        f = np.asarray(freqs, dtype=float)
        key = (f.shape, f.tobytes())
        table = self._link_tables.get(key)
        if table is None:
            table = self._link_tables[key] = LinkTable(self.tx, self.ris, self.channel, f)
        return table

    def channels_for(self, lu: Placement, ed: Placement, freqs=None) -> ChannelSet:
        """The channels to (lu, ed) at `freqs` from `link_table(freqs)`,
        which keeps no receiver link of them."""
        return self.link_table(freqs).channels(lu, ed)

    def noise_power(self) -> float:
        """Configured n0, or one calibrated so the uniform-surface LU at the
        front sector center sees the target mean per-subcarrier SNR."""
        if self.n0 is not None:
            return self.n0
        if self._n0_cache is None:
            tx_sig = self.tx_signal()
            lu = Placement(0.0, self.sector_grid.user_range_m)
            (_, batch), = pair_evaluators(self, tx_sig, [(lu, lu)])
            p = batch.powers(RisConfig.zeros(self.ris.n_v, self.ris.n_h).bits)[0]
            per_bin = float(p[0].sum()) / tx_sig.num_subcarriers
            self._n0_cache = per_bin / from_db(self.target_snr_db)
        return self._n0_cache

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        parts = ("tx", "sector_grid", "ris", "element_model", "channel")
        return {
            "schema": SCENARIO_SCHEMA,
            **{name: asdict(getattr(self, name)) for name in parts},
            "tx_signal": {
                "mode": self.tx_mode,
                "tone_offset_hz": self.tone_offset_hz,
                "numerology_mu": self.numerology.mu,
                "cp_mode": self.numerology.cp_mode,
                "num_rb": self.num_rb,
            },
            "noise": {"n0": self.n0, "target_snr_db": self.target_snr_db},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """The scenario a document describes; a key it leaves out takes the
        field's default."""
        try:
            sig = dict(data["tx_signal"])
            return cls(
                tx=Placement(**data["tx"]),
                sector_grid=SectorGrid(**data["sector_grid"]),
                ris=RisArrayGeometry(**data["ris"]),
                element_model=ElementModel(**data["element_model"]),
                channel=ChannelParams(**data["channel"]),
                tx_mode=sig.pop("mode"),
                numerology=Numerology(sig.pop("numerology_mu"), sig.pop("cp_mode", Numerology.cp_mode)),
                **sig,
                **data.get("noise", {}),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed scenario document: {exc}") from exc

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
