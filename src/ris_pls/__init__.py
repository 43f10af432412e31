"""Desk-scale simulator and optimizer for RIS-aided physical-layer security."""

from .channel import (
    ChannelParams,
    ChannelSet,
    Placement,
    SectorGrid,
    synthesize_channels,
)
from .codebook import (
    Codebook,
    CodebookEntry,
    EdKnowledge,
    detect_side_lobes,
    generate_codebook,
    scan_power_pattern,
    select_config,
)
from .ofdm import (
    Numerology,
    ResourceGrid,
    TxSignal,
    build_prs_grid,
    prs_signal,
    tone_signal,
)
from .optimize import (
    EvaluatorBatch,
    MeasurementNoise,
    OptimizerTrace,
    algorithm1,
    algorithm2,
    ed_min,
    exhaustive_oracle,
    lu_max,
)
from .ris import ElementModel, RisArrayGeometry, RisConfig
from .scenario import Scenario
from .secrecy import (
    LinkPowers,
    SecrecyReport,
    from_db,
    link_powers,
    sum_sse,
    to_db,
)

__version__ = "0.1.0"
