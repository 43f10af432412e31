"""The package's public surface: the names `import ris_pls` gives, and the
README's library quick start, which must run as written."""

import contextlib
import inspect
import io
import re
from pathlib import Path

import ris_pls

README = Path(__file__).resolve().parents[1] / "README.md"

#: Every public name of `ris_pls` that is not a submodule. A name added or
#: removed here is an API change that README documents.
PUBLIC_NAMES = {
    "ChannelParams", "ChannelSet", "Placement", "SectorGrid",
    "Codebook", "CodebookEntry", "EdKnowledge", "generate_codebook", "scan_power_pattern", "select_config",
    "Numerology", "ResourceGrid", "TxSignal", "build_prs_grid", "prs_signal", "tone_signal",
    "EvaluatorBatch", "MeasurementNoise", "OptimizerTrace", "algorithm1", "exhaustive_oracle",
    "ElementModel", "RisArrayGeometry", "RisConfig",
    "Scenario",
    "LinkPowers", "SecrecyReport", "from_db", "link_powers", "sum_sse", "to_db",
}


def test_public_names():
    names = {n for n in dir(ris_pls) if not n.startswith("_") and not inspect.ismodule(getattr(ris_pls, n))}
    assert names == PUBLIC_NAMES


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lu_db, ed_db, r_sec_raw, ratio = map(float, out.getvalue().split())
    assert lu_db > ed_db and ratio > 1.0
