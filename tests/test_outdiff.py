import json
import subprocess
import sys
from pathlib import Path

import pytest

from outdiff import compare_dirs, main, structure_digest

OUTDIFF = Path(__file__).resolve().parent / "outdiff.py"

RESULTS = {
    "schema": "compare-results-v1",
    "results": [
        {"method": "alg1", "p_lu": 1.25e-7, "config_bits": "0110", "steps": [{"objective_after": 3.5, "accepted": True}]},
        {"method": "uniform", "p_lu": 2.0e-8, "config_bits": "0000", "steps": []},
    ],
}


def write_outputs(root: Path, results=RESULTS, csv="lu_deg,ed_deg\n0,15\n") -> Path:
    root.mkdir()
    (root / "compare_results.json").write_text(json.dumps(results, indent=1) + "\n")
    (root / "compare_powers.csv").write_text(csv)
    return root


def perturbed(path, value):
    doc = json.loads(json.dumps(RESULTS))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestOutdiff:
    def test_identical_directories_report_zero(self, tmp_path, capsys):
        a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b")
        drifts, failures = compare_dirs(a, b)
        assert list(drifts) == ["compare_results.json"] and drifts["compare_results.json"][0] == 0.0
        assert failures == []
        assert main([str(a), str(b)]) == 0
        assert capsys.readouterr().out == "compare_results.json\t0\n"

    def test_perturbed_float_is_reported(self, tmp_path):
        a = write_outputs(tmp_path / "a")
        b = write_outputs(tmp_path / "b", perturbed(["results", 0, "p_lu"], 1.25e-7 * (1 + 3e-12)))
        drifts, failures = compare_dirs(a, b)
        assert failures == []
        drift, at = drifts["compare_results.json"]
        assert drift == pytest.approx(3e-12, rel=1e-3) and at == "$.results[0].p_lu"
        assert main([str(a), str(b)]) == 0

    @pytest.mark.parametrize(
        "path, value",
        [
            (["results", 0, "config_bits"], "0111"),  # a flipped bit
            (["results", 0, "steps", 0, "accepted"], False),  # a flipped accept flag
            (["results", 1, "method"], "alg2"),
            (["results", 0, "p_lu"], None),
        ],
    )
    def test_non_float_difference_fails(self, tmp_path, path, value):
        a = write_outputs(tmp_path / "a")
        b = write_outputs(tmp_path / "b", perturbed(path, value))
        _, failures = compare_dirs(a, b)
        assert len(failures) == 1 and failures[0].startswith("compare_results.json: ")
        assert main([str(a), str(b)]) == 1

    def test_keys_and_lengths_must_match(self, tmp_path):
        a = write_outputs(tmp_path / "a")
        extra = perturbed(["results", 1, "extra"], 1.0)
        shorter = perturbed(["results"], RESULTS["results"][:1])
        for i, doc in enumerate((extra, shorter)):
            b = write_outputs(tmp_path / f"b{i}", doc)
            assert len(compare_dirs(a, b)[1]) == 1

    def test_csv_bytes_and_file_sets_must_match(self, tmp_path):
        a = write_outputs(tmp_path / "a")
        b = write_outputs(tmp_path / "b", csv="lu_deg,ed_deg\n0,15.0\n")
        assert compare_dirs(a, b)[1] == ["compare_powers.csv: bytes differ"]
        (b / "compare_powers.csv").unlink()
        assert compare_dirs(a, b)[1] == [f"only in {a}: compare_powers.csv"]

    def test_runs_as_a_script(self, tmp_path):
        a = write_outputs(tmp_path / "a")
        b = write_outputs(tmp_path / "b", perturbed(["results", 0, "config_bits"], "1110"))
        same = subprocess.run([sys.executable, str(OUTDIFF), str(a), str(a)], capture_output=True, text=True)
        differ = subprocess.run([sys.executable, str(OUTDIFF), str(a), str(b)], capture_output=True, text=True)
        assert (same.returncode, differ.returncode) == (0, 1)
        assert "FAIL compare_results.json" in differ.stdout


def swapped_step_keys(doc):
    doc = json.loads(json.dumps(doc))
    step = doc["results"][0]["steps"][0]
    doc["results"][0]["steps"][0] = dict(reversed(list(step.items())))
    return doc


class TestStructureDigest:
    def test_ignores_float_values(self):
        moved = perturbed(["results", 0, "steps", 0, "objective_after"], 3.5 * (1 + 1e-6))
        assert structure_digest(moved) == structure_digest(RESULTS)
        assert structure_digest(perturbed(["results", 1, "p_lu"], float("nan"))) == structure_digest(RESULTS)

    @pytest.mark.parametrize(
        "doc",
        [
            swapped_step_keys(RESULTS),
            perturbed(["results", 0, "steps", 0, "accepted"], False),
            perturbed(["results", 0, "config_bits"], "0111"),
            perturbed(["results", 0, "p_lu"], 1),  # an integer where a float was
            perturbed(["results", 0, "p_lu"], None),
            perturbed(["results", 1, "steps"], [{"objective_after": 1.0, "accepted": True}]),
        ],
        ids=["swapped-keys", "accept-flag", "bits", "int", "null", "length"],
    )
    def test_changes_with_what_json_drift_holds_exact(self, tmp_path, doc):
        assert structure_digest(doc) != structure_digest(RESULTS)
        a, b = write_outputs(tmp_path / "a"), write_outputs(tmp_path / "b", doc)
        assert compare_dirs(a, b)[1]
