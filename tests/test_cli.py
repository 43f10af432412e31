import contextlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import ris_pls
from ris_pls import channel as channel_module
from ris_pls import scenario as scenario_module
from ris_pls.channel import ChannelParams, SectorGrid
from ris_pls.cli import _MODE_BY_COMMAND as MODE_BY_COMMAND
from ris_pls.cli import EXIT_OK, EXIT_RUNTIME, EXIT_SCENARIO, EXIT_SPEC, main
from ris_pls.experiments import ExperimentSpec, _measurement_noise, run_compare, run_frequency_selectivity
from ris_pls.optimize import PowerEvaluator, algorithm1, algorithm2, ed_min, lu_max
from ris_pls.ris import ElementModel, RisArrayGeometry
from ris_pls.scenario import Scenario


def write_scenario(path, **kwargs):
    defaults = dict(
        ris=RisArrayGeometry(n_v=4, n_h=4, tile_rows=2, tile_cols=2),
        channel=ChannelParams(rng_seed=1),
    )
    defaults.update(kwargs)
    sc = Scenario(**defaults)
    sc.save(path)
    return sc


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(ris_pls.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ris_pls.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


class TestCompare:
    def test_reference_table_shape(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        rc = main(["compare", "--scenario", str(scenario), "--out", str(out)])
        assert rc == EXIT_OK
        schema, header, rows = read_csv(out / "compare_powers.csv")
        assert schema == "# schema=compare-powers-v1"
        assert len(rows) == 9
        assert len(header) == 2 + 10  # 5 methods x LU/ED
        assert header[2:] == [
            "alg1_lu_db", "alg1_ed_db", "alg2_lu_db", "alg2_ed_db",
            "lu_max_lu_db", "lu_max_ed_db", "ed_min_lu_db", "ed_min_ed_db",
            "uniform_lu_db", "uniform_ed_db",
        ]
        _, sse_header, sse_rows = read_csv(out / "compare_sse.csv")
        assert len(sse_rows) == 9
        assert sse_header[2:] == ["alg1_sse", "alg2_sse", "lu_max_sse", "ed_min_sse", "uniform_sse"]

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--scenario", str(scenario), "--out", str(out_a)]) == EXIT_OK
        assert main(["compare", "--scenario", str(scenario), "--out", str(out_b)]) == EXIT_OK
        for name in ("compare_powers.csv", "compare_sse.csv", "compare_results.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_pair_uniform_has_no_trace(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "mode": "compare_methods",
                    "pairs": [[0.0, 15.0]],
                    "methods": ["uniform"],
                }
            )
        )
        out = tmp_path / "out"
        rc = main(
            ["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out)]
        )
        assert rc == EXIT_OK
        payload = json.loads((out / "compare_results.json").read_text())
        assert len(payload["results"]) == 1
        result = payload["results"][0]
        assert result["trace"] is None
        assert result["p_lu"] > 0 and result["p_ed"] > 0

    def test_seed_override_changes_results(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"]}))
        main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out_a)])
        main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out_b), "--seed", "77"])
        assert (out_a / "compare_powers.csv").read_text() != (out_b / "compare_powers.csv").read_text()

    def test_jobs_flag_preserves_output(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0], [15.0, 30.0]]}))
        main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out_a)])
        main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out_b), "--jobs", "4"])
        assert (out_a / "compare_powers.csv").read_text() == (out_b / "compare_powers.csv").read_text()

    def test_noisy_measurements_flag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"]}))
        rc = main([
            "compare", "--scenario", str(scenario), "--spec", str(spec),
            "--out", str(out), "--noisy-measurements",
        ])
        assert rc == EXIT_OK

    def test_jobs_calibrate_noise_once_per_seed(self, tmp_path, monkeypatch):
        # Noise calibration is the only evaluator the scenario module builds.
        calibrations = []
        calibrate = scenario_module.PowerEvaluator

        def slow_calibrate(*args):
            calibrations.append(args)
            time.sleep(0.05)  # long enough for a racing worker to start its own
            return calibrate(*args)

        monkeypatch.setattr(scenario_module, "PowerEvaluator", slow_calibrate)
        spec = ExperimentSpec(
            mode="compare_methods",
            out_dir=str(tmp_path),
            pairs=((0.0, 15.0), (15.0, 30.0)),
            methods=("alg1", "uniform"),
            seeds=(1, 2),
            jobs=2,
        )
        scenario = write_scenario(tmp_path / "scenario.json")
        run_compare(scenario, spec)
        assert len(calibrations) == 2

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_shared_evaluator_matches_fresh_evaluators(self, tmp_path, noisy):
        # Each pair's methods share one evaluator; each public optimizer
        # builds its own. Bits and every trace step must agree.
        scenario = write_scenario(tmp_path / "scenario.json")
        spec = ExperimentSpec(
            mode="compare_methods",
            out_dir=str(tmp_path),
            pairs=((0.0, 15.0), (30.0, 45.0)),
            noisy_measurements=noisy,
        )
        run_compare(scenario, spec)
        results = json.loads((tmp_path / "compare_results.json").read_text())["results"]
        optimizers = {"alg1": algorithm1, "alg2": algorithm2, "lu_max": lu_max, "ed_min": ed_min}
        sig = scenario.tx_signal()
        noise = _measurement_noise(spec, scenario, scenario.seed)
        checked = 0
        for r in results:
            if r["method"] == "uniform":
                continue
            lu, ed = scenario.placement(r["lu_deg"]), scenario.placement(r["ed_deg"])
            channels = scenario.channels_for(lu, ed, sig.freqs)
            trace = optimizers[r["method"]](channels, scenario.element_model, sig, scenario.ris, noise=noise)
            assert r["config_bits"] == trace.final_config.to_bitstring()
            assert r["trace"] == json.loads(json.dumps(trace.to_dict()))
            checked += 1
        assert checked == 8

    def test_one_evaluator_and_synthesis_per_pair(self, tmp_path, monkeypatch):
        built, synthesized = [], []
        init = PowerEvaluator.__init__
        synthesize = scenario_module.synthesize_channels

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        def counting_synthesize(*args):
            synthesized.append(args)
            return synthesize(*args)

        monkeypatch.setattr(PowerEvaluator, "__init__", counting_init)
        monkeypatch.setattr(scenario_module, "synthesize_channels", counting_synthesize)
        scenario = write_scenario(tmp_path / "scenario.json")
        run_compare(scenario, ExperimentSpec(mode="compare_methods", out_dir=str(tmp_path)))
        # 9 pairs x 5 methods, plus the noise calibration.
        assert len(built) == len(synthesized) == 10

    def test_jobs_compute_each_panel_link_once(self, tmp_path, monkeypatch):
        # Noise calibration builds the transmitter link and the receivers at
        # 0 and 15 deg; the two workers then start on the same pair and both
        # need the links at 30 and 45 deg.
        calls = []
        panel_link = channel_module._panel_link

        def slow_panel_link(node, params, f, elem, kind):
            calls.append((kind, node))
            time.sleep(0.05)  # long enough for the other worker to miss too
            return panel_link(node, params, f, elem, kind)

        monkeypatch.setattr(channel_module, "_panel_link", slow_panel_link)
        channel_module._memo_panel_link.cache_clear()
        spec = ExperimentSpec(
            mode="compare_methods",
            out_dir=str(tmp_path),
            pairs=((30.0, 45.0), (45.0, 30.0)),
            jobs=2,
        )
        run_compare(write_scenario(tmp_path / "scenario.json", tx_mode="prs", num_rb=2), spec)
        assert len(calls) == len(set(calls)) == 5
        assert channel_module._memo_panel_link.cache_info().misses == 5

    def test_outputs_follow_umask(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["uniform"]}))
        previous = os.umask(0o022)
        try:
            rc = main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out)])
        finally:
            os.umask(previous)
        assert rc == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["compare_powers.csv", "compare_results.json", "compare_sse.csv"]
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o644


class TestExitCodes:
    def test_missing_scenario_flag(self, capsys):
        assert main(["compare"]) == EXIT_SPEC
        assert "scenario" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["compare", "--scenario", str(bad)]) == EXIT_SCENARIO

    def test_missing_scenario_file(self, tmp_path):
        assert main(["compare", "--scenario", str(tmp_path / "nope.json")]) == EXIT_SCENARIO

    def test_bad_spec_method(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "methods": ["magic"]}))
        assert main(["compare", "--scenario", str(scenario), "--spec", str(spec)]) == EXIT_SPEC

    def test_spec_mode_mismatch(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "codebook_gen"}))
        assert main(["compare", "--scenario", str(scenario), "--spec", str(spec)]) == EXIT_SPEC

    def test_dimension_error_is_runtime(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        rc = main(
            [
                "pattern-scan",
                "--scenario", str(scenario),
                "--out", str(tmp_path),
                "--bits", "0101",  # 4 bits against a 16-element panel
            ]
        )
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "1e-300", "1e-9"])
    def test_bad_scan_step_is_spec_error(self, tmp_path, step):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        proc = run_cli(
            "pattern-scan", "--scenario", str(scenario), "--out", str(tmp_path),
            "--bits", "0" * 16, f"--step={step}",
        )
        assert proc.returncode == EXIT_SPEC
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "bounds",
        [["--stop=inf"], ["--start=nan"], ["--start=-100"], ["--stop=90.5"], ["--start=10", "--stop=-10"]],
    )
    def test_bad_scan_range_is_spec_error(self, tmp_path, bounds):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        proc = run_cli(
            "pattern-scan", "--scenario", str(scenario), "--out", str(tmp_path),
            "--bits", "0" * 16, *bounds,
        )
        assert proc.returncode == EXIT_SPEC
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["compare", "--spec", "{spec}"],
            ["pattern-scan", "--bits", "0" * 16, "--start=-20", "--stop=-10", "--step=5"],
        ],
        ids=["compare", "pattern-scan"],
    )
    def test_receiver_at_transmitter_is_runtime_error(self, tmp_path, args):
        # Users stand at the transmitter's range, and -15 degrees is its azimuth.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario, sector_grid=SectorGrid(user_range_m=5.0))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[-15.0, 0.0]]}))
        args = [a.format(spec=spec) for a in args]
        proc = run_cli(*args, "--scenario", str(scenario), "--out", str(tmp_path))
        assert proc.returncode == EXIT_RUNTIME
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "at the transmitter" in proc.stderr

    @pytest.mark.parametrize("ed", ["excluded:abc", "abc"])
    def test_malformed_ed_is_spec_error(self, tmp_path, ed):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        proc = run_cli(
            "codebook-query", "--scenario", str(scenario), "--out", str(tmp_path),
            "--codebook", str(tmp_path / "codebook.json"), "--lu", "0", f"--ed={ed}",
        )
        assert proc.returncode == EXIT_SPEC
        assert "Traceback" not in proc.stderr

    def test_negative_seed_is_scenario_error(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        proc = run_cli("compare", "--scenario", str(scenario), "--out", str(tmp_path), "--seed=-1")
        assert proc.returncode == EXIT_SCENARIO
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, mode",
        [("compare", "compare_methods"), ("freq-selectivity", "frequency_selectivity")],
    )
    def test_pair_with_lu_equal_ed_is_spec_error(self, tmp_path, command, mode):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": mode, "pairs": [[0.0, 0.0]]}))
        proc = run_cli(command, "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path))
        assert proc.returncode == EXIT_SPEC
        assert "Traceback" not in proc.stderr

    def test_print_schema(self, capsys):
        assert main(["compare", "--print-schema"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "scenario" in payload and "spec" in payload


class TestMalformedSpecFields:
    @pytest.mark.parametrize(
        "command, fields",
        [
            ("codebook-query", {"query_lu": "abc"}),
            ("pattern-scan", {"scan_config_bits": 5}),
            ("freq-selectivity", {"fs_num_rb": "x"}),
            ("compare", {"measurement_noise_db": "x", "noisy_measurements": True}),
        ],
    )
    def test_wrong_type_is_spec_error(self, tmp_path, command, fields):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": MODE_BY_COMMAND[command], **fields}))
        rc = main([command, "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path)])
        assert rc == EXIT_SPEC

    @pytest.mark.parametrize("ed", [{"excluded": 5}, {"known": [1]}, {"known": "x"}, {}])
    def test_malformed_ed_knowledge_is_spec_error(self, tmp_path, ed):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        assert main(["codebook-gen", "--scenario", str(scenario), "--out", str(tmp_path), "--methods", "alg1"]) == EXIT_OK
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "codebook_query", "codebook_path": str(tmp_path / "codebook.json"), "query_lu": 0.0, "query_ed": ed,
        }))
        rc = main(["codebook-query", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path)])
        assert rc == EXIT_SPEC

    def test_unwritable_output_is_runtime_error(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "codebook_gen", "codebook_path": str(tmp_path)}))
        rc = main(["codebook-gen", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path), "--methods", "alg1"])
        assert rc == EXIT_RUNTIME

    def test_unparsable_entry_is_spec_error(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        rc = main([
            "pattern-scan", "--scenario", str(scenario), "--out", str(tmp_path),
            "--codebook", str(tmp_path / "codebook.json"), "--entry", "abc", "15", "alg1",
        ])
        assert rc == EXIT_SPEC


#: Values swapped into spec fields: every JSON type, edge numbers, and
#: values that are valid for some other field. No value asks for unbounded
#: work (huge counts); tiny scan steps must be rejected by the spec's
#: angle-count limit.
SPEC_VALUES = (
    None, True, False, 0, -1, 1, 3, 0.5, -0.0, 15.0, 1e308, -1e308, 1e-300, 1e-9,
    float("nan"), float("inf"), "", ".", "x", "unknown", "alg1", "uniform", "0" * 16,
    [], [1], [0.0, 15.0], [[0.0, 15.0]], [[0.0, 0.0]], [[0.0, "x"]], [30, 15, "alg1"],
    [30, 15, ["alg1"]], {}, {"known": 15.0}, {"known": "x"}, {"excluded": 5},
    {"excluded": [15.0]}, {"mode": "x"},
)


@pytest.fixture(scope="module")
def fuzz_setup(tmp_path_factory):
    """A 4x4 tone scenario with three sectors and an alg1 codebook for it."""
    root = tmp_path_factory.mktemp("fuzz")
    scenario = root / "scenario.json"
    write_scenario(scenario, sector_grid=SectorGrid(sector_centers_deg=(0.0, 15.0, 30.0)))
    assert main(["codebook-gen", "--scenario", str(scenario), "--out", str(root), "--methods", "alg1"]) == EXIT_OK
    return scenario, root / "codebook.json"


class TestSpecFieldProperty:
    """Any spec with swapped field types or values exits 0, 2, 3 or 4,
    with no traceback."""

    BASE = {
        "compare": {"pairs": [[0.0, 15.0]], "methods": ["alg1", "uniform"]},
        "codebook-gen": {"methods": ["alg1"]},
        "codebook-query": {"query_lu": 0.0, "query_ed": "unknown"},
        "pattern-scan": {"scan_entry": [0.0, 15.0, "alg1"], "scan_step_deg": 15.0},
        "freq-selectivity": {"pairs": [[0.0, 15.0]], "fs_num_rb": 1},
    }
    #: The fields each command reads, swapped more often than the others.
    READS = {
        "compare": ["pairs", "methods", "seeds", "noisy_measurements", "measurement_noise_db", "measurement_averages"],
        "codebook-gen": ["methods", "codebook_path"],
        "codebook-query": ["codebook_path", "query_lu", "query_ed", "query_method"],
        "pattern-scan": [
            "codebook_path", "scan_config_bits", "scan_entry", "scan_start_deg", "scan_stop_deg",
            "scan_step_deg", "scan_range_m", "scan_attach",
        ],
        "freq-selectivity": ["pairs", "fs_method", "fs_num_rb", "fs_degenerate_single_bin"],
    }
    FIELDS = sorted(set(ExperimentSpec.__dataclass_fields__) - {"out_dir", "jobs"})

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(MODE_BY_COMMAND)), data=st.data())
    def test_swapped_fields_exit_cleanly(self, fuzz_setup, command, data):
        fields = st.sampled_from(self.READS[command]) | st.sampled_from(self.FIELDS)
        swaps = data.draw(st.dictionaries(fields, st.sampled_from(SPEC_VALUES), max_size=2), label="swaps")
        scenario, codebook = fuzz_setup
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            # A copy, because --attach and codebook-gen may rewrite it.
            shutil.copy(codebook, "codebook.json")
            spec = {"mode": MODE_BY_COMMAND[command], "codebook_path": "codebook.json"}
            spec.update(self.BASE[command])
            spec.update(swaps)
            with open("spec.json", "w") as fh:
                json.dump(spec, fh)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rc = main([command, "--scenario", str(scenario), "--spec", "spec.json", "--out", "out"])
        assert rc in (EXIT_OK, EXIT_SPEC, EXIT_SCENARIO, EXIT_RUNTIME)
        assert "Traceback" not in stderr.getvalue()


class TestCodebookCommands:
    def test_gen_and_query(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        rc = main(
            [
                "codebook-gen",
                "--scenario", str(scenario),
                "--out", str(out),
                "--methods", "alg1",
            ]
        )
        assert rc == EXIT_OK
        cb_path = out / "codebook.json"
        payload = json.loads(cb_path.read_text())
        assert len(payload["entries"]) == 12
        schema, header, rows = read_csv(out / "codebook_powers.csv")
        assert len(rows) == 12
        capsys.readouterr()

        rc = main(
            [
                "codebook-query",
                "--scenario", str(scenario),
                "--out", str(out),
                "--codebook", str(cb_path),
                "--lu", "0", "--ed", "15",
            ]
        )
        assert rc == EXIT_OK
        stdout = capsys.readouterr().out
        bitstring = stdout.splitlines()[0]
        assert set(bitstring) <= {"0", "1"} and len(bitstring) == 16
        result = json.loads((out / "codebook_query.json").read_text())
        assert result["entry"] == {"lu_sector": 0.0, "ed_sector": 15.0}

    def test_query_unknown_ed(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(scenario), "--out", str(out), "--methods", "alg1"])
        capsys.readouterr()
        rc = main(
            [
                "codebook-query",
                "--scenario", str(scenario),
                "--out", str(out),
                "--codebook", str(out / "codebook.json"),
                "--lu", "0", "--ed", "unknown",
            ]
        )
        assert rc == EXIT_OK
        result = json.loads((out / "codebook_query.json").read_text())
        assert result["ed_knowledge"]["kind"] == "unknown"
        assert "guaranteed_sse" in result

    def test_off_grid_query_snaps_with_warning(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(scenario), "--out", str(out), "--methods", "alg1"])
        with pytest.warns(UserWarning, match="snapped"):
            rc = main(
                [
                    "codebook-query",
                    "--scenario", str(scenario),
                    "--out", str(out),
                    "--codebook", str(out / "codebook.json"),
                    "--lu", "4", "--ed", "15",
                ]
            )
        assert rc == EXIT_OK
        result = json.loads((out / "codebook_query.json").read_text())
        assert result["lu_sector"] == 0.0
        assert result["snap_distance_deg"] == 4.0

    def test_missing_codebook_is_spec_error(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        rc = main(
            [
                "codebook-query",
                "--scenario", str(scenario),
                "--codebook", str(tmp_path / "nope.json"),
                "--lu", "0", "--ed", "15",
            ]
        )
        assert rc == EXIT_SPEC


class TestPatternScan:
    def test_default_resolution_gives_361_points(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        rc = main(
            [
                "pattern-scan",
                "--scenario", str(scenario),
                "--out", str(out),
                "--bits", "0" * 16,
            ]
        )
        assert rc == EXIT_OK
        _, header, rows = read_csv(out / "power_pattern.csv")
        assert header == ["angle_deg", "power", "power_db"]
        assert len(rows) == 361

    def test_scan_codebook_entry_and_attach(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(scenario), "--out", str(out), "--methods", "alg1"])
        cb_path = out / "codebook.json"
        rc = main(
            [
                "pattern-scan",
                "--scenario", str(scenario),
                "--out", str(out),
                "--codebook", str(cb_path),
                "--entry", "0", "15", "alg1",
                "--start", "-30", "--stop", "30", "--step", "15",
                "--attach",
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(cb_path.read_text())
        entry = next(
            e for e in payload["entries"] if e["lu_sector"] == 0.0 and e["ed_sector"] == 15.0
        )
        assert len(entry["power_pattern"]) == 5

    def test_failed_attach_leaves_codebook_intact(self, tmp_path, monkeypatch):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(scenario), "--out", str(out), "--methods", "alg1"])
        cb_path = out / "codebook.json"
        original = cb_path.read_bytes()
        replace = os.replace

        def replace_failing_on_codebook(src, dst):
            if os.path.abspath(dst) == str(cb_path):
                raise OSError("simulated failure while replacing the codebook")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_on_codebook)
        rc = main(
            [
                "pattern-scan",
                "--scenario", str(scenario),
                "--out", str(out),
                "--codebook", str(cb_path),
                "--entry", "0", "15", "alg1",
                "--start", "-30", "--stop", "30", "--step", "15",
                "--attach",
            ]
        )
        assert rc == EXIT_RUNTIME
        assert cb_path.read_bytes() == original
        assert not list(out.glob(".tmp-*"))


class TestFrequencySelectivity:
    def test_ideal_model_warns_but_runs(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(
            scenario,
            channel=ChannelParams(num_paths=1, direct_path_suppression_db=150.0, rng_seed=1),
        )
        out = tmp_path / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"mode": "frequency_selectivity", "pairs": [[0.0, 15.0], [15.0, 30.0]]})
        )
        with pytest.warns(UserWarning, match="frequency-flat"):
            rc = main(
                [
                    "freq-selectivity",
                    "--scenario", str(scenario),
                    "--spec", str(spec),
                    "--out", str(out),
                ]
            )
        assert rc == EXIT_OK
        payload = json.loads((out / "frequency_selectivity.json").read_text())
        for row in payload["results"]:
            assert abs(row["narrowband_gap_db"] - row["wideband_gap_db"]) < 0.2

    def test_dispersive_model_shrinks_gap(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(
            scenario,
            ris=RisArrayGeometry(n_v=8, n_h=8, tile_rows=4, tile_cols=4),
            channel=ChannelParams(num_paths=1, rng_seed=1),
            element_model=ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=1e-7),
        )
        out = tmp_path / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"mode": "frequency_selectivity", "pairs": [[0.0, 30.0], [30.0, 0.0]]})
        )
        rc = main(
            ["freq-selectivity", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out)]
        )
        assert rc == EXIT_OK
        payload = json.loads((out / "frequency_selectivity.json").read_text())
        for row in payload["results"]:
            assert row["wideband_gap_db"] < row["narrowband_gap_db"]

    def test_reference_pairs_compute_each_panel_link_once(self, tmp_path, monkeypatch):
        # One pass per grid: the transmitter and 4 receiver links on the tone
        # grid, then the same 5 on the wideband grid.
        sc = write_scenario(
            tmp_path / "scenario.json",
            element_model=ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=1e-7),
        )
        calls = []
        panel_link = channel_module._panel_link
        monkeypatch.setattr(
            channel_module, "_panel_link", lambda *a: calls.append(a) or panel_link(*a)
        )
        channel_module._memo_panel_link.cache_clear()
        run_frequency_selectivity(sc, ExperimentSpec(mode="frequency_selectivity", out_dir=str(tmp_path)))
        assert len(calls) == 10

    def test_degenerate_single_bin_equals_tone(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(
            scenario,
            element_model=ElementModel(mode="linear_dispersion", dispersion_rad_per_hz=1e-7),
        )
        out = tmp_path / "out"
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "mode": "frequency_selectivity",
                    "pairs": [[0.0, 15.0]],
                    "fs_degenerate_single_bin": True,
                }
            )
        )
        rc = main(
            ["freq-selectivity", "--scenario", str(scenario), "--spec", str(spec), "--out", str(out)]
        )
        assert rc == EXIT_OK
        payload = json.loads((out / "frequency_selectivity.json").read_text())
        row = payload["results"][0]
        assert abs(row["wideband_gap_db"] - row["narrowband_gap_db"]) < 1e-6
