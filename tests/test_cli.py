import argparse
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
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import sweep_one
import ris_pls
from ris_pls import channel as channel_module
from ris_pls import cli as cli_module
from ris_pls import codebook as codebook_module
from ris_pls import scenario as scenario_module
from ris_pls.channel import ChannelParams, SectorGrid
from ris_pls.cli import _MODE_BY_COMMAND as MODE_BY_COMMAND
from ris_pls.cli import EXIT_OK, EXIT_RUNTIME, EXIT_SCENARIO, EXIT_SPEC, main
from ris_pls.experiments import (
    MAX_MEASUREMENT_AVERAGES,
    ExperimentSpec,
    SpecError,
    _measurement_noise,
    run_compare,
    run_frequency_selectivity,
)
from ris_pls.optimize import EvaluatorBatch
from ris_pls.ofdm import MAX_NUM_RB
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

    @pytest.mark.parametrize("flags", [False, True])
    def test_spec_out_dir_unless_flag_given(self, tmp_path, monkeypatch, flags):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"],
            "out_dir": str(tmp_path / "fromspec"),
        }))
        seen = []
        monkeypatch.setattr(cli_module, "run", lambda sc, sp, run=cli_module.run: seen.append(sp) or run(sc, sp))
        argv = ["compare", "--scenario", str(scenario), "--spec", str(spec)]
        if flags:
            argv += ["--out", str(tmp_path / "fromflag")]
        assert main(argv) == EXIT_OK
        out = tmp_path / ("fromflag" if flags else "fromspec")
        assert seen[0].out_dir == str(out)
        assert (out / "compare_powers.csv").exists()
        assert not (tmp_path / ("fromspec" if flags else "fromflag")).exists()

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

    def test_noise_calibrated_once_per_seed(self, tmp_path, monkeypatch):
        # Noise calibration is the only power the scenario module reads.
        calibrations = []
        calibrate = scenario_module.channel_powers

        def counting_calibrate(*args):
            calibrations.append(args)
            return calibrate(*args)

        monkeypatch.setattr(scenario_module, "channel_powers", counting_calibrate)
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "compare_methods", "pairs": [[0.0, 15.0], [15.0, 30.0]], "methods": ["alg1", "uniform"],
            "seeds": [1, 2],
        }))
        assert main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path)]) == EXIT_OK
        assert len(calibrations) == 2
        payload = json.loads((tmp_path / "compare_results.json").read_text())
        assert payload["seeds"] == [1, 2]
        assert [r["seed"] for r in payload["results"]] == [1] * 4 + [2] * 4

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    def test_shared_evaluator_matches_fresh_evaluators(self, tmp_path, noisy):
        # Each pair's methods share one evaluator; each `sweep_one` builds
        # its own. Bits and every trace step must agree.
        scenario = write_scenario(tmp_path / "scenario.json")
        spec = ExperimentSpec(
            mode="compare_methods",
            out_dir=str(tmp_path),
            pairs=((0.0, 15.0), (30.0, 45.0)),
            noisy_measurements=noisy,
        )
        run_compare(scenario, spec)
        results = json.loads((tmp_path / "compare_results.json").read_text())["results"]
        sig = scenario.tx_signal()
        noise = _measurement_noise(spec, scenario, scenario.seed)
        checked = 0
        for r in results:
            if r["method"] == "uniform":
                continue
            lu, ed = scenario.placement(r["lu_deg"]), scenario.placement(r["ed_deg"])
            channels = scenario.channels_for(lu, ed, sig.freqs)
            trace = sweep_one(r["method"], channels, scenario.element_model, sig, scenario.ris, noise=noise)
            assert r["config_bits"] == trace.final_config.to_bitstring()
            assert r["trace"] == json.loads(json.dumps(trace.to_dict()))
            checked += 1
        assert checked == 8

    def test_one_evaluator_and_synthesis_per_pair(self, tmp_path, monkeypatch):
        # Batch rows are counted as the channel sets the batches are built
        # from, channel sets as the link table's `channels` calls.
        built, synthesized = [], []
        init = EvaluatorBatch.__init__
        channels = channel_module.LinkTable.channels

        def counting_init(self, channel_sets, *args):
            built.extend(channel_sets)
            init(self, channel_sets, *args)

        def counting_channels(self, lu, ed):
            synthesized.append((lu, ed))
            return channels(self, lu, ed)

        monkeypatch.setattr(EvaluatorBatch, "__init__", counting_init)
        monkeypatch.setattr(channel_module.LinkTable, "channels", counting_channels)
        scenario = write_scenario(tmp_path / "scenario.json")
        run_compare(scenario, ExperimentSpec(mode="compare_methods", out_dir=str(tmp_path)))
        # 9 pairs x 5 methods; the noise calibration takes its channel set
        # but reads its powers without a batch.
        assert len(built) == 9
        assert len(synthesized) == 10

    def test_compute_each_panel_link_once(self, tmp_path, monkeypatch):
        # Noise calibration builds the receiver at 0 deg and the transmitter
        # link; the links at 30 and 45 deg, which both pairs need, are built
        # once.
        calls, direct = [], []
        panel_link, direct_link = channel_module._panel_link, channel_module._direct_link

        def counting_panel_link(node, params, f, elem, kind):
            calls.append((kind, node))
            return panel_link(node, params, f, elem, kind)

        def counting_direct_link(tx, node, *args):
            direct.append(node)
            return direct_link(tx, node, *args)

        monkeypatch.setattr(channel_module, "_panel_link", counting_panel_link)
        monkeypatch.setattr(channel_module, "_direct_link", counting_direct_link)
        spec = ExperimentSpec(
            mode="compare_methods",
            out_dir=str(tmp_path),
            pairs=((30.0, 45.0), (45.0, 30.0)),
        )
        run_compare(write_scenario(tmp_path / "scenario.json", tx_mode="prs", num_rb=2), spec)
        assert len(calls) == len(set(calls)) == 4
        assert [node.azimuth_deg for node in direct] == [0.0, 30.0, 45.0]

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

    @pytest.mark.parametrize("bits", ["0101", "", "01x0010101010101"], ids=["short", "empty", "not-binary"])
    def test_malformed_bits_is_spec_error(self, tmp_path, bits):
        # A bit-string of the wrong length (16 elements here) or alphabet.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        proc = run_cli("pattern-scan", "--scenario", str(scenario), "--out", str(out), "--bits", bits)
        assert proc.returncode == EXIT_SPEC
        assert proc.stderr.startswith("spec error: ") and "Traceback" not in proc.stderr
        assert not (out / "power_pattern.csv").exists()

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
        # An unknown flag, such as `--jobs`, exits 2 through argparse.
        [["--stop=inf"], ["--start=nan"], ["--start=-100"], ["--stop=90.5"], ["--start=10", "--stop=-10"],
         ["--jobs", "2"]],
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

    @pytest.mark.parametrize("command", sorted(MODE_BY_COMMAND))
    def test_jobs_flag_is_unrecognized(self, tmp_path, capsys, command):
        # No subcommand takes a worker count: the sweep runs in one thread.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", str(scenario), "--out", str(out), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_scan_range_is_spec_error(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "pattern_scan", "scan_config_bits": "0" * 16, "scan_range_m": float("inf")}))
        rc = main(["pattern-scan", "--spec", str(spec), "--scenario", str(scenario), "--out", str(tmp_path)])
        assert rc == EXIT_SPEC
        assert not (tmp_path / "power_pattern.csv").exists()

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

    @pytest.mark.parametrize("ed", ["excluded:abc", "abc", "excluded:"])
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

    def test_measurement_averages_beyond_the_bound_are_spec_error(self, tmp_path):
        # Without the bound, each reading would draw 1e12 noise vectors.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"],
            "noisy_measurements": True, "measurement_averages": 1_000_000_000_000,
        }))
        start = time.monotonic()
        proc = run_cli("compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path))
        assert time.monotonic() - start < 10.0
        assert proc.returncode == EXIT_SPEC
        assert proc.stderr.startswith("spec error: measurement_averages") and "Traceback" not in proc.stderr
        assert not (tmp_path / "compare_results.json").exists()
        limit = ExperimentSpec("compare_methods", measurement_averages=MAX_MEASUREMENT_AVERAGES)
        assert limit.measurement_averages == MAX_MEASUREMENT_AVERAGES
        with pytest.raises(SpecError):
            ExperimentSpec("compare_methods", measurement_averages=MAX_MEASUREMENT_AVERAGES + 1)

    def test_resource_blocks_beyond_a_carrier_are_spec_error(self, tmp_path):
        # int("01" * 8) resource blocks, far beyond the 275 of one carrier.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        proc = run_cli(
            "freq-selectivity", "--scenario", str(scenario), "--out", str(tmp_path), "--num-rb", "101010101010101"
        )
        assert proc.returncode == EXIT_SPEC
        assert proc.stderr.startswith("spec error: ") and "Traceback" not in proc.stderr
        assert not (tmp_path / "frequency_selectivity.csv").exists()
        assert ExperimentSpec("frequency_selectivity", fs_num_rb=MAX_NUM_RB).fs_num_rb == MAX_NUM_RB

    @pytest.mark.parametrize("db", ["1e308", "-1e308"], ids=["overflow", "underflow"])
    def test_measurement_noise_beyond_the_float_range_is_spec_error(self, tmp_path, db):
        # 10 ** (1e308 / 10) overflows; 10 ** (-1e308 / 10) is 0, which
        # would run a noisy compare without noise.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"],
            "noisy_measurements": True, "measurement_noise_db": float(db),
        }))
        proc = run_cli("compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path))
        assert proc.returncode == EXIT_SPEC
        assert proc.stderr.startswith("spec error: measurement_noise_db") and "Traceback" not in proc.stderr
        assert not (tmp_path / "compare_results.json").exists()

    def test_print_schema(self, capsys):
        assert main(["compare", "--print-schema"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert "scenario" in payload and "spec" in payload


#: (flags, spec field, value) for the flags every subcommand takes.
COMMON_FLAGS = [
    (["--scenario", "s.json"], "scenario_path", "s.json"),
    (["--out", "o"], "out_dir", "o"),
    (["--noisy-measurements"], "noisy_measurements", True),
]
#: (argv, spec field, value): one argv per flag of every subcommand.
FLAG_CASES = [
    ([command, *flags], field, value) for command in MODE_BY_COMMAND for flags, field, value in COMMON_FLAGS
] + [
    (["compare", "--methods", "alg1", "uniform"], "methods", ("alg1", "uniform")),
    (["codebook-gen", "--methods", "alg1", "alg2"], "methods", ("alg1", "alg2")),
    (["codebook-gen", "--codebook", "cb.json"], "codebook_path", "cb.json"),
    (["codebook-query", "--codebook", "cb.json"], "codebook_path", "cb.json"),
    (["codebook-query", "--lu", "15"], "query_lu", 15.0),
    (["codebook-query", "--ed", "unknown"], "query_ed", "unknown"),
    (["codebook-query", "--ed", "30"], "query_ed", {"known": 30.0}),
    (["codebook-query", "--ed", "excluded:15,30"], "query_ed", {"excluded": [15.0, 30.0]}),
    (["codebook-query", "--method", "alg2"], "query_method", "alg2"),
    (["pattern-scan", "--codebook", "cb.json"], "codebook_path", "cb.json"),
    (["pattern-scan", "--bits", "0101"], "scan_config_bits", "0101"),
    (["pattern-scan", "--entry", "30", "15", "alg1"], "scan_entry", (30.0, 15.0, "alg1")),
    (["pattern-scan", "--start", "-30"], "scan_start_deg", -30.0),
    (["pattern-scan", "--stop", "30"], "scan_stop_deg", 30.0),
    (["pattern-scan", "--step", "0.25"], "scan_step_deg", 0.25),
    (["pattern-scan", "--attach"], "scan_attach", True),
    (["freq-selectivity", "--method", "alg2"], "fs_method", "alg2"),
    (["freq-selectivity", "--num-rb", "4"], "fs_num_rb", 4),
    (["freq-selectivity", "--degenerate-single-bin"], "fs_degenerate_single_bin", True),
]


class TestFlagsWriteSpecFields:
    """Each flag stores into one spec field; the rest keep their defaults."""

    def test_every_dest_is_a_spec_field(self):
        allowed = set(ExperimentSpec.__dataclass_fields__) | set(cli_module._NOT_SPEC)
        parser = cli_module.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(commands.choices) == sorted(MODE_BY_COMMAND)
        for sub in commands.choices.values():
            for action in sub._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert action.dest in allowed, action.option_strings

    @pytest.mark.parametrize("argv, field, value", FLAG_CASES, ids=[" ".join(c[0]) for c in FLAG_CASES])
    def test_flag_sets_its_field(self, argv, field, value):
        spec = cli_module._spec_from_args(cli_module.build_parser().parse_args(argv))
        assert asdict(spec) == {**asdict(ExperimentSpec(MODE_BY_COMMAND[argv[0]])), field: value}

    @pytest.mark.parametrize("command", sorted(MODE_BY_COMMAND))
    def test_print_schema_is_every_default(self, capsys, command):
        assert main([command, "--print-schema"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        spec = ExperimentSpec.from_dict(payload["spec"])
        assert spec == ExperimentSpec(MODE_BY_COMMAND[command])
        assert set(payload["spec"]) == set(ExperimentSpec.__dataclass_fields__) | {"schema"}
        assert Scenario.from_dict(payload["scenario"]).digest() == Scenario().digest()

    @pytest.mark.parametrize("flag", [False, True])
    def test_spec_scenario_path_unless_flag_given(self, tmp_path, flag):
        from_spec = write_scenario(tmp_path / "a.json")
        from_flag = write_scenario(tmp_path / "b.json", channel=ChannelParams(rng_seed=2))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["uniform"],
            "scenario_path": str(tmp_path / "a.json"),
        }))
        argv = ["compare", "--spec", str(spec), "--out", str(tmp_path)]
        if flag:
            argv += ["--scenario", str(tmp_path / "b.json")]
        assert main(argv) == EXIT_OK
        payload = json.loads((tmp_path / "compare_results.json").read_text())
        assert payload["scenario_digest"] == (from_flag if flag else from_spec).digest()


class TestMalformedSpecFields:
    @pytest.mark.parametrize(
        "command, fields",
        [
            ("codebook-query", {"query_lu": "abc"}),
            ("pattern-scan", {"scan_config_bits": 5}),
            ("freq-selectivity", {"fs_num_rb": "x"}),
            ("freq-selectivity", {"fs_num_rb": MAX_NUM_RB + 1}),
            ("compare", {"measurement_noise_db": "x", "noisy_measurements": True}),
            ("compare", {"out_dir": 5}),
            ("compare", {"out_dir": None}),
            ("compare", {"seeds": [1.5]}),
            ("compare", {"seeds": [True]}),
            ("compare", {"seeds": ["3"]}),
            ("compare", {"seeds": [-1]}),
            ("compare", {"seeds": [2**64]}),
            ("compare", {"pairs": [[float("nan"), 15.0]]}),
            ("compare", {"pairs": [[120.0, 15.0]]}),
            ("compare", {"pairs": [["0", 15.0]]}),
            ("compare", {"pairs": [[True, 15.0]]}),
            ("compare", {"noisy_measurements": "no"}),
            ("pattern-scan", {"scan_config_bits": "0" * 16, "scan_attach": 1}),
            ("freq-selectivity", {"fs_degenerate_single_bin": "yes"}),
            ("compare", {"scenario_path": 5}),
            ("compare", {"methods": ["alg1", "uniform", "alg1"]}),
            ("codebook-gen", {"methods": ["alg1", "alg1"]}),
        ],
        ids=[
            "query_lu-string", "scan_config_bits-int", "fs_num_rb-string", "fs_num_rb-above-max",
            "measurement_noise_db-string", "out_dir-int", "out_dir-null", "seeds-float", "seeds-bool",
            "seeds-string", "seeds-negative", "seeds-2**64", "pairs-nan", "pairs-120-degrees", "pairs-string",
            "pairs-bool", "noisy_measurements-string", "scan_attach-int", "fs_degenerate_single_bin-string",
            "scenario_path-int", "compare-methods-repeated", "codebook-gen-methods-repeated",
        ],
    )
    def test_wrong_type_is_spec_error(self, tmp_path, capsys, command, fields):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": MODE_BY_COMMAND[command], **fields}))
        rc = main([command, "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path)])
        assert rc == EXIT_SPEC
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(MODE_BY_COMMAND))
    def test_unknown_field_is_spec_error(self, tmp_path, capsys, command):
        # Spec files written before `jobs` was removed still name it.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": MODE_BY_COMMAND[command], "jobs": 1}))
        out = tmp_path / "out"
        rc = main([command, "--scenario", str(scenario), "--spec", str(spec), "--out", str(out)])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err.splitlines() == ["spec error: unknown spec fields: ['jobs']"]
        assert not out.exists()

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


class TestScanEntryTypes:
    """A scan entry's azimuths are finite numbers: --entry converts its
    text, and a spec must hold numbers already."""

    @pytest.mark.parametrize(
        "entry",
        [["30", True, "alg1"], [30.0, True, "alg1"], ["30", 15.0, "alg1"], [float("nan"), 15.0, "alg1"],
         [30.0, 15.0], [30.0, 15.0, "alg1", 0], 5, "30 15 alg1", [30.0, 15.0, 7], [30.0, 15.0, ["alg1"]]],
    )
    def test_malformed_spec_entry_is_spec_error(self, tmp_path, entry):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "pattern_scan", "codebook_path": "cb.json", "scan_entry": entry}))
        result = run_cli("pattern-scan", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path))
        assert result.returncode == EXIT_SPEC
        assert "spec error" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("entry", [["abc", "15", "alg1"], ["30", "nan", "alg1"], ["30", "15", "1"]])
    def test_malformed_flag_entry_is_spec_error(self, tmp_path, entry):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        result = run_cli(
            "pattern-scan", "--scenario", str(scenario), "--codebook", "cb.json", "--entry", *entry,
            "--out", str(tmp_path),
        )
        assert result.returncode == EXIT_SPEC
        assert "Traceback" not in result.stderr

    def test_flag_entry_scans_the_entry(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        assert main(["codebook-gen", "--scenario", str(scenario), "--out", str(tmp_path), "--methods", "alg1"]) == EXIT_OK
        result = run_cli(
            "pattern-scan", "--scenario", str(scenario), "--codebook", str(tmp_path / "codebook.json"),
            "--entry", "30", "15", "alg1", "--step", "45", "--out", str(tmp_path),
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert len(read_csv(tmp_path / "power_pattern.csv")[2]) == 5


class TestMalformedCodebook:
    @pytest.mark.parametrize("centers", [["0", "15", "30", "45"], [False, True], [0.0, None]])
    @pytest.mark.parametrize("command", ["codebook-query", "pattern-scan"])
    def test_bad_sector_centers_are_scenario_errors(self, tmp_path, command, centers):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        assert main(["codebook-gen", "--scenario", str(scenario), "--out", str(tmp_path), "--methods", "alg1"]) == EXIT_OK
        codebook = tmp_path / "codebook.json"
        doc = json.loads(codebook.read_text())
        doc["grid"]["sector_centers_deg"] = centers
        codebook.write_text(json.dumps(doc))
        args = {
            "codebook-query": ["--lu", "0", "--ed", "unknown"],
            "pattern-scan": ["--entry", "0", "15", "alg1", "--step", "45"],
        }[command]
        result = run_cli(
            command, "--scenario", str(scenario), "--codebook", str(codebook), *args, "--out", str(tmp_path)
        )
        assert result.returncode == EXIT_SCENARIO
        assert "malformed codebook" in result.stderr and "Traceback" not in result.stderr


#: Faults put into the last record of a codebook, the (45, 30) alg1 entry,
#: which neither `CODEBOOK_READS` command reads.
MALFORMED_RECORDS = {
    "bit-character": lambda es: es[-1].update(config_bits="2" + es[-1]["config_bits"][1:]),
    "bit-count": lambda es: es[-1].update(config_bits=es[-1]["config_bits"][1:]),
    "bits-not-a-string": lambda es: es[-1].update(config_bits=[int(c) for c in es[-1]["config_bits"]]),
    "negative-p_lu": lambda es: es[-1]["achieved"].update(p_lu=-1.0),
    "missing-sse-field": lambda es: es[-1]["sse"].pop("r_ed"),
    "lu-is-ed": lambda es: es[-1].update(ed_sector=es[-1]["lu_sector"]),
    "sector-not-a-number": lambda es: es[-1].update(lu_sector="abc"),
    "pattern-not-pairs": lambda es: es[-1].update(power_pattern=[[0.0, 1.0, 2.0]]),
}

#: Faults a load once let through, each with the word its error names.
OUT_OF_DOMAIN_RECORDS = {
    "string-r_sec_raw": (lambda es: es[-1]["sse"].update(r_sec_raw="1.5"), "r_sec_raw"),
    "nan-p_lu": (lambda es: es[-1]["achieved"].update(p_lu=float("nan")), "p_lu"),
    "p_lu-too-large-for-a-float": (lambda es: es[-1]["achieved"].update(p_lu=10**400), "p_lu"),
    "null-n0": (lambda es: es[-1]["sse"].update(n0=None), "n0"),
    "sector-off-the-grid": (lambda es: es[-1].update(lu_sector=7.0), "lu_sector"),
    "duplicate-key": (lambda es: es.append(json.loads(json.dumps(es[-1]))), "unique"),
}

#: Commands that each read entries of LU sector 0 only.
CODEBOOK_READS = {
    "query-unknown": ["codebook-query", "--lu", "0", "--ed", "unknown"],
    "scan-entry": ["pattern-scan", "--entry", "0", "15", "alg1", "--step", "45"],
}


@pytest.fixture(scope="module")
def codebook_doc(tmp_path_factory):
    """A 4x4 tone scenario with four sectors, and its alg1 codebook document."""
    work = tmp_path_factory.mktemp("codebook")
    write_scenario(work / "scenario.json")
    argv = ["codebook-gen", "--scenario", str(work / "scenario.json"), "--out", str(work), "--methods", "alg1"]
    assert main(argv) == EXIT_OK
    return work / "scenario.json", json.loads((work / "codebook.json").read_text())


class TestMalformedRecords:
    """Every record is checked when the codebook loads, also one that the
    command does not read."""

    def run_with(self, tmp_path, capsys, codebook_doc, fault, argv) -> tuple:
        """Exit code and stderr lines of `argv` on the codebook with `fault`."""
        scenario, doc = codebook_doc
        doc = json.loads(json.dumps(doc))
        fault(doc["entries"])
        codebook = tmp_path / "codebook.json"
        codebook.write_text(json.dumps(doc))
        rc = main([*argv, "--scenario", str(scenario), "--codebook", str(codebook), "--out", str(tmp_path)])
        return rc, capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("fault", list(MALFORMED_RECORDS))
    @pytest.mark.parametrize("command", list(CODEBOOK_READS))
    def test_unread_malformed_record_is_scenario_error(self, tmp_path, capsys, codebook_doc, command, fault):
        rc, err = self.run_with(tmp_path, capsys, codebook_doc, MALFORMED_RECORDS[fault], CODEBOOK_READS[command])
        assert rc == EXIT_SCENARIO
        assert len(err) == 1 and "malformed codebook" in err[0]

    @pytest.mark.parametrize("fault", list(OUT_OF_DOMAIN_RECORDS))
    @pytest.mark.parametrize("command", list(CODEBOOK_READS))
    def test_unread_out_of_domain_record_names_its_field(self, tmp_path, capsys, codebook_doc, command, fault):
        fault, name = OUT_OF_DOMAIN_RECORDS[fault]
        rc, err = self.run_with(tmp_path, capsys, codebook_doc, fault, CODEBOOK_READS[command])
        assert rc == EXIT_SCENARIO
        assert len(err) == 1 and "malformed codebook" in err[0] and name in err[0]

    def test_string_rate_of_the_read_entry_is_scenario_error(self, tmp_path, capsys, codebook_doc):
        # The known-sector query reports the stored rate without re-scoring.
        def fault(entries):
            (record,) = [e for e in entries if (e["lu_sector"], e["ed_sector"]) == (0.0, 15.0)]
            record["sse"]["r_sec_raw"] = "1.5"

        rc, err = self.run_with(tmp_path, capsys, codebook_doc, fault, ["codebook-query", "--lu", "0", "--ed", "15"])
        assert rc == EXIT_SCENARIO
        assert len(err) == 1 and "malformed codebook" in err[0] and "r_sec_raw" in err[0]


class TestBatchCuts:
    """The sweep cuts its pairs into batches by `SWEEP_BATCH_BYTES`; no
    output depends on where the cuts fall."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["codebook-gen", "--methods", "alg1", "alg2", "lu_max", "ed_min"],
            ["compare"],
            ["compare", "--noisy-measurements"],
            ["compare", "--spec", "{seeds}"],
            ["freq-selectivity"],
        ],
        ids=["codebook-gen", "compare", "compare-noisy", "compare-seeds", "freq-selectivity"],
    )
    def test_outputs_do_not_depend_on_batch_size(self, tmp_path, monkeypatch, argv):
        scenario = tmp_path / "scenario.json"
        wideband = {"element_model": ElementModel(mode="lorentzian", resonance_hz=3.551e9, quality_factor=30.0)}
        write_scenario(
            scenario,
            sector_grid=SectorGrid(sector_centers_deg=(-15.0, 0.0, 15.0, 30.0, 45.0)),
            **(wideband if argv[0] == "freq-selectivity" else {}),
        )
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"mode": "compare_methods", "seeds": [1, 2]}))
        argv = [arg.format(seeds=seeds) for arg in argv]
        batches = []
        pair_batches = codebook_module.pair_batches
        monkeypatch.setattr(
            codebook_module, "pair_batches", lambda *args: batches.append(pair_batches(*args)) or batches[-1]
        )
        outputs = []
        for budget in (codebook_module.SWEEP_BATCH_BYTES, 1):
            monkeypatch.setattr(codebook_module, "SWEEP_BATCH_BYTES", budget)
            out = tmp_path / f"budget{budget}"
            batches.clear()
            assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            # The default budget sweeps each call's pairs in one batch; a
            # budget of one byte sweeps them one pair a batch.
            sizes = [len(batch) for call in batches for batch in call]
            assert batches and (len(sizes) == len(batches) if budget > 1 else set(sizes) == {1})
        assert max(len(call) for call in batches) > 1
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]
        if seeds.name in " ".join(argv):
            assert json.loads(outputs[0]["compare_results.json"])["seeds"] == [1, 2]


#: Values swapped into spec fields: every JSON type, edge numbers, and
#: values that are valid for some other field. No value asks for unbounded
#: work (huge counts); tiny scan steps must be rejected by the spec's
#: angle-count limit.
SPEC_VALUES = (
    None, True, False, 0, -1, 1, 3, 0.5, -0.0, 15.0, 1e308, -1e308, 1e-300, 1e-9, 5e-324, -5e-324,
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
    FIELDS = sorted(ExperimentSpec.__dataclass_fields__)

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(MODE_BY_COMMAND)), data=st.data())
    def test_swapped_fields_exit_cleanly(self, fuzz_setup, command, data):
        fields = st.sampled_from(self.READS[command]) | st.sampled_from(self.FIELDS)
        swaps = data.draw(st.dictionaries(fields, st.sampled_from(SPEC_VALUES), max_size=2), label="swaps")
        scenario, codebook = fuzz_setup
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
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
                        warnings.simplefilter("ignore", UserWarning)
                        rc = main([command, "--scenario", str(scenario), "--spec", "spec.json", "--out", "out"])
            finally:
                os.chdir(cwd)
        assert rc in (EXIT_OK, EXIT_SPEC, EXIT_SCENARIO, EXIT_RUNTIME)
        assert "Traceback" not in stderr.getvalue()
        assert "Warning" not in stderr.getvalue()
        assert len(stderr.getvalue().splitlines()) <= 1


#: Values swapped into flag arguments: edge numbers, words that some other
#: flag accepts, and none that reads as a flag.
ARGV_VALUES = (
    "", ".", "x", "0", "-1", "1", "2", "4", "15", "1.5", "-0.0", "1e308", "-1e308", "5e-324", "nan", "inf",
    "-inf", "unknown", "excluded:15,30", "excluded:", "excluded:x", "alg1", "uniform", "0" * 16,
    "01" * 8, "missing.json", "codebook.json",
)


def _bounded(flag, value):
    """Whether a swapped value keeps the run small: no scan step below 1
    degree."""
    try:
        number = float(value)
    except ValueError:
        return True
    return flag != "--step" or not number < 1


class ScriptedDraws:
    """Stands in for Hypothesis's `data` in an explicit example: each
    `draw` returns the next scripted value."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


class TestArgvProperty:
    """Any command line made from a valid one by dropping a flag, repeating
    it, or swapping one of its values exits 0, 2, 3 or 4, with no
    traceback. An argparse usage error counts by its `SystemExit` code."""

    #: Each command's flags, as (flag, values) groups after the subcommand.
    BASE = {
        "compare": [
            ("--methods", ["alg1", "uniform"]), ("--seed", ["1"]), ("--noisy-measurements", []),
        ],
        "codebook-gen": [("--methods", ["alg1"]), ("--codebook", ["new.json"])],
        "codebook-query": [
            ("--codebook", ["codebook.json"]), ("--lu", ["0"]), ("--ed", ["unknown"]), ("--method", ["alg1"]),
        ],
        "pattern-scan": [
            ("--codebook", ["codebook.json"]), ("--entry", ["0", "15", "alg1"]), ("--start", ["-30"]),
            ("--stop", ["30"]), ("--step", ["15"]), ("--attach", []),
        ],
        "freq-selectivity": [
            ("--method", ["alg1"]), ("--num-rb", ["1"]), ("--degenerate-single-bin", []), ("--seed", ["2"]),
        ],
    }

    @settings(max_examples=100, deadline=None)
    @given(command=st.sampled_from(sorted(MODE_BY_COMMAND)), data=st.data())
    # Two mutations: drop --degenerate-single-bin (group 4), then swap the
    # value of --num-rb (group 3) for "01" * 8, which reads as
    # 101010101010101 resource blocks of a wideband grid.
    @example(command="freq-selectivity", data=ScriptedDraws(2, 4, "drop", 3, "swap", 0, "01" * 8))
    def test_mutated_argv_exits_cleanly(self, fuzz_setup, command, data):
        scenario, codebook = fuzz_setup
        groups = [("--scenario", [str(scenario)]), ("--out", ["out"]), *self.BASE[command]]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            i = data.draw(st.integers(0, len(groups) - 1), label="group")
            flag, values = groups[i]
            kind = data.draw(st.sampled_from(["drop", "repeat", "swap"] if values else ["drop", "repeat"]))
            if kind == "drop":
                del groups[i]
            elif kind == "repeat":
                groups.insert(i, (flag, values))
            else:
                j = data.draw(st.integers(0, len(values) - 1), label="value")
                pool = [v for v in ARGV_VALUES if _bounded(flag, v)]
                value = data.draw(st.sampled_from(pool), label="swapped")
                groups[i] = (flag, [*values[:j], value, *values[j + 1:]])
        argv = [command, *(token for flag, values in groups for token in (flag, *values))]
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                # A copy, because --attach rewrites it.
                shutil.copy(codebook, "codebook.json")
                stderr = io.StringIO()
                usage = False  # argparse prints its usage before the error line
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        try:
                            rc = main(argv)
                        except SystemExit as exc:
                            rc, usage = exc.code, True
            finally:
                os.chdir(cwd)
        assert rc in (EXIT_OK, EXIT_SPEC, EXIT_SCENARIO, EXIT_RUNTIME), argv
        assert "Traceback" not in stderr.getvalue()
        assert "Warning" not in stderr.getvalue(), argv
        assert usage or len(stderr.getvalue().splitlines()) <= 1, argv


def one_pair_spec(path):
    path.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0]], "methods": ["alg1"]}))
    return path


class TestMalformedScenarioValues:
    @pytest.mark.parametrize(
        "section, key, value, code",
        [
            ("channel", "num_paths", 1.5, EXIT_SCENARIO),
            ("ris", "n_v", 4.0, EXIT_SCENARIO),
            ("noise", "n0", "x", EXIT_SCENARIO),
            ("channel", "rician_k_db", float("nan"), EXIT_SCENARIO),
            ("noise", "target_snr_db", float("nan"), EXIT_SCENARIO),
            ("ris", "element_spacing_m", float("nan"), EXIT_SCENARIO),
            ("sector_grid", "user_range_m", float("nan"), EXIT_SCENARIO),
            ("tx_signal", "tone_offset_hz", float("nan"), EXIT_SCENARIO),
            # 10 ** (-1e308 / 10) underflows to 0: no linear K-factor or SNR.
            ("channel", "rician_k_db", -1e308, EXIT_SCENARIO),
            ("noise", "target_snr_db", -1e308, EXIT_SCENARIO),
            # 10 ** (1e308 / 10) overflows: line of sight only, as +inf dB,
            # but no finite SNR to calibrate the noise power from.
            ("channel", "rician_k_db", 1e308, EXIT_OK),
            ("noise", "target_snr_db", 1e308, EXIT_SCENARIO),
            ("sector_grid", "sector_centers_deg", ["0", "15"], EXIT_SCENARIO),
            ("sector_grid", "sector_centers_deg", [False, True], EXIT_SCENARIO),
            ("sector_grid", "sector_centers_deg", [0.0, float("nan")], EXIT_SCENARIO),
            ("sector_grid", "sector_centers_deg", 15.0, EXIT_SCENARIO),
            # Scattered rays 1e300 and 1e320 times the line-of-sight power:
            # the received powers overflow, or the links do.
            ("channel", "rician_k_db", -3000.0, EXIT_SCENARIO),
            ("channel", "rician_k_db", -3200.0, EXIT_SCENARIO),
            ("tx_signal", "num_rb", MAX_NUM_RB + 1, EXIT_SCENARIO),
            # An integer too large for a float is no finite number.
            pytest.param("channel", "rician_k_db", 10**400, EXIT_SCENARIO, id="rician_k_db-10**400"),
            pytest.param("sector_grid", "sector_centers_deg", [0.0, 10**400], EXIT_SCENARIO, id="centers-10**400"),
        ],
    )
    def test_bad_value_exits_cleanly(self, tmp_path, capsys, section, key, value, code):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        doc = json.loads(scenario.read_text())
        doc[section][key] = value
        scenario.write_text(json.dumps(doc))
        spec = one_pair_spec(tmp_path / "spec.json")
        rc = main(["compare", "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path)])
        assert rc == code
        assert "Traceback" not in capsys.readouterr().err


class TestFloatingPointFailures:
    """Values whose geometry or delays overflow the float range: the run
    raises on the first overflow or invalid value, in the sweep too, and
    exits 4 with numpy's message as its one stderr line."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("tx", "range_m", 1e300),
            ("tx", "height_m", 1e300),
            ("tx", "height_m", -1e300),
            ("sector_grid", "user_range_m", 1e300),
            ("channel", "max_excess_delay_s", 1e300),
            ("scan", "scan_range_m", 1e200),
        ],
    )
    def test_one_line_runtime_error(self, tmp_path, section, key, value):
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario, ris=RisArrayGeometry(n_v=2, n_h=2, tile_rows=1, tile_cols=1))
        doc = json.loads(scenario.read_text())
        spec = tmp_path / "spec.json"
        if section == "scan":
            spec.write_text(json.dumps({"mode": "pattern_scan", "scan_config_bits": "0000", key: value}))
            command = "pattern-scan"
        else:
            # A fixed noise power, so the first synthesis runs in the sweep.
            doc[section][key] = value
            doc["noise"]["n0"] = 1e-12
            spec.write_text(json.dumps({"mode": "compare_methods", "pairs": [[0.0, 15.0], [15.0, 0.0]], "methods": ["alg1"]}))
            command = "compare"
        scenario.write_text(json.dumps(doc))
        proc = run_cli(command, "--scenario", str(scenario), "--spec", str(spec), "--out", str(tmp_path))
        assert proc.returncode == EXIT_RUNTIME
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("runtime error: ")
        assert "Warning" not in proc.stderr


#: Values swapped into scenario leaves: every JSON type, edge numbers, and
#: values that are valid for some other leaf. No integer exceeds 16, so no
#: swap asks for a large panel, many paths or a wide grid.
SCENARIO_VALUES = (
    None, True, False, 0, -1, 1, 2, 16, 0.5, -0.0, 15.0, 1e3, -1e3, 3.55e9, 1e308, -1e308, 5e-324, -5e-324,
    float("nan"), float("inf"), float("-inf"), "", "x", "tone", "prs", "lorentzian",
    "linear_dispersion", "normal", [], [1], [0.0, 3.0], [0.0, 15.0, 30.0], {},
)


@pytest.fixture(scope="module")
def scenario_fuzz_setup(tmp_path_factory):
    """A 4x4 tone scenario document and a one-pair alg1 compare spec."""
    root = tmp_path_factory.mktemp("scenario-fuzz")
    write_scenario(root / "scenario.json")
    return json.loads((root / "scenario.json").read_text()), one_pair_spec(root / "spec.json")


class TestScenarioFieldProperty:
    """Any scenario document with one or two swapped leaf values exits 0, 3
    or 4, with no traceback."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_swapped_leaves_exit_cleanly(self, scenario_fuzz_setup, data):
        base, spec = scenario_fuzz_setup
        leaves = sorted((section, key) for section, part in base.items() if isinstance(part, dict) for key in part)
        swaps = data.draw(
            st.dictionaries(st.sampled_from(leaves), st.sampled_from(SCENARIO_VALUES), min_size=1, max_size=2),
            label="swaps",
        )
        doc = json.loads(json.dumps(base))
        for (section, key), value in swaps.items():
            doc[section][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            scenario = os.path.join(tmp, "scenario.json")
            with open(scenario, "w") as fh:
                json.dump(doc, fh)
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    rc = main(["compare", "--scenario", scenario, "--spec", str(spec), "--out", tmp])
        assert rc in (EXIT_OK, EXIT_SCENARIO, EXIT_RUNTIME)
        assert "Traceback" not in stderr.getvalue()
        assert "Warning" not in stderr.getvalue(), swaps
        assert len(stderr.getvalue().splitlines()) <= 1, swaps


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["codebook-query", "--lu", "0", "--ed", "unknown", "--method", "alg2"],
             "codebook holds no entries for sector 0.0"),
            (["pattern-scan", "--entry", "0", "15", "alg2"], "no codebook entry for (0.0, 15.0, 'alg2')"),
            (["codebook-query", "--lu", "0", "--ed", "0"], "no codebook entry for (0.0, 0.0, 'alg1')"),
        ],
        ids=["query-method", "scan-entry", "query-ed"],
    )
    def test_missing_entry_is_runtime_error_with_its_message(self, tmp_path, capsys, codebook_doc, argv, message):
        # The alg1 codebook has no alg2 entries and no entry with LU = ED.
        scenario, _ = codebook_doc
        codebook = scenario.parent / "codebook.json"
        assert main([*argv, "--scenario", str(scenario), "--codebook", str(codebook), "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"runtime error: {message}\n"

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

    def test_entry_of_another_panel_is_rejected(self, tmp_path, capsys):
        # A 1x1 codebook entry scanned on the 4x4 scenario: no bit is
        # spread over the panel, and nothing is written.
        one = tmp_path / "one.json"
        write_scenario(one, ris=RisArrayGeometry(n_v=1, n_h=1, tile_rows=1, tile_cols=1))
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(one), "--out", str(out), "--methods", "alg1"])
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        capsys.readouterr()
        rc = main([
            "pattern-scan", "--scenario", str(scenario), "--out", str(out),
            "--codebook", str(out / "codebook.json"), "--entry", "0", "15", "alg1",
        ])
        assert rc == EXIT_RUNTIME
        assert "a 1x1 configuration cannot be scanned on a 4x4 panel" in capsys.readouterr().err
        assert not (out / "power_pattern.csv").exists()

    def test_attach_with_bits_is_spec_error(self, tmp_path, capsys):
        # The pattern of a bit-string has no codebook entry to go on, with
        # or without a codebook and an entry beside the bits.
        scenario = tmp_path / "scenario.json"
        write_scenario(scenario)
        out = tmp_path / "out"
        main(["codebook-gen", "--scenario", str(scenario), "--out", str(out), "--methods", "alg1"])
        cb_path = out / "codebook.json"
        original = cb_path.read_bytes()
        base = ["pattern-scan", "--scenario", str(scenario), "--out", str(out), "--bits", "0" * 16, "--attach"]
        for extra in ([], ["--codebook", str(cb_path), "--entry", "0", "15", "alg1"]):
            capsys.readouterr()
            assert main(base + extra) == EXIT_SPEC
            err = capsys.readouterr().err
            assert "--attach" in err and "--entry" in err and "Traceback" not in err
            assert not (out / "power_pattern.csv").exists()
        assert cb_path.read_bytes() == original

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
        assert row["wideband_gap_db"] == row["narrowband_gap_db"]
        assert row["wideband"] == row["narrowband"]
        assert payload["wideband_bins"] == 1

    def test_degenerate_single_bin_runs_beyond_one_resource_block(self, tmp_path):
        # A tone 1 MHz off the carrier lies outside a 12-subcarrier block.
        sc = write_scenario(tmp_path / "scenario.json", tone_offset_hz=1e6)
        spec = ExperimentSpec(
            mode="frequency_selectivity", out_dir=str(tmp_path), pairs=((0.0, 15.0),), fs_degenerate_single_bin=True
        )
        with pytest.warns(UserWarning, match="frequency-flat"):
            out = run_frequency_selectivity(sc, spec)
        with open(out["json"]) as fh:
            row = json.load(fh)["results"][0]
        assert row["wideband"] == row["narrowband"]
