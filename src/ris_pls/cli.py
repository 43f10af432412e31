"""Command-line experiment runner.

Subcommands: compare, codebook-gen, codebook-query, pattern-scan,
freq-selectivity. Every run is fully determined by the scenario file, the
optional spec file, and the flags; outputs are reproducible byte for byte.

Exit codes: 0 success, 2 spec error, 3 scenario error, 4 runtime error.
A run raises on floating-point overflow, invalid values and division by
zero, so a value outside the model's range is a runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from .experiments import (
    COMPARE_METHODS,
    ExperimentSpec,
    ScenarioError,
    SpecError,
    load_scenario,
    run,
)
from .scenario import Scenario

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SCENARIO = 3
EXIT_RUNTIME = 4

_MODE_BY_COMMAND = {
    "compare": "compare_methods",
    "codebook-gen": "codebook_gen",
    "codebook-query": "codebook_query",
    "pattern-scan": "pattern_scan",
    "freq-selectivity": "frequency_selectivity",
}


#: Arguments that are not spec fields; every other flag stores straight
#: into the spec field named by its dest, and only when given.
_NOT_SPEC = ("command", "spec", "seed", "print_schema")


def _ed_knowledge(text: str):
    """An --ed value as the spec's query_ed."""
    if text == "unknown":
        return text
    if text.startswith("excluded:"):
        return {"excluded": [float(x) for x in text.split(":", 1)[1].split(",")]}
    return {"known": float(text)}


def _entry_field(text: str):
    """A --entry value: a number where the text reads as one (the two
    azimuths), else the text itself (the method)."""
    try:
        return float(text)
    except ValueError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-pls", description="RIS-aided physical-layer security experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, description: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=description, argument_default=argparse.SUPPRESS)
        p.add_argument("--scenario", dest="scenario_path", help="scenario JSON file (default: the spec's)")
        p.add_argument("--spec", default=None, help="experiment spec JSON file")
        p.add_argument("--out", dest="out_dir", help="output directory (default .)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument(
            "--noisy-measurements", action="store_true", help="perturb power estimates during optimization"
        )
        p.add_argument(
            "--print-schema",
            action="store_true",
            default=False,
            help="print the scenario and spec documents with every field at its default, and exit",
        )
        return p

    p = command("compare", "optimizer comparison over placement pairs")
    p.add_argument("--methods", nargs="+", help="subset of " + " ".join(COMPARE_METHODS))

    p = command("codebook-gen", "generate a sector codebook")
    p.add_argument("--methods", nargs="+", help="optimizing methods to store")
    p.add_argument("--codebook", dest="codebook_path", help="output codebook path")

    p = command("codebook-query", "select a configuration from a codebook")
    p.add_argument("--codebook", dest="codebook_path", help="codebook JSON file")
    p.add_argument("--lu", dest="query_lu", type=float, help="serving sector angle in degrees")
    p.add_argument(
        "--ed",
        dest="query_ed",
        type=_ed_knowledge,
        help="eavesdropper knowledge: 'unknown', an angle, or excluded:a,b,...",
    )
    p.add_argument("--method", dest="query_method", help="method whose entries to search (default alg1)")

    p = command("pattern-scan", "fine-angle power pattern of a configuration")
    p.add_argument("--codebook", dest="codebook_path", help="codebook JSON file")
    p.add_argument("--bits", dest="scan_config_bits", help="configuration as a row-major bit-string")
    p.add_argument(
        "--entry",
        dest="scan_entry",
        nargs=3,
        type=_entry_field,
        metavar=("LU", "ED", "METHOD"),
        help="codebook entry",
    )
    p.add_argument("--start", dest="scan_start_deg", type=float, help="scan start angle (default -90)")
    p.add_argument("--stop", dest="scan_stop_deg", type=float, help="scan stop angle (default 90)")
    p.add_argument("--step", dest="scan_step_deg", type=float, help="scan step (default 0.5)")
    p.add_argument("--attach", dest="scan_attach", action="store_true", help="store the pattern on the entry")

    p = command("freq-selectivity", "narrowband vs wideband power separation")
    p.add_argument("--method", dest="fs_method", help="optimizing method (default alg1)")
    p.add_argument("--num-rb", dest="fs_num_rb", type=int, help="wideband grid size (default 52)")
    p.add_argument(
        "--degenerate-single-bin",
        dest="fs_degenerate_single_bin",
        action="store_true",
        help="use a one-bin wideband grid at the tone frequency",
    )
    return parser


def _print_schema(command: str) -> None:
    spec = {"schema": "ris-pls/experiment-v1", **asdict(ExperimentSpec(_MODE_BY_COMMAND[command]))}
    print(json.dumps({"scenario": Scenario().to_dict(), "spec": spec}, indent=2))


def _spec_from_args(args) -> ExperimentSpec:
    """The spec file's fields, or the subcommand's defaults, overridden by
    every flag given."""
    mode = _MODE_BY_COMMAND[args.command]
    data = asdict(ExperimentSpec.load(args.spec)) if args.spec else {"mode": mode}
    if data["mode"] != mode:
        raise SpecError(f"spec mode {data['mode']!r} does not match subcommand {args.command!r}")
    data.update((k, v) for k, v in vars(args).items() if k not in _NOT_SPEC)
    return ExperimentSpec.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.print_schema:
        _print_schema(args.command)
        return EXIT_OK
    try:
        spec = _spec_from_args(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    if not spec.scenario_path:
        print("spec error: --scenario or a spec's scenario_path is required", file=sys.stderr)
        return EXIT_SPEC
    try:
        scenario = load_scenario(spec.scenario_path)
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
    except ValueError as exc:  # a ScenarioError, or a seed the channel model rejects
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outputs = run(scenario, spec)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except ScenarioError as exc:  # a malformed codebook
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (ValueError, KeyError, IndexError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    stdout = outputs.pop("stdout", None)
    if stdout:
        print(stdout)
    for name, path in outputs.items():
        print(f"{name}: {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
