"""Command-line experiment runner.

Subcommands: compare, codebook-gen, codebook-query, pattern-scan,
freq-selectivity. Every run is fully determined by the scenario file, the
optional spec file, and the flags; outputs are reproducible byte for byte.

Exit codes: 0 success, 2 spec error, 3 scenario error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    COMPARE_METHODS,
    DEFAULT_PAIRS,
    ExperimentSpec,
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="scenario JSON file")
    parser.add_argument("--spec", help="experiment spec JSON file")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    parser.add_argument(
        "--noisy-measurements",
        action="store_true",
        help="perturb power estimates during optimization",
    )
    parser.add_argument(
        "--print-schema",
        action="store_true",
        help="print the expected scenario/spec structure and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-pls", description="RIS-aided physical-layer security experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="optimizer comparison over placement pairs")
    _add_common(p)
    p.add_argument("--methods", nargs="+", help="subset of " + " ".join(COMPARE_METHODS))

    p = sub.add_parser("codebook-gen", help="generate a sector codebook")
    _add_common(p)
    p.add_argument("--methods", nargs="+", help="optimizing methods to store")
    p.add_argument("--codebook", help="output codebook path")

    p = sub.add_parser("codebook-query", help="select a configuration from a codebook")
    _add_common(p)
    p.add_argument("--codebook", help="codebook JSON file")
    p.add_argument("--lu", type=float, help="serving sector angle in degrees")
    p.add_argument(
        "--ed",
        help="eavesdropper knowledge: 'unknown', an angle, or excluded:a,b,...",
    )
    p.add_argument("--method", help="method whose entries to search (default alg1)")

    p = sub.add_parser("pattern-scan", help="fine-angle power pattern of a configuration")
    _add_common(p)
    p.add_argument("--codebook", help="codebook JSON file")
    p.add_argument("--bits", help="configuration as a row-major bit-string")
    p.add_argument("--entry", nargs=3, metavar=("LU", "ED", "METHOD"), help="codebook entry")
    p.add_argument("--start", type=float, help="scan start angle (default -90)")
    p.add_argument("--stop", type=float, help="scan stop angle (default 90)")
    p.add_argument("--step", type=float, help="scan step (default 0.5)")
    p.add_argument("--attach", action="store_true", help="store the pattern on the entry")

    p = sub.add_parser("freq-selectivity", help="narrowband vs wideband power separation")
    _add_common(p)
    p.add_argument("--method", help="optimizing method (default alg1)")
    p.add_argument("--num-rb", type=int, help="wideband grid size (default 52)")
    p.add_argument(
        "--degenerate-single-bin",
        action="store_true",
        help="use a one-bin wideband grid at the tone frequency",
    )
    return parser


def _print_schema(command: str) -> None:
    scenario = Scenario().to_dict()
    spec = {
        "schema": "ris-pls/experiment-v1",
        "mode": _MODE_BY_COMMAND[command],
        "out_dir": ".",
        "pairs": [list(p) for p in DEFAULT_PAIRS],
        "methods": list(COMPARE_METHODS),
        "seeds": None,
        "jobs": 1,
        "noisy_measurements": False,
    }
    if command == "codebook-query":
        spec.update({"codebook_path": "codebook.json", "query_lu": 0.0, "query_ed": "unknown"})
    if command == "pattern-scan":
        spec.update(
            {
                "codebook_path": "codebook.json",
                "scan_entry": [30.0, 15.0, "alg1"],
                "scan_start_deg": -90.0,
                "scan_stop_deg": 90.0,
                "scan_step_deg": 0.5,
            }
        )
    if command == "freq-selectivity":
        spec.update({"fs_method": "alg1", "fs_num_rb": 52, "fs_degenerate_single_bin": False})
    print(json.dumps({"scenario": scenario, "spec": spec}, indent=2))


def _spec_from_args(args) -> ExperimentSpec:
    data = {}
    if args.spec:
        spec = ExperimentSpec.load(args.spec)
        data = {k: getattr(spec, k) for k in spec.__dataclass_fields__}
    data.setdefault("mode", _MODE_BY_COMMAND[args.command])
    if data["mode"] != _MODE_BY_COMMAND[args.command]:
        raise SpecError(
            f"spec mode {data['mode']!r} does not match subcommand {args.command!r}"
        )
    if args.out is not None:
        data["out_dir"] = args.out
    if args.jobs is not None:
        data["jobs"] = args.jobs
    if args.noisy_measurements:
        data["noisy_measurements"] = True
    if getattr(args, "methods", None):
        data["methods"] = tuple(args.methods)
    if getattr(args, "codebook", None):
        data["codebook_path"] = args.codebook
    if args.command == "codebook-query":
        if args.lu is not None:
            data["query_lu"] = args.lu
        if args.ed is not None:
            try:
                if args.ed.startswith("excluded:"):
                    data["query_ed"] = {
                        "excluded": [float(x) for x in args.ed.split(":", 1)[1].split(",")]
                    }
                else:
                    data["query_ed"] = args.ed if args.ed == "unknown" else {"known": float(args.ed)}
            except ValueError as exc:
                raise SpecError(f"cannot parse --ed {args.ed!r}") from exc
        if args.method is not None:
            data["query_method"] = args.method
    if args.command == "pattern-scan":
        if args.bits:
            data["scan_config_bits"] = args.bits
        if args.entry:
            data["scan_entry"] = tuple(args.entry)
        if args.start is not None:
            data["scan_start_deg"] = args.start
        if args.stop is not None:
            data["scan_stop_deg"] = args.stop
        if args.step is not None:
            data["scan_step_deg"] = args.step
        if args.attach:
            data["scan_attach"] = True
    if args.command == "freq-selectivity":
        if args.method is not None:
            data["fs_method"] = args.method
        if args.num_rb is not None:
            data["fs_num_rb"] = args.num_rb
        if args.degenerate_single_bin:
            data["fs_degenerate_single_bin"] = True
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
    if not args.scenario:
        print("spec error: --scenario is required", file=sys.stderr)
        return EXIT_SPEC
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = scenario.with_seed(args.seed)
    except ValueError as exc:  # a ScenarioError, or a seed the channel model rejects
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    try:
        outputs = run(scenario, spec)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (ValueError, KeyError, IndexError, OverflowError, OSError) as exc:
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
