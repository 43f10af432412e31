"""Compare two output directories of ris-pls runs.

    python tests/outdiff.py DIR_A DIR_B

Both directories must hold the same files (searched recursively). A JSON
file must match in everything but the values of its floats: keys and
their order, list lengths, strings, integers, booleans (accept flags),
nulls and so every `config_bits`. Any other file, CSVs among them, must
match byte for byte. For each JSON file the largest relative drift of a
float, |a - b| / max(|a|, |b|), is printed with where it is. Exits 0
when the directories match in that sense, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _drift(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def json_drift(a, b, where: str = "$") -> tuple:
    """(largest relative float drift, where it is, list of non-float
    differences) between two parsed JSON documents."""
    if isinstance(a, float) and isinstance(b, float):
        return _drift(a, b), where, []
    if type(a) is not type(b):
        return 0.0, where, [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict):
        if list(a) != list(b):
            return 0.0, where, [f"{where}: keys {list(a)} != {list(b)}"]
        parts = [json_drift(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return 0.0, where, [f"{where}: length {len(a)} != {len(b)}"]
        parts = [json_drift(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return 0.0, where, [] if a == b else [f"{where}: {a!r} != {b!r}"]
    drift, at, _ = max(parts, key=lambda part: part[0], default=(0.0, where, []))
    return drift, at, [d for *_, diffs in parts for d in diffs]


def compare_dirs(dir_a, dir_b) -> tuple:
    """({JSON file: (largest float drift, where it is)}, list of
    failures) of two output directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    failures = [f"only in {dir_a}: {p}" for p in files_a if p not in files_b]
    failures += [f"only in {dir_b}: {p}" for p in files_b if p not in files_a]
    drifts = {}
    for rel in (p for p in files_a if p in files_b):
        raw_a, raw_b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if rel.suffix == ".json":
            drift, at, diffs = json_drift(json.loads(raw_a), json.loads(raw_b))
            drifts[str(rel)] = drift, at
            failures += [f"{rel}: {d}" for d in diffs]
        elif raw_a != raw_b:
            failures.append(f"{rel}: bytes differ")
    return drifts, failures


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/outdiff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    drifts, failures = compare_dirs(*args)
    for name, (drift, at) in drifts.items():
        print(f"{name}\t{drift:.3g}" + (f"\t{at}" if drift else ""))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
