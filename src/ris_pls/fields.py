"""Field checks driven by dataclass annotations: the scenario's parts and
the experiment spec declare each field's type once, in its annotation."""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import fields

#: The builtin types come first: they match without the slower ABC check.
_KINDS = {
    "int": ((int, numbers.Integral), "an integer"),
    "float": ((float, int, numbers.Real), "a finite number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


@functools.cache
def _typed_fields(cls) -> tuple:
    """(name, kind, may be None) of each field `check_types` checks."""
    typed = ((f.name, *f.type.partition(" | ")) for f in fields(cls))
    return tuple((name, kind, rest == "None") for name, kind, _, rest in typed if kind in _KINDS)


def is_number(value) -> bool:
    """A finite real number within a float's range; a bool is not one."""
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


def check_value(name: str, kind: str, value, error=ValueError, may_be_inf: bool = False) -> None:
    """Raise `error` unless `value` may stand in a field `name` annotated `kind`, as `check_types` says."""
    cls, what = _KINDS[kind]
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, cls) or (
        kind == "float" and not (is_number(value) or value == math.inf and may_be_inf)
    ):
        raise error(f"{name} must be {what}, not {value!r}")


def check_types(obj, error=ValueError, may_be_inf=()) -> None:
    """Raise `error` unless every field annotated int, float, bool or str
    holds such a value, or None where the annotation adds `| None`. A bool
    is only a bool, and a float is finite, or +inf in a field named in
    `may_be_inf`."""
    for name, kind, optional in _typed_fields(type(obj)):
        value = getattr(obj, name)
        if not (value is None and optional):
            check_value(name, kind, value, error, name in may_be_inf)
