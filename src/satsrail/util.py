"""Small shared helpers: apportionment, canonical JSON and typed JSON input."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence


def apportion_largest_remainder(
    total: int, weights: Sequence[tuple[str, float | int]]
) -> dict[str, int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder method with exact rational arithmetic. Remainder ties
    break by key in ascending order. The parts always sum exactly to
    ``total``.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    grand = Fraction(0)
    for key, w in weights:
        wf = Fraction(w)
        if wf <= 0:
            raise ValueError(f"weight for {key!r} must be positive")
        grand += wf
    quotas = [(key, Fraction(total) * Fraction(w) / grand) for key, w in weights]
    parts = {key: int(q) for key, q in quotas}  # int() floors non-negative Fractions
    leftover = total - sum(parts.values())
    by_remainder = sorted(quotas, key=lambda kq: (-(kq[1] - int(kq[1])), kq[0]))
    for key, _ in by_remainder[:leftover]:
        parts[key] += 1
    return parts


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def decimal_fraction(x: float | int) -> Fraction:
    """Exact rational for a human-entered decimal fraction.

    Goes through ``repr`` so 0.03 means 3/100, not the binary float just
    below it; integer-valued inputs pass through exactly.
    """
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(repr(x))


class ConfigError(ValueError):
    """Configuration problem; names the offending dotted key."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}" if key else message)


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}
_JSON_TYPES.update({bool: "true or false", dict: "an object", list: "a list"})


def json_as(kind: type, value, key: str):
    """``value`` as ``kind``; ints pass as floats, integral numbers as ints.

    Anything else is a ``ConfigError`` naming ``key``.
    """
    if kind is float and type(value) is int:
        value = float(value)
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        shown = json.dumps(value, default=repr)[:60]
        raise ConfigError(key, f"must be {_JSON_TYPES[kind]}, not {shown}")
    return value
