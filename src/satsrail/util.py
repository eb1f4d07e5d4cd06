"""Small shared helpers: apportionment, canonical JSON and typed JSON input."""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Sequence


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
    """Deterministic JSON rendering: sorted keys, two-space indent, newline.

    Exactly ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
    plus ``"\\n"``, errors included. That call takes the stdlib's
    pure-Python encoder, because ``indent`` is set; here every container
    whose values are all scalars goes through the stdlib's C encoder
    instead, and only the containers around them are walked in Python.
    """
    return _indented(obj, 0, set()) + "\n"


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))


def compact_encoder(item_separator: str) -> Callable[[object], str]:
    """The stdlib's compact encoder with ``item_separator`` between items.

    Keys sorted, NaN and infinities rejected, ASCII escapes: the text
    ``json.dumps`` gives a scalar or a container of scalars, but for the
    item separator. No encoded scalar holds a raw newline. The C encoder is
    built once here rather than on every ``JSONEncoder.encode`` call, which
    costs more than a small container's encode; without the C accelerator
    the result is the stdlib's own ``encode``.
    """
    encoder = json.JSONEncoder(
        sort_keys=True,
        allow_nan=False,
        check_circular=False,
        separators=(item_separator, ": "),
    )
    if c_make_encoder is None:
        return encoder.encode
    # JSONEncoder.iterencode's own call; no markers, as check_circular is off.
    c_encode = c_make_encoder(
        None,
        encoder.default,
        encode_basestring_ascii,
        None,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )

    def encode(obj) -> str:
        return "".join(c_encode(obj, 0))

    return encode


@functools.cache
def _level(depth: int) -> tuple:
    """``(encode, newline + inner indent, newline + outer indent)`` at ``depth``.

    ``encode`` is the compact encoder with the item separator of a container
    at ``depth``: on a container of scalars it gives the indented text but
    for the newlines inside the brackets.
    """
    inner = "\n" + "  " * (depth + 1)
    return compact_encoder("," + inner), inner, "\n" + "  " * depth


def _indented(obj, depth: int, active: set) -> str:
    """``obj`` as canonical JSON whose first line sits at ``depth``.

    ``active`` holds the ids of the enclosing containers walked here, to
    reject a value that contains itself as the stdlib does.
    """
    encode, inner, outer = _level(depth)
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return encode(obj)
    if _SCALARS.issuperset(map(type, values)):
        text = encode(obj)
        return text[0] + inner + text[1:-1] + outer + text[-1] if obj else text
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    sep = "," + inner
    if values is obj:
        items = [_indented(v, depth + 1, active) for v in obj]
        text = "[" + inner + sep.join(items) + outer + "]"
    elif _STR.issuperset(map(type, obj)):
        scalars, nested = {}, {}
        for k, v in obj.items():
            (nested if isinstance(v, _CONTAINERS) else scalars)[k] = v
        # The scalar items in one encode; its item separator is this level's,
        # so it splits into items exactly, in sorted key order.
        lines = iter(encode(scalars)[1:-1].split(sep))
        items = [
            f"{encode_basestring_ascii(k)}: {_indented(nested[k], depth + 1, active)}"
            if k in nested
            else next(lines)
            for k in sorted(obj)
        ]
        text = "{" + inner + sep.join(items) + outer + "}"
    else:  # non-string keys beside containers: the stdlib's own walk
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
        text = text.replace("\n", outer)
    active.discard(id(obj))
    return text


@functools.lru_cache
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
