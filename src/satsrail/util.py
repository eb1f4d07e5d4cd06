"""Small shared helpers: apportionment, canonical JSON and typed JSON input."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import typing
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    """Deterministic JSON rendering: sorted keys, two-space indent, newline.

    Exactly ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
    plus ``"\\n"``, errors included, where a dataclass record reads as its
    ``dataclasses.asdict``. That call takes the stdlib's pure-Python
    encoder, because ``indent`` is set; here the value is walked once into
    its layout and its scalars (``json_layout``), and all the scalars go
    through one call of the stdlib's compact encoder (``fill_layout``).
    """
    return fill_layout(*json_layout(obj)) + "\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
# The text json.dumps gives each scalar (NaN and infinities rejected, ASCII
# escapes), a newline between items.
_SCALAR_LIST = json.JSONEncoder(allow_nan=False, check_circular=False, separators=("\n", ": "))
# Layouts are kept across calls, keyed by shape: at most _SHAPES of them,
# each of about _CACHED_CHARS at most. They hold no values. A scenario's
# paths and config echo fill a few dozen.
_SHAPES = 256
_CACHED_CHARS = 1 << 16


def json_layout(obj, depth: int = 0) -> tuple[str, list]:
    """``(template, scalars)``: ``obj``'s canonical JSON at ``depth``, in two parts.

    ``template`` is the text whose first line sits at ``depth``, without a
    trailing newline, with ``%s`` in place of each scalar and ``%%`` for
    each ``%``; ``scalars`` holds the values in template order.
    """
    scalars: list = []
    return _walk(obj, depth, scalars, set()), scalars


def fill_layout(template: str, scalars: list) -> str:
    """``template`` with ``scalars`` in its slots, each as the stdlib encodes it.

    The scalars go through one encode, by the stdlib's C encoder where it
    has one, with a newline between items; an encoded scalar holds no raw
    newline, so the text splits back into one token per value. A record
    field that holds a container where its annotation promised a scalar
    would encode compactly: that raises ``ValueError``.
    """
    if not scalars:
        return template % ()
    text = _SCALAR_LIST.encode(scalars)
    tokens = text[1:-1].split("\n")
    if len(tokens) != len(scalars) or text[1] in "[{" or "\n[" in text or "\n{" in text:
        raise ValueError("a record field holds a container its annotation does not allow")
    return template % tuple(tokens)


def _walk(obj, depth: int, out: list, active: set) -> str:
    """``obj``'s template at ``depth``; its scalars are appended to ``out``.

    ``active`` holds the ids of the enclosing containers walked here, to
    reject a value that contains itself as the stdlib does.
    """
    if isinstance(obj, dict):
        if not _STR.issuperset(map(type, obj)):
            # Non-string keys: the stdlib's own text, escaped for the template.
            text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
            return text.replace("\n", "\n" + "  " * depth).replace("%", "%%")
        keys = tuple(sorted(obj))
        values = list(map(obj.__getitem__, keys))
    elif isinstance(obj, (list, tuple)):
        keys, values = None, obj
        if obj and _is_record(obj[0]):
            record = _record(type(obj[0]), depth + 1)
            if record.fits(obj):
                out += itertools.chain.from_iterable(map(record.scalars, obj))
                return _container(depth, None, (record.template,) * len(obj))
    elif _is_record(obj):
        keys = _record(type(obj), depth).keys
        values = [getattr(obj, key) for key in keys]
    else:
        out.append(obj)
        return "%s"
    if _SCALARS.issuperset(map(type, values)):
        out += values
        return _container(depth, keys, ("%s",) * len(values))
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    items = []
    for value in values:
        if type(value) in _SCALARS:
            out.append(value)
            items.append("%s")
        else:
            items.append(_walk(value, depth + 1, out, active))
    active.discard(id(obj))
    return _container(depth, keys, tuple(items))


def _is_record(obj) -> bool:
    """Whether ``obj`` is a dataclass instance (a dataclass itself is not)."""
    return hasattr(type(obj), "__dataclass_fields__")


def _container(depth: int, keys: tuple[str, ...] | None, items: tuple[str, ...]) -> str:
    """Template of an object with ``keys``, or of an array if None, at ``depth``.

    ``items`` are the values' templates, in key order. A large layout is
    built on every call rather than kept: building it is one join, and
    keeping it would keep a copy of every large layout nested in it.
    """
    if sum(map(len, items)) > _CACHED_CHARS:
        return _layout(depth, keys, items)
    return _cached_layout(depth, keys, items)


def _layout(depth: int, keys: tuple[str, ...] | None, items: tuple[str, ...]) -> str:
    if keys is not None:
        items = [
            encode_basestring_ascii(key).replace("%", "%%") + ": " + item
            for key, item in zip(keys, items)
        ]
    brackets = "[]" if keys is None else "{}"
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    body = inner + ("," + inner).join(items) + "\n" + "  " * depth
    return brackets[0] + body + brackets[1]


_cached_layout = functools.lru_cache(maxsize=_SHAPES)(_layout)


class _Record:
    """How one dataclass is encoded at one depth.

    ``keys`` are its field names, sorted. A record is *fixed* when each
    field is annotated with a scalar type or a fixed record and it has two
    scalars or more. A fixed record has a ``template``; ``names`` are its
    scalars' dotted attribute names in template order, and ``checks`` the
    dotted ``__class__`` names of the record and its nested records, which
    must read ``classes`` for the template to fit. Other records are walked
    field by field.
    """

    __slots__ = ("keys", "template", "names", "checks", "classes", "scalars", "classes_of", "expected")

    def __init__(self, keys, template=None, names=(), checks=(), classes=()):
        self.keys, self.template = keys, template
        self.names, self.checks, self.classes = names, checks, classes
        if template is not None:
            self.scalars = operator.attrgetter(*names)
            self.classes_of = operator.attrgetter(*checks)
            # attrgetter gives a tuple for two or more names, else the value.
            self.expected = classes[0] if len(classes) == 1 else classes

    def fits(self, records) -> bool:
        """Whether ``records`` are all fixed records that fit the template."""
        if self.template is None:
            return False
        try:
            return set(map(self.classes_of, records)) == {self.expected}
        except AttributeError:  # an item that is not a record of this class
            return False


@functools.lru_cache(maxsize=_SHAPES)
def _record(cls: type, depth: int) -> _Record:
    keys = tuple(sorted(f.name for f in dataclasses.fields(cls)))
    hints = typing.get_type_hints(cls)
    items, names, checks, classes = [], [], ["__class__"], [cls]
    for key in keys:
        if hints[key] in _SCALARS:
            items.append("%s")
            names.append(key)
            continue
        inner = _record(hints[key], depth + 1) if dataclasses.is_dataclass(hints[key]) else None
        if inner is None or inner.template is None:
            return _Record(keys)
        items.append(inner.template)
        names += (f"{key}.{name}" for name in inner.names)
        checks += (f"{key}.{check}" for check in inner.checks)
        classes += inner.classes
    if len(names) < 2:
        return _Record(keys)
    template = _container(depth, keys, tuple(items))
    return _Record(keys, template, tuple(names), tuple(checks), tuple(classes))


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
