"""Small shared helpers: apportionment and canonical JSON."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import typing
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence


def apportion_largest_remainder(
    total: int, weights: Sequence[tuple[str, float | int]]
) -> dict[str, int]:
    """Split ``total`` into integer parts proportional to ``weights``.

    Largest-remainder method with exact integer arithmetic: each weight is
    its exact ratio (``as_integer_ratio``) over the weights' common
    denominator, so a part and its remainder are one ``divmod``. Remainder
    ties break by key in ascending order. The parts always sum exactly to
    ``total``.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    ratios = []
    for key, w in weights:
        num, den = w.as_integer_ratio()
        if num <= 0:
            raise ValueError(f"weight for {key!r} must be positive")
        ratios.append((num, den))
    common = math.lcm(*(den for _, den in ratios))
    shares = [num * (common // den) for num, den in ratios]
    grand = sum(shares)
    parts = {}
    by_remainder = []
    for (key, _), share in zip(weights, shares):
        parts[key], remainder = divmod(total * share, grand)
        by_remainder.append((-remainder, key))
    leftover = total - sum(parts.values())
    for _, key in sorted(by_remainder)[:leftover]:
        parts[key] += 1
    return parts


def canonical_json(obj, write: Callable[[str], object] | None = None) -> str | None:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline.

    Exactly ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
    plus ``"\\n"``, errors included, where a dataclass record reads as its
    ``dataclasses.asdict`` and a ``CanonicalText`` as the value its text
    encodes. That call takes the stdlib's pure-Python encoder, because
    ``indent`` is set; here the value is walked once into its layout and
    its scalars (``json_layout``), and all the scalars go through one call
    of the stdlib's compact encoder (``fill_layout``).

    With ``write``, the same text goes to ``write`` in pieces, and None is
    returned. A value whose layout is within ``_CACHED_CHARS`` is one
    piece; a longer one is written in runs of its items, each within the
    bound unless it is a single item (``_split``). Text written before an
    error stays written, as with ``json.dump``.
    """
    if write is None:
        return fill_layout(*json_layout(obj)) + "\n"
    _dump(obj, 0, write, set())
    write("\n")
    return None


class CanonicalText:
    """Text that ``canonical_json`` returned for a value, to stand for that
    value inside a larger document without being encoded again.

    ``canonical_json`` re-indents it to its depth; a piece of it that it
    writes holds at most ``_CACHED_CHARS`` characters. Not a ``str``
    subclass, because making one would copy the text.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise ValueError("canonical text must end with a newline")
        self.text = text


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
    return _walk(obj, depth, scalars, set(), False), scalars


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


class _TooLong(Exception):
    """A layout over ``_CACHED_CHARS``, in a walk that must not build one."""


def _walk(obj, depth: int, out: list, active: set, bounded: bool) -> str:
    """``obj``'s template at ``depth``; its scalars are appended to ``out``.

    ``active`` holds the ids of the enclosing containers walked here, to
    reject a value that contains itself as the stdlib does. When
    ``bounded``, a layout over ``_CACHED_CHARS`` raises ``_TooLong``, before
    a long list's scalars are gathered, instead of being built.
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
        template = _fill_rows(obj, depth, out, bounded) if obj else None
        if template is not None:
            return template
    elif _is_record(obj):
        keys = _field_names(type(obj))
        values = [getattr(obj, key) for key in keys]
    elif type(obj) is CanonicalText:
        if bounded and len(obj.text) > _CACHED_CHARS:
            raise _TooLong
        return obj.text[:-1].replace("\n", "\n" + "  " * depth).replace("%", "%%")
    else:
        out.append(obj)
        return "%s"
    if _SCALARS.issuperset(map(type, values)):
        out += values
        return _container(depth, keys, ("%s",) * len(values), bounded)
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    active.add(id(obj))
    items = []
    for value in values:
        if type(value) in _SCALARS:
            out.append(value)
            items.append("%s")
        else:
            items.append(_walk(value, depth + 1, out, active, bounded))
    active.discard(id(obj))
    return _container(depth, keys, tuple(items), bounded)


def _is_record(obj) -> bool:
    """Whether ``obj`` is a dataclass instance (a dataclass itself is not)."""
    return hasattr(type(obj), "__dataclass_fields__")


def _container(
    depth: int, keys: tuple[str, ...] | None, items: tuple[str, ...], bounded: bool = False
) -> str:
    """Template of an object with ``keys``, or of an array if None, at ``depth``.

    ``items`` are the values' templates, in key order. A large layout is
    built on every call rather than kept: building it is one join, and
    keeping it would keep a copy of every large layout nested in it. When
    ``bounded`` it is not built: that raises ``_TooLong``.
    """
    if sum(map(len, items)) > _CACHED_CHARS:
        if bounded:
            raise _TooLong
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
_ROW_TYPES = frozenset((dict, list, tuple))
_chain = itertools.chain.from_iterable


@functools.lru_cache(maxsize=_SHAPES)
def _field_names(cls: type) -> tuple[str, ...]:
    """A record class's field names, sorted: its keys."""
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


@functools.lru_cache(maxsize=_SHAPES)
def _class_shape(cls: type, enclosing: tuple = ()):
    """The shape of every record of ``cls``, from its annotations: ``cls``,
    its field names and their shapes. None unless each field is annotated
    with a scalar type or a record class that has a shape; a class whose
    annotations do not resolve, or that holds itself (``enclosing``), has
    none, and its records are walked value by value.
    """
    try:
        hints = typing.get_type_hints(cls)
    except NameError:
        return None
    enclosing += (cls,)
    shapes = []
    for key in _field_names(cls):
        hint = hints[key]
        record = dataclasses.is_dataclass(hint) and hint not in enclosing
        shape = () if hint in _SCALARS else _class_shape(hint, enclosing) if record else None
        if shape is None:
            return None
        shapes.append(shape)
    return cls, _field_names(cls), tuple(shapes)


def _shape(obj, active: set):
    """``obj``'s shape: ``()`` for a scalar; for a dict or list its type, its
    sorted keys (a list's length) and its values' shapes; for a record its
    class's shape (``_class_shape``). None when it holds anything else: a
    non-string key, or itself (``active`` holds the ids of the enclosing
    containers).
    """
    kind = type(obj)
    if kind in _SCALARS:
        return ()
    if kind is dict and _STR.issuperset(map(type, obj)):
        keys = tuple(sorted(obj))
        values = map(obj.__getitem__, keys)
    elif kind is list or kind is tuple:
        keys, values = len(obj), obj
    else:
        return _class_shape(kind) if _is_record(obj) else None
    if id(obj) in active:
        return None
    active.add(id(obj))
    shapes = []
    for value in values:
        shape = _shape(value, active)
        if shape is None:
            return None
        shapes.append(shape)
    active.discard(id(obj))
    return kind, keys, tuple(shapes)


class _Rows:
    """How a list of rows of one shape is encoded, each row at one depth.

    ``containers`` are the row and its nested containers, parents first,
    each as ``(parent's index or None, getter from the parent, type, size
    or None for a record)``. ``runs`` are the runs of consecutive scalars
    in template order, each as ``(its container's index, getter, whether
    it gets several)``. A getter reads a record's fields by ``attrgetter``,
    and a dict's keys or a list's indexes by ``itemgetter``.
    """

    __slots__ = ("template", "containers", "runs")

    def __init__(self, template, containers, runs):
        self.template, self.containers, self.runs = template, containers, runs


@functools.lru_cache(maxsize=_SHAPES)
def _rows(shape: tuple, depth: int) -> _Rows | None:
    """The plan for rows of ``shape`` at ``depth``; None if its template is
    too long to keep."""
    containers: list = []
    runs: list = []

    def visit(shape, parent, get, depth) -> str:
        kind, keys, shapes = shape
        index = len(containers)
        plain = kind in _ROW_TYPES
        containers.append((parent, get, kind, len(shapes) if plain else None))
        getter = operator.itemgetter if plain else operator.attrgetter
        array = kind is list or kind is tuple
        items, run = [], []
        for name, inner in zip(range(keys) if array else keys, shapes):
            if inner == ():
                items.append("%s")
                run.append(name)
                continue
            if run:
                runs.append((index, getter(*run), len(run) > 1))
                run = []
            items.append(visit(inner, index, getter(name), depth + 1))
        if run:
            runs.append((index, getter(*run), len(run) > 1))
        return _container(depth, None if array else keys, tuple(items))

    template = visit(shape, None, None, depth)
    if len(template) > _CACHED_CHARS:
        return None
    return _Rows(template, tuple(containers), tuple(runs))


def _fill_rows(rows, depth: int, out: list, bounded: bool = False) -> str | None:
    """The template of the list ``rows`` at ``depth``, its scalars appended
    to ``out``, when every row has the first row's shape; else None, and
    ``out`` is untouched. ``bounded`` is as for ``_walk``.

    Each container of the shape is checked as a column over all rows: its
    type, and for a dict or list its size and its keys through the
    getters; a record's class fixes its fields. Each run of scalars is
    gathered as a column; the scalars are then interleaved row by row.
    Record rows are trusted to hold scalars where their annotations say
    so, and ``fill_layout`` refuses a container among them.
    """
    shape = _shape(rows[0], set())
    plan = _rows(shape, depth + 1) if shape else None
    if plan is None:
        return None
    if bounded and len(plan.template) * len(rows) > _CACHED_CHARS:
        raise _TooLong  # before the columns are gathered
    columns: list = []
    try:
        for parent, get, kind, size in plan.containers:
            column = rows if get is None else list(map(get, columns[parent]))
            if set(map(type, column)) != {kind}:
                return None
            if size is not None and set(map(len, column)) != {size}:
                return None
            columns.append(column)
        gathered = [
            map(get, columns[c]) if several else zip(map(get, columns[c]))
            for c, get, several in plan.runs
        ]
        values = list(_chain(_chain(zip(*gathered))))
    except KeyError:  # a dict row without one of the first row's keys
        return None
    if type(rows[0]) in _ROW_TYPES and not _SCALARS.issuperset(map(type, values)):
        return None
    out += values
    return _container(depth, None, (plan.template,) * len(rows))


def _dump(obj, depth: int, write: Callable, active: set) -> None:
    """Write ``obj``'s text at ``depth``, without a trailing newline: one
    piece if it makes one (``_piece``), else ``_split``.

    ``active`` holds the ids of the enclosing containers being split.
    """
    text = _piece(obj, depth, active)
    if text is None:
        _split(obj, depth, write, active)
    else:
        write(text)


def _piece(obj, depth: int, active: set) -> str | None:
    """``obj``'s text at ``depth`` if its layout is within ``_CACHED_CHARS``
    and so is its text, unless it is a scalar; else None."""
    scalars: list = []
    try:
        text = fill_layout(_walk(obj, depth, scalars, set(active), True), scalars)
    except _TooLong:
        return None
    if len(text) > _CACHED_CHARS and type(obj) not in _SCALARS:
        return None
    return text


def _split(obj, depth: int, write: Callable, active: set) -> None:
    """Write ``obj``, a value that makes no one piece, in pieces.

    Canonical text is re-indented in chunks that stay within the bound.
    A dict with a key that is not a string is the stdlib's text, whole. A
    list, dict or record is written in runs of its items, each one piece,
    so the runs of a uniform list share one cached layout. A run starts at
    one item. It doubles while its text is under half the bound, and
    halves while it makes no piece. An item that makes no piece on its own
    is written by ``_dump``.
    """
    if type(obj) is CanonicalText:
        text, indent = obj.text, "\n" + "  " * depth
        # No line is empty, so a chunk of n characters holds at most
        # (n + 1) // 2 newlines and grows to at most n + (n + 1) * depth.
        step, end = max(1, (_CACHED_CHARS - depth) // (depth + 1)), len(text) - 1
        for start in range(0, end, step):
            write(text[start : min(start + step, end)].replace("\n", indent))
        return
    if isinstance(obj, dict) and not _STR.issuperset(map(type, obj)):
        write(fill_layout(*json_layout(obj, depth)))
        return
    if id(obj) in active:
        raise ValueError("Circular reference detected")
    if isinstance(obj, dict):
        keys = sorted(obj)
        values = list(map(obj.__getitem__, keys))
    elif isinstance(obj, list):
        keys, values = None, obj
    elif isinstance(obj, tuple):  # a whole tuple's slice is the tuple itself
        keys, values = None, list(obj)
    else:  # a record
        keys = _field_names(type(obj))
        values = [getattr(obj, key) for key in keys]
    active.add(id(obj))
    brackets = "[]" if keys is None else "{}"
    inner = "\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + brackets[1]
    start, size = 0, 1
    while start < len(values):
        stop = start + size
        run = values[start:stop]
        if keys is not None:
            run = dict(zip(keys[start:stop], run))
        text = _piece(run, depth, active)
        if text is None and size > 1:
            size //= 2
        elif text is None:
            key = "" if keys is None else encode_basestring_ascii(keys[start]) + ": "
            write((brackets[0] if start == 0 else ",") + inner + key)
            _dump(values[start], depth + 1, write, active)
            start = stop
        else:
            # The run's text without its brackets: its items, each after a newline.
            write((brackets[0] if start == 0 else ",") + text[1 : len(text) - len(close)])
            start = stop
            if 2 * len(text) < _CACHED_CHARS:
                size *= 2
    active.discard(id(obj))
    write(close)


@functools.lru_cache
def decimal_fraction(x: float | int) -> tuple[int, int]:
    """Exact ``(numerator, denominator)``, in lowest terms, of a
    human-entered decimal fraction.

    Reads ``repr(x)`` so 0.03 means 3/100, not the binary float just below
    it; integer inputs pass through exactly.
    """
    if isinstance(x, int):
        return x, 1
    mantissa, _, exponent = repr(x).partition("e")
    whole, _, digits = mantissa.partition(".")
    num = int(whole + digits)
    scale = int(exponent or 0) - len(digits)
    if scale >= 0:
        return num * 10**scale, 1
    den = 10**-scale
    g = math.gcd(num, den)
    return num // g, den // g
