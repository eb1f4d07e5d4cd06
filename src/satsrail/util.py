"""Small shared helpers: apportionment, canonical JSON and the config schema."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import sys
import typing
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
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
        elif obj and type(obj[0]) in _ROW_TYPES:
            template = _fill_rows(obj, depth, out)
            if template is not None:
                return template
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


_ROW_TYPES = frozenset((dict, list, tuple))
_chain = itertools.chain.from_iterable


def _shape(obj, active: set):
    """``obj``'s shape: ``()`` for a scalar, and for a dict or list its type,
    its sorted keys (a list's length) and its values' shapes. None when it
    holds anything else: a record, a non-string key, or itself (``active``
    holds the ids of the enclosing containers).
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
        return None
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
    each as ``(parent's index or None, getter from the parent, type,
    size)``. ``runs`` are the runs of consecutive scalars in template order,
    each as ``(its container's index, getter, whether it gets several)``.
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

    def visit(shape, parent, key, depth) -> str:
        kind, keys, shapes = shape
        index = len(containers)
        get = None if parent is None else operator.itemgetter(key)
        containers.append((parent, get, kind, len(shapes)))
        names = keys if kind is dict else range(keys)
        items, run = [], []
        for name, inner in zip(names, shapes):
            if inner == ():
                items.append("%s")
                run.append(name)
                continue
            if run:
                runs.append((index, operator.itemgetter(*run), len(run) > 1))
                run = []
            items.append(visit(inner, index, name, depth + 1))
        if run:
            runs.append((index, operator.itemgetter(*run), len(run) > 1))
        return _container(depth, keys if kind is dict else None, tuple(items))

    template = visit(shape, None, None, depth)
    if len(template) > _CACHED_CHARS:
        return None
    return _Rows(template, tuple(containers), tuple(runs))


def _fill_rows(rows, depth: int, out: list) -> str | None:
    """The template of the list ``rows`` at ``depth``, its scalars appended
    to ``out``, when every row has the first row's shape; else None, and
    ``out`` is untouched.

    Each container of the shape is checked as a column over all rows (its
    type and size, and its keys through the getters), and each run of
    scalars is gathered as a column; the scalars are then interleaved row
    by row.
    """
    shape = _shape(rows[0], set())
    plan = None if shape is None else _rows(shape, depth + 1)
    if plan is None:
        return None
    columns: list = []
    try:
        for parent, get, kind, size in plan.containers:
            column = rows if get is None else list(map(get, columns[parent]))
            if set(map(type, column)) != {kind} or set(map(len, column)) != {size}:
                return None
            columns.append(column)
        gathered = [
            map(get, columns[c]) if several else zip(map(get, columns[c]))
            for c, get, several in plan.runs
        ]
        values = list(_chain(_chain(zip(*gathered))))
    except KeyError:  # a dict row without one of the first row's keys
        return None
    if not _SCALARS.issuperset(map(type, values)):
        return None
    out += values
    return _container(depth, None, (plan.template,) * len(rows))


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


class ConfigError(ValueError):
    """Configuration problem; names the offending dotted key."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}" if key else message)


def check_bounds(record, high: int, *names: str) -> None:
    """Refuse a field of ``record`` outside [0, ``high``], naming its key."""
    for name in names:
        if not 0 <= getattr(record, name) <= high:
            raise ConfigError(name, f"must be in [0, {high}]")


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}
_JSON_TYPES.update({bool: "true or false", dict: "an object", list: "a list"})


def json_as(kind: type, value, key: str):
    """``value`` as ``kind``; ints pass as floats, integral numbers as ints.

    Anything else is a ``ConfigError`` naming ``key``.
    """
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        shown = json.dumps(value, default=repr)[:60]
        raise ConfigError(key, f"must be {_JSON_TYPES[kind]}, not {shown}")
    return value


# --------------------------------------------------------------------------
# Config schema: the dataclasses declare the keys, and overrides the exceptions
# --------------------------------------------------------------------------

_REQUIRED = object()


def _join(parent: str, name: str) -> str:
    return f"{parent}.{name}" if parent else name


def _read_json(path, key: str):
    """Load a JSON file; an unreadable or malformed one is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(key, f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(key, f"not valid JSON: {exc}") from None


@dataclass
class _Ctx:
    """One parse: the config's directory, and the fields of its outermost
    section, filled as they are read, for defaults that depend on them."""

    base_dir: Path = Path(".")
    fields: dict | None = None


@dataclass(frozen=True)
class _Key:
    """One JSON key: the dataclass field it fills, its kind and its default.

    ``kind`` is a JSON scalar type, ``dict`` or an object with ``parse`` and
    ``echo``. ``default`` is JSON, parsed like a given value, or a function
    of the outermost section's fields read so far; ``null`` passes only
    where it is None. ``path_key`` names a sibling key that may give the
    value as a JSON file relative to the config's directory. A nameless key
    is a section whose keys sit in the enclosing object.
    """

    name: str | None
    kind: object
    default: object = _REQUIRED
    field: str | None = None
    path_key: str | None = None

    def read(self, raw: dict, parent: str, ctx: _Ctx):
        kind = self.kind
        if self.name is None:
            return kind.parse({k: v for k, v in raw.items() if k in kind.names}, parent, ctx)
        value = raw.get(self.name, _REQUIRED)
        key = _join(parent, self.name)
        if value is _REQUIRED:
            if self.path_key in raw:
                path_key = _join(parent, self.path_key)
                path = ctx.base_dir / json_as(str, raw[self.path_key], path_key)
                value = _read_json(path, path_key)
            elif self.default is _REQUIRED:
                either = f" (or {self.path_key!r})" if self.path_key else ""
                raise ConfigError(key, f"missing required value{either}")
            else:
                value = self.default(ctx.fields) if callable(self.default) else self.default
        if value is None and self.default is None:
            return None
        if isinstance(kind, type):
            return json_as(kind, value, key)
        return kind.parse(value, key, ctx)


# The section of each dataclass, filled at import: one JSON shape per class.
_SECTIONS: dict[type, _Section] = {}


class _Section:
    """A JSON object whose keys build one dataclass; other keys are errors.

    Each field is the key its declaration gives unless one of ``overrides``
    fills it: the field's name, its annotation as the kind and its default.
    An ``X | None`` field takes null as its None default. A dataclass field
    is that class's section, defaulting to ``{}`` if the field has a
    ``default_factory``; a class's section must be made before it is used.
    A field whose name starts with ``_`` is no key and keeps its default.
    ``make`` builds the record from its fields, ``cls`` by default; what it
    rejects with ``ValueError`` is a ``ConfigError`` naming the section, and
    a ``ConfigError`` it raises names its key below the section.
    """

    def __init__(self, cls: type, *overrides: _Key, make: Callable | None = None):
        fields = {f.name: f for f in dataclasses.fields(cls) if f.init and f.name[0] != "_"}
        given = {k.field or k.name: k for k in overrides}
        stray = sorted(set(given) - set(fields))
        if stray or cls in _SECTIONS:
            problem = f"no field {stray[0]!r}" if stray else "two sections"
            raise TypeError(f"{cls.__name__} has {problem}")
        _SECTIONS[cls] = self
        hints = typing.get_type_hints(cls)
        self.cls, self.make = cls, make or cls
        self.keys = {
            name: given.get(name) or _field_key(f, hints[name]) for name, f in fields.items()
        }
        self.names = frozenset().union(
            *({k.name, k.path_key} - {None} if k.name else k.kind.names for k in self.keys.values())
        )
        # Per field: its JSON name, the JSON type whose values pass as they
        # are (not float, which must be finite), and the read of the rest.
        self.plan = tuple(
            (name, k.name, k.kind if k.kind in (bool, int, str, dict, list) else None, k.read)
            for name, k in self.keys.items()
        )

    def parse(self, raw, key: str, ctx: _Ctx):
        if type(raw) is not dict:
            json_as(dict, raw, key)
        if not raw.keys() <= self.names:
            raise ConfigError(_join(key, min(raw.keys() - self.names)), "unknown key")
        fields: dict = {}
        if ctx.fields is None:
            ctx.fields = fields
        for name, json_name, exact, read in self.plan:
            value = raw.get(json_name, _REQUIRED)
            fields[name] = value if type(value) is exact else read(raw, key, ctx)
        try:
            return self.make(**fields)
        except ConfigError as exc:
            raise ConfigError(_join(key, exc.key), exc.message) from None
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from None

    def echo(self, obj) -> dict:
        out = {}
        for name, k in self.keys.items():
            value = getattr(obj, name)
            if value is not None and not isinstance(k.kind, type):
                value = k.kind.echo(value)
            if k.name is None:
                out.update(value)
            else:
                out[k.name] = value
        return out


def _field_key(f: dataclasses.Field, hint) -> _Key:
    """The key a dataclass field declares: its name, type and default."""
    if type(None) in typing.get_args(hint):  # X | None
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if dataclasses.is_dataclass(hint):
        kind = _SECTIONS.get(hint) or _Section(hint)
        default = _REQUIRED if f.default_factory is dataclasses.MISSING else {}
    elif hint in (bool, int, float, str):
        kind = hint
        default = _REQUIRED if f.default is dataclasses.MISSING else f.default
    else:
        raise TypeError(f"field {f.name!r} of type {hint} needs an explicit key")
    return _Key(f.name, kind, default)


class _List:
    """A JSON list whose items are each ``kind``: a JSON scalar type or a section."""

    def __init__(self, kind):
        self.kind = kind

    def parse(self, raw, key: str, ctx: _Ctx) -> tuple:
        if type(raw) is not list:
            json_as(list, raw, key)
        kind = self.kind
        if isinstance(kind, type):  # the key is named only for an error
            return tuple(
                x if type(x) is kind and kind is not float else json_as(kind, x, f"{key}[{i}]")
                for i, x in enumerate(raw)
            )
        return tuple(kind.parse(x, f"{key}[{i}]", ctx) for i, x in enumerate(raw))

    def echo(self, items) -> list:
        if isinstance(self.kind, type):
            return list(items)
        return [self.kind.echo(item) for item in items]


class _OneOf:
    """A JSON object whose ``tag`` key names the section that parses it."""

    def __init__(self, tag: str, **sections: _Section):
        self.tag, self.sections = tag, sections

    def parse(self, raw, key: str, ctx: _Ctx):
        section = self.sections.get(json_as(dict, raw, key).get(self.tag))
        if section is None:
            choices = " or ".join(map(repr, self.sections))
            raise ConfigError(_join(key, self.tag), f"must be {choices}")
        return section.parse({k: v for k, v in raw.items() if k != self.tag}, key, ctx)

    def echo(self, obj) -> dict:
        tag = next(t for t, s in self.sections.items() if isinstance(obj, s.cls))
        return {self.tag: tag, **self.sections[tag].echo(obj)}


@dataclass(frozen=True)
class _Custom:
    """A kind parsed by ``parse(raw, key, ctx)`` and echoed by ``echo``."""

    parse: Callable
    echo: Callable
