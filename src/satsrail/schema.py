"""Outside input: the config schema, and one reader per file format.

The config's dataclasses declare its keys, and overrides the exceptions; a
config error names the dotted JSON key it is about. A file is read whole
and decoded once, so a byte that is not UTF-8 is named by its offset in the
file; JSON nested past the recursion limit is not valid JSON; a CSV row the
``csv`` module refuses, such as one with a field over 131,072 characters,
is a ``DataFileError`` naming the file and the row."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class ConfigError(ValueError):
    """Configuration problem; names the offending dotted key."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}" if key else message)


class DataFileError(ValueError):
    """Data from a file that a command cannot use; exit 1 in the CLI."""


def read_text(path) -> str:
    """The file at ``path`` as UTF-8 text; a byte that is not UTF-8 is an
    ``OSError`` naming the file and the byte's offset in the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise OSError(None, reason, path) from None


def load_json(path):
    """The JSON value in the file at ``path``; text that is not JSON, nested
    past the recursion limit included, is a ``ValueError``."""
    try:
        return json.loads(read_text(path))
    except RecursionError:
        raise ValueError("nested too deeply") from None


def csv_rows(path, header: tuple[str, ...], error: type[DataFileError]):
    """Each data row of the CSV file at ``path`` with its 1-based number,
    blank rows skipped. An empty file, a first row other than ``header``, a
    row without one field per header name, or a row the ``csv`` module
    refuses is an ``error`` naming the file and the row (the header is 0)."""
    import csv  # only the commands that read data files need it

    number = -1
    try:
        for number, row in enumerate(csv.reader(io.StringIO(read_text(path), newline=""))):
            if number == 0 and tuple(c.strip() for c in row) != header:
                raise error(f"{path}: header must be {','.join(header)}")
            if number and any(c.strip() for c in row):
                if len(row) != len(header):
                    raise error(f"{path}: row {number}: expected {len(header)} fields")
                yield number, row
    except csv.Error as exc:
        raise error(f"{path}: row {number + 1}: {exc}") from None
    if number < 0:
        raise error(f"{path}: empty file")


def check_bounds(record, high: int, *names: str) -> None:
    """Refuse a field of ``record`` outside [0, ``high``], naming its key."""
    for name in names:
        if not 0 <= getattr(record, name) <= high:
            raise ConfigError(name, f"must be in [0, {high}]")


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}
_JSON_TYPES.update({bool: "true or false", dict: "an object", list: "a list"})


def shown(value) -> str:
    """``value`` as an error message shows it: its JSON text, cut to 60
    characters, so that a 10 KB id makes no 10 KB line."""
    try:
        return json.dumps(value, default=repr)[:60]
    except RecursionError:  # JSON that loaded just under the recursion limit
        return f"a {type(value).__name__} nested too deeply"


def json_as(kind: type, value, key: str):
    """``value`` as ``kind``; ints pass as floats, integral numbers as ints.

    Anything else, or an integer past the float range (the run meets every
    number with floats), is a ``ConfigError`` naming ``key``.
    """
    if kind in (int, float) and type(value) is int and abs(value) > sys.float_info.max:
        raise ConfigError(key, f"must be {_JSON_TYPES[kind]} in the float range (up to ~1.8e308)")
    if kind is float and type(value) is int:
        value = float(value)
    elif kind is int and type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(key, f"must be {_JSON_TYPES[kind]}, not {shown(value)}")
    return value


_REQUIRED = object()


def _join(parent: str, name: str) -> str:
    return f"{parent}.{name}" if parent else name


def _read_json(path, key: str):
    """Load a JSON file; an unreadable or malformed one is a ConfigError."""
    try:
        return load_json(path)
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
        # are (not float, which must be finite, and an int only in the float
        # range), and the read of the rest.
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
        top = sys.float_info.max
        for name, json_name, exact, read in self.plan:
            value = raw.get(json_name, _REQUIRED)
            if type(value) is not exact or exact is int and abs(value) > top:
                value = read(raw, key, ctx)
            fields[name] = value
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
