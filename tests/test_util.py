"""``canonical_json`` against the stdlib formula it must reproduce byte for byte."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stdlib_canonical_json
from satsrail import util
from satsrail.schema import ConfigError, json_as
from satsrail.util import (
    CanonicalText,
    apportion_largest_remainder,
    canonical_json,
    decimal_fraction,
)

TRICKY_CHARS = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "/", " ", "{", "}", "[", "]"]
    + [",", ":", "\u00e9", "\u2028", "\ud800", "\U0001f600", "\U0010ffff"]
)
STRINGS = st.text(alphabet=st.one_of(TRICKY_CHARS, st.characters()), max_size=12)
INTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 1e16, -1e16, 5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(STRINGS, children, max_size=5),
    ),
    max_leaves=40,
)


def nest(value, kinds):
    """``value`` wrapped once per kind, each level beside an empty container."""
    for kind in kinds:
        if kind == "dict":
            value = {"v": value, "empty": {}, "flat": [], "x": 0}
        elif kind == "list":
            value = [[], value, {}, 1.5]
        else:
            value = ({}, "s", value)
    return value


KINDS = st.lists(st.sampled_from(["dict", "list", "tuple"]), min_size=5, max_size=8)
DEEP = st.builds(nest, VALUES, KINDS)


FIXED_CASES = [
    {},
    [],
    (),
    "",
    None,
    [True, False, 0, 1, None],
    {"b": [{"d": [[[[[{}]]]]], "c": ()}], "a": {"": 5e-324, "~": -0.0}},
    {"q": 'say "hi"\\\n', "u": "caf\u00e9 \U0001f600", "n": 2**70},
    [1e-05, 1e16, 1e22, 123456789.123, -(2**64)],
    {"month": 1, "rail": {"gmv_cents": 0}, "kpi": {"ratio": 0.5}, "var": {}},
    {"100%": 1, "a%sb": [1], "%%": {"%d": "%s"}},
    {"long": [{"k%": [i], "v": {"w": None}} for i in range(3000)]},  # a layout too long to keep
]


def outcome(encode, value):
    """The encoded text, or the type of the exception ``encode`` raised."""
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


class TestCanonicalJson:
    @given(VALUES)
    @settings(max_examples=250, deadline=None)
    def test_matches_the_stdlib_formula(self, value):
        assert canonical_json(value) == stdlib_canonical_json(value)

    @given(DEEP)
    @settings(max_examples=100, deadline=None)
    def test_matches_at_depth_with_empty_containers(self, value):
        assert canonical_json(value) == stdlib_canonical_json(value)

    @pytest.mark.parametrize("value", FIXED_CASES)
    def test_fixed_cases(self, value):
        assert canonical_json(value) == stdlib_canonical_json(value)

    @pytest.mark.parametrize("value", FIXED_CASES)
    def test_fixed_cases_without_the_c_accelerator(self, value, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert canonical_json(value) == stdlib_canonical_json(value)

    @given(
        st.dictionaries(
            st.one_of(st.none(), st.booleans(), st.integers(-5, 5), FLOATS, STRINGS),
            st.one_of(SCALARS, st.lists(SCALARS, max_size=2)),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_non_string_keys_match_or_raise_like_the_stdlib(self, value):
        for placed in (value, [value], {"k": [value]}):
            assert outcome(canonical_json, placed) == outcome(stdlib_canonical_json, placed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise_value_error(self, bad):
        for value in (bad, [bad], {"k": bad}, {"k": [bad], "j": {}}, [[1], bad], {bad: 1}):
            with pytest.raises(ValueError):
                stdlib_canonical_json(value)
            with pytest.raises(ValueError):
                canonical_json(value)

    @pytest.mark.parametrize("bad", [object(), frozenset({1}), b"bytes", Fraction(1, 3)])
    def test_unsupported_objects_raise_type_error(self, bad):
        for value in (bad, [bad], {"k": bad}, {"k": [bad], "j": {}}, [[1], bad], {bad: 1}):
            with pytest.raises(TypeError):
                stdlib_canonical_json(value)
            with pytest.raises(TypeError):
                canonical_json(value)

    def test_a_value_that_contains_itself_raises_value_error(self):
        loop = {"a": [1]}
        loop["a"].append(loop)
        with pytest.raises(ValueError):
            stdlib_canonical_json(loop)
        with pytest.raises(ValueError):
            canonical_json(loop)


# Lists of rows: every row of one list has the first row's shape, the same
# keys or length and nested containers at the same places, so the list
# takes ``util._fill_rows``.
ROW_SHAPES = st.recursive(
    st.none(),
    lambda inner: st.one_of(
        st.dictionaries(STRINGS, inner, max_size=4), st.lists(inner, max_size=3)
    ),
    max_leaves=8,
).filter(lambda shape: shape is not None)


def value_of(shape):
    """Values of ``shape``: a scalar where it holds None."""
    if shape is None:
        return SCALARS
    if isinstance(shape, dict):
        return st.fixed_dictionaries({key: value_of(inner) for key, inner in shape.items()})
    return st.tuples(*map(value_of, shape)).map(list)


ROWS = ROW_SHAPES.flatmap(lambda shape: st.lists(value_of(shape), min_size=1, max_size=6))


def misfits(rows, i, value):
    """``rows`` with row ``i`` replaced by ``value``, or spliced into it."""
    rows = list(rows)
    i %= len(rows)
    row = rows[i]
    if isinstance(row, dict) and row and isinstance(value, dict):
        rows[i] = {**row, **value}  # extra or changed keys
    elif isinstance(row, dict) and row:
        rows[i] = {k: v for k, v in row.items() if k != min(row)} | {"~extra": value}
    elif isinstance(row, list) and row:
        rows[i] = row[:-1] + [value, value]  # ragged, and a container where a scalar was
    else:
        rows[i] = value
    return rows


ROW_CASES = {
    "empty-dicts": [{}, {}],
    "empty-lists": [[], [], []],
    "ragged-keys": [{"a": 1, "b": 2}, {"a": 1}],
    "ragged-extra-key": [{"a": 1}, {"a": 1, "b": 2}],
    "same-size-other-key": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "ragged-lists": [["n1", 1.0], ["n2", 1.0, 2.0]],
    "list-or-tuple": [["n1", 1.0], ("n2", 1.0)],
    "policy-is-a-list": [
        {"id": "c1", "policy_ab": {"base_msat": 1, "ppm": 2}},
        {"id": "c2", "policy_ab": [1, 2]},
    ],
    "policy-extra-key": [
        {"id": "c1", "policy_ab": {"base_msat": 1, "ppm": 2}},
        {"id": "c2", "policy_ab": {"base_msat": 1, "ppm": 2, "fee": 0}},
    ],
    "policy-is-a-scalar": [{"id": "c1", "p": {"x": 1}}, {"id": "c2", "p": 5}],
    "scalar-is-a-dict": [{"id": "c1", "p": 5}, {"id": "c2", "p": {"x": 1}}],
    "non-string-key-in-row-2": [{"a": 1, "b": 2}, {"a": 1, 2: "b"}],
    "non-string-key-in-row-1": [{1: "a"}, {1: "a"}],
    "nan-in-a-row": [{"a": 1.0}, {"a": math.nan}],
    "inf-in-a-nested-row": [{"a": {"b": 1.0}}, {"a": {"b": -math.inf}}],
    "unsupported-in-a-row": [{"a": 1}, {"a": Fraction(1, 3)}],
    "record-like-row": [{"a": 1}, {"a": b"x"}],
    "percent-keys": [{"100%": 1, "%s": {"%%": "%d"}}, {"100%": 2, "%s": {"%%": "%"}}],
    "a-dict-subclass": [{"a": 1}, type("Row", (dict,), {})(a=2)],
    "bools-and-nones": [{"a": True, "b": None}, {"a": 0, "b": "x"}],
    "channels": [
        {
            "id": f"m{i:04d}",
            "a": "n1",
            "b": "n2",
            "capacity_msat": 10**9 + i,
            "balance_a_msat": i,
            "policy_ab": {"base_msat": 1000, "ppm": 100},
            "policy_ba": {"base_msat": 1000, "ppm": i % 3},
        }
        for i in range(50)
    ],
}


def contains_itself():
    """Rows whose second row holds itself where the first row holds a dict."""
    row = {"a": 1, "b": {"a": 1}}
    loop = {"a": 2}
    loop["b"] = loop
    return [row, loop]


def holds_its_list():
    """Rows whose first row holds the list of rows itself."""
    rows = [{"a": 1}, {"a": 2}]
    rows[0]["b"] = rows
    rows[1]["b"] = rows
    return rows


class TestRows:
    """Lists of same-shaped rows against the stdlib formula."""

    @pytest.mark.parametrize("rows", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_fixed_rows(self, rows):
        for placed in (rows, {"k": rows, "z": [rows]}, [rows, {"r": tuple(rows)}]):
            assert outcome(canonical_json, placed) == outcome(stdlib_canonical_json, placed)

    @pytest.mark.parametrize("rows", ROW_CASES.values(), ids=ROW_CASES.keys())
    def test_fixed_rows_without_the_c_accelerator(self, rows, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert outcome(canonical_json, rows) == outcome(stdlib_canonical_json, rows)

    @pytest.mark.parametrize("make", [contains_itself, holds_its_list])
    def test_rows_that_contain_themselves_raise_value_error(self, make):
        with pytest.raises(ValueError):
            stdlib_canonical_json(make())
        with pytest.raises(ValueError):
            canonical_json(make())

    def test_rows_of_one_shape_take_one_template(self):
        rows = ROW_CASES["channels"]
        out: list = []
        assert util._fill_rows(rows, 2, out) is not None
        # Row by row, in key order: a, b, balance, capacity, id, then each policy.
        assert len(out) == 9 * len(rows)
        assert out[:9] == ["n1", "n2", 0, 10**9, "m0000", 1000, 100, 1000, 0]
        for name in ("ragged-keys", "policy-extra-key", "non-string-key-in-row-2"):
            out = []
            assert util._fill_rows(ROW_CASES[name], 2, out) is None and out == []

    @given(ROWS)
    @settings(max_examples=120, deadline=None)
    def test_rows_match_the_stdlib_formula(self, rows):
        for placed in (rows, {"k": rows}):
            assert outcome(canonical_json, placed) == outcome(stdlib_canonical_json, placed)

    @given(ROWS, st.integers(0, 5), VALUES)
    @settings(max_examples=150, deadline=None)
    def test_misfit_rows_match_or_raise_like_the_stdlib(self, rows, i, value):
        rows = misfits(rows, i, value)
        for placed in (rows, {"k": rows}):
            assert outcome(canonical_json, placed) == outcome(stdlib_canonical_json, placed)


def pieces_of(value) -> list[str]:
    """The pieces ``canonical_json`` writes for ``value`` to a sink."""
    pieces: list[str] = []
    assert canonical_json(value, pieces.append) is None
    return pieces


def sink_outcome(value):
    """The joined pieces, or the type of the exception the sink mode raised."""
    return outcome(lambda v: "".join(pieces_of(v)), value)


@contextlib.contextmanager
def piece_bound(chars: int):
    """``util._CACHED_CHARS`` set to ``chars``, so that small values split.

    The caches of plans and layouts hold what the bound decided; they are
    emptied on the way in and out, so no other test sees them.
    """
    caches = (util._rows, util._class_shape, util._field_names, util._cached_layout)
    saved = util._CACHED_CHARS
    for cache in caches:
        cache.cache_clear()
    util._CACHED_CHARS = chars
    try:
        yield
    finally:
        util._CACHED_CHARS = saved
        for cache in caches:
            cache.cache_clear()


@dataclasses.dataclass
class Point:
    """A record with a class shape: its fields are annotated as scalars."""

    x: int
    y: float
    label: str


@dataclasses.dataclass
class Box:
    """A record walked field by field."""

    name: str
    items: list


@dataclasses.dataclass
class Node:
    """A record whose annotation names its own class: it has no class shape."""

    value: int
    nxt: Node


def local_records() -> list:
    """Records of a class defined in a function, annotated with another
    local class: in a module with postponed annotations they do not resolve."""

    @dataclasses.dataclass
    class Leaf:
        v: int
        w: float

    @dataclasses.dataclass
    class Holder:
        name: str
        leaf: Leaf

    return [Holder(f"h{i}", Leaf(i, i / 2)) for i in range(3)]


UNSHAPED = {
    "local-classes": local_records,
    "self-annotated": lambda: [Node(1, None), Node(2, Node(3, None)), Node(4, None)],
}


@pytest.mark.parametrize("bound", [40, 1 << 16])
@pytest.mark.parametrize("make", UNSHAPED.values(), ids=UNSHAPED.keys())
def test_records_without_a_class_shape_read_as_their_asdict(make, bound):
    records = make()
    plain = list(map(dataclasses.asdict, records))
    for value, as_dict in ((records[0], plain[0]), (records, plain)):
        expected = stdlib_canonical_json(as_dict)
        with piece_bound(bound):
            assert canonical_json(value) == expected
            assert "".join(pieces_of(value)) == expected


def _wrap(pair):
    """A value as ``CanonicalText`` of its stdlib text, beside the plain value."""
    return CanonicalText(stdlib_canonical_json(pair[1])), pair[1]


def _split_pairs(pairs):
    return [fancy for fancy, _ in pairs], [plain for _, plain in pairs]


SHORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), FLOATS, STRINGS, st.just("%s" * 200)
)
POINTS = st.builds(Point, st.integers(), FLOATS, STRINGS).map(lambda p: (p, dataclasses.asdict(p)))
NON_STRING_KEYS = st.dictionaries(st.integers(-5, 5), SHORT_SCALARS, min_size=1, max_size=3)
UNIFORM_ROWS = ROW_SHAPES.flatmap(lambda shape: st.lists(value_of(shape), min_size=8, max_size=30))
# (value, the plain value the stdlib encodes to the same text): records,
# canonical text at any depth, uniform rows, non-string keys, and lists and
# dicts of them.
DOCUMENTS = st.recursive(
    st.one_of(
        SHORT_SCALARS.map(lambda v: (v, v)),
        POINTS,
        UNIFORM_ROWS.map(lambda rows: (rows, rows)),
        NON_STRING_KEYS.map(lambda d: (d, d)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=8).map(_split_pairs),
        st.lists(children, max_size=8).map(lambda pairs: tuple(map(tuple, _split_pairs(pairs)))),
        st.dictionaries(STRINGS, children, max_size=6).map(
            lambda d: ({k: f for k, (f, _) in d.items()}, {k: p for k, (_, p) in d.items()})
        ),
        st.tuples(STRINGS, st.lists(children, max_size=4)).map(
            lambda t: (Box(t[0], _split_pairs(t[1])[0]), {"name": t[0], "items": _split_pairs(t[1])[1]})
        ),
        children.map(_wrap),
    ),
    max_leaves=30,
)


class TestSink:
    """``canonical_json(value, write)`` writes the text the call without a
    sink returns, in pieces within ``util._CACHED_CHARS``."""

    @given(DOCUMENTS, st.sampled_from([40, 160, 1 << 16]))
    @settings(max_examples=150, deadline=None)
    def test_pieces_join_to_the_text(self, pair, bound):
        value, plain = pair
        expected = stdlib_canonical_json(plain)
        assert canonical_json(value) == expected
        with piece_bound(bound):
            assert "".join(pieces_of(value)) == expected
            assert canonical_json(value) == expected

    @given(DOCUMENTS)
    @settings(max_examples=150, deadline=None)
    def test_a_piece_over_the_bound_is_one_row(self, pair):
        with piece_bound(160):
            pieces = pieces_of(pair[0])
        for piece in pieces:
            if len(piece) > 160:
                # One whole value: a long string, or a dict with a key that is
                # not a string, which the stdlib writes.
                assert type(json.loads(piece)) in (str, dict), piece

    @pytest.mark.parametrize("bound", [40, 160, 1 << 16])
    @pytest.mark.parametrize("value", FIXED_CASES + list(ROW_CASES.values()))
    def test_fixed_cases_match_or_raise_like_the_stdlib(self, value, bound):
        with piece_bound(bound):
            for placed in (value, {"k": [value, value], "z": CanonicalText(canonical_json(0))}):
                assert sink_outcome(placed) == outcome(canonical_json, placed)
        for placed in (value, [value, value]):
            assert sink_outcome(placed) == outcome(stdlib_canonical_json, placed)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, Fraction(1, 3)])
    @pytest.mark.parametrize("bound", [40, 1 << 16])
    def test_bad_values_raise_as_without_a_sink(self, bad, bound):
        rows = [{"a": i, "b": [i, "x"]} for i in range(50)]
        cases = [bad, [bad], {"k": bad}, {"k": [*rows, {"a": 1, "b": [bad, "x"]}]}, {bad: 1}]
        with piece_bound(bound):
            for value in cases:
                assert sink_outcome(value) == outcome(canonical_json, value)
                assert sink_outcome(value) == outcome(stdlib_canonical_json, value)

    @pytest.mark.parametrize("bound", [40, 1 << 16])
    @pytest.mark.parametrize("make", [contains_itself, holds_its_list])
    def test_values_that_contain_themselves_raise_value_error(self, make, bound):
        loop = {"a": [1]}
        loop["a"].append(loop)
        rows = [{"a": i} for i in range(5000)]
        rows.append(rows)  # a long list of rows, itself the last row
        with piece_bound(bound):
            for value in (loop, make(), [list(range(100)), make()], rows):
                with pytest.raises(ValueError):
                    pieces_of(value)

    def test_a_value_within_the_bound_is_one_piece(self):
        value = {"rows": ROW_CASES["channels"], "n": 1}
        assert pieces_of(value) == [canonical_json(value)[:-1], "\n"]

    def test_long_lists_go_in_runs_that_share_one_layout(self):
        rows = [dict(row, id=f"c{i:05d}") for i, row in enumerate(ROW_CASES["channels"] * 400)]
        value = {"graph": {"channels": rows, "hub": "hub"}, "paths": CanonicalText("[\n  1\n]\n")}
        pieces = pieces_of(value)
        assert "".join(pieces) == stdlib_canonical_json({**value, "paths": [1]})
        assert max(map(len, pieces)) <= util._CACHED_CHARS
        assert len(pieces) < 3 * len("".join(pieces)) // util._CACHED_CHARS + 20

    def test_a_long_scalar_is_one_piece(self):
        words = ["x" * 300, "y", "z" * 300]
        with piece_bound(160):
            pieces = pieces_of({"w": words})
        assert "".join(pieces) == stdlib_canonical_json({"w": words})
        assert [p for p in pieces if len(p) > 160] == [json.dumps(w) for w in words if len(w) > 1]

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_canonical_text_is_reindented_in_chunks(self, depth):
        inner = [{"k": i, "v": [i, "%s"]} for i in range(3000)]
        value = CanonicalText(stdlib_canonical_json(inner))
        for _ in range(depth):
            value = [value]
        pieces = pieces_of(value)
        expected = stdlib_canonical_json(json.loads(json.dumps(value, default=lambda t: inner)))
        assert "".join(pieces) == expected == canonical_json(value)
        assert max(map(len, pieces)) <= util._CACHED_CHARS
        assert len(pieces) > 3

    def test_canonical_text_must_end_with_a_newline(self):
        with pytest.raises(ValueError, match="newline"):
            CanonicalText("[]")


def fraction_apportion(total, weights):
    """The largest-remainder formula in ``Fraction`` arithmetic: the
    reference ``apportion_largest_remainder`` must equal."""
    grand = Fraction(0)
    for key, w in weights:
        if Fraction(w) <= 0:
            raise ValueError(f"weight for {key!r} must be positive")
        grand += Fraction(w)
    quotas = [(key, Fraction(total) * Fraction(w) / grand) for key, w in weights]
    parts = {key: int(q) for key, q in quotas}
    leftover = total - sum(parts.values())
    by_remainder = sorted(quotas, key=lambda kq: (-(kq[1] - int(kq[1])), kq[0]))
    for key, _ in by_remainder[:leftover]:
        parts[key] += 1
    return parts


WEIGHTS = st.one_of(
    st.integers(1, 10**6),
    st.decimals(min_value="0.001", max_value="1000", places=3).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1.0, 1.5, 2.5, 1e-9, 3.0]),
)


class TestApportion:
    @given(
        st.one_of(st.just(0), st.integers(0, 20), st.integers(0, 10**15)),
        st.lists(st.tuples(st.sampled_from("abcdefgh"), WEIGHTS), min_size=1, max_size=8),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_formula(self, total, weights):
        assert apportion_largest_remainder(total, weights) == fraction_apportion(total, weights)

    @pytest.mark.parametrize(
        "total, weights, parts",
        [
            (2, [("a", 0.3), ("b", 0.1)], {"a": 1, "b": 1}),  # 0.1 is a hair over 1/10
            (1, [("b", 1), ("a", 1)], {"a": 1, "b": 0}),  # a tie breaks by key
            (3, [("c", 2), ("b", 2), ("a", 2), ("d", 2)], {"a": 1, "b": 1, "c": 1, "d": 0}),
            (0, [("a", 0.5), ("b", 7)], {"a": 0, "b": 0}),
        ],
    )
    def test_ties_and_zero(self, total, weights, parts):
        assert apportion_largest_remainder(total, weights) == parts == fraction_apportion(
            total, weights
        )

    @pytest.mark.parametrize("weight", [0, 0.0, -1, -0.5])
    def test_a_weight_that_is_not_positive_is_refused(self, weight):
        with pytest.raises(ValueError, match="weight for 'b' must be positive"):
            apportion_largest_remainder(10, [("a", 1), ("b", weight)])


def test_decimal_fraction_is_exact_on_every_call():
    for _ in range(2):
        assert decimal_fraction(0.03) == (3, 100)
        assert decimal_fraction(7) == (7, 1)


class TestDecimalFraction:
    """``decimal_fraction`` against its ``Fraction(repr(x))`` oracle."""

    @staticmethod
    def _oracle(x) -> tuple[int, int]:
        f = Fraction(x) if isinstance(x, int) else Fraction(repr(x))
        return f.numerator, f.denominator

    @pytest.mark.parametrize(
        "x",
        [0.03, 1e-05, 2.5e20, 0.30000000000000004, -0.5, -1e-05, -0.0, 0.0, 1.0, 1e16]
        + [123.456, 5e-324, sys.float_info.max, 0, -7, 10**30],
        ids=repr,
    )
    def test_known_reprs(self, x):
        assert decimal_fraction(x) == self._oracle(x)

    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers()))
    def test_equals_the_fraction_of_its_repr(self, x):
        assert decimal_fraction(x) == self._oracle(x)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan], ids=repr)
    def test_a_non_finite_float_is_refused_as_by_fraction(self, x):
        with pytest.raises(ValueError):
            Fraction(repr(x))
        with pytest.raises(ValueError):
            decimal_fraction(x)


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), int(sys.float_info.max) + 2**970],
    ids=["1e400", "-1e400", "max-float-plus-half-an-ulp"],
)
def test_an_integer_past_the_float_range_is_no_number(value):
    with pytest.raises(ConfigError, match="must be a number") as exc:
        json_as(float, value, "market.sigma")
    assert exc.value.key == "market.sigma"


def test_the_largest_float_integer_is_a_number():
    assert json_as(float, int(sys.float_info.max), "k") == sys.float_info.max
    assert json_as(float, -(10**300), "k") == -1e300
