"""``canonical_json`` against the stdlib formula it must reproduce byte for byte."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stdlib_canonical_json
from satsrail.util import canonical_json, decimal_fraction

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


def test_decimal_fraction_is_exact_on_every_call():
    for _ in range(2):
        assert decimal_fraction(0.03) == Fraction(3, 100)
        assert decimal_fraction(7) == Fraction(7)
