"""Draw-level laws and pins for the keyed random streams."""

import hashlib
import math
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satsrail import rng
from satsrail.rng import (
    OPENSSL_MIN_BYTES,
    Stream,
    child_seed,
    normal_quantile,
    sha256,
    stream,
    uniform,
)


class TestDrawLaws:
    def test_indices_cover_every_bucket_evenly(self):
        # Multinomial oracle: each of k buckets holds n/k draws, SE sqrt(n p (1-p)).
        k, n = 7, 70_000
        counts = [0] * k
        for i in stream(11, "indices").indices(k, n):
            counts[i] += 1
        p = 1 / k
        se = math.sqrt(n * p * (1 - p))
        assert all(abs(c - n * p) < 4 * se for c in counts), counts

    def test_normal_mean_and_variance(self):
        # Normal oracle: mean 0 with SE 1/sqrt(n), variance 1 with SE sqrt(2/(n-1)).
        n = 100_000
        z = stream(12, "normals").normals(n)
        mean = math.fsum(z) / n
        var = math.fsum((x - mean) ** 2 for x in z) / (n - 1)
        assert abs(mean) < 4 / math.sqrt(n)
        assert abs(var - 1.0) < 4 * math.sqrt(2 / (n - 1))

    def test_lognormals_are_exp_of_the_same_normals(self):
        z = stream(13).normals(5)
        assert stream(13).lognormals(1.5, 0.25, 5) == [math.exp(1.5 + 0.25 * x) for x in z]

    def test_zero_uniform_yields_a_finite_normal(self):
        s = Stream(0)
        s.random = lambda: 0.0
        (z,) = s.normals(1)
        assert math.isfinite(z) and z < -8


class TestPinnedValues:
    """Literal values at seed 2025: a change to Python's ``random()`` or to
    ``child_seed`` fails here by name, not only as a golden report diff."""

    def test_child_seed(self):
        assert child_seed(2025) == 14713325483643548178

    def test_uniform_sequence(self):
        s = stream(2025)
        assert [s.random() for _ in range(3)] == [
            0.5149525400778758,
            0.3618017837666808,
            0.18338646389984026,
        ]

    def test_normals(self):
        # The quantile's last bits are not promised across builds.
        assert stream(2025).normals(3) == pytest.approx(
            [0.037489239384395065, -0.3536468387861599, -0.902534641930657], rel=1e-12
        )

    def test_indices(self):
        assert stream(2025).indices(7, 3) == [3, 2, 1]

    def test_keyed_uniform(self):
        assert [uniform(2025, i) for i in range(3)] == [
            0.3562840160470697,
            0.40203489656015,
            0.9701870748688797,
        ]


class TestLeanReplacements:
    """The lean-import helpers equal the stdlib modules they stand in for."""

    @given(st.binary(max_size=4096))
    def test_sha256_equals_hashlib_on_random_bytes(self, data):
        assert sha256(data).digest() == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("size", [OPENSSL_MIN_BYTES - 1, OPENSSL_MIN_BYTES, OPENSSL_MIN_BYTES + 1])
    def test_sha256_equals_hashlib_at_the_threshold(self, size):
        data = bytes(range(256)) * (size // 256) + bytes(size % 256)
        assert len(data) == size
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_sha256_takes_the_builtin_below_the_threshold_only(self):
        builtin = type(rng._builtin_sha256(b""))
        assert type(sha256(bytes(OPENSSL_MIN_BYTES - 1))) is builtin
        assert type(sha256(bytes(OPENSSL_MIN_BYTES))) is type(hashlib.sha256())

    def test_child_seed_hashes_the_incremental_encoding(self):
        # One update per tag, length and body gives the same digest.
        raw = "m\u00e9x".encode("utf-8")
        h = hashlib.sha256()
        for part in (b"i", (-3).to_bytes(16, "big", signed=True), b"s", len(raw).to_bytes(4, "big"), raw):
            h.update(part)
        assert child_seed(-3, "m\u00e9x") == int.from_bytes(h.digest()[:8], "big")

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_normal_quantile_equals_normal_dist_bit_for_bit(self, p):
        assert normal_quantile(p).hex() == NormalDist().inv_cdf(p).hex()

    @pytest.mark.parametrize("p", [2.0**-53, 1 - 2.0**-53, 0.5, 0.99], ids=repr)
    def test_normal_quantile_at_the_edges(self, p):
        assert normal_quantile(p).hex() == NormalDist().inv_cdf(p).hex()
