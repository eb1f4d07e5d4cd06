"""Draw-level laws and pins for the keyed random streams."""

import math

import pytest

from satsrail.rng import Stream, child_seed, stream, uniform


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
