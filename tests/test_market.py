"""Price path and correlation tests, oracle values frozen where derived."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satsrail.market import (
    ConstantSeriesError,
    GbmParams,
    PriceCsvError,
    StressShape,
    gen_gbm_path,
    gen_stress_path,
    inner_join,
    load_price_csv,
    pearson_corr,
    to_returns,
)


class TestGbmPath:
    def test_zero_drift_zero_vol_is_constant(self):
        path = gen_gbm_path(GbmParams(0.0, 0.0, 12), 100_00, seed=7)
        assert path.prices == (100_00,) * 13

    def test_same_inputs_same_path(self):
        params = GbmParams(0.05, 0.8, 24)
        a = gen_gbm_path(params, 10_000_000, seed=42)
        b = gen_gbm_path(params, 10_000_000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        params = GbmParams(0.0, 0.8, 12)
        assert gen_gbm_path(params, 10_000_000, 1) != gen_gbm_path(params, 10_000_000, 2)

    def test_ensemble_mean_log_return(self):
        # Monte Carlo oracle: E[total log return] = -sigma^2/2 per year.
        params = GbmParams(0.0, 0.6, 12)
        totals = []
        for i in range(2_000):
            path = gen_gbm_path(params, 10_000_000, seed=i)
            totals.append(math.log(path.prices[-1] / path.prices[0]))
        mean = np.mean(totals)
        se = np.std(totals, ddof=1) / math.sqrt(len(totals))
        assert abs(mean - (-0.18)) < 3 * se

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gen_gbm_path(GbmParams(0.0, 0.0, 12), 0, seed=1)
        with pytest.raises(ValueError):
            GbmParams(0.0, 0.0, 0)
        with pytest.raises(ValueError):
            GbmParams(0.0, -0.1, 12)

    @given(
        mu=st.floats(-1.0, 1.0),
        sigma=st.floats(0.0, 2.0),
        months=st.integers(1, 36),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_paths_positive_and_full_length(self, mu, sigma, months, seed):
        path = gen_gbm_path(GbmParams(mu, sigma, months), 50_000_00, seed)
        assert len(path.prices) == months + 1
        assert all(p >= 1 for p in path.prices)
        assert path.prices[0] == 50_000_00


class TestStressPath:
    def test_zero_drawdown_constant(self):
        for kind in ("linear", "exponential"):
            path = gen_stress_path(StressShape(kind, 0.0, 12), 110_300_00)
            assert path.prices == (110_300_00,) * 13

    def test_linear_endpoint(self):
        path = gen_stress_path(StressShape("linear", 0.70, 18), 100_000_00)
        assert path.prices[18] == 30_000_00

    def test_exponential_monthly_factor(self):
        # Direct evaluation of (1 - d)^(t/H): month 1 at 0.3^(1/24).
        path = gen_stress_path(StressShape("exponential", 0.70, 24), 100_000_00)
        assert path.prices[1] == 9_510_720
        assert abs(path.prices[24] - 30_000_00) <= 1

    def test_drawdown_validation(self):
        with pytest.raises(ValueError):
            StressShape("linear", 1.0, 24)
        with pytest.raises(ValueError):
            StressShape("linear", -0.1, 24)
        with pytest.raises(ValueError):
            StressShape("sigmoid", 0.5, 24)

    @given(
        drawdown=st.floats(0.001, 0.999),
        months=st.integers(1, 48),
        start=st.integers(1_000, 50_000_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_monotone_non_increasing(self, drawdown, months, start):
        path = gen_stress_path(StressShape("linear", drawdown, months), start)
        assert all(a >= b for a, b in zip(path.prices, path.prices[1:]))
        assert len(path.prices) == months + 1
        assert all(p >= 1 for p in path.prices)


def _single_pass_corr(xs, ys):
    """Textbook expanded-sum formula, an independent route to the same value."""
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    num = sxy - sx * sy / n
    den = math.sqrt((sxx - sx * sx / n) * (syy - sy * sy / n))
    return num / den


class TestPearson:
    def test_self_correlation(self):
        xs = [1.0, 2.0, 5.0, 3.0]
        assert pearson_corr(xs, xs) == 1.0

    def test_negation(self):
        xs = [1.0, 2.0, 5.0, 3.0]
        assert pearson_corr(xs, [-x for x in xs]) == -1.0

    def test_matches_textbook_oracle(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 5.0, 9.0]
        expected = _single_pass_corr(xs, ys)
        assert abs(pearson_corr(xs, ys) - expected) < 1e-12
        assert abs(pearson_corr(xs, ys) - np.corrcoef(xs, ys)[0, 1]) < 1e-12

    def test_symmetry(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 5.0, 9.0]
        assert pearson_corr(xs, ys) == pearson_corr(ys, xs)

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson_corr([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            pearson_corr([1.0], [1.0])
        with pytest.raises(ConstantSeriesError):
            pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantSeriesError):
            pearson_corr([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_affine_invariance_well_conditioned(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 5.0, 9.0]
        base = pearson_corr(xs, ys)
        mapped = pearson_corr([3.5 * x - 2.0 for x in xs], ys)
        assert abs(base - mapped) < 1e-12

    @given(
        data=st.lists(
            st.tuples(st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)),
            min_size=3,
            max_size=40,
        ),
        a=st.floats(0.01, 100.0),
        b=st.integers(-10_000, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_affine_invariance(self, data, a, b):
        # Integer-valued inputs keep the problem well conditioned; float
        # noise then stays orders of magnitude under the tolerance.
        xs = [float(d[0]) for d in data]
        ys = [float(d[1]) for d in data]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        base = pearson_corr(xs, ys)
        mapped = pearson_corr([a * x + b for x in xs], ys)
        assert abs(base - mapped) < 1e-9


class TestReturns:
    def test_single_step(self):
        assert to_returns([100.0, 110.0]) == pytest.approx([0.10])

    def test_constant_series(self):
        assert to_returns([5.0] * 10) == [0.0] * 9

    def test_telescoping_product(self):
        rng = np.random.default_rng(11)
        prices = list(100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, 50))))
        rets = to_returns(prices)
        rebuilt = prices[0] * math.exp(sum(math.log1p(r) for r in rets))
        assert abs(rebuilt - prices[-1]) < 1e-10 * prices[-1]

    def test_scale_invariance(self):
        prices = [100.0, 105.0, 103.0, 110.0]
        assert to_returns(prices) == pytest.approx(to_returns([3 * p for p in prices]))

    def test_too_short(self):
        with pytest.raises(ValueError):
            to_returns([1.0])


class TestPriceCsv:
    def _write(self, path, rows, header="date,price"):
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")

    def test_two_row_file(self, tmp_path):
        p = tmp_path / "prices.csv"
        self._write(p, [("2024-01-01", "100.5"), ("2024-01-02", "101.25")])
        series = load_price_csv(p)
        assert len(series) == 2
        assert series.prices == (100.5, 101.25)

    def test_zero_price_names_row(self, tmp_path):
        p = tmp_path / "prices.csv"
        self._write(p, [("2024-01-01", "100"), ("2024-01-02", "0")])
        with pytest.raises(PriceCsvError, match="row 2"):
            load_price_csv(p)

    def test_unordered_dates(self, tmp_path):
        p = tmp_path / "prices.csv"
        self._write(p, [("2024-01-02", "100"), ("2024-01-01", "101")])
        with pytest.raises(PriceCsvError, match="ascending"):
            load_price_csv(p)

    def test_duplicate_dates(self, tmp_path):
        p = tmp_path / "prices.csv"
        self._write(p, [("2024-01-01", "100"), ("2024-01-01", "101")])
        with pytest.raises(PriceCsvError, match="duplicate"):
            load_price_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "prices.csv"
        self._write(p, [("2024-01-01", "100")], header="day,px")
        with pytest.raises(PriceCsvError, match="header"):
            load_price_csv(p)

    def test_round_trip_100_rows(self, tmp_path):
        # Round-trip oracle: write with the stdlib csv module, reload exactly.
        rng = np.random.default_rng(3)
        rows = []
        day = np.datetime64("2023-01-01")
        for i in range(100):
            rows.append((str(day + i), float(round(50 + 100 * rng.random(), 4))))
        p = tmp_path / "prices.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "price"])
            writer.writerows(rows)
        series = load_price_csv(p)
        assert len(series) == 100
        assert list(series.prices) == [r[1] for r in rows]
        assert [str(d) for d in series.dates] == [r[0] for r in rows]

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "prices.csv"
        p.write_bytes(b"date,price\r\n2024-01-01,100.5\r\n2024-01-02,101\r\n")
        series = load_price_csv(p)
        assert series.prices == (100.5, 101.0)

    def test_inner_join(self, tmp_path):
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        self._write(pa, [("2024-01-01", "1"), ("2024-01-02", "2"), ("2024-01-03", "3")])
        self._write(pb, [("2024-01-02", "20"), ("2024-01-03", "30"), ("2024-01-04", "40")])
        xs, ys = inner_join(load_price_csv(pa), load_price_csv(pb))
        assert xs == [2.0, 3.0]
        assert ys == [20.0, 30.0]
