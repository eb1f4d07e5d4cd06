"""BTC price paths and correlation analytics.

Prices are integer cents per whole BTC. Paths are monthly (one step per
month) and always contain ``horizon_months + 1`` entries, month 0 being the
start price. Two path families are provided: geometric Brownian motion for
Monte Carlo runs, and deterministic stress shapes (linear or exponential
decline to a target drawdown) for worst-case scenarios.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from typing import Sequence

from .money import round_half_up
from .rng import stream

MONTHS_PER_YEAR = 12
STRESS_KINDS = ("linear", "exponential")


class ConstantSeriesError(ValueError):
    """Correlation is undefined when a series has zero variance."""


class PriceCsvError(ValueError):
    """Malformed price CSV; message names the offending row."""


@dataclass(frozen=True)
class PricePath:
    """Monthly price series in cents per BTC, month 0 included."""

    prices: tuple[int, ...]

    def __post_init__(self):
        if len(self.prices) < 2:
            raise ValueError("a path needs at least months 0 and 1")
        if any(p <= 0 for p in self.prices):
            raise ValueError("all prices must be positive")

    @property
    def horizon_months(self) -> int:
        return len(self.prices) - 1


@dataclass(frozen=True)
class GbmParams:
    """Annualized GBM parameters for a monthly-step path."""

    mu: float
    sigma: float
    horizon_months: int

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.horizon_months < 1:
            raise ValueError("horizon must be at least one month")


@dataclass(frozen=True)
class StressShape:
    """Deterministic decline to ``total_drawdown`` over the horizon."""

    kind: str
    total_drawdown: float
    horizon_months: int

    def __post_init__(self):
        if self.kind not in STRESS_KINDS:
            raise ValueError(f"kind must be one of {STRESS_KINDS}")
        if not 0 <= self.total_drawdown < 1:
            raise ValueError("total_drawdown must be in [0, 1)")
        if self.horizon_months < 1:
            raise ValueError("horizon must be at least one month")


def gen_gbm_path(params: GbmParams, start_price_cents: int, seed: int) -> PricePath:
    """Generate one GBM path; a pure function of (params, start, seed).

    Monthly step: ``p[t+1] = p[t] * exp((mu - sigma^2/2) * dt + sigma *
    sqrt(dt) * Z)`` with ``dt = 1/12`` and Z standard normal from the keyed
    stream (see :mod:`satsrail.rng`). Each step is rounded to whole cents
    and floored at 1 cent before the next step compounds on it.
    """
    if start_price_cents <= 0:
        raise ValueError("start price must be positive")
    dt = 1.0 / MONTHS_PER_YEAR
    drift = (params.mu - params.sigma**2 / 2.0) * dt
    vol = params.sigma * math.sqrt(dt)
    prices = [start_price_cents]
    for z in stream(seed).normals(params.horizon_months):
        nxt = prices[-1] * math.exp(drift + vol * z)
        prices.append(max(1, round_half_up(nxt)))
    return PricePath(tuple(prices))


def gen_stress_path(shape: StressShape, start_price_cents: int) -> PricePath:
    """Deterministic bear path ending at ``start * (1 - total_drawdown)``.

    The linear kind interpolates price levels; the exponential kind applies
    the constant monthly factor ``(1 - d)^(1/H)``. Each month is evaluated
    directly from t (no compounding of rounding error).
    """
    if start_price_cents <= 0:
        raise ValueError("start price must be positive")
    d = shape.total_drawdown
    h = shape.horizon_months
    prices = []
    for t in range(h + 1):
        if shape.kind == "linear":
            level = start_price_cents * (1.0 - d * t / h)
        else:
            level = start_price_cents * math.exp(math.log1p(-d) * t / h)
        prices.append(max(1, round_half_up(level)))
    return PricePath(tuple(prices))


def pearson_corr(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson product-moment correlation, two-pass, clamped to [-1, 1]."""
    n = len(xs)
    if len(ys) != n:
        raise ValueError("series lengths differ")
    if n < 2:
        raise ValueError("need at least two observations")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        raise ConstantSeriesError("correlation undefined for a constant series")
    r = cov / (math.sqrt(vx) * math.sqrt(vy))
    return max(-1.0, min(1.0, r))


def to_returns(series: Sequence[float]) -> list[float]:
    """Simple returns ``p[t]/p[t-1] - 1``; output is one shorter."""
    if len(series) < 2:
        raise ValueError("need at least two observations")
    return [series[t] / series[t - 1] - 1.0 for t in range(1, len(series))]


@dataclass(frozen=True)
class PriceSeries:
    """Date-indexed price observations, ascending by date."""

    dates: tuple[datetime.date, ...]
    prices: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.dates)

    def as_dict(self) -> dict[datetime.date, float]:
        return dict(zip(self.dates, self.prices))


def load_price_csv(path) -> PriceSeries:
    """Load a ``date,price`` CSV (ISO dates, positive prices, ascending).

    Errors mention the 1-based data row number. Duplicate or out-of-order
    dates are rejected.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PriceCsvError(f"{path}: empty file") from None
        if [c.strip() for c in header] != ["date", "price"]:
            raise PriceCsvError(f"{path}: header must be 'date,price'")
        dates: list[datetime.date] = []
        prices: list[float] = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise PriceCsvError(f"{path}: row {row_no}: expected 2 fields")
            try:
                day = datetime.date.fromisoformat(row[0].strip())
            except ValueError:
                raise PriceCsvError(
                    f"{path}: row {row_no}: bad ISO date {row[0]!r}"
                ) from None
            try:
                price = float(row[1])
            except ValueError:
                raise PriceCsvError(
                    f"{path}: row {row_no}: bad price {row[1]!r}"
                ) from None
            if not math.isfinite(price) or price <= 0:
                raise PriceCsvError(f"{path}: row {row_no}: price must be positive")
            if dates:
                if day == dates[-1]:
                    raise PriceCsvError(f"{path}: row {row_no}: duplicate date {day}")
                if day < dates[-1]:
                    raise PriceCsvError(
                        f"{path}: row {row_no}: dates must be ascending"
                    )
            dates.append(day)
            prices.append(price)
    return PriceSeries(tuple(dates), tuple(prices))


def inner_join(a: PriceSeries, b: PriceSeries) -> tuple[list[float], list[float]]:
    """Align two series on shared dates (ascending); returns parallel lists."""
    bmap = b.as_dict()
    xs, ys = [], []
    for day, price in zip(a.dates, a.prices):
        if day in bmap:
            xs.append(price)
            ys.append(bmap[day])
    return xs, ys
