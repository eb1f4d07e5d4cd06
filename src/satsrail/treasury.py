"""Treasury balance sheet: core BTC, liquidity sleeve, cash ledger.

The central question this module answers: does initial cash plus the rail's
monthly net inflows cover monthly operating outflows over the horizon
without selling core BTC? ``pathwise`` survival (the default) requires the
running balance to stay non-negative every month; ``terminal`` checks it at
the horizon only, permitting interim negative cash.

One fold books the ledger, a month at a time (``step_treasury``) or over
given series (``no_forced_sale``). Its raw balance gives the verdict, the
minimum and the terminal cash; its floored balance (``cash_cents``, never
below zero) earns the yield and sets the VaR cap. A breach (the first
negative month in pathwise mode, a negative horizon in terminal mode)
records the BTC sale that would have covered the shortfall at that month's
price, rounded up to whole sats. Sales are recorded, never executed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .money import MSAT_PER_SAT, MSAT_SUPPLY, SATS_PER_BTC
from .rng import normal_quantile
from .schema import ConfigError, DataFileError, csv_rows, shown
from .util import decimal_fraction

SURVIVAL_MODES = ("terminal", "pathwise")


class HoldingsCsvError(DataFileError):
    """Malformed holdings CSV; message names the offending row."""


@dataclass(frozen=True)
class TreasuryConfig:
    """Static treasury policy for a scenario.

    ``btc_core_sats`` is the firm's total BTC position; the liquidity
    sleeve (``sleeve_fraction`` of it, typically 2-5%) is carved out at
    scenario setup and the remainder is the untouchable core.
    """

    btc_core_sats: int
    cash0_cents: int
    opex_monthly_cents: int
    horizon_months: int = 24
    interest_monthly_cents: int = 0
    capex_monthly_cents: int = 0
    sleeve_fraction: float = 0.03
    var_cap_fraction: float = 0.20
    var_confidence: float = 0.99
    cash_yield_apy: float = 0.0
    survival_mode: str = "pathwise"

    def __post_init__(self):
        if not 0 <= self.btc_core_sats <= MSAT_SUPPLY // MSAT_PER_SAT:
            raise ConfigError("btc_core_sats", "must be in [0, 2.1e15], the BTC supply")
        for name in ("cash0_cents", "opex_monthly_cents", "interest_monthly_cents",
                     "capex_monthly_cents", "cash_yield_apy"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be non-negative")
        if self.horizon_months < 1:
            raise ConfigError("horizon_months", "must be at least one month")
        if not 0.0 <= self.sleeve_fraction <= 1.0:
            raise ConfigError("sleeve_fraction", "must be in [0, 1]")
        if not 0.0 <= self.var_cap_fraction <= 1.0:
            raise ConfigError("var_cap_fraction", "must be in [0, 1]")
        if not 0.5 < self.var_confidence < 1.0:
            raise ConfigError("var_confidence", "must be in (0.5, 1)")
        if self.survival_mode not in SURVIVAL_MODES:
            raise ConfigError("survival_mode", f"must be one of {SURVIVAL_MODES}")

    @property
    def out_monthly_cents(self) -> int:
        return (
            self.opex_monthly_cents
            + self.interest_monthly_cents
            + self.capex_monthly_cents
        )

    @property
    def sleeve_sats(self) -> int:
        num, den = decimal_fraction(self.sleeve_fraction)
        return int(self.btc_core_sats * num // den)


@dataclass(slots=True)
class TreasuryState:
    """The fold's accumulator after ``month`` booked months.

    ``cash_cents`` is floored at zero; ``balance_cents`` and
    ``min_cash_cents`` are raw (the minimum includes month 0).
    """

    month: int
    cash_cents: int
    balance_cents: int
    min_cash_cents: int
    breach_month: int | None = None
    required_sale_sats: int | None = None


def _opening(cash0_cents: int) -> TreasuryState:
    return TreasuryState(0, cash0_cents, cash0_cents, cash0_cents)


def initial_state(config: TreasuryConfig) -> TreasuryState:
    """Month-0 ledger: the configured opening cash, nothing booked."""
    return _opening(config.cash0_cents)


def _book(
    state: TreasuryState,
    net_cents: int,
    horizon_months: int,
    pathwise: bool,
    price_cents_per_btc: int | None,
) -> None:
    """Book one month's net flow into ``state``: the breach and minimum rule
    of both modes. The required sale is recorded only when a price is given.
    """
    month = state.month + 1
    balance = state.balance_cents + net_cents
    state.month = month
    state.balance_cents = balance
    state.cash_cents = max(0, state.cash_cents + net_cents)
    if balance < state.min_cash_cents:
        state.min_cash_cents = balance
    if balance < 0 and state.breach_month is None and (pathwise or month == horizon_months):
        state.breach_month = month
        if price_cents_per_btc is not None:
            shortfall = -balance
            state.required_sale_sats = (
                shortfall * SATS_PER_BTC + price_cents_per_btc - 1
            ) // price_cents_per_btc


def mnav(mkt_cap_cents: int, btc_held: float, price_cents_per_btc: int) -> float:
    """Market cap over the market value of BTC held (other assets ignored)."""
    if not 0 < btc_held < math.inf:
        raise ValueError("btc_held must be positive and finite")
    if price_cents_per_btc <= 0:
        raise ValueError("price must be positive")
    if mkt_cap_cents < 0:
        raise ValueError("market cap must be non-negative")
    return mkt_cap_cents / (btc_held * price_cents_per_btc)


def btc_per_share(btc_held: float, shares_outstanding: int) -> float:
    if not 0 < btc_held < math.inf:
        raise ValueError("btc_held must be positive and finite")
    if shares_outstanding <= 0:
        raise ValueError("shares_outstanding must be positive")
    return btc_held / shares_outstanding


@dataclass(frozen=True)
class SurvivalVerdict:
    survives: bool
    breach_month: int | None
    min_cash_cents: int
    terminal_cash_cents: int


def no_forced_sale(
    cash0_cents: int,
    inflows_cents: list[int] | tuple[int, ...],
    outflows_cents: list[int] | tuple[int, ...],
    mode: str = "pathwise",
) -> SurvivalVerdict:
    """Evaluate the no-forced-sale condition over given monthly series.

    The series form of ``step_treasury``'s booking: month k books
    ``inflows[k] - outflows[k]`` (yield already included). ``terminal``
    survives iff the balance at the horizon is non-negative (so equality
    passes) and otherwise reports the horizon as the breach month.
    ``pathwise`` requires ``cash0 + sum(in[1..k]) - sum(out[1..k]) >= 0``
    for every prefix k; the first violating month is the breach.
    ``min_cash`` is the minimum running balance including month 0.
    """
    if mode not in SURVIVAL_MODES:
        raise ValueError(f"mode must be one of {SURVIVAL_MODES}")
    if len(inflows_cents) != len(outflows_cents):
        raise ValueError("inflows and outflows must have the same length")
    if not inflows_cents:
        raise ValueError("need at least one month")
    state = _opening(cash0_cents)
    horizon = len(inflows_cents)
    pathwise = mode == "pathwise"
    for inflow, outflow in zip(inflows_cents, outflows_cents):
        _book(state, inflow - outflow, horizon, pathwise, None)
    return SurvivalVerdict(
        survives=state.breach_month is None,
        breach_month=state.breach_month,
        min_cash_cents=state.min_cash_cents,
        terminal_cash_cents=state.balance_cents,
    )


def sleeve_var(sleeve_value_cents: int, sigma_monthly: float, alpha: float) -> int:
    """One-month lognormal value-at-risk of the deployed sleeve, in cents.

    ``var = value * (1 - exp(-z_alpha * sigma))`` with z the standard
    normal quantile at ``alpha``.
    """
    if sleeve_value_cents < 0:
        raise ValueError("sleeve value must be non-negative")
    if sigma_monthly < 0:
        raise ValueError("sigma must be non-negative")
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must be in (0.5, 1)")
    if sigma_monthly == 0.0 or sleeve_value_cents == 0:
        return 0
    z = normal_quantile(alpha)
    return int(math.floor(sleeve_value_cents * (1.0 - math.exp(-z * sigma_monthly)) + 0.5))


@dataclass(frozen=True)
class VarCheck:
    var_cents: int
    cap_cents: int
    passed: bool
    headroom_cents: int


def var_cap_check(var_cents: int, cash_cents: int, cap_fraction: float) -> VarCheck:
    """Compare sleeve VaR against the cap (a fraction of cash reserves)."""
    if not 0.0 <= cap_fraction <= 1.0:
        raise ValueError("cap_fraction must be in [0, 1]")
    num, den = decimal_fraction(cap_fraction)
    cap = int(max(0, cash_cents) * num // den)
    return VarCheck(
        var_cents=var_cents,
        cap_cents=cap,
        passed=var_cents <= cap,
        headroom_cents=cap - var_cents,
    )


def monthly_yield_cents(cash_cents: int, apy: float) -> int:
    """Cash yield for one month at the given APY, floored to cents."""
    if apy == 0.0 or cash_cents <= 0:
        return 0
    rate = (1.0 + apy) ** (1.0 / 12.0) - 1.0
    return int(math.floor(cash_cents * rate))


def step_treasury(
    state: TreasuryState,
    config: TreasuryConfig,
    price_cents_per_btc: int,
    rail_inflow_cents: int,
) -> int:
    """Book one month into ``state`` in place; returns the month's cash yield.

    Yield accrues on the opening floored cash; outflows are opex + interest
    + capex. A breach is booked by ``_book``'s rule for the configured
    survival mode, with the sale valued at ``price_cents_per_btc``.
    """
    if state.month >= config.horizon_months:
        raise ValueError("cannot step past the configured horizon")
    if price_cents_per_btc <= 0:
        raise ValueError("price must be positive")
    earned = monthly_yield_cents(state.cash_cents, config.cash_yield_apy)
    _book(
        state,
        rail_inflow_cents + earned - config.out_monthly_cents,
        config.horizon_months,
        config.survival_mode == "pathwise",
        price_cents_per_btc,
    )
    return earned


@dataclass(frozen=True)
class HoldingsRow:
    """One public BTC holder: position, market cap, optional share count."""

    ticker: str
    btc_held: float
    mkt_cap_cents: int
    shares_outstanding: int | None = None

    def __post_init__(self):
        if not 0 < self.btc_held < math.inf:
            raise ValueError("btc_held must be positive and finite")
        if self.mkt_cap_cents < 0:
            raise ValueError("market cap must be non-negative")
        if self.shares_outstanding is not None and self.shares_outstanding <= 0:
            raise ValueError("shares_outstanding must be positive when given")
        if self.shares_outstanding is not None and self.shares_outstanding > sys.float_info.max:
            raise ValueError("shares_outstanding must be in the float range (up to ~1.8e308)")


def load_holdings_csv(path) -> list[HoldingsRow]:
    """Load ``ticker,btc_held,mkt_cap_usd,shares_outstanding`` rows.

    Market caps are whole USD in the file and stored as cents. The shares
    column may be empty. Errors name the 1-based data row.
    """
    header = ("ticker", "btc_held", "mkt_cap_usd", "shares_outstanding")
    rows: list[HoldingsRow] = []
    for row_no, (ticker, btc, cap_usd, shares) in csv_rows(path, header, HoldingsCsvError):
        ticker = ticker.strip()
        try:
            btc, cap_usd = float(btc), float(cap_usd)
            if not math.isfinite(cap_usd * 100):
                raise ValueError("mkt_cap_usd must be finite")
            shares = int(shares) if shares.strip() else None
            rows.append(HoldingsRow(ticker, btc, int(round(cap_usd * 100)), shares))
        except ValueError as exc:
            name = ticker if ticker.isprintable() and len(ticker) <= 60 else shown(ticker)
            raise HoldingsCsvError(f"{path}: row {row_no} ({name}): {exc}") from None
    return rows
