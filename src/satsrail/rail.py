"""Payments-rail economics: merchants, monthly payment batches, fee stack.

The rail acquires merchant checkout volume, settles it in BTC or in fiat
under a same-month hedge, and books a monthly net cash inflow that is
independent of mark-to-market moves on the treasury. All quantities are
integers (cents or msat). For reference, card acceptance typically costs
merchants 200-300 bps; the rail's take rate sits well below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .money import cents_to_msat, floor_bps, msat_to_cents
from .rng import child_seed, stream, uniform
from .schema import ConfigError, check_bounds
from .util import apportion_largest_remainder

CARD_COST_BPS_RANGE = (200, 300)

SETTLE_MODES = ("btc", "fiat")


@dataclass(frozen=True)
class Merchant:
    """A merchant on the rail; ``id`` doubles as its graph node id."""

    id: str
    monthly_gmv_cents: int
    take_rate_bps: int
    settle_mode: str = "fiat"
    sats_back_bps: int = 0
    active: bool = True

    def __post_init__(self):
        if self.settle_mode not in SETTLE_MODES:
            raise ConfigError("settle_mode", f"must be one of {SETTLE_MODES}")
        check_bounds(self, 10_000, "take_rate_bps", "sats_back_bps")
        if self.monthly_gmv_cents < 0 or self.active and self.monthly_gmv_cents == 0:
            raise ConfigError("monthly_gmv_cents", "must be positive, or 0 for an inactive merchant")


@dataclass(frozen=True)
class TicketParams:
    """Lognormal ticket-size model.

    Amounts are drawn lognormal with the given median and shape, clipped to
    [min, max] cents. The implied mean ticket (median * exp(sigma^2/2))
    drives the per-merchant transaction count.
    """

    median_ticket_cents: int = 5_000
    ticket_sigma: float = 0.8
    min_ticket_cents: int = 1
    max_ticket_cents: int = 10_000_000

    def __post_init__(self):
        if self.median_ticket_cents <= 0:
            raise ConfigError("median_ticket_cents", "must be positive")
        if self.ticket_sigma < 0:
            raise ConfigError("ticket_sigma", "must be non-negative")
        if self.min_ticket_cents <= 0:
            raise ConfigError("min_ticket_cents", "must be positive")
        if self.max_ticket_cents < self.min_ticket_cents:
            raise ConfigError("max_ticket_cents", "must be at least min_ticket_cents")
        try:
            finite = math.isfinite(self.mean_ticket_cents)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(
                "ticket_sigma", "the mean ticket, median * exp(sigma^2 / 2), overflows a float"
            )

    @property
    def mean_ticket_cents(self) -> float:
        return self.median_ticket_cents * math.exp(self.ticket_sigma**2 / 2.0)


@dataclass(frozen=True)
class PaymentRequest:
    payer: str
    merchant: str
    amount_msat: int


@dataclass(frozen=True)
class PaymentPlan:
    """Sampled payment batch plus the per-merchant counts behind it.

    ``intended`` is the full business transaction count per merchant;
    ``sampled`` is how many were actually drawn (capped micro-simulation).
    Results measured on the sample scale back up by intended/sampled.
    """

    requests: tuple[PaymentRequest, ...]
    intended: dict[str, int]
    sampled: dict[str, int]


def gen_monthly_payments(
    merchants: Sequence[Merchant],
    month: int,
    price_cents_per_btc: int,
    seed: int,
    params: TicketParams,
    payer_nodes: Sequence[str],
    max_payments: int | None = None,
) -> PaymentPlan:
    """Deterministic monthly payment batch.

    Per active merchant, the intended count is ``round(gmv / mean_ticket)``
    (half-up). When the total exceeds ``max_payments`` the counts are
    apportioned down (largest remainder, floor of one per merchant with any
    intended volume, so the cap is soft). Amounts and payers come from a
    stream keyed on (seed, month, merchant id) only, so one merchant's
    payments do not depend on the rest of the roster. A ticket worth under
    half a msat at the month's price converts to 0 msat, which no channel
    can carry: it is not sampled, and ``sampled`` counts it out.
    """
    if price_cents_per_btc <= 0:
        raise ValueError("price must be positive")
    active = [m for m in merchants if m.active]
    if not active:
        return PaymentPlan(requests=(), intended={}, sampled={})
    if not payer_nodes:
        raise ValueError("payer_nodes must be non-empty when merchants are active")
    mean_ticket = params.mean_ticket_cents
    intended = {
        m.id: int(math.floor(m.monthly_gmv_cents / mean_ticket + 0.5)) for m in active
    }
    total = sum(intended.values())
    if max_payments is not None and total > max_payments:
        weighted = [(mid, n) for mid, n in sorted(intended.items()) if n > 0]
        parts = apportion_largest_remainder(max_payments, weighted)
        sampled = {
            mid: max(parts.get(mid, 0), min(n, 1)) for mid, n in intended.items()
        }
    else:
        sampled = dict(intended)
    requests: list[PaymentRequest] = []
    for m in sorted(active, key=lambda m: m.id):
        count = sampled[m.id]
        if count == 0:
            continue
        rng = stream(child_seed(seed, month, m.id))
        draws = rng.lognormals(
            math.log(params.median_ticket_cents), params.ticket_sigma, count
        )
        for draw, payer in zip(draws, rng.indices(len(payer_nodes), count)):
            cents = min(
                params.max_ticket_cents,
                max(params.min_ticket_cents, math.floor(draw + 0.5)),
            )
            amount = cents_to_msat(cents, price_cents_per_btc)
            if not amount:
                sampled[m.id] -= 1
                continue
            requests.append(
                PaymentRequest(payer=payer_nodes[payer], merchant=m.id, amount_msat=amount)
            )
    return PaymentPlan(requests=tuple(requests), intended=intended, sampled=sampled)


def acquiring_fee(gmv_settled_cents: int, take_rate_bps: int) -> int:
    """Acquiring revenue on processed volume: floor(gmv * bps / 10_000)."""
    return floor_bps(gmv_settled_cents, take_rate_bps)


def hedge_settlement(
    amount_msat: int, price_cents_per_btc: int, spread_bps: int
) -> tuple[int, int]:
    """Settle a BTC amount to fiat under a back-to-back hedge.

    Returns (merchant_fiat_cents, spread_revenue_cents). The gross fiat
    value floors msat * price / msat-per-BTC; the spread is retained out of
    gross and the merchant receives the rest, so the two always sum to
    gross and no price exposure remains.
    """
    gross = msat_to_cents(amount_msat, price_cents_per_btc)
    spread_revenue = floor_bps(gross, spread_bps)
    return gross - spread_revenue, spread_revenue


def sats_back_outlay(gmv_settled_cents: int, sats_back_bps: int) -> int:
    """Checkout reward funding passed through the rail, booked as a cost."""
    return floor_bps(gmv_settled_cents, sats_back_bps)


def apply_churn(
    merchants: Sequence[Merchant],
    month_success_rate: float,
    seed: int,
    month: int,
    base_churn: float = 0.0,
    sensitivity: float = 0.0,
) -> tuple[list[Merchant], float]:
    """Deactivate merchants at p = base + sensitivity * (1 - success).

    Deterministic per (seed, month, merchant id); never reactivates anyone.
    Returns the updated roster and the realized churn rate among merchants
    active going in (0.0 when none were).
    """
    if not 0.0 <= month_success_rate <= 1.0:
        raise ValueError("success rate must be in [0, 1]")
    p = min(1.0, max(0.0, base_churn + sensitivity * (1.0 - month_success_rate)))
    updated: list[Merchant] = []
    active_before = churned = 0
    for m in merchants:
        if m.active:
            active_before += 1
            if uniform(child_seed(seed, month, m.id, "churn")) < p:
                churned += 1
                m = replace(m, active=False)
        updated.append(m)
    return updated, churned / active_before if active_before else 0.0


@dataclass(frozen=True)
class RailMonthRecord:
    """One month of non-mark-to-market rail cash flows and their derived net."""

    month: int
    gmv_cents: int
    tx_count: int
    tx_settled: int
    acquiring_fee_cents: int
    hedge_spread_cents: int
    routing_fee_cents: int
    rebalancing_cost_cents: int
    sats_back_cents: int
    variable_cost_cents: int
    net_inflow_cents: int = field(init=False)

    def __post_init__(self):
        components = (
            self.gmv_cents,
            self.tx_count,
            self.tx_settled,
            self.acquiring_fee_cents,
            self.hedge_spread_cents,
            self.routing_fee_cents,
            self.rebalancing_cost_cents,
            self.sats_back_cents,
            self.variable_cost_cents,
        )
        if any(c < 0 for c in components):
            raise ValueError("rail record components must be non-negative")
        if self.tx_settled > self.tx_count:
            raise ValueError("settled transactions cannot exceed attempted")
        # The net is the fee revenue less the costs: rebalancing, sats-back, variable.
        costs = sum(components[6:])
        object.__setattr__(self, "net_inflow_cents", self.fee_revenue_cents - costs)

    @property
    def fee_revenue_cents(self) -> int:
        """Acquiring fees, hedge spread and routing fees: the rail's revenue."""
        return self.acquiring_fee_cents + self.hedge_spread_cents + self.routing_fee_cents

    @property
    def success_rate(self) -> float:
        """Settled over attempted transactions; 1.0 when none were attempted."""
        return self.tx_settled / self.tx_count if self.tx_count else 1.0


# A month's record from its ten components, positional or by name.
month_rail_cashflow = RailMonthRecord
