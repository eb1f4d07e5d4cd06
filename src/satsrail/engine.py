"""Scenario orchestration: per-path monthly loop and Monte Carlo rollup.

Each path owns a fresh channel graph and merchant roster and walks the
horizon month by month: price step, stress trigger, payment batch, hedged
settlement, treasury step, churn, VaR compliance check. Paths are pure
functions of (config, master seed, path index), so scenarios can run
serially or in a process pool with byte-identical reports.

Two accounting planes coexist and are reconciled, never mixed:

* the msat plane (channel balances, routing fees, rebalances), where
  conservation is exact by construction;
* the fiat plane (the treasury ledger), where the rail's monthly net inflow
  is booked at the month's price under the same-month hedge assumption.

Routing fees earned by the hub therefore remain in channel balances while
their fiat value is booked as revenue; the sleeve mark simply includes
retained fees from then on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .lightning import (
    ChannelGraph,
    FeePolicy,
    PaymentStatus,
    RoutingError,
    build_graph,
    deploy_sleeve,
    rebalance,
    send_payment,
    shrink_sleeve,
)
from .market import GbmParams, PricePath, StressShape, gen_gbm_path, gen_stress_path
from .money import MSAT_PER_SAT, floor_bps, msat_to_cents
from .rail import (
    Merchant,
    RailMonthRecord,
    TicketParams,
    acquiring_fee,
    apply_churn,
    gen_monthly_payments,
    hedge_settlement,
    load_merchants,
    month_rail_cashflow,
    sats_back_outlay,
)
from .rng import child_seed
from .treasury import (
    TreasuryConfig,
    VarCheck,
    initial_state,
    monthly_yield_cents,
    no_forced_sale,
    sleeve_var,
    step_treasury,
    var_cap_check,
)
from .util import canonical_json

COVERAGE_ZERO_OPEX = "uncovered-by-zero-opex"


class ConfigError(ValueError):
    """Scenario configuration problem; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class StressTriggerConfig:
    """Drawdown trigger for automatic sleeve shrink.

    Fires once per drawdown episode: when peak-to-current drawdown reaches
    the threshold the sleeve shrinks to ``shrink_target`` of its current
    deployment, then the trigger re-arms only after drawdown recovers below
    the threshold. Threshold 1.0 disables the trigger (drawdown is always
    below 1 while prices are positive).
    """

    drawdown_threshold: float = 1.0
    shrink_target: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.drawdown_threshold <= 1.0:
            raise ValueError("drawdown_threshold must be in [0, 1]")
        if not 0.0 <= self.shrink_target <= 1.0:
            raise ValueError("shrink_target must be in [0, 1]")


@dataclass(frozen=True)
class MonteCarloConfig:
    num_paths: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be at least 1")


@dataclass(frozen=True)
class RebalancePolicyConfig:
    """Watermark-driven circular rebalancing between hub channels.

    After each month's payments, any hub channel whose hub-side balance
    sits below ``low_watermark`` of capacity is topped back up to half
    capacity from the fullest other hub channel, if a circular route exists
    within the fee cap. Watermark 0 disables the policy.
    """

    low_watermark: float = 0.0
    max_fee_bps: int = 50

    def __post_init__(self):
        if not 0.0 <= self.low_watermark <= 1.0:
            raise ValueError("low_watermark must be in [0, 1]")
        if self.max_fee_bps < 0:
            raise ValueError("max_fee_bps must be non-negative")


@dataclass(frozen=True)
class RailEconomicsConfig:
    """Rail-level economics shared across merchants."""

    tickets: TicketParams = field(default_factory=TicketParams)
    spread_bps: int = 5
    variable_cost_bps: int = 0
    base_churn: float = 0.0
    churn_sensitivity: float = 0.0
    max_route_retries: int = 3

    def __post_init__(self):
        if self.spread_bps < 0 or self.variable_cost_bps < 0:
            raise ValueError("bps fields must be non-negative")
        if not 0.0 <= self.base_churn <= 1.0:
            raise ValueError("base_churn must be in [0, 1]")
        if self.churn_sensitivity < 0.0:
            raise ValueError("churn_sensitivity must be non-negative")
        if self.max_route_retries < 0:
            raise ValueError("max_route_retries must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs; validated up front."""

    treasury: TreasuryConfig
    market: GbmParams | StressShape
    start_price_cents: int
    graph_spec: dict
    merchants: tuple[Merchant, ...] = ()
    rail: RailEconomicsConfig = field(default_factory=RailEconomicsConfig)
    stress_trigger: StressTriggerConfig = field(default_factory=StressTriggerConfig)
    monte_carlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)
    payment_cap_per_month: int = 500
    sleeve_peers: tuple[tuple[str, float], ...] | None = None
    hub_fee_policy: FeePolicy = field(default_factory=FeePolicy)
    peer_fee_policy: FeePolicy = field(default_factory=FeePolicy)
    min_channel_msat: int = 1_000
    rebalance_policy: RebalancePolicyConfig = field(
        default_factory=RebalancePolicyConfig
    )
    var_sigma_monthly: float | None = None

    def validate(self) -> None:
        self._validated_graph()

    def _validated_graph(self) -> ChannelGraph:
        """Validate and return the graph built from ``graph_spec`` on the way."""
        if self.start_price_cents <= 0:
            raise ConfigError("start_price_cents", "must be positive")
        if self.payment_cap_per_month < 1:
            raise ConfigError("payment_cap_per_month", "must be at least 1")
        if self.market.horizon_months != self.treasury.horizon_months:
            raise ConfigError(
                "market.horizon_months",
                f"market horizon {self.market.horizon_months} differs from "
                f"treasury horizon {self.treasury.horizon_months}",
            )
        try:
            graph = build_graph(self.graph_spec)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError("graph", str(exc)) from None
        for m in self.merchants:
            if m.id == graph.hub:
                raise ConfigError("merchants", f"merchant {m.id!r} cannot be the hub")
            if m.id not in graph.nodes:
                raise ConfigError(
                    "merchants", f"merchant {m.id!r} is not a graph node"
                )
        if self.sleeve_peers is not None:
            for peer, weight in self.sleeve_peers:
                if peer == graph.hub:
                    raise ConfigError("sleeve_peers", "hub cannot be its own peer")
                if weight <= 0:
                    raise ConfigError("sleeve_peers", f"weight for {peer!r} not positive")
        if self.var_sigma_monthly is not None and self.var_sigma_monthly < 0:
            raise ConfigError("var_sigma_monthly", "must be non-negative")
        return graph

    def sigma_monthly(self) -> float:
        """Monthly volatility used by the VaR check.

        Explicit override wins; otherwise GBM markets use sigma/sqrt(12);
        deterministic stress paths carry no modeled volatility (0).
        """
        if self.var_sigma_monthly is not None:
            return self.var_sigma_monthly
        if isinstance(self.market, GbmParams):
            return self.market.sigma / math.sqrt(12.0)
        return 0.0

    def to_dict(self) -> dict:
        """Canonical JSON-shaped echo with every default made explicit."""
        market: dict
        if isinstance(self.market, GbmParams):
            market = {
                "model": "gbm",
                "mu": self.market.mu,
                "sigma": self.market.sigma,
                "horizon_months": self.market.horizon_months,
            }
        else:
            market = {
                "model": "stress",
                "kind": self.market.kind,
                "total_drawdown": self.market.total_drawdown,
                "horizon_months": self.market.horizon_months,
            }
        return {
            "treasury": dataclasses.asdict(self.treasury),
            "market": market,
            "start_price_cents": self.start_price_cents,
            "graph": self.graph_spec,
            "merchants": [dataclasses.asdict(m) for m in self.merchants],
            "rail": {
                "median_ticket_cents": self.rail.tickets.median_ticket_cents,
                "ticket_sigma": self.rail.tickets.ticket_sigma,
                "min_ticket_cents": self.rail.tickets.min_ticket_cents,
                "max_ticket_cents": self.rail.tickets.max_ticket_cents,
                "spread_bps": self.rail.spread_bps,
                "variable_cost_bps": self.rail.variable_cost_bps,
                "base_churn": self.rail.base_churn,
                "churn_sensitivity": self.rail.churn_sensitivity,
                "max_route_retries": self.rail.max_route_retries,
            },
            "stress_trigger": dataclasses.asdict(self.stress_trigger),
            "monte_carlo": dataclasses.asdict(self.monte_carlo),
            "payment_cap_per_month": self.payment_cap_per_month,
            "sleeve_peers": (
                None
                if self.sleeve_peers is None
                else [[p, w] for p, w in self.sleeve_peers]
            ),
            "hub_fee_policy": {
                "base_msat": self.hub_fee_policy.base_fee_msat,
                "ppm": self.hub_fee_policy.proportional_millionths,
            },
            "peer_fee_policy": {
                "base_msat": self.peer_fee_policy.base_fee_msat,
                "ppm": self.peer_fee_policy.proportional_millionths,
            },
            "min_channel_msat": self.min_channel_msat,
            "rebalance": dataclasses.asdict(self.rebalance_policy),
            "var_sigma_monthly": self.var_sigma_monthly,
        }


def _policy_from_dict(raw: dict, key: str) -> FeePolicy:
    try:
        return FeePolicy(int(raw.get("base_msat", 0)), int(raw.get("ppm", 0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ScenarioConfig:
    """Build and validate a scenario from its JSON shape.

    ``graph``/``merchants`` may be inline or referenced by ``graph_path``/
    ``merchants_path`` relative to ``base_dir`` (the config file's
    directory).
    """
    base = Path(base_dir) if base_dir is not None else Path(".")

    def section(key: str, required: bool = True) -> dict:
        value = raw.get(key)
        if value is None:
            if required:
                raise ConfigError(key, "missing required section")
            return {}
        if not isinstance(value, dict):
            raise ConfigError(key, "must be an object")
        return value

    def build(key: str, factory, kwargs: dict):
        try:
            return factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, str(exc)) from None

    tre_raw = section("treasury")
    treasury = build("treasury", TreasuryConfig, tre_raw)

    market_raw = section("market")
    model = market_raw.get("model")
    horizon = int(market_raw.get("horizon_months", treasury.horizon_months))
    if model == "gbm":
        market = build(
            "market",
            GbmParams,
            {
                "mu": float(market_raw.get("mu", 0.0)),
                "sigma": float(market_raw.get("sigma", 0.0)),
                "horizon_months": horizon,
            },
        )
    elif model == "stress":
        market = build(
            "market",
            StressShape,
            {
                "kind": market_raw.get("kind", "linear"),
                "total_drawdown": float(market_raw.get("total_drawdown", 0.70)),
                "horizon_months": horizon,
            },
        )
    else:
        raise ConfigError("market.model", "must be 'gbm' or 'stress'")

    if "start_price_cents" not in raw:
        raise ConfigError("start_price_cents", "missing required value")

    if "graph" in raw:
        graph_spec = raw["graph"]
    elif "graph_path" in raw:
        with open(base / raw["graph_path"], "r", encoding="utf-8") as fh:
            graph_spec = json.load(fh)
    else:
        raise ConfigError("graph", "provide 'graph' inline or 'graph_path'")

    if "merchants" in raw:
        merchants_raw = raw["merchants"]
    elif "merchants_path" in raw:
        with open(base / raw["merchants_path"], "r", encoding="utf-8") as fh:
            merchants_raw = json.load(fh)
    else:
        merchants_raw = []
    try:
        merchants = tuple(load_merchants(merchants_raw))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("merchants", str(exc)) from None

    rail_raw = section("rail", required=False)
    tickets = build(
        "rail",
        TicketParams,
        {
            k: rail_raw[k]
            for k in (
                "median_ticket_cents",
                "ticket_sigma",
                "min_ticket_cents",
                "max_ticket_cents",
            )
            if k in rail_raw
        },
    )
    rail = build(
        "rail",
        RailEconomicsConfig,
        {
            "tickets": tickets,
            **{
                k: rail_raw[k]
                for k in (
                    "spread_bps",
                    "variable_cost_bps",
                    "base_churn",
                    "churn_sensitivity",
                    "max_route_retries",
                )
                if k in rail_raw
            },
        },
    )

    trigger = build("stress_trigger", StressTriggerConfig, section("stress_trigger", False))
    monte = build("monte_carlo", MonteCarloConfig, section("monte_carlo", False))
    rebal = build("rebalance", RebalancePolicyConfig, section("rebalance", False))

    peers_raw = raw.get("sleeve_peers")
    peers = (
        None
        if peers_raw is None
        else tuple((str(p), float(w)) for p, w in peers_raw)
    )

    config = ScenarioConfig(
        treasury=treasury,
        market=market,
        start_price_cents=int(raw["start_price_cents"]),
        graph_spec=graph_spec,
        merchants=merchants,
        rail=rail,
        stress_trigger=trigger,
        monte_carlo=monte,
        payment_cap_per_month=int(raw.get("payment_cap_per_month", 500)),
        sleeve_peers=peers,
        hub_fee_policy=_policy_from_dict(
            raw.get("hub_fee_policy", {}), "hub_fee_policy"
        ),
        peer_fee_policy=_policy_from_dict(
            raw.get("peer_fee_policy", {}), "peer_fee_policy"
        ),
        min_channel_msat=int(raw.get("min_channel_msat", 1_000)),
        rebalance_policy=rebal,
        var_sigma_monthly=(
            None
            if raw.get("var_sigma_monthly") is None
            else float(raw["var_sigma_monthly"])
        ),
    )
    config.validate()
    return config


def load_config_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return config_from_dict(raw, base_dir=Path(path).parent)


# --------------------------------------------------------------------------
# KPIs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KpiMonth:
    """Disclosure KPIs for one month; degenerate denominators well-defined."""

    month: int
    gmv_cents: int
    realized_take_rate_bps: float
    payment_success_rate: float
    routing_revenue_per_100k_tx_cents: float
    rebalancing_cost_bps: float
    merchant_churn_rate: float
    opex_coverage_ratio: float


def kpi_month(
    record: RailMonthRecord,
    rebal_volume_cents: int,
    opex_cents: int,
    churn_rate: float = 0.0,
) -> KpiMonth:
    """KPI row from a month record.

    Conventions for empty denominators: take rate 0 on zero GMV, success
    1.0 when nothing was attempted, rebalancing cost 0 bps on zero volume,
    and coverage +inf when opex is zero (serialized as a sentinel).
    """
    if opex_cents < 0 or rebal_volume_cents < 0:
        raise ValueError("opex and rebalance volume must be non-negative")
    gmv = record.gmv_cents
    take = record.acquiring_fee_cents * 10_000 / gmv if gmv else 0.0
    success = record.tx_settled / record.tx_count if record.tx_count else 1.0
    routing_rev = (
        record.routing_fee_cents * 100_000 / record.tx_count if record.tx_count else 0.0
    )
    rebal_bps = (
        record.rebalancing_cost_cents * 10_000 / rebal_volume_cents
        if rebal_volume_cents
        else 0.0
    )
    fee_revenue = (
        record.acquiring_fee_cents
        + record.hedge_spread_cents
        + record.routing_fee_cents
    )
    coverage = fee_revenue / opex_cents if opex_cents else math.inf
    return KpiMonth(
        month=record.month,
        gmv_cents=gmv,
        realized_take_rate_bps=take,
        payment_success_rate=success,
        routing_revenue_per_100k_tx_cents=routing_rev,
        rebalancing_cost_bps=rebal_bps,
        merchant_churn_rate=churn_rate,
        opex_coverage_ratio=coverage,
    )


# --------------------------------------------------------------------------
# Per-path simulation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MonthResult:
    month: int
    price_cents: int
    drawdown: float
    shrink_fired: bool
    freed_msat: int
    sampled_tx: int
    rail: RailMonthRecord
    kpi: KpiMonth
    rebal_volume_cents: int
    yield_cents: int
    cash_cents: int
    sleeve_deployed_msat: int
    var: VarCheck


@dataclass(frozen=True)
class PathResult:
    path_index: int
    survives: bool
    breach_month: int | None
    min_cash_cents: int
    terminal_cash_cents: int
    required_sale_sats: int | None
    months: tuple[MonthResult, ...]
    kpi_aggregate: dict


def _price_path(config: ScenarioConfig, path_index: int) -> PricePath:
    if isinstance(config.market, GbmParams):
        seed = child_seed(config.monte_carlo.master_seed, path_index, "market")
        return gen_gbm_path(config.market, config.start_price_cents, seed)
    return gen_stress_path(config.market, config.start_price_cents)


def _setup_graph(config: ScenarioConfig) -> ChannelGraph:
    """Validate ``config`` and deploy the sleeve on the graph that built."""
    graph = config._validated_graph()
    sleeve_msat = config.treasury.sleeve_sats * MSAT_PER_SAT
    if sleeve_msat > 0:
        peers = config.sleeve_peers
        if peers is None:
            candidates = sorted(graph.nodes - {graph.hub})
            peers = tuple((node, 1.0) for node in candidates)
        if peers:
            deploy_sleeve(
                graph,
                sleeve_msat,
                list(peers),
                hub_policy=config.hub_fee_policy,
                peer_policy=config.peer_fee_policy,
                min_channel_msat=config.min_channel_msat,
            )
    return graph


def _run_rebalances(
    graph: ChannelGraph, policy: RebalancePolicyConfig
) -> tuple[int, int]:
    """Apply the watermark policy; returns (cost_msat, volume_msat)."""
    if policy.low_watermark <= 0.0:
        return 0, 0
    hub = graph.hub
    cost = 0
    volume = 0
    for poor in sorted(graph.hub_channels(), key=lambda ch: ch.id):
        bal = poor.balance_from(hub)
        if bal >= policy.low_watermark * poor.capacity_msat:
            continue
        amount = poor.capacity_msat // 2 - bal
        if amount <= 0:
            continue
        donors = [
            ch
            for ch in graph.hub_channels()
            if ch.id != poor.id and ch.balance_from(hub) > amount
        ]
        if not donors:
            continue
        donor = max(donors, key=lambda ch: (ch.balance_from(hub), ch.id))
        fee_cap = floor_bps(amount, policy.max_fee_bps)
        try:
            result = rebalance(graph, donor.id, poor.id, amount, max_fee_msat=fee_cap)
        except RoutingError:
            continue
        if result.settled:
            cost += result.cost_msat
            volume += amount
    return cost, volume


@dataclass
class _MerchantTally:
    settled_count: int = 0
    settled_msat: int = 0
    hub_fee_msat: int = 0


def run_path(config: ScenarioConfig, path_index: int) -> PathResult:
    """Run one simulation path; deterministic in (config, seed, index)."""
    graph = _setup_graph(config)
    tcfg = config.treasury
    path = _price_path(config, path_index)
    merchants = list(config.merchants)
    merchant_nodes = {m.id for m in config.merchants}
    payer_pool = sorted(graph.nodes - {graph.hub} - merchant_nodes) or [graph.hub]
    rail_seed = child_seed(config.monte_carlo.master_seed, path_index, "rail")

    state = initial_state(tcfg, sleeve_deployed_msat=graph.node_balance_msat(graph.hub))
    active0 = sum(1 for m in merchants if m.active)
    peak = path.prices[0]
    armed = True
    months: list[MonthResult] = []
    inflow_series: list[int] = []
    outflow_series: list[int] = []

    for month in range(1, tcfg.horizon_months + 1):
        price = path.prices[month]
        peak = max(peak, price)
        drawdown = 1.0 - price / peak

        shrink_fired = False
        freed = 0
        if armed:
            if drawdown >= config.stress_trigger.drawdown_threshold:
                freed = shrink_sleeve(graph, config.stress_trigger.shrink_target)
                shrink_fired = True
                armed = False
        elif drawdown < config.stress_trigger.drawdown_threshold:
            armed = True

        active = [m for m in merchants if m.active]
        plan = gen_monthly_payments(
            active,
            month,
            price,
            rail_seed,
            config.rail.tickets,
            payer_pool,
            max_payments=config.payment_cap_per_month,
        )
        tallies: dict[str, _MerchantTally] = {m.id: _MerchantTally() for m in active}
        for req in plan.requests:
            result = send_payment(
                graph,
                req.payer,
                req.merchant,
                req.amount_msat,
                max_fee_msat=None,
                max_retries=config.rail.max_route_retries,
            )
            if result.status is PaymentStatus.SETTLED:
                tally = tallies[req.merchant]
                tally.settled_count += 1
                tally.settled_msat += req.amount_msat
                route = result.route
                for i in range(1, len(route.hops)):
                    if route.hops[i].from_node == graph.hub:
                        tally.hub_fee_msat += route.fees_msat[i]

        rebal_cost_msat, rebal_volume_msat = _run_rebalances(
            graph, config.rebalance_policy
        )

        gmv_settled = 0
        acquiring_total = 0
        spread_total = 0
        satsback_total = 0
        hub_fee_msat_total = 0
        tx_count = sum(plan.intended.values())
        tx_settled = 0
        for m in sorted(active, key=lambda m: m.id):
            n_intended = plan.intended[m.id]
            n_sampled = plan.sampled[m.id]
            if n_sampled == 0 or n_intended == 0:
                continue
            tally = tallies[m.id]
            settled_msat = tally.settled_msat * n_intended // n_sampled
            settled_count = tally.settled_count * n_intended // n_sampled
            hub_fee_msat = tally.hub_fee_msat * n_intended // n_sampled
            gross = msat_to_cents(settled_msat, price)
            if m.settle_mode == "fiat":
                _, spread = hedge_settlement(settled_msat, price, config.rail.spread_bps)
                spread_total += spread
            acquiring_total += acquiring_fee(gross, m.take_rate_bps)
            satsback_total += sats_back_outlay(gross, m.sats_back_bps)
            gmv_settled += gross
            tx_settled += settled_count
            hub_fee_msat_total += hub_fee_msat

        record = month_rail_cashflow(
            month=month,
            gmv_cents=gmv_settled,
            tx_count=tx_count,
            tx_settled=tx_settled,
            acquiring_fee_cents=acquiring_total,
            hedge_spread_cents=spread_total,
            routing_fee_cents=msat_to_cents(hub_fee_msat_total, price),
            rebalancing_cost_cents=msat_to_cents(rebal_cost_msat, price),
            sats_back_cents=satsback_total,
            variable_cost_cents=floor_bps(gmv_settled, config.rail.variable_cost_bps),
        )

        earned = monthly_yield_cents(state.cash_cents, tcfg.cash_yield_apy)
        state = step_treasury(state, tcfg, price, record.net_inflow_cents)
        inflow_series.append(record.net_inflow_cents + earned)
        outflow_series.append(tcfg.out_monthly_cents)

        success = record.tx_settled / record.tx_count if record.tx_count else 1.0
        merchants, churn_rate = apply_churn(
            merchants,
            success,
            rail_seed,
            month,
            base_churn=config.rail.base_churn,
            sensitivity=config.rail.churn_sensitivity,
        )

        sleeve_msat = graph.node_balance_msat(graph.hub)
        state = replace(state, sleeve_deployed_msat=sleeve_msat)
        var_cents = sleeve_var(
            msat_to_cents(sleeve_msat, price),
            config.sigma_monthly(),
            tcfg.var_confidence,
        )
        check = var_cap_check(var_cents, state.cash_cents, tcfg.var_cap_fraction)

        months.append(
            MonthResult(
                month=month,
                price_cents=price,
                drawdown=drawdown,
                shrink_fired=shrink_fired,
                freed_msat=freed,
                sampled_tx=sum(plan.sampled.values()),
                rail=record,
                kpi=kpi_month(
                    record,
                    msat_to_cents(rebal_volume_msat, price),
                    tcfg.opex_monthly_cents,
                    churn_rate,
                ),
                rebal_volume_cents=msat_to_cents(rebal_volume_msat, price),
                yield_cents=earned,
                cash_cents=state.cash_cents,
                sleeve_deployed_msat=sleeve_msat,
                var=check,
            )
        )

    verdict = no_forced_sale(
        tcfg.cash0_cents, inflow_series, outflow_series, tcfg.survival_mode
    )
    active_end = sum(1 for m in merchants if m.active)
    return PathResult(
        path_index=path_index,
        survives=verdict.survives,
        breach_month=verdict.breach_month,
        min_cash_cents=verdict.min_cash_cents,
        terminal_cash_cents=verdict.terminal_cash_cents,
        required_sale_sats=state.required_sale_sats,
        months=tuple(months),
        kpi_aggregate=_aggregate_kpis(months, active0, active_end, tcfg),
    )


def _aggregate_kpis(
    months: Sequence[MonthResult], active0: int, active_end: int, tcfg: TreasuryConfig
) -> dict:
    gmv = sum(m.rail.gmv_cents for m in months)
    acquiring = sum(m.rail.acquiring_fee_cents for m in months)
    fee_revenue = acquiring + sum(
        m.rail.hedge_spread_cents + m.rail.routing_fee_cents for m in months
    )
    attempted = sum(m.rail.tx_count for m in months)
    settled = sum(m.rail.tx_settled for m in months)
    routing = sum(m.rail.routing_fee_cents for m in months)
    rebal_cost = sum(m.rail.rebalancing_cost_cents for m in months)
    rebal_volume = sum(m.rebal_volume_cents for m in months)
    opex_total = tcfg.opex_monthly_cents * len(months)
    return {
        "gmv_cents": gmv,
        "realized_take_rate_bps": acquiring * 10_000 / gmv if gmv else 0.0,
        "payment_success_rate": settled / attempted if attempted else 1.0,
        "routing_revenue_per_100k_tx_cents": (
            routing * 100_000 / attempted if attempted else 0.0
        ),
        "rebalancing_cost_bps": (
            rebal_cost * 10_000 / rebal_volume if rebal_volume else 0.0
        ),
        "merchant_churn_rate": (active0 - active_end) / active0 if active0 else 0.0,
        "opex_coverage_ratio": fee_revenue / opex_total if opex_total else math.inf,
    }


# --------------------------------------------------------------------------
# Monte Carlo rollup and reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioReport:
    config_echo: dict
    master_seed: int
    num_paths: int
    surviving_paths: int
    survival_probability: float
    paths: tuple[PathResult, ...]
    reconciliation_hash: str


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> ScenarioReport:
    """Run all paths and aggregate; order-independent and deterministic.

    ``workers`` > 1 fans paths out to a process pool; results are merged
    sorted by path index, so parallel and serial runs emit byte-identical
    reports.
    """
    config.validate()
    n = config.monte_carlo.num_paths
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_path, [config] * n, range(n)))
    else:
        results = [run_path(config, i) for i in range(n)]
    results.sort(key=lambda r: r.path_index)
    surviving = sum(1 for r in results if r.survives)
    paths_payload = [_sanitize(dataclasses.asdict(r)) for r in results]
    digest = hashlib.sha256(canonical_json(paths_payload).encode("utf-8")).hexdigest()
    return ScenarioReport(
        config_echo=config.to_dict(),
        master_seed=config.monte_carlo.master_seed,
        num_paths=n,
        surviving_paths=surviving,
        survival_probability=surviving / n,
        paths=tuple(results),
        reconciliation_hash=digest,
    )


def _sanitize(obj):
    """Replace non-JSON floats (inf coverage) with the documented sentinel."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return COVERAGE_ZERO_OPEX
    return obj


def report_to_dict(report: ScenarioReport) -> dict:
    return {
        "config": report.config_echo,
        "master_seed": report.master_seed,
        "num_paths": report.num_paths,
        "surviving_paths": report.surviving_paths,
        "survival_probability": report.survival_probability,
        "reconciliation_hash": report.reconciliation_hash,
        "paths": [_sanitize(dataclasses.asdict(p)) for p in report.paths],
    }


def write_report_json(report: ScenarioReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report_to_dict(report)))


CSV_COLUMNS = [
    "path",
    "month",
    "price",
    "cash",
    "gmv",
    "success_rate",
    "coverage",
    "take_rate_bps",
    "routing_rev_per_100k_tx",
    "rebal_cost_bps",
    "churn_rate",
    "sleeve_msat",
    "var_passed",
]


def write_report_csv(report: ScenarioReport, path) -> None:
    """Per-month time series, one row per (path, month)."""
    lines = [",".join(CSV_COLUMNS)]
    for p in report.paths:
        for m in p.months:
            coverage = (
                COVERAGE_ZERO_OPEX
                if math.isinf(m.kpi.opex_coverage_ratio)
                else repr(m.kpi.opex_coverage_ratio)
            )
            lines.append(
                ",".join(
                    [
                        str(p.path_index),
                        str(m.month),
                        str(m.price_cents),
                        str(m.cash_cents),
                        str(m.rail.gmv_cents),
                        repr(m.kpi.payment_success_rate),
                        coverage,
                        repr(m.kpi.realized_take_rate_bps),
                        repr(m.kpi.routing_revenue_per_100k_tx_cents),
                        repr(m.kpi.rebalancing_cost_bps),
                        repr(m.kpi.merchant_churn_rate),
                        str(m.sleeve_deployed_msat),
                        str(int(m.var.passed)),
                    ]
                )
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def mean_finite_coverage(report: ScenarioReport) -> float:
    """Mean monthly opex coverage across paths, ignoring zero-opex months.

    Returns +inf when every month had zero opex.
    """
    values = [
        m.kpi.opex_coverage_ratio
        for p in report.paths
        for m in p.months
        if math.isfinite(m.kpi.opex_coverage_ratio)
    ]
    if not values:
        return math.inf
    return sum(values) / len(values)
