"""Scenario orchestration: per-path monthly loop and Monte Carlo rollup.

Each path owns a copy of the config's starting graph (the spec's channels
with the sleeve deployed, built once when the config is made) and its own
merchant roster. ``run_path`` folds over the months, and each month runs
the same stages in order: market (price, drawdown, stress trigger), payment
plan, payments, rebalances, cash flow (sampled-to-intended scaling, fee
stack), treasury step, churn and VaR check. Paths are pure functions of
(config, master seed, path index), so scenarios can run serially or in a
process pool with byte-identical reports.

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
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

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
    PaymentPlan,
    RailMonthRecord,
    TicketParams,
    acquiring_fee,
    apply_churn,
    gen_monthly_payments,
    hedge_settlement,
    month_rail_cashflow,
    sats_back_outlay,
)
from .rng import SEED_RANGE, child_seed, sha256
from .treasury import (
    TreasuryConfig,
    VarCheck,
    initial_state,
    monthly_yield_cents,  # unused here; bench/tracer.py wraps engine.monthly_yield_cents
    no_forced_sale,  # unused here; bench/tracer.py wraps engine.no_forced_sale
    sleeve_var,
    step_treasury,
    var_cap_check,
)
from .schema import (
    ConfigError,
    _Ctx,
    _Custom,
    _Key,
    _List,
    _OneOf,
    _read_json,
    _Section,
    check_bounds,
    json_as,
    shown,
)
from .util import CanonicalText, canonical_json, fill_layout, json_layout

COVERAGE_ZERO_OPEX = "uncovered-by-zero-opex"


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
        check_bounds(self, 1, "drawdown_threshold", "shrink_target")


@dataclass(frozen=True)
class MonteCarloConfig:
    num_paths: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise ConfigError("num_paths", "must be at least 1")
        if self.master_seed not in SEED_RANGE:
            raise ConfigError("master_seed", "must be in [-2**127, 2**127)")


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
        check_bounds(self, 1, "low_watermark")
        if self.max_fee_bps < 0:
            raise ConfigError("max_fee_bps", "must be non-negative")


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
        check_bounds(self, 10_000, "spread_bps", "variable_cost_bps")
        check_bounds(self, 1, "base_churn")
        for name in ("churn_sensitivity", "max_route_retries"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs; checked, and its graph built, when made."""

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

    # The spec's graph with the sleeve deployed; each path runs on a copy.
    _graph: ChannelGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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
        graph = build_graph(self.graph_spec, "graph")
        seen = set()
        for i, m in enumerate(self.merchants):
            if m.id == graph.hub:
                raise ConfigError(f"merchants[{i}].id", f"{shown(m.id)} cannot be the hub")
            if m.id not in graph.nodes:
                raise ConfigError(f"merchants[{i}].id", f"{shown(m.id)} is not a graph node")
            if m.id in seen:
                raise ConfigError(f"merchants[{i}].id", "duplicate merchant id")
            seen.add(m.id)
        if self.sleeve_peers is not None:
            for peer, weight in self.sleeve_peers:
                if peer == graph.hub:
                    raise ConfigError("sleeve_peers", "hub cannot be its own peer")
                if weight <= 0:
                    raise ConfigError("sleeve_peers", f"weight for {shown(peer)} not positive")
        if self.var_sigma_monthly is not None and self.var_sigma_monthly < 0:
            raise ConfigError("var_sigma_monthly", "must be non-negative")
        sleeve_msat = self.treasury.sleeve_sats * MSAT_PER_SAT
        peers = self.sleeve_peers
        if peers is None:
            peers = [(node, 1.0) for node in sorted(graph.nodes - {graph.hub})]
        if sleeve_msat > 0 and peers:
            try:
                deploy_sleeve(
                    graph,
                    sleeve_msat,
                    peers,
                    hub_policy=self.hub_fee_policy,
                    peer_policy=self.peer_fee_policy,
                    min_channel_msat=self.min_channel_msat,
                )
            except ValueError as exc:
                raise ConfigError("sleeve_peers", str(exc)) from None
        object.__setattr__(self, "_graph", graph)

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
        return _SCENARIO.echo(self)


# --------------------------------------------------------------------------
# Config schema: the dataclasses declare the keys, and one table the exceptions
# --------------------------------------------------------------------------


def _parse_peer(pair, key: str, ctx: _Ctx) -> tuple[str, float]:
    if len(json_as(list, pair, key)) != 2:
        raise ConfigError(key, "must be a [node, weight] pair")
    return json_as(str, pair[0], key), json_as(float, pair[1], key)


_MERCHANTS = _List(_Section(Merchant))
# A market's horizon defaults to the treasury's, which is parsed first.
_HORIZON = _Key("horizon_months", int, lambda fields: fields["treasury"].horizon_months)
_MARKET = _OneOf(
    "model",
    gbm=_Section(
        GbmParams, _Key("mu", float, 0.0), _Key("sigma", float, 0.0), _HORIZON
    ),
    stress=_Section(
        StressShape,
        _Key("kind", str, "linear"),
        _Key("total_drawdown", float, 0.70),
        _HORIZON,
    ),
)
_RAIL = _Section(  # the ticket keys sit flat in "rail"
    RailEconomicsConfig, _Key(None, _Section(TicketParams), field="tickets")
)
_ROSTER = _Custom(lambda raw, key, ctx: load_merchants(raw, key), _MERCHANTS.echo)
_PEERS = _List(_Custom(_parse_peer, list))
_SCENARIO = _Section(
    ScenarioConfig,
    _Key("market", _MARKET),
    _Key("graph", dict, field="graph_spec", path_key="graph_path"),
    _Key("merchants", _ROSTER, [], path_key="merchants_path"),
    _Key("sleeve_peers", _PEERS, None),
    _Key("rebalance", _Section(RebalancePolicyConfig), {}, field="rebalance_policy"),
)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ScenarioConfig:
    """Build and validate a scenario from its JSON shape.

    ``graph``/``merchants`` may be inline or referenced by ``graph_path``/
    ``merchants_path`` relative to ``base_dir`` (the config file's
    directory). An unknown key, a wrong JSON type or a non-integral number
    for an integer is a ``ConfigError`` naming the dotted key.
    """
    return _SCENARIO.parse(json_as(dict, raw, "config"), "", _Ctx(Path(base_dir or ".")))


def load_merchants(raw, key: str) -> tuple[Merchant, ...]:
    """Parse a merchant roster; every entry must match the merchant schema."""
    return _MERCHANTS.parse(raw, key, _Ctx())


def load_config_file(path) -> ScenarioConfig:
    return config_from_dict(_read_json(path, str(path)), base_dir=Path(path).parent)


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


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.init)


# A path's ``kpi_aggregate`` keys: the KPI record's, less the month number.
_AGGREGATE_KEYS = tuple(name for name in _field_names(KpiMonth) if name != "month")
# A month record's ten components in order, read in one call.
_RAIL_COLUMNS = operator.attrgetter(*_field_names(RailMonthRecord))


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
    routing_rev = (
        record.routing_fee_cents * 100_000 / record.tx_count if record.tx_count else 0.0
    )
    rebal_bps = (
        record.rebalancing_cost_cents * 10_000 / rebal_volume_cents
        if rebal_volume_cents
        else 0.0
    )
    coverage = record.fee_revenue_cents / opex_cents if opex_cents else math.inf
    return KpiMonth(
        month=record.month,
        gmv_cents=gmv,
        realized_take_rate_bps=take,
        payment_success_rate=record.success_rate,
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


def _run_rebalances(
    graph: ChannelGraph, policy: RebalancePolicyConfig
) -> tuple[int, int]:
    """Apply the watermark policy; returns (cost_msat, volume_msat)."""
    if policy.low_watermark <= 0.0:
        return 0, 0
    hub = graph.hub
    cost = 0
    volume = 0
    # A rebalance moves balances only, so the hub's channels stay the same.
    channels = sorted(graph.hub_channels(), key=lambda ch: ch.id)
    for poor in channels:
        bal = poor.balance_from(hub)
        if bal >= policy.low_watermark * poor.capacity_msat:
            continue
        amount = poor.capacity_msat // 2 - bal
        if amount <= 0:
            continue
        # The donor has the largest (balance, id) of the other channels,
        # and more than ``amount``; ids ascend, so the last of equals wins.
        donor, most = None, amount + 1
        for ch in channels:
            balance = ch.balance_from(hub)
            if balance >= most and ch is not poor:
                donor, most = ch, balance
        if donor is None:
            continue
        fee_cap = floor_bps(amount, policy.max_fee_bps)
        try:
            result = rebalance(graph, donor.id, poor.id, amount, max_fee_msat=fee_cap)
        except RoutingError:
            continue
        if result.settled:
            cost += result.cost_msat
            volume += amount
    return cost, volume


def _market(
    path: PricePath, graph: ChannelGraph, trigger: StressTriggerConfig
) -> Iterator[tuple[int, int, float, int | None]]:
    """The market stage: each month's ``(month, price, drawdown, freed)``.

    The drawdown is from the running peak. The trigger fires when the
    drawdown reaches the threshold and re-arms once it is back below it, so
    it fires once per drawdown episode; ``freed`` is the hub-side msat the
    sleeve shrink frees, None in a month the trigger does not fire.
    """
    peak = path.prices[0]
    armed = True
    for month, price in enumerate(path.prices[1:], 1):
        peak = max(peak, price)
        drawdown = 1.0 - price / peak
        freed = None
        if armed and drawdown >= trigger.drawdown_threshold:
            freed = shrink_sleeve(graph, trigger.shrink_target)
        armed = drawdown < trigger.drawdown_threshold
        yield month, price, drawdown, freed


def _send_payments(
    graph: ChannelGraph, plan: PaymentPlan, max_retries: int
) -> dict[str, tuple[int, int, int]]:
    """The payments stage: send the plan; per merchant with a settled payment,
    the settled count and msat and the hub's forwarding fees on them."""
    hub = graph.hub
    settled: dict[str, tuple[int, int, int]] = {}
    for req in plan.requests:
        result = send_payment(
            graph, req.payer, req.merchant, req.amount_msat, max_retries=max_retries
        )
        if result.status is PaymentStatus.SETTLED:
            # The sender's first hop carries no fee, so it adds 0 from the hub.
            hops = zip(result.route.hops, result.route.fees_msat)
            fee = sum(f for hop, f in hops if hop.from_node == hub)
            count, msat, fees = settled.get(req.merchant, (0, 0, 0))
            settled[req.merchant] = (count + 1, msat + req.amount_msat, fees + fee)
    return settled


def _rail_month(
    month: int,
    price: int,
    active: list[Merchant],
    plan: PaymentPlan,
    settled: dict[str, tuple[int, int, int]],
    rebal_cost_msat: int,
    rail: RailEconomicsConfig,
) -> RailMonthRecord:
    """The cash-flow stage: each merchant's tallies scale by intended/sampled,
    floored, before the fee stack applies; returns the month's record."""
    gmv = acquiring = spread = sats_back = tx_settled = hub_fee_msat = 0
    for m in active:
        n_sampled = plan.sampled[m.id]
        if not n_sampled:
            continue
        tally = settled.get(m.id, (0, 0, 0))
        count, msat, fees = (x * plan.intended[m.id] // n_sampled for x in tally)
        gross = msat_to_cents(msat, price)
        if m.settle_mode == "fiat":
            spread += hedge_settlement(msat, price, rail.spread_bps)[1]
        acquiring += acquiring_fee(gross, m.take_rate_bps)
        sats_back += sats_back_outlay(gross, m.sats_back_bps)
        gmv += gross
        tx_settled += count
        hub_fee_msat += fees
    return month_rail_cashflow(
        month=month,
        gmv_cents=gmv,
        tx_count=sum(plan.intended.values()),
        tx_settled=tx_settled,
        acquiring_fee_cents=acquiring,
        hedge_spread_cents=spread,
        routing_fee_cents=msat_to_cents(hub_fee_msat, price),
        rebalancing_cost_cents=msat_to_cents(rebal_cost_msat, price),
        sats_back_cents=sats_back,
        variable_cost_cents=floor_bps(gmv, rail.variable_cost_bps),
    )


def run_path(config: ScenarioConfig, path_index: int) -> PathResult:
    """Run one path, a fold over its months; deterministic in (config, seed, index)."""
    graph = config._graph.copy()
    tcfg = config.treasury
    rail = config.rail
    path = _price_path(config, path_index)
    merchants = list(config.merchants)
    merchant_nodes = {m.id for m in config.merchants}
    payer_pool = sorted(graph.nodes - {graph.hub} - merchant_nodes) or [graph.hub]
    rail_seed = child_seed(config.monte_carlo.master_seed, path_index, "rail")
    sigma = config.sigma_monthly()

    state = initial_state(tcfg)
    active0 = sum(1 for m in merchants if m.active)
    months: list[MonthResult] = []

    for month, price, drawdown, freed in _market(path, graph, config.stress_trigger):
        active = [m for m in merchants if m.active]
        plan = gen_monthly_payments(
            active,
            month,
            price,
            rail_seed,
            rail.tickets,
            payer_pool,
            max_payments=config.payment_cap_per_month,
        )
        settled = _send_payments(graph, plan, rail.max_route_retries)
        rebal_cost_msat, rebal_volume_msat = _run_rebalances(
            graph, config.rebalance_policy
        )
        record = _rail_month(month, price, active, plan, settled, rebal_cost_msat, rail)
        earned = step_treasury(state, tcfg, price, record.net_inflow_cents)
        merchants, churn_rate = apply_churn(
            merchants,
            record.success_rate,
            rail_seed,
            month,
            base_churn=rail.base_churn,
            sensitivity=rail.churn_sensitivity,
        )
        rebal_volume_cents = msat_to_cents(rebal_volume_msat, price)
        sleeve_msat = graph.node_balance_msat(graph.hub)
        var_cents = sleeve_var(
            msat_to_cents(sleeve_msat, price), sigma, tcfg.var_confidence
        )
        months.append(
            MonthResult(
                month=month,
                price_cents=price,
                drawdown=drawdown,
                shrink_fired=freed is not None,
                freed_msat=freed or 0,
                sampled_tx=len(plan.requests),
                rail=record,
                kpi=kpi_month(
                    record, rebal_volume_cents, tcfg.opex_monthly_cents, churn_rate
                ),
                rebal_volume_cents=rebal_volume_cents,
                yield_cents=earned,
                cash_cents=state.cash_cents,
                sleeve_deployed_msat=sleeve_msat,
                var=var_cap_check(var_cents, state.cash_cents, tcfg.var_cap_fraction),
            )
        )

    # The path's KPIs: one month's formula on the months' column sums (the
    # summed month number is dropped) and the roster's churn over the path.
    columns = zip(*(_RAIL_COLUMNS(m.rail) for m in months))
    active_end = sum(1 for m in merchants if m.active)
    kpi = kpi_month(
        RailMonthRecord(*map(sum, columns)),
        sum(m.rebal_volume_cents for m in months),
        tcfg.opex_monthly_cents * len(months),
        (active0 - active_end) / active0 if active0 else 0.0,
    )
    return PathResult(
        path_index=path_index,
        survives=state.breach_month is None,
        breach_month=state.breach_month,
        min_cash_cents=state.min_cash_cents,
        terminal_cash_cents=state.balance_cents,
        required_sale_sats=state.required_sale_sats,
        months=tuple(months),
        kpi_aggregate={k: getattr(kpi, k) for k in _AGGREGATE_KEYS},
    )


_INFINITIES = frozenset((math.inf, -math.inf))


def _path_json(path: PathResult) -> str:
    """``path`` as it reads in the canonical ``paths`` list, without a newline.

    The text is ``canonical_json`` of the path's ``asdict`` one level deep,
    with infinite floats as ``COVERAGE_ZERO_OPEX``.
    """
    template, values = json_layout(path, 1)
    if not _INFINITIES.isdisjoint(values):
        values = [COVERAGE_ZERO_OPEX if v in _INFINITIES else v for v in values]
    return fill_layout(template, values)


# --------------------------------------------------------------------------
# Monte Carlo rollup and reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioReport:
    """A scenario's outcome.

    ``paths_json`` is ``canonical_json`` of the path payload, byte for byte,
    built path by path (``_path_json``): the exact text
    ``reconciliation_hash`` digests, and the report file's ``paths`` value.
    """

    config_echo: dict
    master_seed: int
    num_paths: int
    surviving_paths: int
    survival_probability: float
    paths: tuple[PathResult, ...]
    reconciliation_hash: str
    paths_json: str = field(repr=False)


# The config of a pool worker's scenario; set in worker processes only.
_worker_config: ScenarioConfig | None = None


def _set_worker_config(config: ScenarioConfig) -> None:
    global _worker_config
    _worker_config = config


def _run_worker_path(path_index: int) -> PathResult:
    return run_path(_worker_config, path_index)


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> ScenarioReport:
    """Run all paths and aggregate; order-independent and deterministic.

    ``workers`` > 1 fans paths out to a process pool; results are merged
    sorted by path index, so parallel and serial runs emit byte-identical
    reports. Every path starts from a copy of the graph the config built
    when it was made, so none rebuilds it. Each path is encoded once, with
    one C-encoder call that fills its cached layout, and hashed as part of
    ``paths_json``.
    """
    n = config.monte_carlo.num_paths
    if workers is not None and workers > 1:
        # Imported here: it costs ~25 ms of start-up that a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        # Each worker gets the config once, with its starting graph, and
        # then only path indices.
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_worker_config, initargs=(config,)
        ) as pool:
            results = list(pool.map(_run_worker_path, range(n)))
    else:
        results = [run_path(config, i) for i in range(n)]
    results.sort(key=lambda r: r.path_index)
    surviving = sum(1 for r in results if r.survives)
    # One path at a time, so only one path's values and encoder output are
    # held at once; the text is canonical_json of the whole (non-empty) list.
    paths_json = "[\n  " + ",\n  ".join(map(_path_json, results)) + "\n]\n"
    digest = sha256(paths_json.encode("utf-8")).hexdigest()
    return ScenarioReport(
        config_echo=config.to_dict(),
        master_seed=config.monte_carlo.master_seed,
        num_paths=n,
        surviving_paths=surviving,
        survival_probability=surviving / n,
        paths=tuple(results),
        reconciliation_hash=digest,
        paths_json=paths_json,
    )


def _report_header(report: ScenarioReport) -> dict:
    return {
        "config": report.config_echo,
        "master_seed": report.master_seed,
        "num_paths": report.num_paths,
        "surviving_paths": report.surviving_paths,
        "survival_probability": report.survival_probability,
        "reconciliation_hash": report.reconciliation_hash,
    }


def report_to_dict(report: ScenarioReport) -> dict:
    """The report document; its paths are parsed back from ``paths_json``."""
    return {**_report_header(report), "paths": json.loads(report.paths_json)}


def write_report_json(report: ScenarioReport, path) -> None:
    """Write ``canonical_json(report_to_dict(report))`` without re-encoding paths.

    The document streams to the file in pieces of bounded size, and
    ``paths`` is ``paths_json`` as it stands, re-indented a piece at a time.
    """
    document = {**_report_header(report), "paths": CanonicalText(report.paths_json)}
    with open(path, "w", encoding="utf-8") as fh:
        canonical_json(document, fh.write)


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
    """Per-month time series, one row per (path, month), written a path at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in report.paths:
            lines = []
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
            lines.append("")
            fh.write("\n".join(lines))


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
