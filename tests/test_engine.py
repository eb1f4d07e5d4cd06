"""Engine tests: per-path loop, Monte Carlo rollup, KPIs, reports."""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_SLEEVES,
    MALFORMED_CONFIGS,
    _sanitize,
    bad_sleeve_raw,
    count_attempts,
    graph_state,
    legacy_report_text,
    set_key,
    stdlib_canonical_json,
    stress_scenario_raw,
)
from satsrail import engine, lightning, treasury
from satsrail.engine import (
    ConfigError,
    KpiMonth,
    MonthResult,
    PathResult,
    ScenarioConfig,
    StressTriggerConfig,
    config_from_dict,
    kpi_month,
    load_config_file,
    report_to_dict,
    run_path,
    run_scenario,
    write_report_csv,
    write_report_json,
)
from satsrail.lightning import FeePolicy, RoutingError, build_graph, rebalance
from satsrail.market import GbmParams, PricePath
from satsrail.money import SATS_PER_BTC, floor_bps
from satsrail.rail import Merchant, month_rail_cashflow
from satsrail.treasury import TreasuryConfig, VarCheck
from satsrail.treasury import no_forced_sale
from satsrail.util import canonical_json
from test_util import piece_bound

START_PRICE = 10_000_000  # $100,000/BTC


def chan(cid, a, b, cap, bal_a, base=1000, ppm=100):
    return {
        "id": cid,
        "a": a,
        "b": b,
        "capacity_msat": cap,
        "balance_a_msat": bal_a,
        "policy_ab": {"base_msat": base, "ppm": ppm},
        "policy_ba": {"base_msat": base, "ppm": ppm},
    }


def rich_raw_config(**overrides):
    """Two payers, two merchants, meshed enough for rebalancing."""
    raw = {
        "treasury": {
            "btc_core_sats": 1_000_000_000,  # 10 BTC
            "cash0_cents": 500_000,
            "opex_monthly_cents": 40_000,
            "horizon_months": 6,
            "sleeve_fraction": 0.0,
            "survival_mode": "pathwise",
        },
        "market": {"model": "gbm", "mu": 0.0, "sigma": 0.6},
        "start_price_cents": START_PRICE,
        "graph": {
            "nodes": ["hub", "pay1", "pay2", "shopA", "shopB"],
            "hub": "hub",
            "channels": [
                chan("p1h", "pay1", "hub", 100_000_000_000, 100_000_000_000),
                chan("p2h", "pay2", "hub", 100_000_000_000, 100_000_000_000),
                chan("hsA", "hub", "shopA", 100_000_000_000, 100_000_000_000),
                chan("hsB", "hub", "shopB", 100_000_000_000, 100_000_000_000),
                chan("p1A", "pay1", "shopA", 50_000_000_000, 25_000_000_000),
            ],
        },
        "merchants": [
            {
                "id": "shopA",
                "monthly_gmv_cents": 2_000_000,
                "take_rate_bps": 30,
                "settle_mode": "fiat",
                "sats_back_bps": 5,
            },
            {
                "id": "shopB",
                "monthly_gmv_cents": 1_500_000,
                "take_rate_bps": 25,
                "settle_mode": "btc",
            },
        ],
        "rail": {
            "median_ticket_cents": 5_000,
            "ticket_sigma": 0.8,
            "spread_bps": 5,
            "variable_cost_bps": 2,
            "base_churn": 0.005,
            "churn_sensitivity": 0.05,
            "max_route_retries": 2,
        },
        "monte_carlo": {"num_paths": 3, "master_seed": 11},
        "payment_cap_per_month": 40,
        "rebalance": {"low_watermark": 0.25, "max_fee_bps": 80},
    }
    raw.update(overrides)
    return raw


def empty_raw_config(**overrides):
    raw = {
        "treasury": {
            "btc_core_sats": 0,
            "cash0_cents": 0,
            "opex_monthly_cents": 0,
            "horizon_months": 6,
            "sleeve_fraction": 0.0,
        },
        "market": {"model": "gbm", "mu": 0.0, "sigma": 0.0},
        "start_price_cents": START_PRICE,
        "graph": {"nodes": ["hub"], "hub": "hub", "channels": []},
        "merchants": [],
    }
    raw.update(overrides)
    return raw


def odd_ids_raw_config():
    """``rich_raw_config`` with node and merchant ids that JSON must escape.

    One id is the report's own ``paths`` key, one holds a quote and a
    backslash, one is non-ASCII.
    """
    names = {"shopA": "paths", "shopB": 'q"uo\\te', "pay1": "caf\u00e9-\u03a9"}
    text = json.dumps(rich_raw_config())
    for old, new in names.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    return json.loads(text)


class TestDegenerateScenario:
    def test_nothing_happens(self):
        config = config_from_dict(empty_raw_config())
        result = run_path(config, 0)
        assert result.survives
        assert result.breach_month is None
        assert result.terminal_cash_cents == 0
        for m in result.months:
            assert m.rail.net_inflow_cents == 0
            assert m.rail.gmv_cents == 0
            assert m.kpi.payment_success_rate == 1.0
            assert math.isinf(m.kpi.opex_coverage_ratio)
            assert m.cash_cents == 0


class TestDeterminism:
    def test_same_path_twice_identical(self):
        config = config_from_dict(rich_raw_config())
        a = run_path(config, 1)
        b = run_path(config, 1)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_serial_equals_parallel(self):
        config = config_from_dict(rich_raw_config())
        serial = run_scenario(config)
        parallel = run_scenario(config, workers=2)
        assert canonical_json(report_to_dict(serial)) == canonical_json(
            report_to_dict(parallel)
        )
        assert serial.reconciliation_hash == parallel.reconciliation_hash

    def test_distinct_paths_differ(self):
        config = config_from_dict(rich_raw_config())
        report = run_scenario(config)
        month1 = [p.months[0].rail.tx_settled for p in report.paths]
        assert len(set(month1)) > 1 or len(set(
            p.months[0].price_cents for p in report.paths
        )) > 1


def shrinking_raw_config():
    """``rich_raw_config`` with a deployed sleeve, a drawdown shrink and
    room for a circular rebalance: at seed 5 some path has each."""
    raw = rich_raw_config(
        stress_trigger={"drawdown_threshold": 0.2, "shrink_target": 0.5},
        monte_carlo={"num_paths": 4, "master_seed": 5},
    )
    raw["treasury"]["sleeve_fraction"] = 0.03
    raw["graph"]["channels"][4].update(
        capacity_msat=200_000_000_000, balance_a_msat=100_000_000_000
    )
    return raw


class TestStartingGraph:
    """Each path runs on its own copy of the graph the config built."""

    def test_paths_in_any_order_match_the_report(self):
        config = config_from_dict(shrinking_raw_config())
        before = graph_state(config._graph)
        report = run_scenario(config)
        months = [m for p in report.paths for m in p.months]
        assert any(m.shrink_fired for m in months)
        assert any(m.rebal_volume_cents for m in months)
        assert graph_state(config._graph) == before
        n = report.num_paths
        assert [run_path(config, i) for i in reversed(range(n))][::-1] == list(report.paths)
        assert run_scenario(config).reconciliation_hash == report.reconciliation_hash

    def test_pool_equals_serial(self):
        config = config_from_dict(shrinking_raw_config())
        serial = run_scenario(config)
        pooled = run_scenario(config, workers=2)
        assert pooled.paths_json == serial.paths_json
        assert pooled.reconciliation_hash == serial.reconciliation_hash

    def test_a_warm_config_pickles_as_a_cold_one(self):
        # The pool's initializer sends the config; its graph's registry of
        # route indexes, filled by a serial run, stays out of the pickle.
        config = config_from_dict(shrinking_raw_config())
        cold = len(pickle.dumps(config))
        serial = run_scenario(config)
        assert config._graph._indexes
        assert len(pickle.dumps(config)) == cold
        pooled = run_scenario(config, workers=2)
        assert pooled.paths_json == serial.paths_json
        assert pooled.reconciliation_hash == serial.reconciliation_hash

    def test_a_second_pass_reuses_the_first_ones_searches(self, monkeypatch):
        config = config_from_dict(rich_raw_config())  # one topology, no shrink
        first = run_scenario(config)
        indexes = config._graph._indexes

        def searches() -> dict:
            return {key: set(index._hops_past_first) for key, index in indexes.items()}

        before = searches()
        assert any(before.values())

        def build(cls, graph):
            raise AssertionError("a route index was built again")

        monkeypatch.setattr(lightning._RouteIndex, "of", classmethod(build))
        assert run_scenario(config).paths_json == first.paths_json
        assert searches() == before

    def test_sixteen_paths_stay_within_the_bounds(self, monkeypatch):
        # Each GBM path's trigger fires in its own months, so the paths
        # reach more topologies than the registry keeps.
        raw = shrinking_raw_config()
        raw["monte_carlo"]["num_paths"] = 16
        config = config_from_dict(raw)
        topologies = set()
        of = lightning._RouteIndex.of.__func__
        monkeypatch.setattr(
            lightning._RouteIndex,
            "of",
            classmethod(lambda cls, g: topologies.add(g._closed) or of(cls, g)),
        )
        report = run_scenario(config)
        fired = {tuple(m.month for m in p.months if m.shrink_fired) for p in report.paths}
        assert len(fired) > 3 and len(topologies) > lightning._INDEXES
        assert len(config._graph._indexes) == lightning._INDEXES
        for index in config._graph._indexes.values():
            labels = sum(len(state[0]) for state in index._hops_past_first.values())
            assert labels <= lightning._HOP_CACHE_ENTRIES
        monkeypatch.undo()
        alone = [run_path(config_from_dict(raw), i) for i in range(16)]
        assert list(report.paths) == alone

    def test_copy_shares_no_channel(self):
        config = config_from_dict(shrinking_raw_config())
        start, copy = config._graph, config._graph.copy()
        assert graph_state(copy) == graph_state(start)
        assert [list(copy.adjacent(n)) for n in sorted(copy.nodes)] == [
            list(start.adjacent(n)) for n in sorted(start.nodes)
        ]
        copy.channels["p1h"].shift("pay1", 1)
        copy.close_channel("hsA")
        copy.add_node("newcomer")
        assert start.channels["p1h"].balance_a_msat == 100_000_000_000
        assert start.channels["hsA"].open
        assert "newcomer" not in start.nodes


class TestPaymentAttempts:
    def test_rail_hub_tiny_tries_each_payment_once(self, monkeypatch):
        # Each rail_hub payer's first route would leave through its sleeve
        # channel, empty on its side, whose id sorts first among equal fees.
        # A sender that knows its own balances never tries it, so each
        # sampled payment is one search and one execution, settled.
        calls = count_attempts(monkeypatch)
        failed = []

        def execute(*args, _call=lightning.execute_payment):
            result = _call(*args)
            if result.status is not lightning.PaymentStatus.SETTLED:
                failed.append(result)
            return result

        monkeypatch.setattr(lightning, "execute_payment", execute)
        config = load_config_file(Path(__file__).parent / "golden/rail_hub_tiny/config.json")
        report = run_scenario(config)
        sampled = sum(m.sampled_tx for p in report.paths for m in p.months)
        assert sampled > 0
        assert calls == {"find_route": sampled, "execute_payment": sampled}
        assert failed == []


class TestReconciliation:
    def test_rail_bookings_match_treasury_exactly(self):
        config = config_from_dict(rich_raw_config())
        tcfg = config.treasury
        for result in run_scenario(config).paths:
            booked = sum(m.rail.net_inflow_cents for m in result.months)
            earned = sum(m.yield_cents for m in result.months)
            out = tcfg.out_monthly_cents * len(result.months)
            assert (
                result.terminal_cash_cents
                == tcfg.cash0_cents + booked + earned - out
            )

    def test_rail_quantities_are_integers(self):
        config = config_from_dict(rich_raw_config())
        result = run_path(config, 0)
        for m in result.months:
            for value in dataclasses.asdict(m.rail).values():
                assert isinstance(value, int)


class TestModuleIntegrationEquivalence:
    def test_no_rail_matches_direct_condition(self):
        for cash0 in (0, 500_000, 2_400_000, 5_000_000):
            raw = empty_raw_config(
                market={"model": "stress", "kind": "linear", "total_drawdown": 0.70},
            )
            raw["treasury"].update(
                {"cash0_cents": cash0, "opex_monthly_cents": 100_000,
                 "horizon_months": 24}
            )
            config = config_from_dict(raw)
            result = run_path(config, 0)
            direct = no_forced_sale(cash0, [0] * 24, [100_000] * 24, "pathwise")
            assert result.survives == direct.survives
            assert result.breach_month == direct.breach_month


class TestSurvivalModes:
    """Both modes book one ledger; only the breach rule differs."""

    @staticmethod
    def _failing_stress_path(mode):
        raw = stress_scenario_raw()
        raw["treasury"].update(
            {"cash0_cents": 1_000, "opex_monthly_cents": 10**9, "survival_mode": mode}
        )
        return run_path(config_from_dict(raw), 0)

    def test_terminal_failure_reports_the_sale_at_the_horizon_price(self):
        result = self._failing_stress_path("terminal")
        assert not result.survives
        assert result.breach_month == 24
        horizon_price = result.months[-1].price_cents
        assert result.required_sale_sats == math.ceil(
            Fraction(-result.terminal_cash_cents * SATS_PER_BTC, horizon_price)
        )

    def test_pathwise_failure_reports_the_sale_at_the_first_breach(self):
        result = self._failing_stress_path("pathwise")
        assert not result.survives
        assert result.breach_month == 1
        assert result.required_sale_sats == 10_300_383_187

    def test_modes_report_the_same_cash_figures(self):
        terminal = self._failing_stress_path("terminal")
        pathwise = self._failing_stress_path("pathwise")
        assert terminal.min_cash_cents == pathwise.min_cash_cents == -23_999_915_028
        assert terminal.terminal_cash_cents == pathwise.terminal_cash_cents
        # Monthly cash is the floored balance; the minimum above is raw.
        assert terminal.months == pathwise.months
        assert all(m.cash_cents == 0 for m in pathwise.months)

    def test_yield_is_computed_once_per_month(self, monkeypatch):
        calls = []
        original = treasury.monthly_yield_cents

        def counting_yield(cash_cents, apy):
            calls.append(cash_cents)
            return original(cash_cents, apy)

        monkeypatch.setattr(treasury, "monthly_yield_cents", counting_yield)
        monkeypatch.setattr(engine, "monthly_yield_cents", counting_yield)
        config = config_from_dict(rich_raw_config())
        run_path(config, 0)
        assert len(calls) == config.treasury.horizon_months


class TestStressTrigger:
    def _config(self, threshold=0.5, target=0.5):
        raw = empty_raw_config(
            market={"model": "stress", "kind": "linear", "total_drawdown": 0.70},
            graph={
                "nodes": ["hub", "a", "b", "c", "d"],
                "hub": "hub",
                "channels": [
                    chan("ha", "hub", "a", 4_000_000, 1_000_000, 0, 0),
                    chan("hb", "hub", "b", 4_000_000, 2_000_000, 0, 0),
                    chan("hc", "hub", "c", 4_000_000, 3_000_000, 0, 0),
                    chan("hd", "hub", "d", 4_000_000, 4_000_000, 0, 0),
                ],
            },
            stress_trigger={"drawdown_threshold": threshold, "shrink_target": target},
        )
        raw["treasury"]["horizon_months"] = 12
        return config_from_dict(raw)

    def test_fires_once_on_monotone_path(self):
        result = run_path(self._config(), 0)
        fired = [m.month for m in result.months if m.shrink_fired]
        # Drawdown 0.7 * t / 12 first reaches 0.5 at month 9.
        assert fired == [9]

    def test_shrinks_to_target_and_frees_hub_balance(self):
        # The shrink rule works on deployed capacity (16M -> 8M means the
        # two smallest-balance channels close), freeing their hub balances.
        result = run_path(self._config(), 0)
        month9 = result.months[8]
        assert month9.freed_msat == 1_000_000 + 2_000_000
        assert month9.sleeve_deployed_msat == 3_000_000 + 4_000_000

    def test_the_stage_fires_holds_rearms_and_fires_again(self):
        graph = self._config()._graph.copy()
        trigger = StressTriggerConfig(drawdown_threshold=0.3, shrink_target=0.75)
        prices = PricePath((100, 60, 50, 100, 120, 80, 60))
        months = list(engine._market(prices, graph, trigger))
        assert [(m, p) for m, p, _, _ in months] == list(enumerate(prices.prices))[1:]
        assert [d for _, _, d, _ in months] == pytest.approx(
            [0.4, 0.5, 0.0, 0.0, 1 / 3, 0.5]
        )
        # Fire at 0.4; hold at 0.5; re-arm on recovery; a new peak; fire
        # again at 1/3; hold. Each shrink closes the smallest-balance hub
        # channel left (16M -> 12M deployed, then 12M -> 8M).
        assert [f for _, _, _, f in months] == [
            1_000_000, None, None, None, 2_000_000, None
        ]
        assert sorted(ch.id for ch in graph.hub_channels()) == ["hc", "hd"]

    def test_the_threshold_itself_fires(self):
        graph = self._config()._graph.copy()
        trigger = StressTriggerConfig(drawdown_threshold=0.5, shrink_target=0.75)
        months = engine._market(PricePath((100, 50, 100, 50)), graph, trigger)
        assert [f for _, _, _, f in months] == [1_000_000, None, 2_000_000]

    def test_disabled_by_default(self):
        raw = empty_raw_config(
            market={"model": "stress", "kind": "linear", "total_drawdown": 0.70}
        )
        raw["treasury"]["horizon_months"] = 12
        result = run_path(config_from_dict(raw), 0)
        assert not any(m.shrink_fired for m in result.months)


class TestSleeveDeployment:
    def test_sleeve_deployed_to_peers(self):
        raw = empty_raw_config()
        raw["treasury"].update({"btc_core_sats": 1_000_000_000, "sleeve_fraction": 0.03})
        raw["graph"] = {
            "nodes": ["hub", "peerA", "peerB"],
            "hub": "hub",
            "channels": [],
        }
        raw["sleeve_peers"] = [["peerA", 3.0], ["peerB", 1.0]]
        config = config_from_dict(raw)
        result = run_path(config, 0)
        # 3% of 10 BTC is 0.3 BTC = 30_000_000_000 msat, split 3:1.
        assert result.months[0].sleeve_deployed_msat == 30_000_000_000

    def test_default_peers_are_non_hub_nodes(self):
        raw = empty_raw_config()
        raw["treasury"].update({"btc_core_sats": 1_000_000, "sleeve_fraction": 0.5})
        raw["graph"] = {"nodes": ["hub", "n1", "n2"], "hub": "hub", "channels": []}
        config = config_from_dict(raw)
        result = run_path(config, 0)
        assert result.months[0].sleeve_deployed_msat == 500_000 * 1_000


def listed_donor_rebalances(graph, policy, seen: dict) -> tuple[int, int]:
    """``engine._run_rebalances`` with the donor picked as first written: list
    the other hub channels holding more than the amount, then take the one
    of largest (balance, id). Counts the cases in ``seen``."""
    if policy.low_watermark <= 0.0:
        return 0, 0
    hub = graph.hub
    cost = 0
    volume = 0
    poor_channels = 0
    for poor in sorted(graph.hub_channels(), key=lambda ch: ch.id):
        bal = poor.balance_from(hub)
        if bal >= policy.low_watermark * poor.capacity_msat:
            continue
        amount = poor.capacity_msat // 2 - bal
        if amount <= 0:
            continue
        poor_channels += 1
        donors = [
            ch
            for ch in graph.hub_channels()
            if ch.id != poor.id and ch.balance_from(hub) > amount
        ]
        others = [ch.balance_from(hub) for ch in graph.hub_channels() if ch is not poor]
        seen["richest_other_at_amount"] += max(others) == amount
        if not donors:
            seen["no_donor"] += 1
            continue
        richest = max(graph.hub_channels(), key=lambda ch: (ch.balance_from(hub), ch.id))
        seen["poor_is_richest"] += richest is poor
        donor = max(donors, key=lambda ch: (ch.balance_from(hub), ch.id))
        seen["tied_donors"] += [ch.balance_from(hub) for ch in donors].count(
            donor.balance_from(hub)
        ) > 1
        fee_cap = floor_bps(amount, policy.max_fee_bps)
        try:
            result = rebalance(graph, donor.id, poor.id, amount, max_fee_msat=fee_cap)
        except RoutingError:
            continue
        if result.settled:
            seen["settled"] += 1
            cost += result.cost_msat
            volume += amount
    seen["several_poor"] += poor_channels > 1
    return cost, volume


class TestRebalancePolicy:
    @staticmethod
    def _hub_graph(rng: random.Random) -> dict:
        """A hub with channels of random size and hub balance to a ring of
        peers, some of them twice, and cheap, deep channels around the ring."""
        peers = [f"p{i}" for i in range(rng.randint(3, 7))]
        channels = []
        fees = rng.choice((0, 1, 1, 1))  # on a free circle a donor needs just the amount

        def channel(cid, a, b, capacity, balance_a):
            policy = lambda: {
                "base_msat": rng.randrange(0, 1_000) * fees,
                "ppm": rng.randrange(0, 2_000) * fees,
            }
            channels.append(
                {
                    "id": cid,
                    "a": a,
                    "b": b,
                    "capacity_msat": capacity,
                    "balance_a_msat": balance_a,
                    "policy_ab": policy(),
                    "policy_ba": policy(),
                }
            )

        for i, peer in enumerate(peers):
            capacity = rng.choice((1, 2, 4, 16)) * rng.randrange(500_000, 1_000_000)
            balance = int(capacity * rng.random() ** 2)
            channel(f"h{i}0", "hub", peer, capacity, balance)
            if rng.random() < 0.3:  # a twin, or a second channel of its own
                if rng.random() < 0.5:
                    capacity = rng.choice((1, 2, 4, 16)) * rng.randrange(500_000, 1_000_000)
                    balance = int(capacity * rng.random() ** 2)
                channel(f"h{i}1", "hub", peer, capacity, balance)
            channel(f"r{i}", peer, peers[i - 1], 20_000_000, 10_000_000)
        if rng.random() < 0.4:  # the richest other channel holds about what one needs
            hub_channels = [ch for ch in channels if ch["a"] == "hub"]
            poor, other = rng.sample(hub_channels, 2)
            poor["balance_a_msat"] = rng.randrange(0, poor["capacity_msat"] // 5)
            amount = poor["capacity_msat"] // 2 - poor["balance_a_msat"]
            for ch in hub_channels:
                if ch is not poor:
                    ch["balance_a_msat"] = min(ch["balance_a_msat"], amount - 1)
            other["capacity_msat"] = max(other["capacity_msat"], amount + 1)
            other["balance_a_msat"] = amount + rng.choice((-1, 0, 0, 1))
        return {"nodes": ["hub", *peers], "hub": "hub", "channels": channels}

    def test_the_donor_matches_the_listed_maximum(self):
        rng = random.Random(41)
        cases = (
            "no_donor",
            "richest_other_at_amount",
            "poor_is_richest",
            "tied_donors",
            "several_poor",
            "settled",
        )
        seen = dict.fromkeys(cases, 0)
        for trial in range(400):
            spec = self._hub_graph(rng)
            g, listed = build_graph(spec), build_graph(spec)
            policy = engine.RebalancePolicyConfig(
                low_watermark=rng.choice((0.2, 0.35, 0.5, 0.5)),
                max_fee_bps=rng.choice((0, 50, 500)),
            )
            got = engine._run_rebalances(g, policy)
            assert got == listed_donor_rebalances(listed, policy, seen), trial
            assert graph_state(g) == graph_state(listed), trial
        assert min(seen.values()) > 25, seen


class TestCoupledMonotonicity:
    def test_doubling_cash_never_lowers_survival(self):
        raw = rich_raw_config()
        raw["treasury"].update({"cash0_cents": 100_000, "opex_monthly_cents": 120_000})
        raw["monte_carlo"] = {"num_paths": 8, "master_seed": 5}
        low = run_scenario(config_from_dict(raw)).survival_probability
        raw2 = rich_raw_config()
        raw2["treasury"].update({"cash0_cents": 200_000, "opex_monthly_cents": 120_000})
        raw2["monte_carlo"] = {"num_paths": 8, "master_seed": 5}
        high = run_scenario(config_from_dict(raw2)).survival_probability
        assert high >= low


class TestKpiMonth:
    def _record(self, **overrides):
        base = dict(
            month=1,
            gmv_cents=0,
            tx_count=0,
            tx_settled=0,
            acquiring_fee_cents=0,
            hedge_spread_cents=0,
            routing_fee_cents=0,
            rebalancing_cost_cents=0,
            sats_back_cents=0,
            variable_cost_cents=0,
        )
        base.update(overrides)
        return month_rail_cashflow(**base)

    def test_empty_month_degenerates(self):
        kpi = kpi_month(self._record(), 0, 10_000)
        assert kpi.gmv_cents == 0
        assert kpi.realized_take_rate_bps == 0.0
        assert kpi.payment_success_rate == 1.0
        assert kpi.routing_revenue_per_100k_tx_cents == 0.0
        assert kpi.rebalancing_cost_bps == 0.0
        assert kpi.opex_coverage_ratio == 0.0

    def test_realized_take_rate(self):
        record = self._record(
            gmv_cents=100_000_000, acquiring_fee_cents=300_000, tx_count=10, tx_settled=10
        )
        assert kpi_month(record, 0, 1).realized_take_rate_bps == pytest.approx(30.0)

    def test_coverage_identity(self):
        record = self._record(acquiring_fee_cents=7_000, hedge_spread_cents=2_000,
                              routing_fee_cents=1_000)
        assert kpi_month(record, 0, 10_000).opex_coverage_ratio == 1.0

    def test_zero_opex_sentinel(self):
        assert math.isinf(kpi_month(self._record(), 0, 0).opex_coverage_ratio)

    def test_rebal_bps(self):
        record = self._record(rebalancing_cost_cents=50)
        assert kpi_month(record, 100_000, 1).rebalancing_cost_bps == pytest.approx(5.0)

    def test_routing_revenue_per_100k(self):
        record = self._record(tx_count=200, tx_settled=150, routing_fee_cents=30)
        kpi = kpi_month(record, 0, 1)
        assert kpi.routing_revenue_per_100k_tx_cents == pytest.approx(15_000.0)
        assert kpi.payment_success_rate == pytest.approx(0.75)


class TestConfigValidation:
    def test_missing_treasury(self):
        with pytest.raises(ConfigError, match="treasury"):
            config_from_dict({"market": {"model": "gbm"}})

    def test_bad_market_model(self):
        raw = empty_raw_config(market={"model": "jump"})
        with pytest.raises(ConfigError, match="market.model"):
            config_from_dict(raw)

    def test_horizon_mismatch(self):
        raw = empty_raw_config(
            market={"model": "gbm", "mu": 0.0, "sigma": 0.0, "horizon_months": 7}
        )
        with pytest.raises(ConfigError, match="market.horizon_months"):
            config_from_dict(raw)

    def test_merchant_not_in_graph(self):
        raw = empty_raw_config(
            merchants=[{"id": "ghost", "monthly_gmv_cents": 1, "take_rate_bps": 1}]
        )
        with pytest.raises(ConfigError, match="merchants"):
            config_from_dict(raw)

    def test_missing_start_price(self):
        raw = empty_raw_config()
        del raw["start_price_cents"]
        with pytest.raises(ConfigError, match="start_price_cents"):
            config_from_dict(raw)

    def test_missing_graph(self):
        raw = empty_raw_config()
        del raw["graph"]
        with pytest.raises(ConfigError, match="graph"):
            config_from_dict(raw)

    def test_graph_path_resolution(self, tmp_path):
        graph = {"nodes": ["hub"], "hub": "hub", "channels": []}
        (tmp_path / "graph.json").write_text(json.dumps(graph))
        raw = empty_raw_config()
        del raw["graph"]
        raw["graph_path"] = "graph.json"
        (tmp_path / "scenario.json").write_text(json.dumps(raw))
        config = load_config_file(tmp_path / "scenario.json")
        assert config.graph_spec == graph

    @pytest.mark.parametrize("name", sorted(BAD_SLEEVES))
    def test_a_sleeve_the_graph_rejects_is_a_config_error(self, name):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(bad_sleeve_raw(rich_raw_config(), name))
        assert exc.value.key == "sleeve_peers"
        assert BAD_SLEEVES[name][3] in exc.value.message

    def test_merchants_path_resolution(self, tmp_path):
        roster = [
            {"id": "shop", "monthly_gmv_cents": 1_000, "take_rate_bps": 20}
        ]
        (tmp_path / "merchants.json").write_text(json.dumps(roster))
        raw = empty_raw_config(
            graph={"nodes": ["hub", "shop"], "hub": "hub", "channels": []}
        )
        del raw["merchants"]
        raw["merchants_path"] = "merchants.json"
        (tmp_path / "scenario.json").write_text(json.dumps(raw))
        config = load_config_file(tmp_path / "scenario.json")
        assert [m.id for m in config.merchants] == ["shop"]
        assert config.merchants[0].take_rate_bps == 20


def _bench_module(name: str):
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_workload(name: str) -> dict:
    """The tiny size of a benchmark workload, at a fixed seed."""
    return getattr(_bench_module("workloads"), name)(3, "tiny")


# Sites whose module imports the function only so that the tracer can wrap
# it there: none of the module's own code calls it.
TRACER_ONLY_IMPORTS = {
    "engine.monthly_yield_cents",
    "engine.no_forced_sale",
    "lightning.canonical_json",
}


def _looked_up_names(module) -> set[str]:
    """Every name that the code inside the module's functions and classes
    looks up (the module body's own imports left out)."""
    code = compile(Path(module.__file__).read_text(encoding="utf-8"), "", "exec")
    todo = [c for c in code.co_consts if isinstance(c, types.CodeType)]
    names: set[str] = set()
    while todo:
        code = todo.pop()
        names.update(code.co_names)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def test_every_bench_tracer_site_resolves():
    # The tracer wraps these attributes by name; a missing one breaks
    # `bench/run.py --trace 1` before any workload runs.
    sites = [site for group in _bench_module("tracer").SITES.values() for site in group]
    assert sites
    for site in sites:
        module_name, attr = site.split(".")
        module = importlib.import_module(f"satsrail.{module_name}")
        function = getattr(module, attr, None)
        assert callable(function), site
        # A wrapper on an imported name sees only the calls that look the
        # name up in that module when they run: a call through a local
        # alias or a default argument bypasses it.
        if function.__module__ != module.__name__ and site not in TRACER_ONLY_IMPORTS:
            assert attr in _looked_up_names(module), site


# Installs bench/tracer.py's Tracer for the rest of its process, runs the
# tiny mesh_stress workload through the report functions the bench child
# calls, twice, and prints each span's name with its parent's name.
TRACED_RUN = """
import json, sys

sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
import workloads
from satsrail import engine

tracer = Tracer()
tracer.install()
report = engine.run_scenario(engine.config_from_dict(workloads.mesh_stress(7, "tiny")))
for _ in range(2):
    engine.write_report_json(report, sys.argv[3] + "/report.json")
    engine.write_report_csv(report, sys.argv[3] + "/report.csv")
spans = tracer.spans
print(json.dumps([[name, parent >= 0 and spans[parent][0]] for name, _, _, parent, _ in spans]))
"""


def test_the_bench_tracer_sees_one_canonical_json_per_report_write(tmp_path):
    # In a fresh interpreter: the tracer rewraps the modules for good.
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "src"), str(root / "bench"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    spans = json.loads(run.stdout)
    names = {name for name, _ in spans}
    # The layers bench/test_bench.py::test_spans_nest requires.
    for layer in ("lightning.find_route", "lightning.rebalance", "lightning.shrink_sleeve",
                  "treasury.sleeve_var", "util.canonical_json", "engine.run_path"):
        assert layer in names
    encodes = [parent for name, parent in spans if name == "util.canonical_json"]
    assert encodes == ["engine.write_report_json"] * 2


class TestConfigSchema:
    @pytest.mark.parametrize("dotted, value, key", MALFORMED_CONFIGS)
    def test_malformed_value_names_the_dotted_key(self, dotted, value, key):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(set_key(rich_raw_config(), dotted, value))
        assert exc.value.key == key

    @pytest.mark.parametrize(
        "raw",
        [rich_raw_config, empty_raw_config, stress_scenario_raw]
        + [
            lambda name=name: _bench_workload(name)
            for name in ("rail_hub", "mesh_stress", "many_paths")
        ],
        ids=["rich", "empty", "stress", "rail_hub", "mesh_stress", "many_paths"],
    )
    def test_echo_parses_back_to_the_same_config(self, raw):
        config = config_from_dict(raw())
        echo = json.loads(canonical_json(config.to_dict()))
        assert config_from_dict(echo) == config
        assert config_from_dict(echo).to_dict() == echo

    def test_omitted_keys_take_the_dataclass_defaults(self):
        graph = {"nodes": ["hub", "shop"], "hub": "hub", "channels": []}
        raw = {
            "treasury": {"btc_core_sats": 1, "cash0_cents": 2, "opex_monthly_cents": 3},
            "market": {"model": "gbm"},
            "start_price_cents": START_PRICE,
            "graph": graph,
        }
        assert config_from_dict(raw) == ScenarioConfig(
            TreasuryConfig(1, 2, 3), GbmParams(0.0, 0.0, 24), START_PRICE, graph
        )
        raw["merchants"] = [{"id": "shop", "monthly_gmv_cents": 4, "take_rate_bps": 5}]
        assert config_from_dict(raw).merchants == (Merchant("shop", 4, 5),)

    def test_a_schema_exception_must_name_a_field(self):
        @dataclasses.dataclass(frozen=True)
        class Probe:
            count: int = 0

        with pytest.raises(TypeError, match="Probe has no field 'cuont'"):
            engine._Section(Probe, engine._Key("cuont", int, 0))
        with pytest.raises(TypeError, match="FeePolicy has two sections"):
            engine._Section(FeePolicy)

    def test_readme_defaults_are_the_echo(self):
        # Every `"key": value // default...` line of README's schema block
        # must read as the echo of a config that gives only required keys.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        raw = {
            "treasury": {"btc_core_sats": 1, "cash0_cents": 2, "opex_monthly_cents": 3},
            "market": {"model": "gbm"},
            "start_price_cents": START_PRICE,
            "graph": {"nodes": ["hub", "shop"], "hub": "hub", "channels": []},
            "merchants": [{"id": "shop", "monthly_gmv_cents": 4, "take_rate_bps": 5}],
        }
        echo = config_from_dict(raw).to_dict()
        echo["merchants"] = echo["merchants"][0]
        section, checked = None, []
        for line in block.splitlines():
            opens = re.fullmatch(r'  "(\w+)": [{\[]', line)
            if opens or re.match(r'  "', line):
                section = opens and opens[1]
            default = re.match(
                r'\s*"(\w+)": (\{.*\}|[^,{}]+?)\s*}?,?\s*// defaults?\b', line
            )
            if default:
                key, value = default.groups()
                scope = echo if section is None else echo[section]
                assert scope[key] == json.loads(value), line
                checked.append(key)
        assert len(checked) >= 22, checked

    @pytest.mark.parametrize(
        "policy",
        [{"ppm": "5"}, {"fee": 0}, {"base_msat": -1}, {}],
        ids=["string-ppm", "unknown-key", "negative-base", "empty"],
    )
    def test_a_fee_policy_reads_alike_at_the_top_and_in_a_channel(self, policy):
        def outcome(dotted: str, key: str):
            raw = set_key(rich_raw_config(), dotted, json.loads(json.dumps(policy)))
            try:
                config = config_from_dict(raw)
            except ConfigError as exc:
                assert exc.key.startswith(key)
                return exc.key[len(key):], exc.message
            if dotted == "hub_fee_policy":
                return config.hub_fee_policy
            return config._graph.channels["p1h"].policy_ab

        top = outcome("hub_fee_policy", "hub_fee_policy")
        assert top == outcome("graph.channels.0.policy_ab", "graph.channels[0].policy_ab")
        if not policy:
            assert top == FeePolicy(0, 0)

    @pytest.mark.parametrize("seed", [2**127 - 1, -(2**127)])
    def test_the_widest_seeds_run(self, seed):
        raw = rich_raw_config(monte_carlo={"num_paths": 1, "master_seed": seed})
        raw["treasury"]["horizon_months"] = 1
        assert run_scenario(config_from_dict(raw)).master_seed == seed

    def test_ints_pass_for_floats_and_integral_numbers_for_ints(self):
        raw = rich_raw_config(sleeve_peers=[["pay1", 2]])
        raw["treasury"].update(horizon_months=6.0, sleeve_fraction=0)
        config = config_from_dict(raw)
        assert config.sleeve_peers == (("pay1", 2.0),)
        assert type(config.treasury.horizon_months) is int
        assert type(config.treasury.sleeve_fraction) is float


# Configs whose written report must equal the reference formula's bytes.
ORACLE_CONFIGS = {
    "rich": rich_raw_config,
    "zero_opex": empty_raw_config,  # every coverage is the inf sentinel
    "cli_stress": stress_scenario_raw,
    "one_path": lambda: rich_raw_config(monte_carlo={"num_paths": 1, "master_seed": 4}),
    "odd_ids": odd_ids_raw_config,
    "one_month": lambda: set_key(rich_raw_config(), "treasury.horizon_months", 1),
    # Every path breaches at the horizon and must sell core BTC.
    "terminal_breach": lambda: rich_raw_config(
        treasury={
            **rich_raw_config()["treasury"],
            "opex_monthly_cents": 10**7,
            "survival_mode": "terminal",
        }
    ),
}


class TestReportBytes:
    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers2"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_written_report_equals_the_reference(self, name, workers, tmp_path):
        report = run_scenario(config_from_dict(ORACLE_CONFIGS[name]()), workers=workers)
        out = tmp_path / "report.json"
        write_report_json(report, out)
        text, digest = legacy_report_text(report)
        assert report.reconciliation_hash == digest
        assert out.read_bytes() == text.encode("utf-8")
        assert canonical_json(report_to_dict(report)) == text
        # The hash re-derives from the written file alone.
        paths = json.loads(out.read_text(encoding="utf-8"))["paths"]
        rederived = hashlib.sha256(stdlib_canonical_json(paths).encode("utf-8"))
        assert rederived.hexdigest() == report.reconciliation_hash

    def test_odd_ids_reach_the_report(self):
        report = run_scenario(config_from_dict(odd_ids_raw_config()))
        merchants = [m["id"] for m in report_to_dict(report)["config"]["merchants"]]
        assert merchants == ["paths", 'q"uo\\te']
        assert "caf\u00e9-\u03a9" in report.config_echo["graph"]["nodes"]


# Path record scalars: ints that are negative, beyond 2**64 or bools, and
# floats of every form the encoders must agree on, the infinities included.
ANY_INT = st.one_of(
    st.integers(-(2**70), 2**70), st.sampled_from([-1, 2**64 + 1]), st.booleans()
)
COUNT = st.one_of(st.integers(0, 2**70), st.booleans())
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 1e-05, 5e-324, 1e16]),
)
FINITE_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 5e-324, 1e16]),
)
RAIL_RECORDS = st.builds(  # settled never exceeds attempted
    lambda month, n: month_rail_cashflow(month, n[0], max(n[1:3]), min(n[1:3]), *n[3:]),
    ANY_INT,
    st.lists(COUNT, min_size=9, max_size=9),
)


def records(floats):
    """``(months, paths)`` strategies whose float fields draw from ``floats``."""
    kpis = st.builds(KpiMonth, ANY_INT, ANY_INT, *[floats] * 6)
    months = st.builds(
        MonthResult,
        month=ANY_INT,
        price_cents=ANY_INT,
        drawdown=floats,
        shrink_fired=st.booleans(),
        freed_msat=ANY_INT,
        sampled_tx=ANY_INT,
        rail=RAIL_RECORDS,
        kpi=kpis,
        rebal_volume_cents=ANY_INT,
        yield_cents=ANY_INT,
        cash_cents=ANY_INT,
        sleeve_deployed_msat=ANY_INT,
        var=st.builds(VarCheck, ANY_INT, ANY_INT, st.booleans(), ANY_INT),
    )
    paths = st.builds(
        PathResult,
        path_index=ANY_INT,
        survives=st.booleans(),
        breach_month=st.none() | ANY_INT,
        min_cash_cents=ANY_INT,
        terminal_cash_cents=ANY_INT,
        required_sale_sats=st.none() | ANY_INT,
        months=st.lists(months, max_size=30).map(tuple),
        kpi_aggregate=kpis.map(
            lambda kpi: {k: v for k, v in dataclasses.asdict(kpi).items() if k != "month"}
        ),
    )
    return months, paths


MONTHS, PATHS = records(ANY_FLOAT)
FINITE_MONTHS, FINITE_PATHS = records(FINITE_FLOAT)


def stdlib_paths_json(paths) -> str:
    """The ``paths`` text by the reference formula."""
    return stdlib_canonical_json([_sanitize(dataclasses.asdict(p)) for p in paths])


def engine_paths_json(paths) -> str:
    return "[\n  " + ",\n  ".join(map(engine._path_json, paths)) + "\n]\n"


class TestPathEncoding:
    @given(PATHS)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_stdlib_formula(self, path):
        assert engine_paths_json([path]) == stdlib_paths_json([path])

    def test_matches_without_the_c_accelerator(self, monkeypatch):
        paths = run_scenario(config_from_dict(empty_raw_config())).paths
        paths += run_scenario(config_from_dict(rich_raw_config())).paths
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert engine_paths_json(paths) == stdlib_paths_json(paths)

    @given(st.one_of(FINITE_MONTHS, FINITE_PATHS, st.lists(FINITE_MONTHS, max_size=30)))
    @settings(max_examples=150, deadline=None)
    def test_a_record_reads_as_its_asdict(self, record):
        if isinstance(record, list):
            expected = stdlib_canonical_json(list(map(dataclasses.asdict, record)))
        else:
            expected = stdlib_canonical_json(dataclasses.asdict(record))
        assert canonical_json(record) == expected
        pieces: list[str] = []
        with piece_bound(4_000):  # a list of months goes in runs of a few
            canonical_json(record, pieces.append)
        assert "".join(pieces) == expected

    @pytest.mark.parametrize("field", ["drawdown", "kpi", "kpi_aggregate"])
    def test_nan_raises_value_error_in_both_encoders(self, field):
        path = run_path(config_from_dict(rich_raw_config()), 0)
        month = path.months[0]
        if field == "drawdown":
            month = dataclasses.replace(month, drawdown=math.nan)
        elif field == "kpi":
            kpi = dataclasses.replace(month.kpi, payment_success_rate=math.nan)
            month = dataclasses.replace(month, kpi=kpi)
        else:
            path = dataclasses.replace(
                path, kpi_aggregate={**path.kpi_aggregate, "gmv_cents": math.nan}
            )
        path = dataclasses.replace(path, months=(month, *path.months[1:]))
        for encode in (engine_paths_json, stdlib_paths_json):
            with pytest.raises(ValueError):
                encode([path])

    @pytest.mark.parametrize(
        "misfit, may_raise",
        [
            (lambda p: dataclasses.replace(p, breach_month=(1,)), False),
            (lambda p: dataclasses.replace(p, breach_month=[]), False),
            (lambda p: with_aggregate(p, gmv_cents={"k": 1}), False),
            (lambda p: with_aggregate(p, gmv_cents={}), False),
            (lambda p: with_aggregate(p, extra=1), False),
            (lambda p: with_aggregate(p, gmv_cents=None), False),
            (lambda p: with_month(p, drawdown=(1,)), True),
            (lambda p: with_month(p, drawdown=[math.inf, {"k": ()}]), True),
            (lambda p: with_month(p, var={}), True),
            (lambda p: with_month(p, var=None), True),
            (lambda p: with_month(p, var=p.months[0].kpi), True),
            (lambda p: with_month(p, -1, drawdown=(1,)), True),
            (lambda p: with_month(p, -1, drawdown=[math.inf, {"k": ()}]), True),
            (lambda p: with_month(p, -1, var={}), True),
            (lambda p: with_month(p, -1, var=None), True),
            (lambda p: with_month(p, -1, var=p.months[0].kpi), True),
        ],
        ids=[
            "one-tuple",
            "empty-list",
            "one-dict",
            "empty-dict",
            "extra-key",
            "missing-key",
            "month-one-tuple",
            "month-nested-list",
            "month-dict-record",
            "month-null-record",
            "month-other-record",
            "last-month-one-tuple",
            "last-month-nested-list",
            "last-month-dict-record",
            "last-month-null-record",
            "last-month-other-record",
        ],
    )
    def test_a_path_that_does_not_fit_its_template_raises(self, misfit, may_raise):
        # A value that breaks its annotation reads as the stdlib formula
        # reads it. Only inside a record whose fields are all scalars or
        # such records may it raise instead; never compact text, a dropped
        # value or another error.
        path = misfit(run_path(config_from_dict(rich_raw_config()), 0))
        expected = stdlib_paths_json([path])
        try:
            text = engine_paths_json([path])
        except (TypeError, ValueError):
            assert may_raise
        else:
            assert text == expected


def with_month(path: PathResult, at: int = 0, **edits) -> PathResult:
    """``path`` with the fields of its month at index ``at`` edited."""
    months = list(path.months)
    months[at] = dataclasses.replace(months[at], **edits)
    return dataclasses.replace(path, months=tuple(months))


def with_aggregate(path: PathResult, **edits) -> PathResult:
    """``path`` with its aggregate's keys edited; a None value drops the key."""
    aggregate = {**path.kpi_aggregate, **edits}
    aggregate = {k: v for k, v in aggregate.items() if v is not None}
    return dataclasses.replace(path, kpi_aggregate=aggregate)


def wide_graph_raw_config(channels: int) -> dict:
    """``rich_raw_config``, one path, with ``channels`` more closed channels:
    a report whose config echo is most of it."""
    raw = rich_raw_config(monte_carlo={"num_paths": 1, "master_seed": 5})
    nodes = raw["graph"]["nodes"]
    raw["graph"]["channels"] += [
        {**chan(f"x{i:05d}", nodes[i % 5], nodes[(i + 1) % 5], 10**9 + i, i), "open": False}
        for i in range(channels)
    ]
    return raw


def many_paths_raw_config(paths: int) -> dict:
    """``empty_raw_config`` over ``paths`` paths of 12 months: a report whose
    paths are most of it."""
    raw = empty_raw_config(monte_carlo={"num_paths": paths, "master_seed": 5})
    raw["treasury"]["horizon_months"] = 12
    return raw


class TestReportMemory:
    """A report write holds one bounded piece at a time, not the report."""

    @staticmethod
    def _peak(write, report, out: Path) -> int:
        write(report, out)  # fills the layout caches, which outlive a write
        tracemalloc.start()
        try:
            write(report, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "raw",
        [wide_graph_raw_config(5_000), many_paths_raw_config(200)],
        ids=["5k-channels", "200-paths"],
    )
    def test_the_json_write_peaks_far_below_the_file(self, raw, tmp_path):
        report = run_scenario(config_from_dict(raw))
        out = tmp_path / "report.json"
        peak = self._peak(write_report_json, report, out)
        assert out.stat().st_size > 1_000_000
        assert peak < out.stat().st_size / 4
        assert out.read_bytes() == legacy_report_text(report)[0].encode("utf-8")

    def test_the_csv_write_peaks_far_below_the_file(self, tmp_path):
        report = run_scenario(config_from_dict(many_paths_raw_config(200)))
        out = tmp_path / "report.csv"
        peak = self._peak(write_report_csv, report, out)
        assert peak < out.stat().st_size / 4
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 200 * 12


class TestReports:
    def test_json_report_written_and_deterministic(self, tmp_path):
        config = config_from_dict(rich_raw_config())
        report = run_scenario(config)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        write_report_json(report, out1)
        write_report_json(run_scenario(config), out2)
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["survival_probability"] == report.survival_probability
        assert payload["config"]["payment_cap_per_month"] == 40

    def test_csv_report_shape(self, tmp_path):
        config = config_from_dict(rich_raw_config())
        report = run_scenario(config)
        out = tmp_path / "series.csv"
        write_report_csv(report, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("path,month,price,cash,gmv,success_rate,coverage")
        assert len(lines) == 1 + 3 * 6  # header + paths * months

    def test_zero_opex_sentinel_serialized(self, tmp_path):
        config = config_from_dict(empty_raw_config())
        report = run_scenario(config)
        out = tmp_path / "r.json"
        write_report_json(report, out)
        assert "uncovered-by-zero-opex" in out.read_text()

    def test_survival_probability_exact(self):
        config = config_from_dict(rich_raw_config())
        report = run_scenario(config)
        assert report.survival_probability == report.surviving_paths / report.num_paths

    def test_a_config_builds_one_graph_and_its_paths_none(self, monkeypatch):
        builds = []

        def counting_build_graph(spec, key=""):
            builds.append(key)
            return build_graph(spec, key)

        monkeypatch.setattr(engine, "build_graph", counting_build_graph)
        config = config_from_dict(rich_raw_config())
        assert builds == ["graph"]
        builds.clear()
        run_scenario(config)
        run_path(config, 0)
        assert builds == []

    def test_replace_checks_the_new_config(self):
        config = config_from_dict(rich_raw_config())
        with pytest.raises(ConfigError, match="start_price_cents"):
            dataclasses.replace(config, start_price_cents=0)

    def test_single_path_report_wraps_run_path(self):
        raw = rich_raw_config(
            market={"model": "stress", "kind": "linear", "total_drawdown": 0.5}
        )
        raw["monte_carlo"] = {"num_paths": 1, "master_seed": 3}
        config = config_from_dict(raw)
        report = run_scenario(config)
        assert report.num_paths == 1
        assert report.paths == (run_path(config, 0),)
