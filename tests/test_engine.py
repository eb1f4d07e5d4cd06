"""Engine tests: per-path loop, Monte Carlo rollup, KPIs, reports."""

import dataclasses
import hashlib
import importlib
import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    MALFORMED_CONFIGS,
    legacy_report_text,
    set_key,
    stdlib_canonical_json,
    stress_scenario_raw,
)
from satsrail import engine, treasury
from satsrail.engine import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    kpi_month,
    load_config_file,
    report_to_dict,
    run_path,
    run_scenario,
    write_report_csv,
    write_report_json,
)
from satsrail.lightning import FeePolicy, build_graph
from satsrail.market import GbmParams
from satsrail.money import SATS_PER_BTC
from satsrail.rail import Merchant, month_rail_cashflow
from satsrail.treasury import TreasuryConfig
from satsrail.treasury import no_forced_sale
from satsrail.util import canonical_json

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


def test_every_bench_tracer_site_resolves():
    # The tracer wraps these attributes by name; a missing one breaks
    # `bench/run.py --trace 1` before any workload runs.
    sites = [site for group in _bench_module("tracer").SITES.values() for site in group]
    assert sites
    for site in sites:
        module_name, attr = site.split(".")
        module = importlib.import_module(f"satsrail.{module_name}")
        assert callable(getattr(module, attr, None)), site


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

    def test_serial_scenario_builds_one_graph_per_path(self, monkeypatch):
        from satsrail import engine

        config = config_from_dict(rich_raw_config())
        builds = []

        def counting_build_graph(spec):
            builds.append(spec)
            return build_graph(spec)

        monkeypatch.setattr(engine, "build_graph", counting_build_graph)
        report = run_scenario(config)
        assert len(builds) == report.num_paths  # path 0 validates; no extra build
        builds.clear()
        run_path(config, 0)
        assert len(builds) == 1  # validation's graph is the one the path runs on

    def test_run_path_rejects_an_invalid_config(self):
        config = dataclasses.replace(
            config_from_dict(rich_raw_config()), start_price_cents=0
        )
        with pytest.raises(ConfigError, match="start_price_cents"):
            run_path(config, 0)
        with pytest.raises(ConfigError, match="start_price_cents"):
            run_scenario(config)

    def test_single_path_report_wraps_run_path(self):
        raw = rich_raw_config(
            market={"model": "stress", "kind": "linear", "total_drawdown": 0.5}
        )
        raw["monte_carlo"] = {"num_paths": 1, "master_seed": 3}
        config = config_from_dict(raw)
        report = run_scenario(config)
        assert report.num_paths == 1
        assert report.paths == (run_path(config, 0),)
