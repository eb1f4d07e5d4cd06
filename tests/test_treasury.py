"""Treasury tests: analytics, survival condition, VaR, monthly stepping."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOLDINGS_FIXTURE
from satsrail.money import SATS_PER_BTC
from satsrail.treasury import (
    SURVIVAL_MODES,
    HoldingsCsvError,
    SurvivalVerdict,
    TreasuryConfig,
    btc_per_share,
    initial_state,
    load_holdings_csv,
    mnav,
    monthly_yield_cents,
    no_forced_sale,
    sleeve_var,
    step_treasury,
    var_cap_check,
)

IMPLIED_PRICE_CENTS = 11_030_000  # $110,300, derived from the MSTR row

# Published NAV multiples for the bundled top-10 snapshot.
EXPECTED_MNAV = {
    "MSTR": 1.095,
    "CEP": 1.020,
    "MTPLF": 1.077,
    "CEPO": 0.065,
    "BLSH": 2.136,
    "DJT": 2.227,
    "CLSK": 3.486,
    "TSLA": 1159.877,
    "GDC": 0.090,
    "CANG": 0.979,
}


class TestMnav:
    def test_identity(self):
        assert mnav(11_030_000, 1.0, 11_030_000) == pytest.approx(1.0)

    def test_largest_holder_row(self):
        value = mnav(7_739_500_000_000, 640_808, IMPLIED_PRICE_CENTS)
        assert value == pytest.approx(1.095, abs=0.005)

    def test_implied_price_reproduces_all_rows(self):
        # Implied-price oracle: one price derived from the biggest row must
        # reproduce every published multiple within 1%.
        rows = load_holdings_csv(HOLDINGS_FIXTURE)
        assert len(rows) == 10
        for row in rows:
            got = mnav(row.mkt_cap_cents, row.btc_held, IMPLIED_PRICE_CENTS)
            expected = EXPECTED_MNAV[row.ticker]
            assert abs(got - expected) / expected < 0.01, row.ticker

    def test_homogeneity_in_cap_and_price(self):
        base = mnav(5_000_000, 3.5, 700_000)
        assert mnav(7 * 5_000_000, 3.5, 7 * 700_000) == pytest.approx(base, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mnav(1, 0.0, 1)
        with pytest.raises(ValueError):
            mnav(1, 1.0, 0)
        with pytest.raises(ValueError):
            mnav(-1, 1.0, 1)
        for btc_held in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                mnav(1, btc_held, 1)
            with pytest.raises(ValueError, match="positive and finite"):
                btc_per_share(btc_held, 1)


class TestBtcPerShare:
    def test_identity(self):
        assert btc_per_share(100.0, 100) == 1.0

    def test_largest_holder_row(self):
        assert btc_per_share(640_808, 287_170_000) == pytest.approx(
            0.00223146, rel=1e-5
        )

    def test_halving_shares_doubles(self):
        assert btc_per_share(10.0, 50) == 2 * btc_per_share(10.0, 100)

    def test_zero_shares(self):
        with pytest.raises(ValueError):
            btc_per_share(1.0, 0)


class TestNoForcedSale:
    def test_equality_boundary_survives_both_modes(self):
        inflows = [100, 100, 100]
        outflows = [100, 100, 100]
        for mode in ("terminal", "pathwise"):
            verdict = no_forced_sale(0, inflows, outflows, mode)
            assert verdict.survives
            assert verdict.breach_month is None
            assert verdict.terminal_cash_cents == 0

    def test_mode_gap_example(self):
        # Terminal passes on totals; pathwise breaches at month 1.
        terminal = no_forced_sale(100, [0, 200], [150, 0], "terminal")
        assert terminal.survives
        pathwise = no_forced_sale(100, [0, 200], [150, 0], "pathwise")
        assert not pathwise.survives
        assert pathwise.breach_month == 1
        assert pathwise.min_cash_cents == -50
        assert pathwise.terminal_cash_cents == 150

    def test_terminal_failure_reports_horizon(self):
        verdict = no_forced_sale(10, [0, 0], [20, 20], "terminal")
        assert not verdict.survives
        assert verdict.breach_month == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            no_forced_sale(0, [1], [1, 2])

    @given(
        cash0=st.integers(0, 10**9),
        flows=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=24,
        ),
        bump=st.integers(1, 10**6),
        mode=st.sampled_from(["terminal", "pathwise"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_cash_and_inflows(self, cash0, flows, bump, mode):
        inflows = [f[0] for f in flows]
        outflows = [f[1] for f in flows]
        base = no_forced_sale(cash0, inflows, outflows, mode)
        richer = no_forced_sale(cash0 + bump, inflows, outflows, mode)
        if base.survives:
            assert richer.survives
        k = len(inflows) // 2
        boosted = list(inflows)
        boosted[k] += bump
        boosted_verdict = no_forced_sale(cash0, boosted, outflows, mode)
        if base.survives:
            assert boosted_verdict.survives

    @given(
        cash0=st.integers(0, 10**6),
        flows=st.lists(
            st.tuples(st.integers(0, 10**5), st.integers(0, 10**5)),
            min_size=1,
            max_size=18,
        ),
        scale=st.integers(1, 1000),
        mode=st.sampled_from(["terminal", "pathwise"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_currency_rescaling_invariance(self, cash0, flows, scale, mode):
        inflows = [f[0] for f in flows]
        outflows = [f[1] for f in flows]
        base = no_forced_sale(cash0, inflows, outflows, mode)
        scaled = no_forced_sale(
            cash0 * scale,
            [x * scale for x in inflows],
            [x * scale for x in outflows],
            mode,
        )
        assert base.survives == scaled.survives
        assert base.breach_month == scaled.breach_month

    @given(
        cash0=st.integers(0, 10**8),
        flows=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=24,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_pathwise_implies_terminal(self, cash0, flows):
        inflows = [f[0] for f in flows]
        outflows = [f[1] for f in flows]
        pathwise = no_forced_sale(cash0, inflows, outflows, "pathwise")
        terminal = no_forced_sale(cash0, inflows, outflows, "terminal")
        if pathwise.survives:
            assert terminal.survives


class TestSleeveVar:
    def test_zero_sigma(self):
        assert sleeve_var(100_000_000, 0.0, 0.99) == 0

    def test_closed_form_frozen_value(self):
        # 1e8 cents * (1 - exp(-2.32635 * 0.2)) = 37_203_420 cents.
        assert sleeve_var(100_000_000, 0.20, 0.99) == 37_203_420

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal(200_000)
        losses = 100_000_000 * (1.0 - np.exp(0.2 * z))
        empirical = float(np.quantile(losses, 0.99))
        assert abs(sleeve_var(100_000_000, 0.20, 0.99) - empirical) / empirical < 0.01

    def test_monotone_in_sigma_and_alpha(self):
        v = sleeve_var
        assert v(10**8, 0.3, 0.99) > v(10**8, 0.2, 0.99) > v(10**8, 0.1, 0.99)
        assert v(10**8, 0.2, 0.995) > v(10**8, 0.2, 0.99) > v(10**8, 0.2, 0.95)

    def test_alpha_range(self):
        for alpha in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                sleeve_var(1_000, 0.2, alpha)

    def test_package_import_loads_no_scipy(self):
        # The quantile comes from the standard library; importing scipy.stats
        # would cost about a second of start-up per process.
        code = (
            "import sys, satsrail.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        src = Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_cap_check(self):
        check = var_cap_check(37_203_420, 200_000_000, 0.20)
        assert check.cap_cents == 40_000_000
        assert check.passed
        assert check.headroom_cents == 2_796_580
        assert not var_cap_check(50_000_000, 200_000_000, 0.20).passed


def config(**overrides):
    defaults = dict(
        btc_core_sats=0,
        cash0_cents=0,
        opex_monthly_cents=0,
        horizon_months=24,
        sleeve_fraction=0.0,
    )
    defaults.update(overrides)
    return TreasuryConfig(**defaults)


class TestStepTreasury:
    def test_no_flows_no_change(self):
        cfg = config(cash0_cents=500)
        state = initial_state(cfg)
        assert step_treasury(state, cfg, 10_000_000, 0) == 0
        assert state.month == 1
        assert state.cash_cents == state.balance_cents == 500
        assert state.breach_month is None

    def test_breach_records_required_sale(self):
        # Shortfall 50 cents at $100,000/BTC needs ceil(50e8 / 1e7) = 500 sats.
        cfg = config(cash0_cents=100, opex_monthly_cents=150)
        state = initial_state(cfg)
        step_treasury(state, cfg, 10_000_000, 0)
        assert state.breach_month == 1
        assert state.required_sale_sats == 500
        assert state.cash_cents == 0
        assert state.balance_cents == state.min_cash_cents == -50

    def test_first_breach_only_recorded(self):
        cfg = config(cash0_cents=0, opex_monthly_cents=100)
        state = initial_state(cfg)
        step_treasury(state, cfg, 10_000_000, 0)
        first_sale = state.required_sale_sats
        step_treasury(state, cfg, 20_000_000, 0)
        assert state.breach_month == 1
        assert state.required_sale_sats == first_sale

    def test_terminal_breach_is_valued_at_the_horizon(self):
        # Raw balance -100, -200, -300: no breach before the horizon, then
        # ceil(300e8 / 7e6) = 4286 sats at the horizon price.
        cfg = config(cash0_cents=0, opex_monthly_cents=100, horizon_months=3,
                     survival_mode="terminal")
        state = initial_state(cfg)
        for price in (10_000_000, 9_000_000):
            step_treasury(state, cfg, price, 0)
            assert state.breach_month is None
        step_treasury(state, cfg, 7_000_000, 0)
        assert state.breach_month == 3
        assert state.required_sale_sats == 4_286
        assert state.cash_cents == 0
        assert state.balance_cents == state.min_cash_cents == -300

    def test_terminal_recovery_is_no_breach(self):
        cfg = config(cash0_cents=0, opex_monthly_cents=100, horizon_months=2,
                     survival_mode="terminal")
        state = initial_state(cfg)
        step_treasury(state, cfg, 10_000_000, 0)
        step_treasury(state, cfg, 10_000_000, 250)
        # Cash floored at 0 after month 1, so the floored balance gains 150.
        assert state.cash_cents == 150
        assert state.balance_cents == 50
        assert state.min_cash_cents == -100
        assert state.breach_month is None
        assert state.required_sale_sats is None

    def test_yield_compounds_close_to_apy(self):
        # Compound-interest oracle: $1M at 5% APY over 12 months is $1.05M.
        # Monthly cent flooring loses under a cent a month, so allow 12.
        cfg = config(cash0_cents=100_000_000, cash_yield_apy=0.05, horizon_months=12)
        state = initial_state(cfg)
        earned = sum(step_treasury(state, cfg, 10_000_000, 0) for _ in range(12))
        assert 105_000_000 - 12 <= state.cash_cents <= 105_000_000
        assert state.cash_cents == 100_000_000 + earned

    def test_cannot_step_past_horizon(self):
        cfg = config(horizon_months=1)
        state = initial_state(cfg)
        step_treasury(state, cfg, 10_000_000, 0)
        with pytest.raises(ValueError):
            step_treasury(state, cfg, 10_000_000, 0)

    def test_rejects_a_non_positive_price(self):
        cfg = config()
        with pytest.raises(ValueError):
            step_treasury(initial_state(cfg), cfg, 0, 0)

    @given(
        cash0=st.integers(0, 10**6),
        months=st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**10)),
            min_size=1,
            max_size=24,
        ),
        outflows=st.tuples(*[st.integers(0, 4 * 10**5)] * 3),
        apy=st.sampled_from([0.0, 0.05]) | st.floats(0.0, 2.0),
        mode=st.sampled_from(SURVIVAL_MODES),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_prefix_sum_reference(self, cash0, months, outflows, apy, mode):
        opex, interest, capex = outflows
        cfg = config(
            cash0_cents=cash0,
            opex_monthly_cents=opex,
            interest_monthly_cents=interest,
            capex_monthly_cents=capex,
            horizon_months=len(months),
            cash_yield_apy=apy,
            survival_mode=mode,
        )
        state = initial_state(cfg)
        earned = [step_treasury(state, cfg, price, inflow) for inflow, price in months]

        # Reference: yield on the floored balance, then plain prefix sums.
        out = opex + interest + capex
        floored = cash0
        yields = []
        for inflow, _ in months:
            yields.append(monthly_yield_cents(floored, apy))
            floored = max(0, floored + inflow + yields[-1] - out)
        inflows = [inflow + y for (inflow, _), y in zip(months, yields)]
        balances = [cash0 + sum(inflows[:k]) - out * k for k in range(1, len(months) + 1)]
        negative = [k for k, b in enumerate(balances, start=1) if b < 0]
        if mode == "pathwise":
            breach = negative[0] if negative else None
        else:
            breach = len(months) if balances[-1] < 0 else None
        sale = None
        if breach is not None:
            sale = math.ceil(Fraction(-balances[breach - 1] * SATS_PER_BTC, months[breach - 1][1]))

        assert earned == yields
        assert state.month == len(months)
        assert state.cash_cents == floored
        assert state.balance_cents == balances[-1]
        assert state.min_cash_cents == min([cash0] + balances)
        assert state.breach_month == breach
        assert state.required_sale_sats == sale
        verdict = no_forced_sale(cash0, inflows, [out] * len(months), mode)
        assert verdict == SurvivalVerdict(
            survives=breach is None,
            breach_month=breach,
            min_cash_cents=min([cash0] + balances),
            terminal_cash_cents=balances[-1],
        )

    def test_sleeve_carved_from_total(self):
        cfg = config(btc_core_sats=1_000_000_000, sleeve_fraction=0.03)
        assert cfg.sleeve_sats == 30_000_000
        assert cfg.btc_core_sats - cfg.sleeve_sats == 970_000_000


class TestYieldHelper:
    def test_zero_apy(self):
        assert monthly_yield_cents(10**8, 0.0) == 0

    def test_monthly_rate(self):
        earned = monthly_yield_cents(100_000_000, 0.05)
        assert earned == int(100_000_000 * (1.05 ** (1 / 12) - 1))


class TestHoldingsCsv:
    def test_fixture_loads(self):
        rows = load_holdings_csv(HOLDINGS_FIXTURE)
        assert [r.ticker for r in rows][:3] == ["MSTR", "CEP", "MTPLF"]
        assert rows[0].btc_held == 640_808
        assert rows[0].mkt_cap_cents == 7_739_500_000_000
        assert rows[0].shares_outstanding == 287_169_835

    def test_optional_shares(self, tmp_path):
        p = tmp_path / "holdings.csv"
        p.write_text(
            "ticker,btc_held,mkt_cap_usd,shares_outstanding\nZZZ,10,1000000,\n"
        )
        rows = load_holdings_csv(p)
        assert rows[0].shares_outstanding is None

    def test_malformed_row_names_row(self, tmp_path):
        p = tmp_path / "holdings.csv"
        p.write_text(
            "ticker,btc_held,mkt_cap_usd,shares_outstanding\n"
            "AAA,10,1000000,\n"
            "BBB,not-a-number,5,\n"
        )
        with pytest.raises(HoldingsCsvError, match="row 2"):
            load_holdings_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "holdings.csv"
        p.write_text("tic,btc,cap,shares\n")
        with pytest.raises(HoldingsCsvError, match="header"):
            load_holdings_csv(p)

    def test_nonpositive_btc_rejected(self, tmp_path):
        p = tmp_path / "holdings.csv"
        p.write_text("ticker,btc_held,mkt_cap_usd,shares_outstanding\nAAA,0,10,\n")
        with pytest.raises(HoldingsCsvError, match="row 1"):
            load_holdings_csv(p)
