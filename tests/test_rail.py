"""Rail economics tests: payment generation, fee stack, churn, month record."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satsrail.money import cents_to_msat, msat_to_cents
from satsrail.rail import (
    Merchant,
    TicketParams,
    acquiring_fee,
    apply_churn,
    gen_monthly_payments,
    hedge_settlement,
    month_rail_cashflow,
    sats_back_outlay,
)

PRICE = 10_000_000  # $100,000/BTC in cents


def merchant(mid="m1", gmv=1_000_000, take=30, mode="fiat", sats_back=0, active=True):
    return Merchant(
        id=mid,
        monthly_gmv_cents=gmv,
        take_rate_bps=take,
        settle_mode=mode,
        sats_back_bps=sats_back,
        active=active,
    )


class TestGenPayments:
    def test_no_active_merchants(self):
        plan = gen_monthly_payments(
            [merchant(active=False)], 1, PRICE, 7, TicketParams(), ["payer"]
        )
        assert plan.requests == ()
        assert plan.intended == {}

    def test_gmv_equal_to_mean_ticket_yields_one_payment(self):
        params = TicketParams(median_ticket_cents=100_000, ticket_sigma=0.0)
        plan = gen_monthly_payments(
            [merchant(gmv=100_000)], 1, PRICE, 7, params, ["payer"]
        )
        assert len(plan.requests) == 1
        assert plan.intended == {"m1": 1}

    def test_count_rounds_half_up(self):
        params = TicketParams(median_ticket_cents=100_000, ticket_sigma=0.0)
        plan = gen_monthly_payments(
            [merchant(gmv=250_000)], 1, PRICE, 7, params, ["payer"]
        )
        assert plan.intended == {"m1": 3}

    def test_zero_sigma_amounts_equal_median(self):
        params = TicketParams(median_ticket_cents=100_000, ticket_sigma=0.0)
        plan = gen_monthly_payments(
            [merchant(gmv=500_000)], 1, PRICE, 7, params, ["payer"]
        )
        expected_msat = 100_000 * 100_000_000_000 // PRICE
        assert all(r.amount_msat == expected_msat for r in plan.requests)

    def test_sampled_sum_tracks_gmv(self):
        # Monte Carlo consistency oracle: fiat value of 10k draws ~ GMV.
        params = TicketParams(median_ticket_cents=5_000, ticket_sigma=0.8)
        gmv = int(10_000 * params.mean_ticket_cents)
        plan = gen_monthly_payments(
            [merchant(gmv=gmv)], 1, PRICE, 123, params, ["payer"]
        )
        assert len(plan.requests) == pytest.approx(10_000, abs=1)
        total_cents = sum(msat_to_cents(r.amount_msat, PRICE) for r in plan.requests)
        assert abs(total_cents - gmv) / gmv < 0.05

    def test_deterministic_per_merchant_regardless_of_roster(self):
        params = TicketParams(median_ticket_cents=5_000, ticket_sigma=0.8)
        solo = gen_monthly_payments(
            [merchant("alpha", gmv=100_000)], 3, PRICE, 9, params, ["p1", "p2"]
        )
        duo = gen_monthly_payments(
            [merchant("alpha", gmv=100_000), merchant("beta", gmv=200_000)],
            3,
            PRICE,
            9,
            params,
            ["p1", "p2"],
        )
        assert [r for r in duo.requests if r.merchant == "alpha"] == list(solo.requests)

    def test_replay_identical(self):
        params = TicketParams(median_ticket_cents=5_000, ticket_sigma=0.8)
        roster = [merchant("a", gmv=50_000), merchant("b", gmv=75_000)]
        one = gen_monthly_payments(roster, 2, PRICE, 5, params, ["p1"])
        two = gen_monthly_payments(roster, 2, PRICE, 5, params, ["p1"])
        assert one == two

    def test_amounts_clipped(self):
        params = TicketParams(
            median_ticket_cents=5_000,
            ticket_sigma=2.0,
            min_ticket_cents=4_000,
            max_ticket_cents=6_000,
        )
        plan = gen_monthly_payments(
            [merchant(gmv=1_000_000)], 1, PRICE, 21, params, ["payer"]
        )
        lo = 4_000 * 100_000_000_000 // PRICE
        hi = (6_000 * 100_000_000_000 + PRICE // 2) // PRICE
        assert plan.requests
        assert all(lo <= r.amount_msat <= hi for r in plan.requests)

    def test_a_ticket_under_half_a_msat_is_not_sampled(self):
        # The draws do not depend on the price. At PRICE a cent is 10,000
        # msat; at 3e11 a cent is a third of a msat (0) and 2 cents round to 1.
        params = TicketParams(median_ticket_cents=2, ticket_sigma=1.0)
        full = gen_monthly_payments([merchant(gmv=100)], 1, PRICE, 9, params, ["p1", "p2"])
        price = 3 * 10**11
        plan = gen_monthly_payments([merchant(gmv=100)], 1, price, 9, params, ["p1", "p2"])
        kept = [r for r in full.requests if r.amount_msat > 10_000]
        assert 0 < len(kept) < len(full.requests)
        assert [(r.payer, r.amount_msat) for r in plan.requests] == [
            (r.payer, cents_to_msat(r.amount_msat // 10_000, price)) for r in kept
        ]
        assert plan.intended == full.intended
        assert plan.sampled == {"m1": len(kept)}
        nothing = gen_monthly_payments([merchant(gmv=100)], 1, 10**30, 9, params, ["p1"])
        assert nothing.requests == () and nothing.sampled == {"m1": 0}

    def test_cap_apportions_and_scales(self):
        params = TicketParams(median_ticket_cents=1_000, ticket_sigma=0.0)
        roster = [merchant("a", gmv=300_000), merchant("b", gmv=100_000)]
        plan = gen_monthly_payments(roster, 1, PRICE, 3, params, ["p"], max_payments=40)
        assert plan.intended == {"a": 300, "b": 100}
        assert plan.sampled == {"a": 30, "b": 10}
        assert len(plan.requests) == 40

    def test_cap_never_zeroes_an_active_merchant(self):
        params = TicketParams(median_ticket_cents=1_000, ticket_sigma=0.0)
        roster = [merchant("big", gmv=10_000_000), merchant("tiny", gmv=1_000)]
        plan = gen_monthly_payments(roster, 1, PRICE, 3, params, ["p"], max_payments=10)
        assert plan.sampled["tiny"] >= 1

    def test_payers_required_when_active(self):
        with pytest.raises(ValueError):
            gen_monthly_payments([merchant()], 1, PRICE, 7, TicketParams(), [])

    @given(
        gmvs=st.lists(st.integers(0, 60_000), min_size=1, max_size=8),
        inactive=st.integers(0, 8),
        cap=st.integers(0, 300) | st.none(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sampled_is_within_intended_and_is_the_batch(self, gmvs, inactive, cap):
        # A gmv under half a mean ticket intends no payment.
        params = TicketParams(median_ticket_cents=1_000, ticket_sigma=0.0)
        roster = [
            merchant(f"m{i}", gmv=gmv or 1, active=i >= inactive)
            for i, gmv in enumerate(gmvs)
        ]
        plan = gen_monthly_payments(roster, 1, PRICE, 3, params, ["p"], max_payments=cap)
        active = {m.id for m in roster if m.active}
        assert plan.sampled.keys() == plan.intended.keys() == active
        for mid in active:
            assert plan.sampled[mid] <= plan.intended[mid]
            assert (plan.sampled[mid] >= 1) == (plan.intended[mid] > 0)
            assert plan.sampled[mid] == sum(r.merchant == mid for r in plan.requests)
        assert len(plan.requests) == sum(plan.sampled.values())


class TestTicketParams:
    @pytest.mark.parametrize(
        "median, sigma",
        [
            pytest.param(5_000, 1e11, id="exp-overflows"),
            pytest.param(5_000, 1e200, id="sigma-squared-overflows"),
            pytest.param(1, 37.7, id="just-past-the-range"),
            pytest.param(10**308, 2.0, id="product-is-inf"),
            pytest.param(10**309, 0.0, id="median-past-float"),
        ],
    )
    def test_a_mean_ticket_past_the_float_range_is_refused(self, median, sigma):
        with pytest.raises(ValueError, match="overflows"):
            TicketParams(median_ticket_cents=median, ticket_sigma=sigma)

    def test_the_largest_finite_mean_ticket_is_accepted(self):
        # exp(37.6**2 / 2) is about 1.6e307; 37.7 overflows.
        assert math.isfinite(TicketParams(1, 37.6).mean_ticket_cents)


class TestAcquiringFee:
    def test_zero_gmv(self):
        assert acquiring_fee(0, 30) == 0

    def test_million_dollars_at_30bps(self):
        assert acquiring_fee(100_000_000, 30) == 300_000

    def test_floor_boundary(self):
        assert acquiring_fee(99_999, 10) == 99

    @given(gmv=st.integers(0, 10**14), bps=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_integer_and_bounded(self, gmv, bps):
        fee = acquiring_fee(gmv, bps)
        assert isinstance(fee, int)
        assert 0 <= fee <= gmv


class TestHedgeSettlement:
    def test_zero_spread(self):
        fiat, revenue = hedge_settlement(100_000_000_000, 11_030_000, 0)
        assert (fiat, revenue) == (11_030_000, 0)

    def test_one_btc_at_five_bps(self):
        fiat, revenue = hedge_settlement(100_000_000_000, 11_030_000, 5)
        assert revenue == 5_515
        assert fiat == 11_024_485

    @given(
        msat=st.integers(0, 10**15),
        price=st.integers(1, 50_000_000),
        spread=st.integers(0, 500),
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation(self, msat, price, spread):
        fiat, revenue = hedge_settlement(msat, price, spread)
        assert fiat + revenue == msat * price // 100_000_000_000
        assert fiat >= 0 and revenue >= 0


class TestSatsBack:
    def test_zero_bps(self):
        assert sats_back_outlay(1_000_000, 0) == 0

    def test_ten_k_at_25bps(self):
        assert sats_back_outlay(1_000_000, 25) == 2_500

    @given(gmv=st.integers(0, 10**12), take=st.integers(0, 100), back=st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_outlay_below_acquiring_when_bps_below_take(self, gmv, take, back):
        if back <= take:
            assert sats_back_outlay(gmv, back) <= acquiring_fee(gmv, take)


class TestChurn:
    def test_no_churn_when_disabled(self):
        roster = [merchant(f"m{i}") for i in range(50)]
        updated, rate = apply_churn(roster, 0.5, seed=1, month=1)
        assert rate == 0.0
        assert all(m.active for m in updated)

    def test_full_churn_at_zero_success(self):
        roster = [merchant(f"m{i}") for i in range(50)]
        updated, rate = apply_churn(
            roster, 0.0, seed=1, month=1, base_churn=0.0, sensitivity=1.0
        )
        assert rate == 1.0
        assert not any(m.active for m in updated)

    def test_empirical_rate_matches_binomial(self):
        # Binomial oracle: p = 0.02 + 0.1 * 0.05 = 0.025 over 10k merchants.
        roster = [merchant(f"m{i:05d}") for i in range(10_000)]
        _, rate = apply_churn(
            roster, 0.95, seed=42, month=1, base_churn=0.02, sensitivity=0.1
        )
        p = 0.025
        se = math.sqrt(p * (1 - p) / 10_000)
        assert abs(rate - p) < 3 * se

    def test_never_resurrects(self):
        roster = [merchant("dead", active=False), merchant("alive")]
        updated, _ = apply_churn(
            roster, 0.0, seed=1, month=1, base_churn=1.0, sensitivity=0.0
        )
        assert [m.active for m in updated] == [False, False]

    def test_deterministic(self):
        roster = [merchant(f"m{i}") for i in range(100)]
        a = apply_churn(roster, 0.8, seed=9, month=4, base_churn=0.1, sensitivity=0.5)
        b = apply_churn(roster, 0.8, seed=9, month=4, base_churn=0.1, sensitivity=0.5)
        assert a == b

    def test_rate_zero_when_no_active(self):
        roster = [merchant("m", active=False)]
        _, rate = apply_churn(roster, 1.0, seed=1, month=1, base_churn=1.0)
        assert rate == 0.0

    def test_bad_success_rate(self):
        with pytest.raises(ValueError):
            apply_churn([merchant()], 1.5, seed=1, month=1)


class TestMonthRecord:
    def test_all_zero(self):
        record = month_rail_cashflow(1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert record.net_inflow_cents == 0

    def test_stated_example(self):
        record = month_rail_cashflow(
            month=1,
            gmv_cents=100_000_000,
            tx_count=100,
            tx_settled=100,
            acquiring_fee_cents=300_000,
            hedge_spread_cents=5_515,
            routing_fee_cents=1_200,
            rebalancing_cost_cents=800,
            sats_back_cents=2_500,
            variable_cost_cents=10_000,
        )
        assert record.net_inflow_cents == 293_415

    def test_net_monotone_in_acquiring(self):
        base = dict(
            month=1,
            gmv_cents=1_000,
            tx_count=1,
            tx_settled=1,
            hedge_spread_cents=5,
            routing_fee_cents=5,
            rebalancing_cost_cents=5,
            sats_back_cents=5,
            variable_cost_cents=5,
        )
        low = month_rail_cashflow(acquiring_fee_cents=10, **base)
        high = month_rail_cashflow(acquiring_fee_cents=20, **base)
        assert high.net_inflow_cents > low.net_inflow_cents

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            month_rail_cashflow(1, -1, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_settled_bounded_by_attempted(self):
        with pytest.raises(ValueError):
            month_rail_cashflow(1, 0, 1, 2, 0, 0, 0, 0, 0, 0)

    def test_costs_only_subtract(self):
        record = month_rail_cashflow(1, 1_000, 2, 2, 100, 10, 5, 7, 3, 2)
        assert record.net_inflow_cents <= 100 + 10 + 5

    def test_merchant_validation(self):
        with pytest.raises(ValueError):
            merchant(mode="card")
        with pytest.raises(ValueError):
            merchant(gmv=0)
        with pytest.raises(ValueError):
            merchant(take=-1)
        assert not Merchant(
            id="x", monthly_gmv_cents=0, take_rate_bps=0, active=False
        ).active
