"""Seeded workload generators for the benchmark.

Each generator is a pure function of ``(seed, size)`` and returns the raw
config dict that ``satsrail.engine.config_from_dict`` accepts: graph,
roster, amounts and ``master_seed`` all derive from the seed, so the same
seed always yields byte-identical inputs. ``size="full"`` is the measured
workload; ``size="tiny"`` keeps the same shape at a few seconds' cost for
the harness smoke test.

The workloads are chosen so that each layer a later change will touch does
most of the work in one workload and almost none in another.
"""

from __future__ import annotations

import random

FEE = {"base_msat": 1000, "ppm": 100}
START_PRICE_CENTS = 10_000_000  # $100,000 per BTC
G = 1_000_000_000  # msat


def _channel(cid: str, a: str, b: str, capacity: int, balance_a: int) -> dict:
    return {
        "id": cid,
        "a": a,
        "b": b,
        "capacity_msat": capacity,
        "balance_a_msat": balance_a,
        "policy_ab": dict(FEE),
        "policy_ba": dict(FEE),
    }


def _merchant(mid: str, rng: random.Random) -> dict:
    return {
        "id": mid,
        "monthly_gmv_cents": rng.randrange(20_000_000, 40_000_000),
        "take_rate_bps": rng.choice((25, 30, 35, 40)),
        "settle_mode": rng.choice(("fiat", "fiat", "btc")),
    }


def rail_hub(seed: int, size: str = "full") -> dict:
    """Hub-and-spoke rail: route search is nearly all of the wall time.

    Hub, 30 payers and 20 merchants; 110 spec channels (every payer and
    merchant to the hub, plus 60 side links) and 50 sleeve channels; 1000
    msat + 100 ppm everywhere; 500 sampled payments in one month on a GBM
    market with watermark rebalancing at 0.2. This is the workload for
    router changes.

    Spec channel ids sort after the hub-funded ``sleeve-*`` ids, so a
    payer's first route goes out through its sleeve channel, fails on
    balance, and the retry settles: about two searches per payment over 1-2
    hop routes. Payers and the hub are funded, and the sleeve is large
    enough, that nothing drains within the horizon, so the work per payment
    hardly depends on the seed.
    """
    rng = random.Random(f"rail_hub/{seed}")
    tiny = size == "tiny"
    n_pay, n_shop, n_side = (6, 4, 10) if tiny else (30, 20, 60)
    months, cap = (1, 40) if tiny else (1, 500)
    payers = [f"payer{i:02d}" for i in range(n_pay)]
    shops = [f"shop{i:02d}" for i in range(n_shop)]
    channels = []
    for p in payers:
        capacity = rng.randrange(80 * G, 100 * G)
        channels.append(_channel(f"spec-{p}", p, "hub", capacity, capacity * 9 // 10))
    for s in shops:
        capacity = rng.randrange(80 * G, 100 * G)
        channels.append(_channel(f"spec-{s}", "hub", s, capacity, capacity * 9 // 10))
    pairs = set()
    while len(pairs) < n_side:
        kind = rng.randrange(3)
        a_pool, b_pool = ((payers, payers), (shops, shops), (payers, shops))[kind]
        a, b = rng.choice(a_pool), rng.choice(b_pool)
        if a != b:
            pairs.add(tuple(sorted((a, b))))
    for a, b in sorted(pairs):
        capacity = rng.randrange(10 * G, 20 * G)
        channels.append(_channel(f"spec-{a}-{b}", a, b, capacity, capacity // 2))
    return {
        "treasury": {
            "btc_core_sats": 20_000_000_000 if tiny else 100_000_000_000,
            "cash0_cents": 5_000_000,
            "opex_monthly_cents": rng.randrange(400_000, 600_000),
            "horizon_months": months,
            "sleeve_fraction": 0.03,
            "cash_yield_apy": 0.03,
        },
        "market": {"model": "gbm", "mu": 0.05, "sigma": 0.6},
        "start_price_cents": START_PRICE_CENTS,
        "graph": {"nodes": ["hub", *payers, *shops], "hub": "hub", "channels": channels},
        "merchants": [_merchant(s, rng) for s in shops],
        "rail": {"max_route_retries": 3, "variable_cost_bps": 2},
        "monte_carlo": {"num_paths": 1, "master_seed": rng.randrange(2**31)},
        "payment_cap_per_month": cap,
        "hub_fee_policy": dict(FEE),
        "peer_fee_policy": dict(FEE),
        "rebalance": {"low_watermark": 0.2, "max_fee_bps": 100},
    }


def mesh_stress(seed: int, size: str = "full") -> dict:
    """Headline stress market on a meshed graph about ten times larger.

    A 20 x 25 torus grid plus chords, with the hub attached to a few grid
    nodes and sleeve peers scattered over it, so routes run 5+ hops and
    every search sees a far larger working set than ``rail_hub``. The
    linear 70% decline fires the stress trigger (``shrink_sleeve``), and an
    aggressive watermark makes circular rebalances a material share of
    router time. A router gain that costs the circular path or long
    searches shows up here.

    The grid's shape (chords, hub links, shops, sleeve peers) is fixed per
    size; capacities, balances, the roster and ``master_seed`` come from
    the seed. Two months keep execution failures rare: tighter liquidity
    made retries common but let the work per run vary with the seed by
    more than the benchmark's bounds. ``rail_hub`` exercises the retry
    path instead.
    """
    rng = random.Random(f"mesh_stress/{seed}")
    shape = random.Random(f"mesh_stress/shape/{size}")
    tiny = size == "tiny"
    width, height, n_chords, n_hub, n_sleeve, n_shop = (
        (5, 4, 4, 3, 4, 3) if tiny else (20, 25, 100, 20, 100, 30)
    )
    months, cap = (3, 8) if tiny else (2, 80)
    grid = [f"n{i:03d}" for i in range(width * height)]
    channels = []

    def link(a: str, b: str, lo: int, hi: int) -> None:
        capacity = rng.randrange(lo, hi)
        balance = capacity * rng.randrange(25, 76) // 100
        channels.append(_channel(f"m{len(channels):04d}", a, b, capacity, balance))

    for y in range(height):
        for x in range(width):
            here = grid[y * width + x]
            link(here, grid[y * width + (x + 1) % width], 2 * G, 6 * G)
            link(here, grid[((y + 1) % height) * width + x], 2 * G, 6 * G)
    chords = set()
    while len(chords) < n_chords:
        a, b = sorted(shape.sample(grid, 2))
        chords.add((a, b))
    for a, b in sorted(chords):
        link(a, b, 3 * G, 8 * G)
    for node in sorted(shape.sample(grid, n_hub)):
        link("hub", node, 3 * G // 2, 3 * G)
    shops = sorted(shape.sample(grid, n_shop))
    sleeve_peers = [[node, 1.0] for node in sorted(shape.sample(grid, n_sleeve))]
    return {
        "treasury": {
            "btc_core_sats": 1_500_000_000,
            "cash0_cents": 3_000_000,
            "opex_monthly_cents": rng.randrange(150_000, 250_000),
            "horizon_months": months,
            "sleeve_fraction": 0.03,
        },
        "market": {"model": "stress", "kind": "linear", "total_drawdown": 0.70},
        "start_price_cents": START_PRICE_CENTS,
        "graph": {"nodes": ["hub", *grid], "hub": "hub", "channels": channels},
        "merchants": [_merchant(s, rng) for s in shops],
        "rail": {"max_route_retries": 3, "variable_cost_bps": 2},
        "monte_carlo": {"num_paths": 1, "master_seed": rng.randrange(2**31)},
        "payment_cap_per_month": cap,
        "sleeve_peers": sleeve_peers,
        "hub_fee_policy": dict(FEE),
        "peer_fee_policy": dict(FEE),
        "stress_trigger": {"drawdown_threshold": 0.3, "shrink_target": 0.5},
        "rebalance": {"low_watermark": 0.5, "max_fee_bps": 300},
    }


def many_paths(seed: int, size: str = "full") -> dict:
    """Many GBM paths with a 3% sleeve and no merchants.

    Route search does no work here: there are no payments and rebalancing
    is off. Report building, hashing and writing, plus ``sleeve_var``'s
    per-month normal quantile, take most of the time. This is the workload
    for report-pipeline and VaR changes; for router changes the prediction
    here is "no change".
    """
    rng = random.Random(f"many_paths/{seed}")
    tiny = size == "tiny"
    paths, n_peers = (20, 3) if tiny else (40, 5)
    peers = [f"peer{i}" for i in range(n_peers)]
    return {
        "treasury": {
            "btc_core_sats": 1_000_000_000,
            "cash0_cents": rng.randrange(2_000_000, 4_000_000),
            "opex_monthly_cents": 150_000,
            "horizon_months": 3 if tiny else 24,
            "sleeve_fraction": 0.03,
            "cash_yield_apy": 0.04,
        },
        "market": {"model": "gbm", "mu": 0.0, "sigma": 0.6},
        "start_price_cents": START_PRICE_CENTS,
        "graph": {"nodes": ["hub", *peers], "hub": "hub", "channels": []},
        "sleeve_peers": [[p, rng.randrange(1, 5)] for p in peers],
        "monte_carlo": {"num_paths": paths, "master_seed": rng.randrange(2**31)},
    }
