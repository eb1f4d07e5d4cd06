"""Shared fixtures: tiny graphs, random graph specs, independent oracles."""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import random
from pathlib import Path

import pytest

from satsrail import lightning
from satsrail.engine import COVERAGE_ZERO_OPEX, ScenarioReport
from satsrail.lightning import (
    ChannelGraph,
    FeeCapExceededError,
    Hop,
    NoRouteError,
    PaymentResult,
    PaymentStatus,
    Route,
    StaleRouteError,
    build_graph,
    hop_fee,
)

DATA_DIR = Path(__file__).parents[1] / "data"
HOLDINGS_FIXTURE = DATA_DIR / "btc_holdings_top10.csv"


def graph_state(graph: ChannelGraph) -> tuple:
    """Full structural snapshot, for bit-identity assertions."""
    return tuple(
        sorted(
            (
                ch.id,
                ch.node_a,
                ch.node_b,
                ch.capacity_msat,
                ch.balance_a_msat,
                ch.policy_ab,
                ch.policy_ba,
                ch.open,
            )
            for ch in graph.channels.values()
        )
    )


def chain_spec(policies=(1000, 100)) -> dict:
    """A -> B -> C chain, both channels fully funded on the a side."""
    base, ppm = policies
    policy = {"base_msat": base, "ppm": ppm}
    return {
        "nodes": ["A", "B", "C"],
        "hub": "A",
        "channels": [
            {
                "id": "ab",
                "a": "A",
                "b": "B",
                "capacity_msat": 2_000_000_000,
                "balance_a_msat": 2_000_000_000,
                "policy_ab": dict(policy),
                "policy_ba": dict(policy),
            },
            {
                "id": "bc",
                "a": "B",
                "b": "C",
                "capacity_msat": 2_000_000_000,
                "balance_a_msat": 2_000_000_000,
                "policy_ab": dict(policy),
                "policy_ba": dict(policy),
            },
        ],
    }


def triangle_spec(policies=(1000, 100)) -> dict:
    """hub, X, Y fully connected; all channels funded on the a side."""
    base, ppm = policies
    policy = {"base_msat": base, "ppm": ppm}

    def chan(cid, a, b):
        return {
            "id": cid,
            "a": a,
            "b": b,
            "capacity_msat": 3_000_000_000,
            "balance_a_msat": 3_000_000_000,
            "policy_ab": dict(policy),
            "policy_ba": dict(policy),
        }

    return {
        "nodes": ["hub", "X", "Y"],
        "hub": "hub",
        "channels": [chan("hx", "hub", "X"), chan("xy", "X", "Y"), chan("yh", "Y", "hub")],
    }


def stress_scenario_raw() -> dict:
    """One merchant on a zero-fee hub channel under the -70% stress market."""
    return {
        "treasury": {
            "btc_core_sats": 0,
            "cash0_cents": 0,
            "opex_monthly_cents": 3_400,
            "horizon_months": 24,
            "sleeve_fraction": 0.0,
        },
        "market": {"model": "stress", "kind": "linear", "total_drawdown": 0.70},
        "start_price_cents": 10_000_000,
        "graph": {
            "nodes": ["hub", "shopco"],
            "hub": "hub",
            "channels": [
                {
                    "id": "hub-shopco",
                    "a": "hub",
                    "b": "shopco",
                    "capacity_msat": 1_000_000_000_000,
                    "balance_a_msat": 1_000_000_000_000,
                    "policy_ab": {"base_msat": 0, "ppm": 0},
                    "policy_ba": {"base_msat": 0, "ppm": 0},
                }
            ],
        },
        "merchants": [
            {
                "id": "shopco",
                "monthly_gmv_cents": 1_000_000,
                "take_rate_bps": 30,
                "settle_mode": "fiat",
            }
        ],
        "rail": {
            "median_ticket_cents": 100_000,
            "ticket_sigma": 0.0,
            "spread_bps": 5,
            "max_route_retries": 0,
        },
    }


class _Marker:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


# Values for set_key: delete the key; a copy of the list's first item.
OMIT = _Marker("OMIT")
TWIN_OF_FIRST = _Marker("TWIN_OF_FIRST")


def set_key(raw: dict, dotted: str, value) -> dict:
    """Set a dotted key (list items by index) in a raw config; returns it.

    A list index one past the end appends.
    """
    *parents, last = dotted.split(".")
    node = raw
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    if isinstance(node, list):
        last = int(last)
        if last == len(node):
            node.append(None)
    if value is OMIT:
        del node[last]
    elif value is TWIN_OF_FIRST:
        node[last] = json.loads(json.dumps(node[0]))
    else:
        node[last] = value
    return raw


# Malformed scenario configs: (dotted key to set, its value, key the error
# names). Each is valid apart from that one key.
MALFORMED_CONFIGS = [
    ("market.horizon_months", "twelve", "market.horizon_months"),
    ("market.horizon_months", 12.5, "market.horizon_months"),
    ("market.mu", "up", "market.mu"),
    ("start_price_cents", "lots", "start_price_cents"),
    ("payment_cap_per_month", "many", "payment_cap_per_month"),
    ("var_sigma_monthly", "high", "var_sigma_monthly"),
    ("min_channel_msat", None, "min_channel_msat"),
    ("sleeve_peers", [["hub-peer"]], "sleeve_peers[0]"),
    ("rebalence", {"low_watermark": 0.2}, "rebalence"),
    ("rail.spred_bps", 3, "rail.spred_bps"),
    ("market.sigmaa", 0.6, "market.sigmaa"),
    ("hub_fee_policy", {"base_fee_msat": 1_000}, "hub_fee_policy.base_fee_msat"),
    ("merchants.0.settle_mod", "btc", "merchants[0].settle_mod"),
    ("merchants.0.active", "yes", "merchants[0].active"),
    ("graph.hubb", "hub", "graph.hubb"),
    ("graph.channels.0.opne", False, "graph.channels[0].opne"),
    ("graph.channels.0.policy_ab.fee", 0, "graph.channels[0].policy_ab.fee"),
    ("graph.channels.0.capacity_msat", "lots", "graph.channels[0].capacity_msat"),
    ("treasury", OMIT, "treasury"),
    ("market", OMIT, "market"),
    ("start_price_cents", OMIT, "start_price_cents"),
    ("graph", OMIT, "graph"),
    ("treasury.cash0_cents", OMIT, "treasury.cash0_cents"),
    ("merchants.0.id", OMIT, "merchants[0].id"),
    ("merchants.1", TWIN_OF_FIRST, "merchants[1].id"),
    ("treasury.sleeve_fraction", math.nan, "treasury.sleeve_fraction"),
    ("rail.ticket_sigma", math.inf, "rail.ticket_sigma"),
    ("treasury.var_confidence", -math.inf, "treasury.var_confidence"),
    # Seeds that rng.child_seed cannot encode.
    ("monte_carlo", {"master_seed": 2**127}, "monte_carlo.master_seed"),
    ("monte_carlo", {"master_seed": -(2**127) - 1}, "monte_carlo.master_seed"),
    # More BTC than the 21 M supply (a float the int schema accepts).
    ("treasury.btc_core_sats", 1e308, "treasury.btc_core_sats"),
    # A mean ticket, median * exp(sigma^2 / 2), past the float range.
    ("rail.ticket_sigma", 1e11, "rail.ticket_sigma"),
]


# Sleeves the graph rejects: (sleeve_peers, min_channel_msat, the index of
# a spec channel renamed "sleeve-pay1" or None, part of the message).
BAD_SLEEVES = {
    "too-small": ([["pay1", 1.0], ["pay2", 1.0]], 10**15, None, "sleeve too small"),
    "duplicate-peer": ([["pay1", 1.0], ["pay1", 1.0]], 1_000, None, "duplicate channel"),
    "id-collision": ([["pay1", 1.0]], 1_000, 0, 'duplicate channel id "sleeve-pay1"'),
}


def bad_sleeve_raw(base: dict, name: str) -> dict:
    """``base`` with a 0.03 sleeve over the ``name`` case's peers, which
    are made graph nodes; returns it."""
    peers, min_channel, renamed, _ = BAD_SLEEVES[name]
    base["treasury"].update(btc_core_sats=1_000_000_000, sleeve_fraction=0.03)
    base["graph"]["nodes"] = sorted(set(base["graph"]["nodes"]) | {"pay1", "pay2"})
    if renamed is not None:
        base["graph"]["channels"][renamed]["id"] = "sleeve-pay1"
    base.update(sleeve_peers=peers, min_channel_msat=min_channel)
    return base


def _sanitize(obj):
    """Tuples as lists and infinite floats as the zero-opex sentinel."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return COVERAGE_ZERO_OPEX
    return obj


def stdlib_canonical_json(obj) -> str:
    """The canonical JSON formula, spelled with the stdlib alone.

    ``satsrail.util.canonical_json`` must return exactly these bytes; the
    oracles below use this spelling so they never test that encoder against
    itself.
    """
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def legacy_report_text(report: ScenarioReport) -> tuple[str, str]:
    """Reference ``(report.json text, reconciliation_hash)`` for ``report``.

    The report formula the engine's one-pass writer must reproduce byte for
    byte: every path through ``dataclasses.asdict``, sanitized, encoded once
    alone for the hash and again inside the whole document.
    """
    paths = [_sanitize(dataclasses.asdict(p)) for p in report.paths]
    digest = hashlib.sha256(stdlib_canonical_json(paths).encode("utf-8")).hexdigest()
    document = {
        "config": report.config_echo,
        "master_seed": report.master_seed,
        "num_paths": report.num_paths,
        "surviving_paths": report.surviving_paths,
        "survival_probability": report.survival_probability,
        "reconciliation_hash": digest,
        "paths": paths,
    }
    return stdlib_canonical_json(document), digest


@pytest.fixture
def chain_graph() -> ChannelGraph:
    return build_graph(chain_spec())


@pytest.fixture
def triangle_graph() -> ChannelGraph:
    return build_graph(triangle_spec())


def random_graph_spec(
    rng: random.Random,
    max_nodes: int = 8,
    zero_fee_share: float | None = None,
    free_base_share: float = 0.0,
    density: float = 0.55,
) -> dict:
    """Random multigraph spec for oracle comparisons.

    By default a direction's base fee and ppm are drawn from 0 up. With
    ``zero_fee_share`` set, each direction is free (base 0, ppm 0) with that
    probability and otherwise charges a base fee of at least 1 msat; so at
    ``zero_fee_share=0.0`` every hop costs at least 1 msat. Then, with
    probability ``free_base_share``, a direction's base fee is 0 and its ppm
    at least 1. Each pair of nodes is joined with probability ``density``.
    """

    def policy() -> dict:
        if zero_fee_share is None:
            drawn = {"base_msat": rng.randrange(0, 2_000), "ppm": rng.randrange(0, 5_000)}
        elif rng.random() < zero_fee_share:
            drawn = {"base_msat": 0, "ppm": 0}
        else:
            drawn = {"base_msat": rng.randrange(1, 2_000), "ppm": rng.randrange(0, 5_000)}
        if free_base_share and rng.random() < free_base_share:
            drawn = {"base_msat": 0, "ppm": rng.randrange(1, 5_000)}
        return drawn

    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    channels = []
    cid = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= density:
                continue
            copies = 2 if rng.random() < 0.12 else 1
            for _ in range(copies):
                capacity = rng.randrange(1_000, 2_000_000)
                channels.append(
                    {
                        "id": f"c{cid}",
                        "a": nodes[i],
                        "b": nodes[j],
                        "capacity_msat": capacity,
                        "balance_a_msat": rng.randrange(0, capacity + 1),
                        "policy_ab": policy(),
                        "policy_ba": policy(),
                    }
                )
                cid += 1
    return {"nodes": nodes, "hub": nodes[0], "channels": channels}


def _route_fee(hops, amount_msat: int):
    """Total fee of ``hops`` [(channel, from, to), ...] delivering
    ``amount_msat``, or None when some channel's capacity is too small.
    Backward fee math, independent of the router."""
    required = amount_msat
    for i in range(len(hops) - 1, -1, -1):
        ch, frm, _to = hops[i]
        if ch.capacity_msat < required:
            return None
        if i > 0:
            required += hop_fee(ch.policy_from(frm), required)
    return required - amount_msat


def _simple_paths(graph: ChannelGraph, src: str, dst: str, avoid):
    """Every simple path src -> dst as [(channel, from, to), ...], by forward
    DFS over open channels, skipping directions for which ``avoid`` holds."""

    def dfs(node, visited, hops):
        if node == dst:
            yield hops
            return
        for ch in graph.adjacent(node):
            nxt = ch.other(node)
            if nxt in visited or avoid(ch, node):
                continue
            yield from dfs(nxt, visited | {nxt}, hops + [(ch, node, nxt)])

    yield from dfs(src, {src}, [])


def brute_force_route(
    graph: ChannelGraph, src: str, dst: str, amount_msat: int, excluded=()
):
    """Exhaustive simple-path enumeration oracle.

    Returns (total_fee, node_path, channel_ids) for the cheapest feasible
    route, ties broken on node path then channel ids, or None when nothing
    is feasible. ``excluded`` holds (channel_id, sending_node) directions
    to skip. The fee always equals the router's. The router's route is this
    lexicographically smallest one only when every hop costs at least 1 msat:
    it breaks ties by its search's pop order (see ``find_route``). Kept
    deliberately independent of the router: forward DFS over channels, then
    per-path backward fee math.
    """
    excluded = set(excluded)
    best = None
    for hops in _simple_paths(
        graph, src, dst, lambda ch, frm: (ch.id, frm) in excluded
    ):
        fee = _route_fee(hops, amount_msat)
        if fee is None:
            continue
        node_path = (src,) + tuple(h[2] for h in hops)
        key = (fee, node_path, tuple(h[0].id for h in hops))
        if best is None or key < best:
            best = key
    return best


def brute_force_rebalance(
    graph: ChannelGraph, from_channel: str, to_channel: str, amount_msat: int
):
    """Cheapest circular hub route out over ``from_channel`` and back over
    ``to_channel``, by exhaustive enumeration: the fee, or None when no
    route is feasible. The middle of the circle avoids the hub and both
    rebalance channels."""
    hub = graph.hub
    out_ch, in_ch = graph.channels[from_channel], graph.channels[to_channel]
    peer_out, peer_in = out_ch.other(hub), in_ch.other(hub)
    fees = [
        _route_fee(
            [(out_ch, hub, peer_out), *middle, (in_ch, peer_in, hub)], amount_msat
        )
        for middle in _simple_paths(
            graph,
            peer_out,
            peer_in,
            lambda ch, frm: hub in (ch.node_a, ch.node_b),
        )
    ]
    fees = [fee for fee in fees if fee is not None]
    return min(fees) if fees else None


def reference_search(graph: ChannelGraph, start: tuple, sender: str, exits: dict, skip):
    """The plain bounded backward Dijkstra the router must agree with.

    Heap entries are ``(R, node, next node, channel id)`` over string ids;
    the first entry popped for a node settles it. ``exits`` maps each node
    the sender may pay into to its usable ``(channel id, capacity)``
    directions; the best exit is the smallest ``(R, node, channel id)``
    whose capacity covers R, and its R bounds the search. Returns
    ``(settled, best)`` with ``settled`` a dict by node id. Reads only the
    graph's public API, never the router's index.
    """
    settled = {sender: start}  # a marker: the sender is never entered
    heap = [start]
    bound = math.inf
    best = None
    pending = len(exits)
    while heap:
        entry = heapq.heappop(heap)
        required, node = entry[0], entry[1]
        if node in settled:
            continue
        if required > bound:
            break
        settled[node] = entry
        if node in exits:
            fits = [cid for cid, capacity in exits[node] if capacity >= required]
            if fits and (best is None or (required, node, min(fits)) < best):
                best, bound = (required, node, min(fits)), required
            pending -= 1
            if not pending:
                break
        for ch in graph.adjacent(node):
            prev = ch.other(node)
            if ch.capacity_msat < required or prev in settled or (ch.id, prev) in skip:
                continue
            cost = required + hop_fee(ch.policy_from(prev), required)
            if cost <= bound:
                heapq.heappush(heap, (cost, prev, node, ch.id))
    return settled, best


def _reference_trace(settled, sender, best, receiver, amount_msat) -> Route:
    _, first, channel = best
    path, channel_ids = [sender, first], [channel]
    while path[-1] != receiver:
        _, _, nxt, via = settled[path[-1]]
        path.append(nxt)
        channel_ids.append(via)
    amounts = tuple(settled[v][0] for v in path[1:-1]) + (amount_msat,)
    return Route(
        hops=tuple(Hop(c, a, b) for c, a, b in zip(channel_ids, path, path[1:])),
        amounts_msat=amounts,
        fees_msat=(0,) + tuple(a - b for a, b in zip(amounts, amounts[1:])),
        total_fee_msat=amounts[0] - amount_msat,
    )


def reference_find_route(
    graph: ChannelGraph, src: str, dst: str, amount_msat: int, max_fee_msat=None, excluded=()
) -> Route:
    """``find_route`` through :func:`reference_search`, for valid arguments."""
    skip = set(excluded)
    exits: dict = {}
    for ch in graph.adjacent(src):
        if (ch.id, src) not in skip:
            exits.setdefault(ch.other(src), []).append((ch.id, ch.capacity_msat))
    settled, best = reference_search(graph, (amount_msat, dst, "", ""), src, exits, skip)
    if best is None:
        raise NoRouteError("no feasible route")
    if max_fee_msat is not None and best[0] - amount_msat > max_fee_msat:
        raise FeeCapExceededError("over the cap")
    return _reference_trace(settled, src, best, dst, amount_msat)


def reference_rebalance_route(
    graph: ChannelGraph,
    from_channel: str,
    to_channel: str,
    amount_msat: int,
    max_fee_msat=None,
) -> Route:
    """The circular route ``rebalance`` must take, for a request that
    passes its argument checks; the graph is not touched."""
    hub = graph.hub
    out_ch, in_ch = graph.channels[from_channel], graph.channels[to_channel]
    if in_ch.capacity_msat < amount_msat:
        raise NoRouteError("receiving channel capacity below amount")
    peer_in = in_ch.other(hub)
    entering = amount_msat + hop_fee(in_ch.policy_from(peer_in), amount_msat)
    start = (entering, peer_in, hub, to_channel)
    exits = {out_ch.other(hub): [(from_channel, out_ch.capacity_msat)]}
    settled, best = reference_search(graph, start, hub, exits, set())
    if best is None:
        raise NoRouteError("no circular route")
    if max_fee_msat is not None and best[0] - amount_msat > max_fee_msat:
        raise FeeCapExceededError("over the cap")
    return _reference_trace(settled, hub, best, hub, amount_msat)


def reference_execute_payment(graph: ChannelGraph, route: Route, amount_msat: int) -> PaymentResult:
    """``execute_payment`` as first written, indexing the route hop by hop:
    every hop's channel is checked, then every balance, then all shift."""
    if not route.hops:
        raise ValueError("empty route")
    if route.amounts_msat[-1] != amount_msat:
        raise ValueError("route does not deliver the requested amount")
    channels = []
    for hop in route.hops:
        ch = graph.channels.get(hop.channel_id)
        if ch is None or not ch.open:
            raise StaleRouteError(f"channel {hop.channel_id} is closed or missing")
        ends = (hop.from_node, hop.to_node)
        if ends != (ch.node_a, ch.node_b) and ends != (ch.node_b, ch.node_a):
            raise StaleRouteError(f"channel {hop.channel_id} endpoints changed")
        channels.append(ch)
    for i, (hop, ch) in enumerate(zip(route.hops, channels)):
        if ch.balance_from(hop.from_node) < route.amounts_msat[i]:
            return PaymentResult(PaymentStatus.INSUFFICIENT_BALANCE, route=route, failed_hop=i)
    for i, (hop, ch) in enumerate(zip(route.hops, channels)):
        ch.shift(hop.from_node, route.amounts_msat[i])
    return PaymentResult(PaymentStatus.SETTLED, route=route)


def count_attempts(monkeypatch) -> dict:
    """Count the calls of ``find_route`` and ``execute_payment``, the two
    module globals the bench tracer wraps to time route search and execution."""
    calls = {"find_route": 0, "execute_payment": 0}
    for name in calls:

        def counted(*args, _call=getattr(lightning, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(lightning, name, counted)
    return calls


def reference_send_payment(
    graph: ChannelGraph,
    src: str,
    dst: str,
    amount_msat: int,
    max_fee_msat=None,
    max_retries=0,
    blind=False,
) -> PaymentResult:
    """``send_payment``'s retry loop over :func:`reference_find_route` and
    :func:`reference_execute_payment`. The first search skips every open
    channel of the sender that holds less than the amount on its side,
    unless ``blind`` (the loop of a sender that ignores its own balances);
    a direction that fails on balance is excluded from the next search."""
    excluded = set() if blind else {
        (ch.id, src)
        for ch in graph.channels.values()
        if ch.open and src in (ch.node_a, ch.node_b) and ch.balance_from(src) < amount_msat
    }
    result = None
    for _ in range(max_retries + 1):
        try:
            route = reference_find_route(graph, src, dst, amount_msat, max_fee_msat, excluded)
        except NoRouteError:
            return PaymentResult(PaymentStatus.NO_ROUTE)
        except FeeCapExceededError:
            return PaymentResult(PaymentStatus.FEE_CAP_EXCEEDED)
        result = reference_execute_payment(graph, route, amount_msat)
        if result.status is not PaymentStatus.INSUFFICIENT_BALANCE:
            return result
        failed = route.hops[result.failed_hop]
        excluded.add((failed.channel_id, failed.from_node))
    return result
