"""Channel graph, routing, payment and sleeve tests.

The routing oracle is exhaustive simple-path enumeration (conftest); the
conservation and atomicity properties run against randomized op sequences.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_rebalance,
    brute_force_route,
    chain_spec,
    graph_state,
    random_graph_spec,
    reference_find_route,
    reference_rebalance_route,
    reference_search,
    triangle_spec,
)
from satsrail import lightning
from satsrail.lightning import (
    Channel,
    FeeCapExceededError,
    FeePolicy,
    NoRouteError,
    PaymentStatus,
    Route,
    RoutingError,
    StaleRouteError,
    build_graph,
    deploy_sleeve,
    execute_payment,
    find_route,
    hop_fee,
    rebalance,
    send_payment,
    shrink_sleeve,
)


def free_graph(*nodes: str, edges: list[str]):
    """Graph on single-letter ``nodes`` whose channels charge no fee; edge
    "ab" joins A and B."""

    def chan(edge):
        return {
            "id": edge,
            "a": edge[0].upper(),
            "b": edge[1].upper(),
            "capacity_msat": 1_000_000,
            "balance_a_msat": 500_000,
            "policy_ab": {"base_msat": 0, "ppm": 0},
            "policy_ba": {"base_msat": 0, "ppm": 0},
        }

    return build_graph(
        {"nodes": list(nodes), "hub": nodes[0], "channels": [chan(e) for e in edges]}
    )


class TestHopFee:
    def test_zero_policy(self):
        assert hop_fee(FeePolicy(0, 0), 123_456_789) == 0

    def test_base_plus_proportional(self):
        assert hop_fee(FeePolicy(1000, 100), 1_000_000_000) == 101_000

    def test_floor_boundary(self):
        # 9_999 * 100 / 1_000_000 = 0.9999 floors to 0.
        assert hop_fee(FeePolicy(1000, 100), 9_999) == 1000

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            hop_fee(FeePolicy(0, 0), -1)

    def test_negative_policy_rejected(self):
        with pytest.raises(ValueError):
            FeePolicy(-1, 0)


class TestBuildGraph:
    def test_missing_hub(self):
        with pytest.raises(ValueError, match="hub"):
            build_graph({"nodes": [], "hub": "h", "channels": []})

    def test_balance_b_derived(self):
        g = build_graph(
            {
                "nodes": ["A", "B"],
                "hub": "A",
                "channels": [
                    {
                        "id": "ab",
                        "a": "A",
                        "b": "B",
                        "capacity_msat": 1_000_000_000,
                        "balance_a_msat": 500_000_000,
                        "policy_ab": {"base_msat": 0, "ppm": 0},
                        "policy_ba": {"base_msat": 0, "ppm": 0},
                    }
                ],
            }
        )
        assert g.channels["ab"].balance_b_msat == 500_000_000

    def test_dangling_endpoint(self):
        spec = chain_spec()
        spec["channels"][0]["b"] = "ghost"
        with pytest.raises(ValueError, match="ghost"):
            build_graph(spec)

    def test_duplicate_channel_id(self):
        spec = chain_spec()
        spec["channels"][1]["id"] = spec["channels"][0]["id"]
        with pytest.raises(ValueError, match="duplicate"):
            build_graph(spec)

    def test_balance_exceeding_capacity(self):
        spec = chain_spec()
        spec["channels"][0]["balance_a_msat"] = spec["channels"][0]["capacity_msat"] + 1
        with pytest.raises(ValueError, match="balance"):
            build_graph(spec)

    def test_self_channel_rejected(self):
        spec = chain_spec()
        spec["channels"][0]["b"] = "A"
        with pytest.raises(ValueError, match="differ"):
            build_graph(spec)


class TestFindRoute:
    def test_src_equals_dst(self, chain_graph):
        with pytest.raises(ValueError):
            find_route(chain_graph, "A", "A", 1_000)

    def test_unknown_node(self, chain_graph):
        with pytest.raises(ValueError):
            find_route(chain_graph, "A", "nope", 1_000)

    def test_direct_channel_zero_fee(self):
        g = build_graph(chain_spec(policies=(0, 0)))
        route = find_route(g, "A", "B", 1_000_000)
        assert len(route.hops) == 1
        assert route.total_fee_msat == 0
        assert route.amounts_msat == (1_000_000,)

    def test_direct_channel_fee_free_despite_policy(self, chain_graph):
        # Intermediaries charge fees; a direct hop has none.
        route = find_route(chain_graph, "A", "B", 1_000_000)
        assert route.total_fee_msat == 0

    def test_chain_fee_semantics(self, chain_graph):
        route = find_route(chain_graph, "A", "C", 1_000_000_000)
        assert [h.channel_id for h in route.hops] == ["ab", "bc"]
        assert route.amounts_msat == (1_000_101_000, 1_000_000_000)
        assert route.fees_msat == (0, 101_000)
        assert route.total_fee_msat == 101_000

    def test_router_sees_capacity_not_balance(self):
        spec = chain_spec(policies=(0, 0))
        spec["channels"][1]["balance_a_msat"] = 0  # B cannot actually forward
        g = build_graph(spec)
        route = find_route(g, "A", "C", 1_000_000)
        assert route is not None
        result = execute_payment(g, route, 1_000_000)
        assert result.status is PaymentStatus.INSUFFICIENT_BALANCE
        assert result.failed_hop == 1

    def test_capacity_infeasible_is_no_route(self, chain_graph):
        with pytest.raises(NoRouteError):
            find_route(chain_graph, "A", "C", 2_500_000_000)

    def test_fee_cap(self, chain_graph):
        with pytest.raises(FeeCapExceededError):
            find_route(chain_graph, "A", "C", 1_000_000_000, max_fee_msat=100_999)
        route = find_route(chain_graph, "A", "C", 1_000_000_000, max_fee_msat=101_000)
        assert route.total_fee_msat == 101_000

    def test_excluded_direction_forces_detour(self, triangle_graph):
        route = find_route(triangle_graph, "hub", "Y", 1_000_000)
        assert [h.channel_id for h in route.hops] == ["yh"]
        detour = find_route(
            triangle_graph, "hub", "Y", 1_000_000, excluded={("yh", "hub")}
        )
        assert [h.channel_id for h in detour.hops] == ["hx", "xy"]

    def test_lexicographic_tie_break(self):
        # Two equal-fee two-hop routes A->B->D and A->C->D: path through B wins.
        def chan(cid, a, b):
            return {
                "id": cid,
                "a": a,
                "b": b,
                "capacity_msat": 1_000_000_000,
                "balance_a_msat": 1_000_000_000,
                "policy_ab": {"base_msat": 10, "ppm": 0},
                "policy_ba": {"base_msat": 10, "ppm": 0},
            }

        g = build_graph(
            {
                "nodes": ["A", "B", "C", "D"],
                "hub": "A",
                "channels": [
                    chan("ab", "A", "B"),
                    chan("ac", "A", "C"),
                    chan("bd", "B", "D"),
                    chan("cd", "C", "D"),
                ],
            }
        )
        route = find_route(g, "A", "D", 1_000_000)
        assert [h.to_node for h in route.hops] == ["B", "D"]

    def test_parallel_channel_tie_break(self):
        def chan(cid):
            return {
                "id": cid,
                "a": "A",
                "b": "B",
                "capacity_msat": 1_000_000_000,
                "balance_a_msat": 1_000_000_000,
                "policy_ab": {"base_msat": 0, "ppm": 0},
                "policy_ba": {"base_msat": 0, "ppm": 0},
            }

        g = build_graph(
            {"nodes": ["A", "B"], "hub": "A", "channels": [chan("z2"), chan("a9")]}
        )
        route = find_route(g, "A", "B", 5_000)
        assert route.hops[0].channel_id == "a9"

    def test_zero_fee_tie_break_follows_pop_order(self):
        # All hops free: A-B-D and A-B-C-D both cost 0. The oracle's
        # lexicographic choice is A-B-C-D, but the search settles B from D
        # (B pops before C at equal cost), so the route is A-B-D.
        g = free_graph("A", "B", "C", "D", edges=["ab", "bc", "bd", "cd"])
        assert brute_force_route(g, "A", "D", 1_000)[1] == ("A", "B", "C", "D")
        route = find_route(g, "A", "D", 1_000)
        assert [h.to_node for h in route.hops] == ["B", "D"]

    def test_equal_cost_exit_found_after_the_bound(self):
        # All hops free. C settles first as the sender's exit (C-D), which
        # sets the bound; B is reached at the same cost only later, via E,
        # and must still win: equal-cost entries are pushed and popped.
        g = free_graph("A", "B", "C", "D", "E", edges=["ab", "ac", "be", "cd", "ed"])
        route = find_route(g, "A", "D", 1_000)
        assert [h.to_node for h in route.hops] == ["B", "E", "D"]
        assert brute_force_route(g, "A", "D", 1_000)[1] == ("A", "B", "E", "D")


class TestRoutingOracle:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(120):
            g = build_graph(random_graph_spec(rng))
            nodes = sorted(g.nodes)
            src, dst = rng.sample(nodes, 2)
            amount = rng.randrange(1, 1_500_000)
            expected = brute_force_route(g, src, dst, amount)
            try:
                route = find_route(g, src, dst, amount)
            except NoRouteError:
                assert expected is None
                continue
            assert expected is not None
            fee, node_path, channel_ids = expected
            assert route.total_fee_msat == fee
            got_nodes = (src,) + tuple(h.to_node for h in route.hops)
            got_channels = tuple(h.channel_id for h in route.hops)
            assert got_nodes == node_path
            assert got_channels == channel_ids
            checked += 1
        assert checked > 30  # plenty of feasible instances exercised

    @staticmethod
    def _random_exclusions(rng, g) -> set:
        """Up to four (channel_id, sending_node) directions, closed ones too."""
        channels = sorted(g.channels)
        excluded = set()
        for _ in range(rng.randrange(0, 5) if channels else 0):
            ch = g.channels[rng.choice(channels)]
            excluded.add((ch.id, rng.choice((ch.node_a, ch.node_b))))
        return excluded

    def test_exclusions_match_brute_force(self):
        # Every hop costs >= 1 msat, so the router's route is the oracle's
        # lexicographically smallest one.
        rng = random.Random(31)
        checked = 0
        for _ in range(200):
            g = build_graph(random_graph_spec(rng, max_nodes=9, zero_fee_share=0.0))
            src, dst = rng.sample(sorted(g.nodes), 2)
            amount = rng.randrange(1, 1_500_000)
            excluded = self._random_exclusions(rng, g)
            expected = brute_force_route(g, src, dst, amount, excluded)
            try:
                route = find_route(g, src, dst, amount, excluded=excluded)
            except NoRouteError:
                assert expected is None
                continue
            fee, node_path, channel_ids = expected
            assert route.total_fee_msat == fee
            assert (src,) + tuple(h.to_node for h in route.hops) == node_path
            assert tuple(h.channel_id for h in route.hops) == channel_ids
            checked += 1
        assert checked > 60

    def test_zero_fee_hops_keep_the_minimum_fee(self):
        # With free hops the router may pick another minimum-fee route than
        # the oracle's lexicographically smallest one; the fee still agrees.
        rng = random.Random(32)
        checked = 0
        for _ in range(200):
            g = build_graph(random_graph_spec(rng, max_nodes=9, zero_fee_share=0.5))
            src, dst = rng.sample(sorted(g.nodes), 2)
            amount = rng.randrange(1, 1_500_000)
            excluded = self._random_exclusions(rng, g)
            expected = brute_force_route(g, src, dst, amount, excluded)
            try:
                route = find_route(g, src, dst, amount, excluded=excluded)
            except NoRouteError:
                assert expected is None
                continue
            assert route.total_fee_msat == expected[0]
            assert not {(h.channel_id, h.from_node) for h in route.hops} & excluded
            assert route.hops[0].from_node == src and route.hops[-1].to_node == dst
            checked += 1
        assert checked > 60


class TestRouteIndexInvalidation:
    """Each topology change is seen by the next search, after a cached one."""

    def test_close_channel(self, triangle_graph):
        assert [h.channel_id for h in find_route(triangle_graph, "hub", "Y", 1_000).hops] == ["yh"]
        triangle_graph.close_channel("yh")
        route = find_route(triangle_graph, "hub", "Y", 1_000)
        assert [h.channel_id for h in route.hops] == ["hx", "xy"]

    def test_add_channel(self, chain_graph):
        assert len(find_route(chain_graph, "A", "C", 1_000).hops) == 2
        chain_graph.add_channel(
            Channel("ac", "A", "C", 1_000_000, 1_000_000, FeePolicy(), FeePolicy())
        )
        assert [h.channel_id for h in find_route(chain_graph, "A", "C", 1_000).hops] == ["ac"]

    def test_add_node(self, chain_graph):
        find_route(chain_graph, "A", "C", 1_000)
        chain_graph.add_node("D")
        with pytest.raises(NoRouteError):
            find_route(chain_graph, "A", "D", 1_000)
        chain_graph.add_channel(
            Channel("cd", "C", "D", 1_000_000, 1_000_000, FeePolicy(), FeePolicy())
        )
        route = find_route(chain_graph, "A", "D", 1_000)
        assert [h.to_node for h in route.hops] == ["B", "C", "D"]

    def test_deploy_and_shrink_sleeve(self, chain_graph):
        assert len(find_route(chain_graph, "A", "C", 1_000).hops) == 2
        deploy_sleeve(chain_graph, 10_000_000, [("C", 1.0), ("E", 1.0)])
        # The zero-fee sleeve channels are now the cheapest routes.
        assert [h.channel_id for h in find_route(chain_graph, "A", "C", 1_000).hops] == [
            "sleeve-C"
        ]
        assert [h.channel_id for h in find_route(chain_graph, "A", "E", 1_000).hops] == [
            "sleeve-E"
        ]
        # Closes both 5e6 sleeve channels, smallest hub balance first, and
        # keeps the 2e9 chain channel.
        assert shrink_sleeve(chain_graph, 0.996) == 10_000_000
        assert len(find_route(chain_graph, "A", "C", 1_000).hops) == 2
        with pytest.raises(NoRouteError):
            find_route(chain_graph, "A", "E", 1_000)


    def test_hop_distances_follow_topology(self):
        # A's cached hop distances bound the search. Each change below must
        # reach them: distances kept from before a shortcut overstate the
        # fees still to come and prune the new cheapest route, and node
        # ranks shift when a node is added.
        def chan(cid, a, b, base):
            policy = {"base_msat": base, "ppm": 0}
            return {
                "id": cid,
                "a": a,
                "b": b,
                "capacity_msat": 1_000_000_000,
                "balance_a_msat": 500_000_000,
                "policy_ab": dict(policy),
                "policy_ba": dict(policy),
            }

        chain = "ABCDEF"
        g = build_graph(
            {
                "nodes": [*chain, "X"],
                "hub": "A",
                "channels": [chan(a + b, a, b, 1000) for a, b in zip(chain, chain[1:])]
                + [chan("AX", "A", "X", 1000), chan("XF", "X", "F", 2500)],
            }
        )

        def check():
            route = find_route(g, "A", "F", 1_000_000)
            fee, node_path, channel_ids = brute_force_route(g, "A", "F", 1_000_000)
            assert route.total_fee_msat == fee
            assert ("A",) + tuple(h.to_node for h in route.hops) == node_path
            assert tuple(h.channel_id for h in route.hops) == channel_ids
            return channel_ids

        assert check() == ("AX", "XF")
        g.add_channel(Channel("AE", "A", "E", 10**9, 10**9, FeePolicy(1000), FeePolicy(1000)))
        assert check() == ("AE", "EF")
        g.close_channel("AE")
        assert check() == ("AX", "XF")
        g.add_node("0")  # sorts first: every rank moves up by one
        assert check() == ("AX", "XF")
        g.add_channel(Channel("0A", "0", "A", 10**9, 10**9, FeePolicy(1000), FeePolicy(1000)))
        g.add_channel(Channel("0E", "0", "E", 10**9, 10**9, FeePolicy(500), FeePolicy(500)))
        assert check() == ("0A", "0E", "EF")


def _routing_outcome(call):
    """A call's Route, or the class of the routing error it raised."""
    try:
        return call()
    except RoutingError as exc:
        return type(exc)


class TestRouterDifferential:
    """``find_route`` and ``rebalance`` return exactly the routes of the
    plain bounded Dijkstra in conftest (hops, amounts and fees), or raise
    the same error, whatever bound the goal-directed search uses."""

    MIXES = [
        {"zero_fee_share": 0.5},
        {"zero_fee_share": 0.0},
        {},
        {"zero_fee_share": 0.0, "free_base_share": 0.5},
        {"zero_fee_share": 0.2, "free_base_share": 0.5},
    ]

    @staticmethod
    def _fee_floor(g, amount: int) -> tuple[int, int]:
        """The least base fee over the open directions, and λ: the least
        fee any hop can charge while carrying ``amount`` or more."""
        policies = [
            p for ch in g.channels.values() if ch.open for p in (ch.policy_ab, ch.policy_ba)
        ]
        min_base = min(p.base_fee_msat for p in policies)
        min_ppm = min(p.proportional_millionths for p in policies)
        return min_base, min_base + amount * min_ppm // 1_000_000

    def test_routes_match_the_reference(self):
        rng = random.Random(9)
        seen = {"free_hops": 0, "free_base": 0, "paid": 0, "routes": 0, "errors": 0}
        for trial in range(1500):
            spec = random_graph_spec(
                rng,
                max_nodes=rng.choice((6, 10, 16)),
                density=rng.choice((0.2, 0.35, 0.55)),
                **self.MIXES[trial % len(self.MIXES)],
            )
            g = build_graph(spec)
            if not g.channels:
                continue
            nodes = sorted(g.nodes)
            for _ in range(4):
                src, dst = rng.sample(nodes, 2)
                amount = rng.randrange(1, 1_500_000)
                cap = rng.choice((None, None, rng.randrange(0, 8_000)))
                excluded = TestRoutingOracle._random_exclusions(rng, g)
                min_base, lam = self._fee_floor(g, amount)
                seen["free_hops" if not lam else "free_base" if not min_base else "paid"] += 1
                got = _routing_outcome(lambda: find_route(g, src, dst, amount, cap, excluded))
                want = _routing_outcome(
                    lambda: reference_find_route(g, src, dst, amount, cap, excluded)
                )
                assert got == want, (trial, src, dst, amount, cap, excluded)
                seen["routes" if isinstance(got, Route) else "errors"] += 1
            hub_chs = sorted(ch.id for ch in g.hub_channels())
            if len(hub_chs) < 2:
                continue
            out_id, in_id = rng.sample(hub_chs, 2)
            hub_balance = g.channels[out_id].balance_from(g.hub)
            if hub_balance == 0:
                continue
            amount = rng.randrange(1, hub_balance + 1)
            cap = rng.choice((None, rng.randrange(0, 10_000)))
            want = _routing_outcome(
                lambda: reference_rebalance_route(g, out_id, in_id, amount, cap)
            )
            got = _routing_outcome(lambda: rebalance(g, out_id, in_id, amount, cap).route)
            assert got == want, (trial, out_id, in_id, amount, cap)
            seen["routes" if isinstance(got, Route) else "errors"] += 1
        assert min(seen.values()) > 300, seen


class TestSearchWork:
    """How many nodes a search settles: no timing, only the count."""

    @staticmethod
    def grid(side: int, base: int, ppm: int):
        policy = {"base_msat": base, "ppm": ppm}
        name = [[f"g{y:02d}{x:02d}" for x in range(side)] for y in range(side)]
        channels = []
        for y in range(side):
            for x in range(side):
                for dy, dx in ((0, 1), (1, 0)):
                    if y + dy < side and x + dx < side:
                        channels.append(
                            {
                                "id": f"c{len(channels):04d}",
                                "a": name[y][x],
                                "b": name[y + dy][x + dx],
                                "capacity_msat": 10**10,
                                "balance_a_msat": 5 * 10**9,
                                "policy_ab": dict(policy),
                                "policy_ba": dict(policy),
                            }
                        )
        nodes = [n for row in name for n in row]
        return build_graph({"nodes": nodes, "hub": nodes[0], "channels": channels})

    @staticmethod
    def settled_by(monkeypatch, call) -> set:
        """The nodes the router's search settles during ``call()``."""
        names = set()
        search = lightning._backward_search

        def counting(index, start, sender, exits, skip):
            settled, best = search(index, start, sender, exits, skip)
            names.update(index.nodes[v] for v, e in enumerate(settled) if e is not None)
            names.discard(index.nodes[sender])
            return settled, best

        with monkeypatch.context() as patch:
            patch.setattr(lightning, "_backward_search", counting)
            call()
        return names

    @staticmethod
    def reference_settled(g, src: str, dst: str, amount: int) -> set:
        exits = {}
        for ch in g.adjacent(src):
            exits.setdefault(ch.other(src), []).append((ch.id, ch.capacity_msat))
        settled, _ = reference_search(g, (amount, dst, "", ""), src, exits, set())
        return set(settled) - {src}

    def test_uniform_fees_settle_a_corridor(self, monkeypatch):
        g = self.grid(20, 1000, 100)
        src, dst = "g0302", "g0806"  # 9 hops apart
        settled = self.settled_by(monkeypatch, lambda: find_route(g, src, dst, 10**6))
        assert find_route(g, src, dst, 10**6) == reference_find_route(g, src, dst, 10**6)
        assert len(self.reference_settled(g, src, dst, 10**6)) > 100
        assert len(settled) <= 400 // 10

    def test_hop_distance_cache_keeps_the_latest_senders(self, monkeypatch):
        g = self.grid(5, 1000, 100)
        monkeypatch.setattr(lightning, "_HOP_CACHE_ENTRIES", 3 * len(g.nodes))
        senders = sorted(g.nodes)[:6]
        for src in senders + senders[:1]:
            find_route(g, src, "g0404", 10**6)
        index = g.route_index()
        cached = [index.nodes[v] for v in index._hops_past_first]
        assert cached == senders[4:] + senders[:1]

    def test_zero_fees_settle_the_reference_nodes(self, monkeypatch):
        rng = random.Random(3)
        cases = [(self.grid(20, 0, 0), "g0302", "g0806")]
        for _ in range(30):
            spec = random_graph_spec(rng, max_nodes=16, zero_fee_share=1.0, density=0.3)
            g = build_graph(spec)
            cases.append((g, *rng.sample(sorted(g.nodes), 2)))
        for g, src, dst in cases:
            settled = self.settled_by(
                monkeypatch, lambda: _routing_outcome(lambda: find_route(g, src, dst, 1_000))
            )
            assert settled == self.reference_settled(g, src, dst, 1_000)


class TestExecutePayment:
    def test_two_node_settle(self):
        g = build_graph(chain_spec(policies=(0, 0)))
        route = find_route(g, "A", "B", 250_000_000)
        result = execute_payment(g, route, 250_000_000)
        assert result.status is PaymentStatus.SETTLED
        assert g.channels["ab"].balance_a_msat == 1_750_000_000
        assert g.channels["ab"].balance_b_msat == 250_000_000

    def test_insufficient_balance_atomic(self):
        spec = chain_spec(policies=(0, 0))
        spec["channels"][0]["balance_a_msat"] = 100  # sender-side starved
        g = build_graph(spec)
        before = graph_state(g)
        route = find_route(g, "A", "C", 1_000_000)
        result = execute_payment(g, route, 1_000_000)
        assert result.status is PaymentStatus.INSUFFICIENT_BALANCE
        assert result.failed_hop == 0
        assert graph_state(g) == before

    def test_intermediary_earns_exact_fee(self, chain_graph):
        amount = 1_000_000_000
        b_before = chain_graph.node_balance_msat("B")
        a_before = chain_graph.node_balance_msat("A")
        c_before = chain_graph.node_balance_msat("C")
        route = find_route(chain_graph, "A", "C", amount)
        fee = route.fees_msat[1]
        assert execute_payment(chain_graph, route, amount).status is PaymentStatus.SETTLED
        assert chain_graph.node_balance_msat("B") - b_before == fee
        assert a_before - chain_graph.node_balance_msat("A") == amount + fee
        assert chain_graph.node_balance_msat("C") - c_before == amount

    def test_stale_route_rejected(self, chain_graph):
        route = find_route(chain_graph, "A", "C", 1_000_000)
        chain_graph.close_channel("bc")
        with pytest.raises(StaleRouteError):
            execute_payment(chain_graph, route, 1_000_000)

    def test_amount_mismatch_rejected(self, chain_graph):
        route = find_route(chain_graph, "A", "C", 1_000_000)
        with pytest.raises(ValueError):
            execute_payment(chain_graph, route, 999_999)


class TestSendPayment:
    def test_retry_succeeds_via_alternative(self):
        # The fee-free direct hop hub->Y is balance-dead (yh is fully on
        # Y's side); the retry pays the hx->xy detour's fee and settles.
        g = build_graph(triangle_spec())
        result = send_payment(g, "hub", "Y", 1_000_000, max_retries=2)
        assert result.status is PaymentStatus.SETTLED
        assert [h.channel_id for h in result.route.hops] == ["hx", "xy"]
        assert result.route.total_fee_msat > 0

    def test_no_retries_reports_failure(self):
        g = build_graph(triangle_spec())
        result = send_payment(g, "hub", "Y", 1_000_000, max_retries=0)
        assert result.status is PaymentStatus.INSUFFICIENT_BALANCE
        assert [h.channel_id for h in result.route.hops] == ["yh"]

    def test_no_route_status(self, chain_graph):
        result = send_payment(chain_graph, "A", "C", 5_000_000_000)
        assert result.status is PaymentStatus.NO_ROUTE

    def test_fee_cap_status(self, chain_graph):
        result = send_payment(chain_graph, "A", "C", 1_000_000_000, max_fee_msat=5)
        assert result.status is PaymentStatus.FEE_CAP_EXCEEDED


class TestDeploySleeve:
    def _bare_hub(self):
        return build_graph({"nodes": ["hub"], "hub": "hub", "channels": []})

    def test_single_peer_gets_everything(self):
        g = self._bare_hub()
        ids = deploy_sleeve(g, 7_777_777, [("peer", 1.0)])
        ch = g.channels[ids[0]]
        assert ch.capacity_msat == 7_777_777
        assert ch.balance_a_msat == 7_777_777
        assert ch.node_a == "hub"

    def test_equal_weights_remainder_by_peer_id(self):
        g = self._bare_hub()
        ids = deploy_sleeve(g, 1_000_001, [("p1", 1.0), ("p2", 1.0)])
        caps = {g.channels[i].node_b: g.channels[i].capacity_msat for i in ids}
        assert caps == {"p1": 500_001, "p2": 500_000}

    def test_weighted_split(self):
        g = self._bare_hub()
        ids = deploy_sleeve(g, 5_000_000, [("pa", 3.0), ("pb", 1.0), ("pc", 1.0)])
        caps = [g.channels[i].capacity_msat for i in ids]
        assert caps == [3_000_000, 1_000_000, 1_000_000]

    def test_min_channel_size_enforced(self):
        g = self._bare_hub()
        with pytest.raises(ValueError, match="too small"):
            deploy_sleeve(g, 1_500, [("p1", 1.0), ("p2", 1.0)], min_channel_msat=1_000)

    @given(
        total=st.integers(1, 10**12),
        weights=st.lists(st.integers(1, 10**6), min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_apportionment_sums_exactly(self, total, weights):
        g = self._bare_hub()
        peers = [(f"p{i:02d}", w) for i, w in enumerate(weights)]
        try:
            ids = deploy_sleeve(g, total, peers, min_channel_msat=1)
        except ValueError:
            return  # sleeve too small for the roster
        assert sum(g.channels[i].capacity_msat for i in ids) == total


class TestShrinkSleeve:
    def _hub_with_channels(self, balances):
        spec = {
            "nodes": ["hub"] + [f"p{i}" for i in range(len(balances))],
            "hub": "hub",
            "channels": [
                {
                    "id": f"c{i}",
                    "a": "hub",
                    "b": f"p{i}",
                    "capacity_msat": 1_000_000,
                    "balance_a_msat": bal,
                    "policy_ab": {"base_msat": 0, "ppm": 0},
                    "policy_ba": {"base_msat": 0, "ppm": 0},
                }
                for i, bal in enumerate(balances)
            ],
        }
        return build_graph(spec)

    def test_target_one_is_noop(self):
        g = self._hub_with_channels([100, 200, 300])
        before = graph_state(g)
        assert shrink_sleeve(g, 1.0) == 0
        assert graph_state(g) == before

    def test_target_zero_closes_all(self):
        g = self._hub_with_channels([100, 200, 300])
        freed = shrink_sleeve(g, 0.0)
        assert freed == 600
        assert g.hub_channels() == []

    def test_greedy_matches_prefix_enumeration(self):
        # Oracle: shortest prefix of the ascending-balance order that meets
        # the capacity target, over all targets and several balance sets.
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 6)
            balances = [rng.randrange(0, 1_000_001) for _ in range(n)]
            target = rng.random()
            g = self._hub_with_channels(balances)
            total = n * 1_000_000
            order = sorted(range(n), key=lambda i: (balances[i], f"c{i}"))
            expected_closed = 0
            remaining = total
            while remaining > target * total and expected_closed < n:
                remaining -= 1_000_000
                expected_closed += 1
            expected_freed = sum(balances[i] for i in order[:expected_closed])
            freed = shrink_sleeve(g, target)
            assert freed == expected_freed
            assert len(g.hub_channels()) == n - expected_closed

    def test_counterparty_funds_not_claimed(self):
        g = self._hub_with_channels([250_000])
        freed = shrink_sleeve(g, 0.0)
        assert freed == 250_000  # hub side only; peer's 750_000 is not freed


class TestRebalance:
    def test_zero_fee_circular(self):
        g = build_graph(triangle_spec(policies=(0, 0)))
        result = rebalance(g, "hx", "yh", 1_000_000_000)
        assert result.settled
        assert result.cost_msat == 0
        assert g.channels["hx"].balance_a_msat == 2_000_000_000
        assert g.channels["yh"].balance_b_msat == 1_000_000_000

    def test_cost_composes_hop_fees(self, triangle_graph):
        # Hand-composed: last hop fee on 1e9 is 101_000; middle hop fee on
        # 1_000_101_000 is 101_010; total 202_010.
        hub_before = triangle_graph.node_balance_msat("hub")
        result = rebalance(triangle_graph, "hx", "yh", 1_000_000_000)
        assert result.settled
        assert result.cost_msat == 202_010
        assert result.cost_bps == pytest.approx(2.0201)
        assert hub_before - triangle_graph.node_balance_msat("hub") == 202_010

    def test_no_circular_route(self, chain_graph):
        g = build_graph(
            {
                "nodes": ["hub", "L", "R"],
                "hub": "hub",
                "channels": [
                    {
                        "id": "hl",
                        "a": "hub",
                        "b": "L",
                        "capacity_msat": 1_000_000,
                        "balance_a_msat": 1_000_000,
                        "policy_ab": {"base_msat": 0, "ppm": 0},
                        "policy_ba": {"base_msat": 0, "ppm": 0},
                    },
                    {
                        "id": "hr",
                        "a": "hub",
                        "b": "R",
                        "capacity_msat": 1_000_000,
                        "balance_a_msat": 1_000_000,
                        "policy_ab": {"base_msat": 0, "ppm": 0},
                        "policy_ba": {"base_msat": 0, "ppm": 0},
                    },
                ],
            }
        )
        before = graph_state(g)
        with pytest.raises(NoRouteError):
            rebalance(g, "hl", "hr", 500_000)
        assert graph_state(g) == before

    def test_round_trip_leaks_only_fees(self):
        # Give the hub headroom on yh so the reverse leg can pay its fees.
        spec = triangle_spec()
        spec["channels"][2]["balance_a_msat"] = 2_000_000_000
        g = build_graph(spec)
        amount = 500_000_000
        baseline = {cid: ch.balance_a_msat for cid, ch in g.channels.items()}
        r1 = rebalance(g, "hx", "yh", amount)
        r2 = rebalance(g, "yh", "hx", amount)
        assert r1.settled and r2.settled
        leak = r1.cost_msat + r2.cost_msat
        for cid, ch in g.channels.items():
            assert abs(ch.balance_a_msat - baseline[cid]) <= 2 * leak

    def test_validations(self, triangle_graph):
        with pytest.raises(ValueError):
            rebalance(triangle_graph, "hx", "hx", 1_000)
        with pytest.raises(ValueError):
            rebalance(triangle_graph, "xy", "yh", 1_000)  # xy not hub-adjacent
        with pytest.raises(ValueError):
            rebalance(triangle_graph, "hx", "yh", 4_000_000_000)  # above hub balance


class TestRebalanceOracle:
    @pytest.mark.parametrize("zero_fee_share", [0.0, 0.4])
    def test_matches_brute_force_circular_routes(self, zero_fee_share):
        rng = random.Random(41)
        outcomes = {"settled": 0, "no_route": 0, "fee_cap": 0}
        for _ in range(300):
            g = build_graph(
                random_graph_spec(rng, max_nodes=8, zero_fee_share=zero_fee_share)
            )
            hub_chs = sorted(ch.id for ch in g.hub_channels())
            if len(hub_chs) < 2:
                continue
            out_id, in_id = rng.sample(hub_chs, 2)
            hub_balance = g.channels[out_id].balance_from(g.hub)
            if hub_balance == 0:
                continue
            amount = rng.randrange(1, hub_balance + 1)
            cap = rng.choice((None, rng.randrange(0, 10_000)))
            expected = brute_force_rebalance(g, out_id, in_id, amount)
            before = graph_state(g)
            if expected is None:
                with pytest.raises(NoRouteError):
                    rebalance(g, out_id, in_id, amount, max_fee_msat=cap)
                assert graph_state(g) == before
                outcomes["no_route"] += 1
            elif cap is not None and expected > cap:
                with pytest.raises(FeeCapExceededError):
                    rebalance(g, out_id, in_id, amount, max_fee_msat=cap)
                assert graph_state(g) == before
                outcomes["fee_cap"] += 1
            else:
                result = rebalance(g, out_id, in_id, amount, max_fee_msat=cap)
                assert result.cost_msat == expected
                assert result.route.hops[0].channel_id == out_id
                assert result.route.hops[-1].channel_id == in_id
                outcomes["settled"] += 1
        assert min(outcomes.values()) > 5, outcomes


class TestEnrichmentProperty:
    def test_every_settled_payment_enriches_exactly(self):
        # Sender pays amount + fees, receiver gets amount, each intermediary
        # nets exactly the fee it charged.
        rng = random.Random(909)
        settled_seen = 0
        for _ in range(12):
            g = build_graph(random_graph_spec(rng, max_nodes=8))
            nodes = sorted(g.nodes)
            if len(nodes) < 2:
                continue
            for _ in range(60):
                src, dst = rng.sample(nodes, 2)
                amount = rng.randrange(1, 1_000_000)
                balances = {n: g.node_balance_msat(n) for n in nodes}
                result = send_payment(g, src, dst, amount, max_retries=1)
                if result.status is not PaymentStatus.SETTLED:
                    continue
                settled_seen += 1
                route = result.route
                deltas = {n: g.node_balance_msat(n) - balances[n] for n in nodes}
                assert deltas[src] == -(amount + route.total_fee_msat)
                assert deltas[dst] == amount
                for i in range(1, len(route.hops)):
                    forwarder = route.hops[i].from_node
                    assert deltas[forwarder] == route.fees_msat[i]
        assert settled_seen > 100


class TestParallelChannelRebalance:
    def test_circular_between_parallel_channels(self):
        def chan(cid, bal_a):
            return {
                "id": cid,
                "a": "hub",
                "b": "peer",
                "capacity_msat": 1_000_000_000,
                "balance_a_msat": bal_a,
                "policy_ab": {"base_msat": 1000, "ppm": 100},
                "policy_ba": {"base_msat": 1000, "ppm": 100},
            }

        g = build_graph(
            {
                "nodes": ["hub", "peer"],
                "hub": "hub",
                "channels": [chan("full", 1_000_000_000), chan("empty", 0)],
            }
        )
        amount = 100_000_000
        result = rebalance(g, "full", "empty", amount)
        assert result.settled
        # Single intermediary (the peer) charges one forwarding fee.
        assert result.cost_msat == 1000 + amount * 100 // 1_000_000
        assert g.channels["empty"].balance_a_msat == amount


class TestConservationProperty:
    def test_random_operations_preserve_totals(self):
        rng = random.Random(77)
        for trial in range(8):
            g = build_graph(random_graph_spec(rng, max_nodes=10))
            nodes = sorted(g.nodes)
            if len(nodes) < 2:
                continue
            capacity_total = g.total_capacity_msat()
            for _ in range(250):
                before = graph_state(g)
                if rng.random() < 0.85 or len(g.hub_channels()) < 2:
                    src, dst = rng.sample(nodes, 2)
                    amount = rng.randrange(1, 2_000_000)
                    result = send_payment(g, src, dst, amount, max_retries=1)
                    if result.status is not PaymentStatus.SETTLED:
                        assert graph_state(g) == before
                else:
                    hub_chs = g.hub_channels()
                    a, b = rng.sample(hub_chs, 2)
                    hub_bal = a.balance_from(g.hub)
                    if hub_bal == 0:
                        continue
                    amount = rng.randrange(1, hub_bal + 1)
                    try:
                        result = rebalance(g, a.id, b.id, amount)
                    except NoRouteError:
                        assert graph_state(g) == before
                        continue
                    if not result.settled:
                        assert graph_state(g) == before
                assert g.total_balance_msat() == capacity_total
                assert g.total_capacity_msat() == capacity_total
