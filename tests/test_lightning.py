"""Channel graph, routing, payment and sleeve tests.

The routing oracle is exhaustive simple-path enumeration (conftest); the
conservation and atomicity properties run against randomized op sequences.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_rebalance,
    brute_force_route,
    chain_spec,
    count_attempts,
    graph_state,
    random_graph_spec,
    reference_execute_payment,
    reference_find_route,
    reference_rebalance_route,
    reference_search,
    reference_send_payment,
    triangle_spec,
)
from satsrail import lightning
from satsrail.lightning import (
    Channel,
    FeeCapExceededError,
    FeePolicy,
    Hop,
    NoRouteError,
    PaymentResult,
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
from satsrail.schema import ConfigError


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


# The JSON kind of each key a channel takes, and wrong values for each kind.
CHANNEL_KINDS = {
    "id": str,
    "a": str,
    "b": str,
    "capacity_msat": int,
    "balance_a_msat": int,
    "policy_ab": dict,
    "policy_ba": dict,
    "open": bool,
}
WRONG_VALUES = {
    str: [7, None, True, ["A"]],
    int: ["5000", 1900.9, True, None, {}],
    bool: ["false", 0, 1, None],
    list: [{}, "A", None],
    dict: [[], "x", None],
}


def spec_keys(spec: dict) -> list[tuple[tuple, type]]:
    """``(path, JSON kind)`` of every key in a graph spec, ``open`` included."""
    keys = [(("nodes",), list), (("hub",), str), (("channels",), list)]
    keys += [(("nodes", i), str) for i in range(len(spec["nodes"]))]
    for i in range(len(spec["channels"])):
        keys.append((("channels", i), dict))
        keys += [(("channels", i, name), kind) for name, kind in CHANNEL_KINDS.items()]
        for side in ("policy_ab", "policy_ba"):
            keys += [(("channels", i, side, name), int) for name in ("base_msat", "ppm")]
    return keys


def dotted_key(key: str, path: tuple) -> str:
    for part in path:
        if isinstance(part, int):
            key += f"[{part}]"
        else:
            key = f"{key}.{part}" if key else part
    return key


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

    @pytest.mark.parametrize(
        "path, value",
        [
            (("channels", 0, "open"), "false"),
            (("channels", 0, "capacity_msat"), 1900.9),
            (("channels", 0, "capacity_msat"), "5000"),
            (("channels", 1, "id"), 7),
            (("channels", 1, "policy_ba", "base_msat"), "1000"),
        ],
    )
    def test_build_graph_coerces_nothing(self, path, value):
        spec = chain_spec()
        *parents, last = path
        node = spec
        for part in parents:
            node = node[part]
        node[last] = value
        with pytest.raises(ConfigError) as exc:
            build_graph(spec)
        assert exc.value.key == dotted_key("", path)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), prefix=st.sampled_from(["", "graph"]), data=st.data())
    def test_a_wrong_json_type_names_exactly_its_key(self, seed, prefix, data):
        spec = random_graph_spec(random.Random(seed), max_nodes=5)
        path, kind = data.draw(st.sampled_from(spec_keys(spec)))
        node = spec
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = data.draw(st.sampled_from(WRONG_VALUES[kind]))
        with pytest.raises(ConfigError) as exc:
            build_graph(spec, prefix)
        assert exc.value.key == dotted_key(prefix, path)
        assert exc.value.message.startswith("must be ")


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


class TestSharedRouteIndex:
    """A graph and its copies share one bounded registry of route indexes,
    keyed by the channels ``close_channel`` closed."""

    @staticmethod
    def hub_to_y(g) -> list[str]:
        return [h.channel_id for h in find_route(g, "hub", "Y", 1_000).hops]

    def test_copies_with_the_same_closures_share_an_index(self, triangle_graph):
        a, b, c = (triangle_graph.copy() for _ in range(3))
        assert a.route_index() is b.route_index() is c.route_index()
        a.close_channel("yh")
        assert a.route_index() is not b.route_index()
        b.close_channel("yh")
        c.close_channel("xy")
        assert a.route_index() is b.route_index()
        assert c.route_index() not in (a.route_index(), triangle_graph.route_index())
        assert self.hub_to_y(a) == self.hub_to_y(b) == ["hx", "xy"]
        assert self.hub_to_y(c) == self.hub_to_y(triangle_graph) == ["yh"]
        # Each closure set reaches the same index, in whichever order.
        d, e = triangle_graph.copy(), triangle_graph.copy()
        d.close_channel("xy")
        d.close_channel("yh")
        e.close_channel("yh")
        e.close_channel("xy")
        assert d.route_index() is e.route_index()

    @pytest.mark.parametrize("grow", ["add_node", "add_channel"])
    def test_growing_a_copy_detaches_it(self, triangle_graph, grow):
        a, b = triangle_graph.copy(), triangle_graph.copy()
        shared = a.route_index()
        if grow == "add_node":
            a.add_node("Z")
        else:
            a.add_channel(Channel("hy", "hub", "Y", 10**9, 10**9, FeePolicy(), FeePolicy()))
        assert a._indexes is not b._indexes
        assert a.route_index() is not shared
        assert b.route_index() is shared
        assert triangle_graph.route_index() is shared
        assert self.hub_to_y(a) == (["hy"] if grow == "add_channel" else ["yh"])
        assert self.hub_to_y(b) == ["yh"]

    def test_changes_to_the_original_do_not_reach_a_copy(self, triangle_graph):
        copy = triangle_graph.copy()
        shared = copy.route_index()
        triangle_graph.close_channel("yh")
        assert copy.route_index() is shared
        assert self.hub_to_y(copy) == ["yh"]
        triangle_graph.add_channel(
            Channel("hy", "hub", "Y", 10**9, 10**9, FeePolicy(), FeePolicy())
        )
        assert self.hub_to_y(triangle_graph) == ["hy"]
        assert copy.route_index() is shared
        assert self.hub_to_y(copy) == ["yh"]
        assert "hy" not in copy.channels and copy.channels["yh"].open

    def test_the_registry_keeps_the_latest_indexes(self):
        g = build_graph(chain_spec())
        for ch in range(lightning._INDEXES + 3):
            g.add_channel(Channel(f"x{ch}", "A", "C", 10**6, 10**6, FeePolicy(), FeePolicy()))
        copies = []
        for cid in sorted(g.channels):
            copy = g.copy()
            copy.close_channel(cid)
            copies.append((copy, copy.route_index()))
        assert len(g._indexes) == lightning._INDEXES
        latest = copies[-lightning._INDEXES :]
        assert list(g._indexes.values()) == [index for _, index in latest]
        # A hit moves an index to the back; an evicted topology is rebuilt.
        first, first_index = copies[0]
        kept, kept_index = latest[0]
        assert kept.route_index() is kept_index
        assert first.route_index() is not first_index
        assert list(g._indexes.values())[-2:] == [kept_index, first.route_index()]
        assert len(g._indexes) == lightning._INDEXES

    def test_a_pickle_carries_no_registry(self, triangle_graph):
        find_route(triangle_graph, "hub", "Y", 1_000)
        cold = triangle_graph.copy()
        cold._indexes = {}
        thawed = pickle.loads(pickle.dumps(triangle_graph))
        assert pickle.dumps(triangle_graph) == pickle.dumps(cold)
        assert thawed._indexes == {} and thawed == triangle_graph
        assert self.hub_to_y(thawed) == ["yh"]

    def test_warm_shared_indexes_match_the_reference(self):
        # Several copies of one graph close channels in their own order and
        # pay through the indexes they share; each has a twin that the
        # reference routes and pays on.
        rng = random.Random(20)
        seen = {"paid": 0, "routes": 0, "errors": 0, "shared": 0}
        for trial in range(150):
            spec = random_graph_spec(
                rng, max_nodes=rng.choice((6, 10, 14)), density=rng.choice((0.3, 0.55))
            )
            g = build_graph(spec)
            if len(g.channels) < 3:
                continue
            nodes = sorted(g.nodes)
            pairs = [(g.copy(), g.copy()) for _ in range(3)]
            for _ in range(16):
                graph, twin = rng.choice(pairs)
                open_ids = sorted(cid for cid, ch in graph.channels.items() if ch.open)
                action = rng.random()
                if action < 0.2 and len(open_ids) > 1:
                    cid = rng.choice(open_ids[:3])  # copies often close the same ones
                    graph.close_channel(cid)
                    twin.close_channel(cid)
                    continue
                src, dst = rng.sample(nodes, 2)
                amount = rng.randrange(1, 1_500_000)
                if action < 0.6:
                    retries = rng.randrange(3)
                    got = send_payment(graph, src, dst, amount, max_retries=retries)
                    want = reference_send_payment(twin, src, dst, amount, max_retries=retries)
                    assert got == want, (trial, src, dst, amount)
                    assert graph_state(graph) == graph_state(twin)
                    seen["paid"] += 1
                    continue
                cap = rng.choice((None, rng.randrange(0, 8_000)))
                excluded = TestRoutingOracle._random_exclusions(rng, graph)
                got = _routing_outcome(lambda: find_route(graph, src, dst, amount, cap, excluded))
                want = _routing_outcome(
                    lambda: reference_find_route(twin, src, dst, amount, cap, excluded)
                )
                assert got == want, (trial, src, dst, amount, cap, excluded)
                seen["routes" if isinstance(got, Route) else "errors"] += 1
            indexes = [graph.route_index() for graph, _ in pairs]
            seen["shared"] += len(indexes) - len({id(i) for i in indexes})
        assert min(seen.values()) > 30, seen


class TestHopBound:
    """The bounded, resumable hop distances keep every route exact."""

    @staticmethod
    def state(g, sender: str):
        """The cached search state of a free first hop from ``sender``:
        ``(labels, frontier, next level, bound, targets)``."""
        index = g.route_index()
        return index._hops_past_first[index.node_rank[sender]]

    def test_a_deepened_cache_keeps_routes_exact(self):
        g = TestSearchWork.grid(9, 1000, 100)
        src = "g0000"
        levels = []
        # Receivers 1, 3, 6, 10 and 16 hops away, then back in.
        for dst in ["g0001", "g0102", "g0303", "g0505", "g0808", "g0404", "g0100"]:
            assert find_route(g, src, dst, 10**6) == reference_find_route(g, src, dst, 10**6)
            labels, _, level, bound, targets = self.state(g, src)
            assert list(bound) == [min(label, level) for label in labels]
            assert g.route_index().node_rank[dst] in targets
            levels.append(level)
        assert levels == sorted(levels) and levels[-1] == levels[-3] > levels[0]
        # One search state for the sender, deepened rather than rebuilt.
        assert list(g.route_index()._hops_past_first) == [g.route_index().node_rank[src]]

    @pytest.mark.parametrize("change", ["add_channel", "close_channel"])
    def test_a_topology_change_drops_a_deepening_search(self, change):
        g = TestSearchWork.grid(9, 1000, 100)
        src, far_dst = "g0000", "g0808"
        find_route(g, src, "g0102", 10**6)
        shallow, index = self.state(g, src), g.route_index()
        assert shallow[1] and shallow[2] < 8  # labels left to resume
        if change == "add_channel":
            fee = FeePolicy(1000, 100)
            g.add_channel(Channel("short", src, "g0707", 10**10, 5 * 10**9, fee, fee))
        else:
            ends = {"g0001", "g0002"}
            g.close_channel(
                next(ch.id for ch in g.adjacent("g0001") if {ch.node_a, ch.node_b} == ends)
            )
        assert g.route_index() is not index
        route = find_route(g, src, far_dst, 10**6)
        assert route == reference_find_route(g, src, far_dst, 10**6)
        assert self.state(g, src) is not shallow
        if change == "add_channel":
            assert route.hops[0].channel_id == "short"

    DETOURS = {
        # The cheap route runs through C, which the hop search never reaches:
        # it lies as deep as the receiver, and must read no deeper.
        "behind": ("SA AR SB BC CD DR", "AR"),
        # The cheap route steps from R to Z, as far from S as R is: the
        # marker for R's held directions must pop before the dear exit A.
        "sideways": ("SA AR SB BZ ZR", "AR"),
    }

    @pytest.mark.parametrize("edges, dear", DETOURS.values(), ids=DETOURS)
    def test_a_cheaper_detour_is_found(self, edges, dear):
        def chan(edge):
            fee = {"base_msat": 3500 if edge == dear else 1000, "ppm": 0}
            return {
                "id": edge,
                "a": edge[0],
                "b": edge[1],
                "capacity_msat": 10**9,
                "balance_a_msat": 5 * 10**8,
                "policy_ab": dict(fee),
                "policy_ba": dict(fee),
            }

        edges = edges.split()
        nodes = sorted(set("".join(edges)))
        g = build_graph({"nodes": nodes, "hub": "S", "channels": list(map(chan, edges))})
        route = find_route(g, "S", "R", 10**6)
        assert route == reference_find_route(g, "S", "R", 10**6)
        assert route.total_fee_msat == brute_force_route(g, "S", "R", 10**6)[0]
        assert dear not in {h.channel_id for h in route.hops}

    def test_an_unreachable_receiver_labels_the_whole_component(self):
        g = TestSearchWork.grid(3, 1000, 100)
        g.add_node("x1")
        g.add_node("x2")
        g.add_channel(Channel("x", "x1", "x2", 10**10, 10**9, FeePolicy(5), FeePolicy(5)))
        with pytest.raises(NoRouteError):
            find_route(g, "g0000", "x2", 10**6)
        labels, frontier, _, bound, _ = self.state(g, "g0000")
        index = g.route_index()
        assert not frontier
        labelled = {index.nodes[v] for v, d in enumerate(labels) if d != lightning._UNLABELLED}
        assert labelled == {f"g{y:02d}{x:02d}" for y in range(3) for x in range(3)}
        assert bound[index.node_rank["x1"]] == bound[index.node_rank["x2"]]


def long_circle(length: int, policy, hub_cut: bool) -> "lightning.ChannelGraph":
    """The hub with channels to both ends of a chain of ``length`` nodes, so
    the one circle runs the whole chain; with ``hub_cut`` the hub also
    reaches the chain's middle, which a circle cannot use.
    ``policy(i)`` gives the i-th channel's fee policy as ``(base, ppm)``."""
    chain = [f"c{i:02d}" for i in range(length)]
    ends = [("h0", "hub", chain[0]), ("h1", chain[-1], "hub")]
    if hub_cut:
        ends.append(("h2", "hub", chain[length // 2]))
    links = [(f"l{i:02d}", a, b) for i, (a, b) in enumerate(zip(chain, chain[1:]))]
    channels = []
    for i, (cid, a, b) in enumerate(ends + links):
        base, ppm = policy(i)
        fee = {"base_msat": base, "ppm": ppm}
        channels.append(
            {
                "id": cid,
                "a": a,
                "b": b,
                "capacity_msat": 10**10,
                "balance_a_msat": 5 * 10**9,
                "policy_ab": dict(fee),
                "policy_ba": dict(fee),
            }
        )
    return build_graph({"nodes": ["hub", *chain], "hub": "hub", "channels": channels})


class TestRebalanceBound:
    """Rebalances bound their search by hops from the source channel's peer
    without the hub; the routes stay the plain Dijkstra's."""

    FEES = {
        "zero": lambda rng: (lambda i: (0, 0)),
        "mixed": lambda rng: (lambda i: (rng.choice((0, 1, 1000)), rng.choice((0, 1, 250)))),
        "paid": lambda rng: (lambda i: (rng.randrange(1, 2000), rng.randrange(0, 500))),
    }

    @pytest.mark.parametrize("hub_cut", [False, True], ids=["chain", "hub-cut"])
    @pytest.mark.parametrize("fees", FEES, ids=FEES)
    def test_the_long_circle_matches_the_oracles(self, fees, hub_cut):
        rng = random.Random(f"{fees}/{hub_cut}")
        for length in (2, 5, 12, 30):
            g = long_circle(length, self.FEES[fees](rng), hub_cut)
            for out_id, in_id in (("h0", "h1"), ("h1", "h0")):
                amount = rng.randrange(1, 10**9)
                want = reference_rebalance_route(g, out_id, in_id, amount)
                assert want.total_fee_msat == brute_force_rebalance(g, out_id, in_id, amount)
                result = rebalance(g, out_id, in_id, amount)
                assert result.route == want
                assert len(want.hops) == length + 1

    def test_a_circle_only_through_the_hub_is_no_route(self):
        g = long_circle(6, lambda i: (1000, 100), hub_cut=True)
        g.close_channel("l02")  # the chain breaks: only the hub joins its halves
        before = graph_state(g)
        with pytest.raises(NoRouteError):
            rebalance(g, "h0", "h1", 10**6)
        assert brute_force_rebalance(g, "h0", "h1", 10**6) is None
        assert graph_state(g) == before


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

    def test_a_rebalance_settles_a_corridor(self, monkeypatch):
        # The hub (g0000) reaches the grid's whole first column, so hops from
        # the hub barely bound the circle out to g0302 and back from g0806;
        # hops from g0302 without the hub do.
        g = self.grid(20, 1000, 100)
        fee = FeePolicy(1000, 100)
        ends = [f"g{y:02d}00" for y in range(1, 20)] + ["g0302", "g0806"]
        for node in ends:
            g.add_channel(Channel(f"hub-{node}", g.hub, node, 10**10, 10**10, fee, fee))
        amount = 10**6
        want = reference_rebalance_route(g, "hub-g0302", "hub-g0806", amount)
        results = []
        settled = self.settled_by(
            monkeypatch,
            lambda: results.append(rebalance(g, "hub-g0302", "hub-g0806", amount)),
        )
        assert results[0].route == want
        start = (want.amounts_msat[-2], "g0806", g.hub, "hub-g0806")
        reference, _ = reference_search(g, start, g.hub, {"g0302": [("hub-g0302", 10**10)]}, set())
        assert len(set(reference) - {g.hub}) > 100
        assert len(settled) <= 400 // 10

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


def drained_triangle_spec() -> dict:
    """The triangle with X's side of ``xy`` empty: from the hub, Y's direct
    channel ``yh`` is empty on the hub's side and the detour through X fails
    at its second hop, ``xy``."""
    spec = triangle_spec()
    spec["channels"][1]["balance_a_msat"] = 0
    return spec


def square_spec() -> dict:
    """The drained triangle plus a detour hub -> Z -> Y that settles, at the
    same fee as the one through X."""
    spec = drained_triangle_spec()
    hx = spec["channels"][0]
    spec["nodes"].append("Z")
    spec["channels"] += [dict(hx, id="hz", b="Z"), dict(hx, id="zy", a="Z", b="Y")]
    return spec


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
        # The hub skips its empty direct channel; the detour fails past it.
        g = build_graph(drained_triangle_spec())
        result = send_payment(g, "hub", "Y", 1_000_000, max_retries=0)
        assert result.status is PaymentStatus.INSUFFICIENT_BALANCE
        assert [h.channel_id for h in result.route.hops] == ["hx", "xy"]
        assert result.failed_hop == 1

    def test_no_route_status(self, chain_graph):
        result = send_payment(chain_graph, "A", "C", 5_000_000_000)
        assert result.status is PaymentStatus.NO_ROUTE

    def test_fee_cap_status(self, chain_graph):
        result = send_payment(chain_graph, "A", "C", 1_000_000_000, max_fee_msat=5)
        assert result.status is PaymentStatus.FEE_CAP_EXCEEDED

    def test_each_attempt_calls_find_route_and_execute_payment(self, monkeypatch):
        # The bench tracer times route search and execution by wrapping these
        # two module globals; an attempt that bypassed them would go unseen.
        # The route through X fails at its second hop and the retry settles.
        calls = count_attempts(monkeypatch)
        result = send_payment(build_graph(square_spec()), "hub", "Y", 1_000_000, max_retries=2)
        assert result.status is PaymentStatus.SETTLED
        assert [h.channel_id for h in result.route.hops] == ["hz", "zy"]
        assert calls == {"find_route": 2, "execute_payment": 2}

    def test_a_short_own_channel_costs_no_attempt(self, monkeypatch):
        # The hub's cheapest channel to Y, the fee-free direct one, is empty
        # on its side: the first search already leaves it out.
        calls = count_attempts(monkeypatch)
        result = send_payment(build_graph(triangle_spec()), "hub", "Y", 1_000_000, max_retries=2)
        assert result.status is PaymentStatus.SETTLED
        assert [h.channel_id for h in result.route.hops] == ["hx", "xy"]
        assert calls == {"find_route": 1, "execute_payment": 1}

    def test_a_payer_with_no_channel_holding_the_amount_has_no_route(self, monkeypatch):
        # X holds nothing on either of its channels. The search that skips
        # them finds no route, and nothing is tried: insufficient_balance
        # always names a route that was tried and the hop that was short.
        g = build_graph(drained_triangle_spec())
        before = graph_state(g)
        calls = count_attempts(monkeypatch)
        assert send_payment(g, "X", "Y", 1_000_000, max_retries=3) == PaymentResult(
            PaymentStatus.NO_ROUTE
        )
        assert calls == {"find_route": 1, "execute_payment": 0}
        assert graph_state(g) == before
        twin = build_graph(drained_triangle_spec())
        blind = reference_send_payment(twin, "X", "Y", 1_000_000, blind=True)
        assert (blind.status, blind.failed_hop) == (PaymentStatus.INSUFFICIENT_BALANCE, 0)

    def test_matches_the_reference_loop(self, monkeypatch):
        """Payment sequences, with rebalances between them, give the same
        results and leave the same balances as the retry loop in conftest
        over the reference search and the reference execution."""
        executions = []

        def counted(*args, _call=lightning.execute_payment):
            executions.append(None)
            return _call(*args)

        monkeypatch.setattr(lightning, "execute_payment", counted)
        rng = random.Random(23)
        seen = dict.fromkeys(PaymentStatus, 0) | {"retried": 0, "rebalanced": 0}
        for trial in range(160):
            spec = random_graph_spec(
                rng,
                max_nodes=rng.choice((5, 8, 12)),
                density=rng.choice((0.45, 0.7)),
                **TestRouterDifferential.MIXES[trial % len(TestRouterDifferential.MIXES)],
            )
            g, ref = build_graph(spec), build_graph(spec)
            nodes = sorted(g.nodes)
            hub_chs = sorted(ch.id for ch in g.hub_channels())
            for step in range(25):
                if len(hub_chs) >= 2 and rng.random() < 0.2:
                    out_id, in_id = rng.sample(hub_chs, 2)
                    hub_balance = g.channels[out_id].balance_from(g.hub)
                    if not hub_balance:
                        continue
                    amount = rng.randrange(1, hub_balance + 1)
                    cap = rng.choice((None, rng.randrange(0, 10_000)))
                    got = _routing_outcome(lambda: rebalance(g, out_id, in_id, amount, cap))
                    if not isinstance(got, type):
                        got = (got.route, got.payment)
                        seen["rebalanced"] += got[1].status is PaymentStatus.SETTLED

                    def reference_rebalance():
                        route = reference_rebalance_route(ref, out_id, in_id, amount, cap)
                        return route, reference_execute_payment(ref, route, amount)

                    assert got == _routing_outcome(reference_rebalance), (trial, step)
                else:
                    src, dst = rng.sample(nodes, 2)
                    amount = rng.randrange(1, rng.choice((300_000, 300_000, 3_000_000)))
                    exits = list(g.adjacent(src))
                    pick = rng.random()
                    if exits and pick < 0.2:  # all a first hop holds
                        amount = max(1, rng.choice(exits).balance_from(src))
                    elif g.channels and pick < 0.4:  # all one side of any channel holds
                        ch = g.channels[rng.choice(sorted(g.channels))]
                        amount = max(1, ch.balance_from(rng.choice((ch.node_a, ch.node_b))))
                    cap = rng.choice((None, rng.randrange(0, 3_000)))
                    retries = rng.randrange(0, 4)
                    executions.clear()
                    got = send_payment(g, src, dst, amount, cap, retries)
                    want = reference_send_payment(ref, src, dst, amount, cap, retries)
                    assert (got.status, got.route, got.failed_hop) == (
                        want.status,
                        want.route,
                        want.failed_hop,
                    ), (trial, step)
                    seen[got.status] += 1
                    seen["retried"] += len(executions) > 1
                assert graph_state(g) == graph_state(ref), (trial, step)
        assert min(seen.values()) > 100, seen


class TestOwnBalances:
    """The sender knows its own balances, and only those: remote ones stay
    private, so an attempt can still fail past the first hop."""

    @staticmethod
    def _payments(seed: int):
        """A random graph and its twin, with a few payments between random
        nodes; an amount is often exactly, or at most, what one channel side
        holds."""
        rng = random.Random(seed)
        spec = random_graph_spec(rng, max_nodes=rng.choice((4, 8)))
        g, twin = build_graph(spec), build_graph(spec)
        nodes, channels = sorted(g.nodes), sorted(g.channels.values(), key=lambda ch: ch.id)
        for _ in range(12 if channels else 0):
            src, dst = rng.sample(nodes, 2)
            ch = rng.choice(channels)
            held = ch.balance_from(rng.choice((ch.node_a, ch.node_b)))
            amount = max(1, rng.choice((held, rng.randint(0, held), rng.randrange(1, 2_000_000))))
            cap = rng.choice((None, rng.randrange(0, 5_000)))
            yield g, twin, (src, dst, amount, cap, rng.randrange(4))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_a_sender_whose_channels_all_hold_the_amount_pays_as_the_blind_loop(self, seed):
        for g, twin, payment in self._payments(seed):
            src, amount = payment[0], payment[2]
            if any(ch.balance_from(src) < amount for ch in g.adjacent(src)):
                continue
            assert send_payment(g, *payment) == reference_send_payment(twin, *payment, blind=True)
            assert graph_state(g) == graph_state(twin)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_no_attempt_leaves_through_a_channel_short_of_the_amount(self, seed):
        tried = []

        def execute(graph, route, amount_msat):
            hop = route.hops[0]
            tried.append(graph.channels[hop.channel_id].balance_from(hop.from_node) - amount_msat)
            return execute_payment(graph, route, amount_msat)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lightning, "execute_payment", execute)
            for g, _, payment in self._payments(seed):
                send_payment(g, *payment)
        assert all(left >= 0 for left in tried), tried


class TestRouteChecks:
    """Each invariant a :class:`Route` or :class:`PaymentResult` checks at
    construction raises its own ``ValueError``."""

    HOPS = (Hop("ab", "A", "B"), Hop("bc", "B", "C"), Hop("cd", "C", "D"))

    def test_a_consistent_route_builds(self):
        route = Route(self.HOPS, (1_300, 1_100, 1_000), (0, 200, 100), 300)
        assert PaymentResult(PaymentStatus.SETTLED, route).failed_hop is None

    @pytest.mark.parametrize(
        "amounts, fees, total, message",
        [
            ((1_300, 1_100, 1_000), (0, 200), 200, "hops, amounts and fees must align"),
            ((1_300, 1_000), (0, 200, 100), 300, "hops, amounts and fees must align"),
            ((1_300, 1_100, 1_000), (5, 200, 100), 305, "the sender's hop carries no fee"),
            ((1_300, 1_100, 1_000), (0, 199, 100), 299, "amounts must decrease hop-to-hop"),
            ((1_300, 1_100, 1_000), (0, 200, 101), 301, "amounts must decrease hop-to-hop"),
            ((1_300, 1_100, 1_000), (0, 200, 100), 301, "total fee must equal the sum"),
        ],
    )
    def test_an_inconsistent_route_raises(self, amounts, fees, total, message):
        with pytest.raises(ValueError, match=message):
            Route(self.HOPS, amounts, fees, total)

    @pytest.mark.parametrize("route, failed_hop", [(None, None), (None, 0), ("route", 0)])
    def test_settled_needs_a_route_and_no_failed_hop(self, route, failed_hop):
        if route == "route":
            route = Route(self.HOPS[:1], (1_000,), (0,), 0)
        with pytest.raises(ValueError, match="settled implies a route and no failed hop"):
            PaymentResult(PaymentStatus.SETTLED, route, failed_hop)


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
