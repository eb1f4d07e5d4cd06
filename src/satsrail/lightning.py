"""Payment-channel network micro-simulator.

Economic model only: channels are capacity splits with per-direction fee
policies, payments are single-path and atomic, and the router prices a route
from receiver to sender so every hop's entering amount equals the delivered
amount plus all downstream fees. There is no HTLC/onion/gossip machinery.

Fee semantics (single source of truth for all fee math): forwarding through
a channel direction costs ``base_fee_msat + floor(forward_amount *
proportional_millionths / 1_000_000)``, charged by the node that forwards
into that direction. The sender's own first hop is free. The router sees
channel capacities, never private balances, so a found route can still fail
on execution; callers may retry with the failed direction excluded.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .util import (
    ConfigError,
    apportion_largest_remainder,
    canonical_json,  # unused here; bench/tracer.py wraps lightning.canonical_json
    decimal_fraction,
    json_as,
)


class RoutingError(Exception):
    """Base class for route-search failures."""


class NoRouteError(RoutingError):
    """No feasible path exists."""


class FeeCapExceededError(RoutingError):
    """A path exists but every one costs more than the fee cap."""


class StaleRouteError(RoutingError):
    """A route references a closed or missing channel."""


class PaymentStatus(str, Enum):
    SETTLED = "settled"
    NO_ROUTE = "no_route"
    INSUFFICIENT_BALANCE = "insufficient_balance"
    FEE_CAP_EXCEEDED = "fee_cap_exceeded"


@dataclass(frozen=True)
class FeePolicy:
    """Forwarding fee for one channel direction."""

    base_fee_msat: int = 0
    proportional_millionths: int = 0

    def __post_init__(self):
        if self.base_fee_msat < 0 or self.proportional_millionths < 0:
            raise ValueError("fee policy fields must be non-negative")


def hop_fee(policy: FeePolicy, forward_amount_msat: int) -> int:
    """Fee for forwarding ``forward_amount_msat`` under ``policy``."""
    if forward_amount_msat < 0:
        raise ValueError("forward amount must be non-negative")
    return (
        policy.base_fee_msat
        + forward_amount_msat * policy.proportional_millionths // 1_000_000
    )


@dataclass
class Channel:
    """Two-party channel; ``balance_b`` is derived from capacity."""

    id: str
    node_a: str
    node_b: str
    capacity_msat: int
    balance_a_msat: int
    policy_ab: FeePolicy
    policy_ba: FeePolicy
    open: bool = True

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise ValueError(f"channel {self.id}: endpoints must differ")
        if self.capacity_msat <= 0:
            raise ValueError(f"channel {self.id}: capacity must be positive")
        if not 0 <= self.balance_a_msat <= self.capacity_msat:
            raise ValueError(f"channel {self.id}: balance exceeds capacity")

    @property
    def balance_b_msat(self) -> int:
        return self.capacity_msat - self.balance_a_msat

    def other(self, node: str) -> str:
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"{node} is not an endpoint of channel {self.id}")

    def balance_from(self, node: str) -> int:
        """Spendable balance when ``node`` sends through this channel."""
        return self.balance_a_msat if node == self.node_a else self.balance_b_msat

    def policy_from(self, node: str) -> FeePolicy:
        """Fee policy charged when ``node`` forwards into this channel."""
        return self.policy_ab if node == self.node_a else self.policy_ba

    def shift(self, from_node: str, amount_msat: int) -> None:
        """Move ``amount_msat`` from ``from_node``'s side to the other side."""
        if from_node == self.node_a:
            self.balance_a_msat -= amount_msat
        else:
            self.balance_a_msat += amount_msat
        if not 0 <= self.balance_a_msat <= self.capacity_msat:
            raise AssertionError(f"channel {self.id}: balance out of range")


# How many hop distances a route index keeps cached, summed over senders.
_HOP_CACHE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class _RouteIndex:
    """Integer-indexed snapshot of the open topology, read by route search.

    Node and channel ranks follow the sorted string ids, so comparing ranks
    compares ids. ``incoming[v]`` lists every open channel direction into
    node ``v`` as ``(prev, channel, capacity, base fee, ppm)``: the policy is
    the one ``prev`` charges for forwarding into that channel. Each list is
    sorted by base fee, then channel, so a search can stop scanning once the
    base fee alone exceeds its bound. ``neighbours[v]`` lists the ``prev``
    of each of those directions, in the same order. ``min_base`` and
    ``min_ppm`` are the smallest base fee and ppm over all open directions.
    Balances are not indexed; the router never reads them.

    The index also caches, per sender, the hop distances that bound a
    search (:meth:`hops_past_first`), and the :class:`Hop` of each traced
    direction. Both live and die with the index, so a topology change drops
    them too.
    """

    nodes: tuple[str, ...]
    node_rank: dict[str, int]
    channel_ids: tuple[str, ...]
    channel_rank: dict[str, int]
    incoming: tuple[tuple[tuple[int, int, int, int, int], ...], ...]
    neighbours: tuple[tuple[int, ...], ...]
    min_base: int
    min_ppm: int
    _hops_past_first: dict[int, list[int]] = field(default_factory=dict, compare=False)
    _hop_objects: dict[tuple[int, int], "Hop"] = field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, graph: "ChannelGraph") -> "_RouteIndex":
        nodes = tuple(sorted(graph.nodes))
        node_rank = {n: i for i, n in enumerate(nodes)}
        open_channels = sorted(
            (ch for ch in graph.channels.values() if ch.open), key=lambda ch: ch.id
        )
        incoming: list[list] = [[] for _ in nodes]
        for c, ch in enumerate(open_channels):
            a, b = node_rank[ch.node_a], node_rank[ch.node_b]
            cap, ab, ba = ch.capacity_msat, ch.policy_ab, ch.policy_ba
            incoming[b].append((a, c, cap, ab.base_fee_msat, ab.proportional_millionths))
            incoming[a].append((b, c, cap, ba.base_fee_msat, ba.proportional_millionths))
        incoming = [tuple(sorted(dirs, key=lambda d: (d[3], d[1]))) for dirs in incoming]
        return cls(
            nodes=nodes,
            node_rank=node_rank,
            channel_ids=tuple(ch.id for ch in open_channels),
            channel_rank={ch.id: c for c, ch in enumerate(open_channels)},
            incoming=tuple(incoming),
            neighbours=tuple(tuple(d[0] for d in dirs) for dirs in incoming),
            min_base=min((d[3] for dirs in incoming for d in dirs), default=0),
            min_ppm=min((d[4] for dirs in incoming for d in dirs), default=0),
        )

    def directions(self, pairs: Iterable[tuple[str, str]]) -> set[tuple[int, int]]:
        """Ranks of the open ``(channel_id, sending_node)`` directions in ``pairs``."""
        out = set()
        for channel_id, node in pairs:
            c = self.channel_rank.get(channel_id)
            v = self.node_rank.get(node)
            if c is not None and v is not None:
                out.add((c, v))
        return out

    def hops_past_first(self, sender: int) -> list[int]:
        """Per node rank, ``max(d - 1, 0)`` for ``d`` its hop distance from
        ``sender`` over the open topology; ``len(nodes)`` when unreachable.

        Kept for the most recently used senders, at most
        ``_HOP_CACHE_ENTRIES`` distances in all.
        """
        cache = self._hops_past_first
        far = cache.pop(sender, None)
        if far is None:
            n = len(self.nodes)
            neighbours = self.neighbours
            far = [n] * n
            far[sender] = 0
            frontier, level = [sender], 0
            while frontier:
                reached = []
                for node in frontier:
                    for prev in neighbours[node]:
                        if far[prev] == n:
                            far[prev] = level
                            reached.append(prev)
                frontier, level = reached, level + 1
            if len(cache) >= max(1, _HOP_CACHE_ENTRIES // n):
                del cache[next(iter(cache))]
        cache[sender] = far
        return far


@dataclass
class ChannelGraph:
    """Nodes plus channels, with one designated hub (the treasury's node).

    Route search reads a cached :class:`_RouteIndex`, built at the first
    search after a topology change. ``add_node``, ``add_channel`` and
    ``close_channel`` are the only methods that change topology, and each
    drops the cache; change nodes, channels, capacities or policies through
    them only. Balance moves (``Channel.shift``) need no invalidation.
    """

    nodes: set[str]
    hub: str
    channels: dict[str, Channel] = field(default_factory=dict)
    _adjacency: dict[str, list[str]] = field(default_factory=dict, repr=False)
    _route_index: _RouteIndex | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.hub not in self.nodes:
            raise ValueError(f"hub {self.hub!r} must exist in nodes")
        if not self._adjacency:
            self._adjacency = {n: [] for n in sorted(self.nodes)}
            for ch in self.channels.values():
                self._register(ch)

    def _register(self, ch: Channel) -> None:
        for node in (ch.node_a, ch.node_b):
            if node not in self.nodes:
                raise ValueError(f"channel {ch.id}: unknown endpoint {node!r}")
            self._adjacency.setdefault(node, []).append(ch.id)

    def add_node(self, node: str) -> None:
        if node not in self.nodes:
            self.nodes.add(node)
            self._adjacency[node] = []
            self._route_index = None

    def add_channel(self, ch: Channel) -> None:
        if ch.id in self.channels:
            raise ValueError(f"duplicate channel id {ch.id!r}")
        self.channels[ch.id] = ch
        self._register(ch)
        self._route_index = None

    def close_channel(self, channel_id: str) -> Channel:
        ch = self.channels[channel_id]
        ch.open = False
        self._route_index = None
        return ch

    def route_index(self) -> _RouteIndex:
        """The route-search view of the current topology."""
        if self._route_index is None:
            self._route_index = _RouteIndex.of(self)
        return self._route_index

    def adjacent(self, node: str) -> Iterator[Channel]:
        """Open channels with ``node`` as an endpoint, insertion order."""
        for cid in self._adjacency.get(node, ()):
            ch = self.channels[cid]
            if ch.open:
                yield ch

    def hub_channels(self) -> list[Channel]:
        return list(self.adjacent(self.hub))

    def total_capacity_msat(self) -> int:
        return sum(ch.capacity_msat for ch in self.channels.values() if ch.open)

    def total_balance_msat(self) -> int:
        return sum(
            ch.balance_a_msat + ch.balance_b_msat
            for ch in self.channels.values()
            if ch.open
        )

    def node_balance_msat(self, node: str) -> int:
        """Total local balance ``node`` holds across its open channels."""
        return sum(ch.balance_from(node) for ch in self.adjacent(node))


@dataclass(frozen=True)
class Hop:
    channel_id: str
    from_node: str
    to_node: str


@dataclass(frozen=True)
class Route:
    """Ordered hops with per-hop entering amounts and fees.

    ``amounts_msat[i]`` is the amount pushed into hop i's channel (and
    received by ``hops[i].to_node``). ``fees_msat[i]`` is the fee charged by
    the node forwarding into hop i; it is zero for the first hop (the
    sender) and ``amounts_msat[i-1] - amounts_msat[i]`` otherwise.
    """

    hops: tuple[Hop, ...]
    amounts_msat: tuple[int, ...]
    fees_msat: tuple[int, ...]
    total_fee_msat: int

    def __post_init__(self):
        if len(self.hops) != len(self.amounts_msat) or len(self.hops) != len(
            self.fees_msat
        ):
            raise ValueError("hops, amounts and fees must align")
        if self.fees_msat and self.fees_msat[0] != 0:
            raise ValueError("the sender's hop carries no fee")
        for i in range(1, len(self.hops)):
            if self.amounts_msat[i - 1] - self.amounts_msat[i] != self.fees_msat[i]:
                raise ValueError("amounts must decrease hop-to-hop by the fee")
        if self.total_fee_msat != sum(self.fees_msat):
            raise ValueError("total fee must equal the sum of hop fees")


@dataclass(frozen=True)
class PaymentResult:
    status: PaymentStatus
    route: Route | None = None
    failed_hop: int | None = None

    def __post_init__(self):
        if self.status is PaymentStatus.SETTLED:
            if self.route is None or self.failed_hop is not None:
                raise ValueError("settled implies a route and no failed hop")


# --------------------------------------------------------------------------
# Graph construction and canonical serialization
# --------------------------------------------------------------------------


# The keys each object of a graph spec takes, with their JSON types, and
# the ones it may omit.
_SPEC_KEYS = ({"nodes": list, "hub": str, "channels": list}, {"nodes", "channels"})
_CHANNEL_KEYS = (
    {
        "id": str,
        "a": str,
        "b": str,
        "capacity_msat": int,
        "balance_a_msat": int,
        "policy_ab": dict,
        "policy_ba": dict,
        "open": bool,
    },
    {"open"},
)
_POLICY_KEYS = ({"base_msat": int, "ppm": int}, set())


def _check_object(raw, key: str, shape: tuple[dict, set]) -> None:
    kinds, optional = shape
    raw = json_as(dict, raw, key)
    prefix = f"{key}." if key else ""
    unknown = raw.keys() - kinds.keys()
    if unknown:
        raise ConfigError(prefix + min(unknown), "unknown key")
    for name, kind in kinds.items():
        if name in raw:
            json_as(kind, raw[name], prefix + name)
        elif name not in optional:
            raise ConfigError(prefix + name, "missing required key")


def check_graph_spec(spec, key: str = "") -> dict:
    """``spec`` itself, once its shape is checked.

    The spec takes only ``nodes``, ``hub`` and ``channels``, a channel only
    its fields and ``open``, a policy only ``base_msat`` and ``ppm``. An
    unknown key, a missing one or a wrong JSON type is a ``ConfigError``
    naming the dotted key below ``key`` (``channels[0].opne``). Done once
    where a spec enters the program, so ``build_graph`` stays plain.
    """
    prefix = f"{key}." if key else ""
    _check_object(spec, key, _SPEC_KEYS)
    for i, node in enumerate(spec.get("nodes", [])):
        json_as(str, node, f"{prefix}nodes[{i}]")
    for i, raw in enumerate(spec.get("channels", [])):
        channel = f"{prefix}channels[{i}]"
        _check_object(raw, channel, _CHANNEL_KEYS)
        _check_object(raw["policy_ab"], f"{channel}.policy_ab", _POLICY_KEYS)
        _check_object(raw["policy_ba"], f"{channel}.policy_ba", _POLICY_KEYS)
    return spec


def _policy_from_spec(raw: Mapping, channel_id: str, side: str) -> FeePolicy:
    try:
        return FeePolicy(int(raw["base_msat"]), int(raw["ppm"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"channel {channel_id}: bad {side} policy: {exc}") from None


def build_graph(spec: Mapping) -> ChannelGraph:
    """Build and validate a graph from its JSON-shaped description."""
    nodes = list(spec.get("nodes", []))
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate node ids in graph spec")
    hub = spec.get("hub")
    if hub is None:
        raise ValueError("graph spec must declare a hub")
    graph = ChannelGraph(nodes=set(nodes), hub=hub)
    for raw in spec.get("channels", []):
        ch = Channel(
            id=str(raw["id"]),
            node_a=str(raw["a"]),
            node_b=str(raw["b"]),
            capacity_msat=int(raw["capacity_msat"]),
            balance_a_msat=int(raw["balance_a_msat"]),
            policy_ab=_policy_from_spec(raw["policy_ab"], str(raw["id"]), "a->b"),
            policy_ba=_policy_from_spec(raw["policy_ba"], str(raw["id"]), "b->a"),
            open=bool(raw.get("open", True)),
        )
        graph.add_channel(ch)
    return graph


def load_graph_file(path) -> ChannelGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return build_graph(check_graph_spec(json.load(fh)))


# --------------------------------------------------------------------------
# Routing
# --------------------------------------------------------------------------


def _backward_search(
    index: _RouteIndex,
    start: tuple[int, int, int, int],
    sender: int,
    exits: dict[int, list[tuple[int, int]]],
    skip: set[tuple[int, int]],
) -> tuple[list, tuple[int, int, int] | None]:
    """Bounded backward A* from the receiver towards ``sender``.

    Heap entries are ``(key, R, node, next node, channel)``: R is the amount
    that must enter ``node`` for the receiver to get its amount, ``node``'s
    own forwarding fee included, when ``node`` forwards over ``channel`` to
    ``next node``. ``start`` is the first entry's ``(R, node, next node,
    channel)``. The key adds a lower bound on the fees still to come:
    ``key = R + λ·max(d(node) - 1, 0)``, with ``d`` the hop distance from
    the sender over the open topology (:meth:`_RouteIndex.hops_past_first`)
    and ``λ = min_base + R_start·min_ppm // 1_000_000``. Every R is at least
    the start's, so every hop fee is at least λ, and a route from ``node``
    back to the sender pays at least ``d(node) - 1`` of them (the sender's
    own hop is free).

    Entries pop in tuple order, ranks standing for ids, and the first entry
    popped for a node settles it, so each node keeps the continuation of its
    first-popped entry. ``d`` changes by at most 1 per hop, so when λ > 0
    (every fee positive) the key never falls along a route while R strictly
    rises: a node pops only after every entry of smaller R for it was
    pushed, and for one node the key orders its entries as R does. Each node
    therefore settles with the same ``(R, next node, channel)`` as a plain
    Dijkstra on R. When λ = 0 the key is R, and this is that Dijkstra. An
    entry is pushed only when it beats the one already queued for its node;
    the one popped first is the same.

    A direction is usable when its capacity covers the amount entering it
    and ``(channel, prev)`` is not in ``skip``; the sender is never entered.
    ``exits`` maps each neighbour the sender may pay into to its usable
    ``(channel, capacity)`` directions. The best exit is the smallest
    ``(R, neighbour, channel)`` whose capacity covers R; an exit's key is its
    R. Once one is settled its R bounds the search: entries keyed above it
    are skipped, and the search stops when the smallest key left is above
    it, or when every exit is settled. Entries keyed at the bound are still
    pushed and popped, so the bound changes no settled node that could
    still become the best exit or lie on its route.

    Returns ``(settled, best)``: the settled entry per node rank (None when
    unsettled) and the best exit, or None.
    """
    incoming = index.incoming
    n = len(index.nodes)
    lam = index.min_base + start[0] * index.min_ppm // 1_000_000
    far = index.hops_past_first(sender) if lam else [0] * n
    first = (start[0] + lam * far[start[1]], *start)
    settled: list = [None] * n
    settled[sender] = first  # a marker: the sender is never entered
    queued: list = [(math.inf,)] * n
    heap = [first]
    bound = math.inf
    best = None
    pending = len(exits)
    while heap:
        entry = heapq.heappop(heap)
        key, required, node = entry[0], entry[1], entry[2]
        if settled[node] is not None:
            continue
        if key > bound:
            break
        settled[node] = entry
        usable = exits.get(node)
        if usable is not None:
            fits = [channel for channel, capacity in usable if capacity >= required]
            if fits:
                candidate = (required, node, min(fits))
                if best is None or candidate < best:
                    best, bound = candidate, required
            pending -= 1
            if not pending:
                break
        for prev, channel, capacity, base, ppm in incoming[node]:
            cost = required + base
            if cost > bound:
                break  # the rest charge at least this base fee
            if capacity < required or settled[prev] is not None:
                continue
            if skip and (channel, prev) in skip:
                continue
            cost += required * ppm // 1_000_000
            key = cost + lam * far[prev]
            if key <= bound:
                pushed = (key, cost, prev, node, channel)
                if pushed < queued[prev]:
                    queued[prev] = pushed
                    heapq.heappush(heap, pushed)
    return settled, best


def _trace_route(
    index: _RouteIndex,
    settled: list,
    sender: int,
    first: int,
    channel: int,
    receiver: int,
    amount_msat: int,
) -> Route:
    """The route ``sender`` -> ``first`` over ``channel``, then along the
    settled entries' next nodes to ``receiver``, which gets ``amount_msat``.
    """
    path, channels = [sender, first], [channel]
    while path[-1] != receiver:
        _, _, _, nxt, via = settled[path[-1]]
        path.append(nxt)
        channels.append(via)
    names, ids, known = index.nodes, index.channel_ids, index._hop_objects
    hops = []
    for c, frm, to in zip(channels, path, path[1:]):
        hop = known.get((c, frm))
        if hop is None:
            hop = known[c, frm] = Hop(ids[c], names[frm], names[to])
        hops.append(hop)
    amounts = tuple(settled[v][1] for v in path[1:-1]) + (amount_msat,)
    fees = (0,) + tuple(amounts[i - 1] - amounts[i] for i in range(1, len(amounts)))
    return Route(
        hops=tuple(hops),
        amounts_msat=amounts,
        fees_msat=fees,
        total_fee_msat=amounts[0] - amount_msat,
    )


def find_route(
    graph: ChannelGraph,
    src: str,
    dst: str,
    amount_msat: int,
    max_fee_msat: int | None = None,
    excluded: Iterable[tuple[str, str]] = (),
) -> Route:
    """Cheapest-fee route delivering ``amount_msat`` from src to dst.

    Considers only channel directions whose capacity covers the required
    forward amount (balances are private). Raises :class:`NoRouteError`
    when nothing is feasible and :class:`FeeCapExceededError` when every
    feasible route costs more than ``max_fee_msat``. ``excluded`` holds
    (channel_id, sending_node) directions to skip, for retry loops.

    Among minimum-fee routes the choice is fixed by the pop order
    ``(R, node, next node, channel)`` of a plain backward Dijkstra on R: the
    sender pays into the smallest ``(R, neighbour id, channel id)``, and
    each node forwards along the continuation it settled with. When every
    hop costs at least 1 msat this is the lexicographically smallest route
    (node path, then channel ids); zero-fee hops can settle a node before a
    lexicographically smaller continuation of equal cost is found. The
    search itself is goal-directed (see :func:`_backward_search`): it adds
    to R a lower bound on the fees still to come, from cached hop distances
    to the sender, so it settles far fewer nodes, but each node it settles
    keeps the Dijkstra's entry, and the route is the same.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    if src not in graph.nodes or dst not in graph.nodes:
        raise ValueError("src and dst must be graph nodes")
    if amount_msat <= 0:
        raise ValueError("amount must be positive")
    index = graph.route_index()
    sender, receiver = index.node_rank[src], index.node_rank[dst]
    skip = index.directions(excluded)
    exits: dict[int, list[tuple[int, int]]] = {}
    for nxt, channel, capacity, _, _ in index.incoming[sender]:
        if (channel, sender) not in skip:
            exits.setdefault(nxt, []).append((channel, capacity))
    settled, best = _backward_search(
        index, (amount_msat, receiver, -1, -1), sender, exits, skip
    )
    if best is None:
        raise NoRouteError(f"no feasible route {src} -> {dst} for {amount_msat} msat")
    required, first, channel = best
    total_fee = required - amount_msat
    if max_fee_msat is not None and total_fee > max_fee_msat:
        raise FeeCapExceededError(
            f"cheapest route costs {total_fee} msat, cap is {max_fee_msat}"
        )
    return _trace_route(index, settled, sender, first, channel, receiver, amount_msat)


def execute_payment(
    graph: ChannelGraph, route: Route, amount_msat: int
) -> PaymentResult:
    """Apply a route to the graph, atomically.

    Checks the actual directional balance at each hop in order; on the first
    shortfall returns ``insufficient_balance`` with that hop index and the
    graph untouched. On success every hop shifts by its entering amount, so
    each intermediary nets exactly its fee.
    """
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
            return PaymentResult(
                PaymentStatus.INSUFFICIENT_BALANCE, route=route, failed_hop=i
            )
    for i, (hop, ch) in enumerate(zip(route.hops, channels)):
        ch.shift(hop.from_node, route.amounts_msat[i])
    return PaymentResult(PaymentStatus.SETTLED, route=route)


def send_payment(
    graph: ChannelGraph,
    src: str,
    dst: str,
    amount_msat: int,
    max_fee_msat: int | None = None,
    max_retries: int = 0,
) -> PaymentResult:
    """Find-and-execute with up to ``max_retries`` re-routes.

    After an execution failure the failed channel direction is excluded and
    the search re-runs, mimicking multi-attempt behavior against private
    balances.
    """
    excluded: set[tuple[str, str]] = set()
    result = None
    for _ in range(max_retries + 1):
        try:
            route = find_route(graph, src, dst, amount_msat, max_fee_msat, excluded)
        except NoRouteError:
            return PaymentResult(PaymentStatus.NO_ROUTE)
        except FeeCapExceededError:
            return PaymentResult(PaymentStatus.FEE_CAP_EXCEEDED)
        result = execute_payment(graph, route, amount_msat)
        if result.status is not PaymentStatus.INSUFFICIENT_BALANCE:
            return result
        failed = route.hops[result.failed_hop]
        excluded.add((failed.channel_id, failed.from_node))
    return result


# --------------------------------------------------------------------------
# Sleeve management
# --------------------------------------------------------------------------


def deploy_sleeve(
    graph: ChannelGraph,
    sleeve_msat: int,
    peers: Sequence[tuple[str, float]],
    hub_policy: FeePolicy = FeePolicy(),
    peer_policy: FeePolicy = FeePolicy(),
    min_channel_msat: int = 1_000,
    id_prefix: str = "sleeve",
) -> list[str]:
    """Open hub channels apportioning ``sleeve_msat`` across ``peers``.

    Capacities follow largest-remainder apportionment of the peer weights
    (ties by peer id); the hub funds each channel in full. Unknown peers
    are added to the node set. Returns the new channel ids.
    """
    if sleeve_msat <= 0:
        raise ValueError("sleeve must be positive")
    if not peers:
        raise ValueError("peers must be non-empty")
    parts = apportion_largest_remainder(sleeve_msat, list(peers))
    small = [p for p, alloc in parts.items() if alloc < min_channel_msat]
    if small:
        raise ValueError(
            f"sleeve too small: peers {sorted(small)} would get less than "
            f"{min_channel_msat} msat"
        )
    opened = []
    for peer, _ in peers:
        graph.add_node(peer)
        cid = f"{id_prefix}-{peer}"
        ch = Channel(
            id=cid,
            node_a=graph.hub,
            node_b=peer,
            capacity_msat=parts[peer],
            balance_a_msat=parts[peer],
            policy_ab=hub_policy,
            policy_ba=peer_policy,
        )
        graph.add_channel(ch)
        opened.append(cid)
    return opened


def shrink_sleeve(graph: ChannelGraph, target_fraction: float) -> int:
    """Close hub channels, smallest hub-side balance first, until the
    remaining deployed capacity is at most ``target_fraction`` of the
    current deployment. Returns the freed hub-side msat (counterparty
    balances return to counterparties, not to the treasury).
    """
    if not 0 <= target_fraction <= 1:
        raise ValueError("target_fraction must be in [0, 1]")
    hub = graph.hub
    channels = sorted(
        graph.hub_channels(), key=lambda ch: (ch.balance_from(hub), ch.id)
    )
    total = sum(ch.capacity_msat for ch in channels)
    frac = decimal_fraction(target_fraction)
    remaining = total
    freed = 0
    for ch in channels:
        if remaining * frac.denominator <= frac.numerator * total:
            break
        freed += ch.balance_from(hub)
        remaining -= ch.capacity_msat
        graph.close_channel(ch.id)
    return freed


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of a circular rebalance attempt."""

    cost_msat: int
    cost_bps: float
    route: Route
    payment: PaymentResult

    @property
    def settled(self) -> bool:
        return self.payment.status is PaymentStatus.SETTLED


def rebalance(
    graph: ChannelGraph,
    from_channel: str,
    to_channel: str,
    amount_msat: int,
    max_fee_msat: int | None = None,
) -> RebalanceResult:
    """Circular self-payment moving hub liquidity between two hub channels.

    The hub pushes out through ``from_channel`` and receives ``amount_msat``
    back through ``to_channel``; the hub's total balance drops by exactly
    the routing fees paid to intermediaries. Raises :class:`NoRouteError`
    when no circular route exists (graph unchanged).
    """
    hub = graph.hub
    src_ch = graph.channels.get(from_channel)
    dst_ch = graph.channels.get(to_channel)
    if src_ch is None or dst_ch is None:
        raise ValueError("unknown channel id")
    if not (src_ch.open and dst_ch.open):
        raise StaleRouteError("rebalance channels must be open")
    if from_channel == to_channel:
        raise ValueError("rebalance channels must differ")
    for ch in (src_ch, dst_ch):
        if hub not in (ch.node_a, ch.node_b):
            raise ValueError(f"channel {ch.id} is not adjacent to the hub")
    if amount_msat <= 0:
        raise ValueError("amount must be positive")
    if src_ch.balance_from(hub) < amount_msat:
        raise ValueError("amount exceeds hub balance on the source channel")
    peer_out = src_ch.other(hub)
    peer_in = dst_ch.other(hub)
    if dst_ch.capacity_msat < amount_msat:
        raise NoRouteError("receiving channel capacity below amount")
    index = graph.route_index()
    sender = index.node_rank[hub]
    out_rank, in_rank = index.node_rank[peer_out], index.node_rank[peer_in]
    start = (
        amount_msat + hop_fee(dst_ch.policy_from(peer_in), amount_msat),
        in_rank,
        sender,
        index.channel_rank[to_channel],
    )
    # Only the source channel leaves the hub. The search never enters the
    # hub, so it cannot use either rebalance channel again.
    exits = {out_rank: [(index.channel_rank[from_channel], src_ch.capacity_msat)]}
    settled, best = _backward_search(index, start, sender, exits, set())
    if settled[out_rank] is None:
        raise NoRouteError(f"no circular route {from_channel} -> {to_channel}")
    if best is None:
        raise NoRouteError("source channel capacity below required amount")
    required, _, channel = best
    total_fee = required - amount_msat
    if max_fee_msat is not None and total_fee > max_fee_msat:
        raise FeeCapExceededError(
            f"rebalance costs {total_fee} msat, cap is {max_fee_msat}"
        )
    route = _trace_route(
        index, settled, sender, out_rank, channel, sender, amount_msat
    )
    payment = execute_payment(graph, route, amount_msat)
    return RebalanceResult(
        cost_msat=total_fee,
        cost_bps=total_fee * 10_000 / amount_msat,
        route=route,
        payment=payment,
    )
