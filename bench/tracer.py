"""Outside-in layer tracing: timing wrappers on the program's public functions.

``install()`` replaces each traced function on every module attribute its
callers look up: ``engine`` imports ``send_payment`` by name, so the wrapper
goes on ``engine.send_payment``; ``lightning.send_payment`` reaches
``find_route`` through a ``lightning`` global, so that one goes on
``lightning.find_route``. The program's own files are not edited.

Spans are kept in memory as ``(name, start, end, parent, request)`` tuples,
indexed by span id; ``request`` is the path index of the enclosing
``run_path`` (-1 outside any path). Counters for traffic outcomes are taken
at the same boundaries; ``layer_times()`` turns the spans into per-layer
figures.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

# Layer name -> "module.attr" sites the wrapper is installed on.
SITES = {
    "engine.run_scenario": ["engine.run_scenario"],
    "engine.run_path": ["engine.run_path"],
    "engine.report_to_dict": ["engine.report_to_dict"],
    "engine.write_report_json": ["engine.write_report_json"],
    "engine.write_report_csv": ["engine.write_report_csv"],
    "lightning.build_graph": ["engine.build_graph", "lightning.build_graph"],
    "lightning.deploy_sleeve": ["engine.deploy_sleeve"],
    "lightning.shrink_sleeve": ["engine.shrink_sleeve"],
    "lightning.send_payment": ["engine.send_payment"],
    "lightning.find_route": ["lightning.find_route"],
    "lightning.execute_payment": ["lightning.execute_payment"],
    "lightning.rebalance": ["engine.rebalance"],
    "market.gen_path": ["engine.gen_gbm_path", "engine.gen_stress_path"],
    "rail.load_merchants": ["engine.load_merchants"],
    "rail.gen_monthly_payments": ["engine.gen_monthly_payments"],
    "rail.hedge_settlement": ["engine.hedge_settlement"],
    "rail.acquiring_fee": ["engine.acquiring_fee"],
    "rail.sats_back_outlay": ["engine.sats_back_outlay"],
    "rail.month_rail_cashflow": ["engine.month_rail_cashflow"],
    "rail.apply_churn": ["engine.apply_churn"],
    "rng.child_seed": ["engine.child_seed", "rail.child_seed", "rng.child_seed"],
    "rng.stream": ["rail.stream", "market.stream"],
    "treasury.initial_state": ["engine.initial_state"],
    "treasury.monthly_yield_cents": [
        "engine.monthly_yield_cents",
        "treasury.monthly_yield_cents",
    ],
    "treasury.step_treasury": ["engine.step_treasury"],
    "treasury.sleeve_var": ["engine.sleeve_var"],
    "treasury.var_cap_check": ["engine.var_cap_check"],
    "treasury.no_forced_sale": ["engine.no_forced_sale"],
    "util.canonical_json": ["engine.canonical_json", "lightning.canonical_json"],
}


class Tracer:
    """Span and counter store for one traced repetition."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.counts = {
            "payments_settled": 0,
            "payments_no_route": 0,
            "route_hops_settled": 0,
            "execute_insufficient": 0,
            "rebalance_settled": 0,
            "rebalance_no_route": 0,
            "rebalance_fee_capped": 0,
            "payments_sampled": 0,
            "payments_intended": 0,
            "canonical_json_bytes": 0,
        }

    def wrap(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack
        is_path = name == "engine.run_path"

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_request = self.request
            if is_path:
                self.request = args[1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(self.counts, None, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request)
                self.request = outer_request
            if observe is not None:
                observe(self.counts, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site in ``SITES``, for the rest of the process."""
        lightning = importlib.import_module("satsrail.lightning")
        observers = _observers(lightning)
        for name, sites in SITES.items():
            for site in sites:
                mod_name, attr = site.split(".")
                module = importlib.import_module(f"satsrail.{mod_name}")
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original, observers.get(name)))


def _observers(lightning) -> dict:
    settled = lightning.PaymentStatus.SETTLED
    insufficient = lightning.PaymentStatus.INSUFFICIENT_BALANCE
    no_route = lightning.PaymentStatus.NO_ROUTE

    def send(counts, result, exc):
        if result is None:
            return
        if result.status is settled:
            counts["payments_settled"] += 1
            counts["route_hops_settled"] += len(result.route.hops)
        elif result.status is no_route:
            counts["payments_no_route"] += 1

    def execute(counts, result, exc):
        if result is not None and result.status is insufficient:
            counts["execute_insufficient"] += 1

    def rebalance(counts, result, exc):
        if isinstance(exc, lightning.FeeCapExceededError):
            counts["rebalance_fee_capped"] += 1
        elif isinstance(exc, lightning.NoRouteError):
            counts["rebalance_no_route"] += 1
        elif result is not None and result.settled:
            counts["rebalance_settled"] += 1

    def plan(counts, result, exc):
        if result is not None:
            counts["payments_sampled"] += len(result.requests)
            counts["payments_intended"] += sum(result.intended.values())

    def canonical(counts, result, exc):
        if result is not None:
            # json.dumps escapes non-ASCII by default, so chars == bytes.
            counts["canonical_json_bytes"] += len(result)

    return {
        "lightning.send_payment": send,
        "lightning.execute_payment": execute,
        "lightning.rebalance": rebalance,
        "rail.gen_monthly_payments": plan,
        "util.canonical_json": canonical,
    }


def layer_times(spans: list) -> dict[str, dict]:
    """Per layer: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct child
    spans. No traced layer calls itself, so inclusive sums do not double
    count.
    """
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for sid, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child_time[sid]
    return out


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it.

    Returns ``(percentile, value, samples_above)``: with n samples that is
    the nearest-rank value at rank n - 10. Falls back to the median when
    there are too few samples for any tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        value = ordered[n - 11]
        return 100.0 * (n - 10) / n, value, sum(1 for v in ordered if v > value)
    median = statistics.median(ordered)
    return 50.0, median, sum(1 for v in ordered if v > median)
