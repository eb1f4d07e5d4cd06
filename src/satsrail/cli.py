"""Command-line surface.

Subcommands: ``simulate`` (scenario Monte Carlo), ``stress`` (single
deterministic bear path), ``mnav`` (holdings analytics table), ``route``
(route debugging), ``corr`` (price-series correlation).

Exit codes: 0 success, 1 domain or file error (no route, bad data file, no
date overlap; a file that cannot be read as UTF-8 text or written, as
``error: <path>: ...``), 2 usage error (bad flags, invalid config). Relative
config paths not found locally are also tried under ``$SATSRAIL_CONFIG_DIR``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .engine import (
    ConfigError,
    load_config_file,
    mean_finite_coverage,
    run_scenario,
    write_report_csv,
    write_report_json,
)
from .lightning import (
    FeeCapExceededError,
    NoRouteError,
    find_route,
    load_graph_file,
)
from .market import (
    PriceCsvError,
    ConstantSeriesError,
    StressShape,
    inner_join,
    load_price_csv,
    pearson_corr,
    to_returns,
)
from .money import MSAT_PER_SAT
from .treasury import HoldingsCsvError, btc_per_share, load_holdings_csv, mnav

CONFIG_DIR_ENV = "SATSRAIL_CONFIG_DIR"


def _resolve_config(path_str: str) -> Path:
    path = Path(path_str)
    if path.exists():
        return path
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir and not path.is_absolute():
        candidate = Path(env_dir) / path
        if candidate.exists():
            return candidate
    return path


def _load(loader, path):
    """``loader(path)``; a file that is not UTF-8 text is an OSError naming it."""
    try:
        return loader(path)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise OSError(None, reason, path) from None


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _non_negative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return n


def _usd_to_cents(value: str) -> int:
    cents = float(value) * 100
    if not (math.isfinite(cents) and round(cents) >= 1):
        raise argparse.ArgumentTypeError("must be a finite price of at least one cent")
    return round(cents)


def _drawdown(value: str) -> float:
    d = float(value)
    if not 0.0 <= d < 1.0:
        raise argparse.ArgumentTypeError("must be in [0, 1)")
    return d


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satsrail",
        description="Payment-channel rail and treasury stress simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario config")
    p_sim.add_argument("--config", required=True, help="scenario config JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sim.add_argument(
        "--paths", type=_positive_int, default=None, help="override path count"
    )
    p_sim.add_argument("--out", required=True, help="report JSON output path")
    p_sim.add_argument("--csv", default=None, help="optional per-month CSV output")
    p_sim.set_defaults(func=cmd_simulate)

    p_str = sub.add_parser("stress", help="run a deterministic bear-path scenario")
    p_str.add_argument("--config", required=True, help="scenario config JSON")
    p_str.add_argument(
        "--drawdown",
        type=_drawdown,
        default=0.70,
        help="total drawdown fraction (default: 0.70)",
    )
    p_str.add_argument(
        "--months",
        type=_positive_int,
        default=24,
        help="stress horizon in months (default: 24)",
    )
    p_str.add_argument(
        "--shape",
        choices=["linear", "exponential"],
        default="linear",
        help="decline shape (default: linear)",
    )
    p_str.add_argument("--out", required=True, help="report JSON output path")
    p_str.add_argument("--csv", default=None, help="optional per-month CSV output")
    p_str.set_defaults(func=cmd_stress)

    p_mnav = sub.add_parser("mnav", help="holdings analytics table")
    p_mnav.add_argument("--holdings", required=True, help="holdings CSV path")
    p_mnav.add_argument(
        "--price", dest="price_cents", metavar="USD", type=_usd_to_cents,
        required=True, help="BTC price in USD",
    )
    p_mnav.add_argument("--csv", default=None, help="optional CSV output path")
    p_mnav.set_defaults(func=cmd_mnav)

    p_route = sub.add_parser("route", help="debug a route on a graph file")
    p_route.add_argument("--graph", required=True, help="graph spec JSON")
    p_route.add_argument("--from", dest="src", required=True, help="source node")
    p_route.add_argument("--to", dest="dst", required=True, help="destination node")
    p_route.add_argument(
        "--amount-sats", type=_positive_int, required=True, help="amount in sats"
    )
    p_route.add_argument(
        "--max-fee-sats", type=_non_negative_int, default=None, help="optional fee cap in sats"
    )
    p_route.set_defaults(func=cmd_route)

    p_corr = sub.add_parser("corr", help="correlation of two price CSVs")
    p_corr.add_argument("--a", required=True, help="first date,price CSV")
    p_corr.add_argument("--b", required=True, help="second date,price CSV")
    p_corr.add_argument(
        "--returns",
        action="store_true",
        help="correlate simple returns instead of price levels",
    )
    p_corr.set_defaults(func=cmd_corr)

    return parser


def _run_and_report(config, args) -> int:
    report = run_scenario(config)
    write_report_json(report, args.out)
    if args.csv:
        write_report_csv(report, args.csv)
    coverage = mean_finite_coverage(report)
    coverage_str = "inf" if coverage == float("inf") else f"{coverage:.3f}"
    print(
        f"paths={report.num_paths} surviving={report.surviving_paths} "
        f"survival_probability={report.survival_probability:.4f} "
        f"mean_coverage={coverage_str} report={args.out}"
    )
    return 0


def cmd_simulate(args) -> int:
    config = load_config_file(_resolve_config(args.config))
    overrides = {"master_seed": args.seed, "num_paths": args.paths}
    monte_carlo = replace(
        config.monte_carlo, **{k: v for k, v in overrides.items() if v is not None}
    )
    return _run_and_report(replace(config, monte_carlo=monte_carlo), args)


def cmd_stress(args) -> int:
    config = load_config_file(_resolve_config(args.config))
    config = replace(
        config,
        market=StressShape(args.shape, args.drawdown, args.months),
        treasury=replace(config.treasury, horizon_months=args.months),
        monte_carlo=replace(config.monte_carlo, num_paths=1),
    )
    return _run_and_report(config, args)


MNAV_HEADER = f"{'TICKER':<8}{'BTC_HELD':>14}{'MKT_CAP_USD':>18}{'MNAV':>12}{'BTC_PER_SHARE':>16}"


def _table_row(cells: list[str]) -> str:
    """Fixed-width cells, with a space before a cell that would touch the last."""
    line = cells[0]
    for cell in cells[1:]:
        line += cell if line.endswith(" ") or cell.startswith(" ") else " " + cell
    return line


def cmd_mnav(args) -> int:
    try:
        rows = _load(load_holdings_csv, args.holdings)
    except HoldingsCsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = sorted(rows, key=lambda r: -r.btc_held)
    print(MNAV_HEADER)
    csv_lines = ["ticker,btc_held,mkt_cap_usd,mnav,btc_per_share"]
    for row in rows:
        ratio = mnav(row.mkt_cap_cents, row.btc_held, args.price_cents)
        if row.shares_outstanding:
            per_share = btc_per_share(row.btc_held, row.shares_outstanding)
            per_share_str = f"{per_share:>16.8f}"
            per_share_csv = f"{per_share:.8f}"
        else:
            per_share_str = f"{'':>16}"
            per_share_csv = ""
        print(
            _table_row(
                [
                    f"{row.ticker:<8}",
                    f"{row.btc_held:>14,.3f}",
                    f"{row.mkt_cap_cents // 100:>18,d}",
                    f"{ratio:>12.3f}",
                    per_share_str,
                ]
            )
        )
        csv_lines.append(
            f"{row.ticker},{row.btc_held},{row.mkt_cap_cents // 100},"
            f"{ratio:.6f},{per_share_csv}"
        )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    return 0


def cmd_route(args) -> int:
    try:
        graph = load_graph_file(args.graph)
    except (OSError, ValueError) as exc:
        print(f"error: graph: {exc}", file=sys.stderr)
        return 1
    if args.src not in graph.nodes or args.dst not in graph.nodes:
        print("error: unknown node", file=sys.stderr)
        return 2
    if args.src == args.dst:
        print("error: source and destination must differ", file=sys.stderr)
        return 2
    amount_msat = args.amount_sats * MSAT_PER_SAT
    max_fee = None if args.max_fee_sats is None else args.max_fee_sats * MSAT_PER_SAT
    try:
        route = find_route(graph, args.src, args.dst, amount_msat, max_fee)
    except NoRouteError:
        print("no route")
        return 1
    except FeeCapExceededError as exc:
        print(f"no route within fee cap: {exc}")
        return 1
    print(
        f"route: {len(route.hops)} hop{'s' if len(route.hops) != 1 else ''}, "
        f"total fee {route.total_fee_msat} msat"
    )
    for i, hop in enumerate(route.hops):
        print(
            f"hop {i + 1}: {hop.from_node} -> {hop.to_node} via {hop.channel_id}  "
            f"forward {route.amounts_msat[i]} msat  fee {route.fees_msat[i]} msat"
        )
    return 0


def cmd_corr(args) -> int:
    try:
        series_a = _load(load_price_csv, args.a)
        series_b = _load(load_price_csv, args.b)
    except PriceCsvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    xs, ys = inner_join(series_a, series_b)
    if len(xs) < 2:
        print("error: fewer than two overlapping dates", file=sys.stderr)
        return 1
    if args.returns:
        xs, ys = to_returns(xs), to_returns(ys)
    try:
        r = pearson_corr(xs, ys)
    except ConstantSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{r:.5f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input or output file
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
