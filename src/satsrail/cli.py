"""Command-line surface.

Subcommands: ``simulate`` (scenario Monte Carlo), ``stress`` (single
deterministic bear path), ``mnav`` (holdings analytics table), ``route``
(route debugging), ``corr`` (price-series correlation).

Exit codes, mapped in ``main`` alone: 0 success; 1 no route, an output
file that cannot be written, or a data file (an ``mnav``, ``corr`` or
``route`` input) that cannot be used, as ``error: <path>: ...``, or as
``error: graph: ...`` for a route graph's content; 2 usage error (bad
flags, an output naming an input or the other output, a route between
unknown or equal nodes) or invalid config, as ``error: invalid config:
<key>: ...``, the key being the config file's path when it cannot be read.
Every file is read as UTF-8, and a byte that is not is named by its offset
in the file; a CSV field over 131,072 characters, or JSON nested past the
recursion limit, is a malformed file. Output paths are checked before a
scenario runs or a table prints, so a command that fails leaves no output.
Relative config paths not found locally are also tried under
``$SATSRAIL_CONFIG_DIR``; an output is compared with the config file that
lookup finds.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .engine import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    mean_finite_coverage,
    run_scenario,
    write_report_csv,
    write_report_json,
)
from .lightning import FeeCapExceededError, NoRouteError, find_route, load_graph_file
from .market import inner_join, load_price_csv, pearson_corr, to_returns
from .money import MSAT_PER_SAT
from .rng import SEED_RANGE
from .schema import DataFileError, _read_json
from .treasury import btc_per_share, load_holdings_csv, mnav

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


def _check_writable(*paths) -> None:
    """Raise the OSError that writing any of ``paths`` would, writing nothing.

    Each path is opened for appending, which keeps an existing file's
    contents; a file that this check creates is removed again.
    """
    for path in paths:
        if path is None:
            continue
        existed = os.path.lexists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None


def _number(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number") from None


def _positive_int(value: str) -> int:
    n = _int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return n


def _non_negative_int(value: str) -> int:
    n = _int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return n


def _seed(value: str) -> int:
    n = _int(value)
    if n not in SEED_RANGE:
        raise argparse.ArgumentTypeError("must be an integer in [-2**127, 2**127)")
    return n


def _usd_to_cents(value: str) -> int:
    cents = _number(value) * 100
    if not (math.isfinite(cents) and round(cents) >= 1):
        raise argparse.ArgumentTypeError("must be a finite price of at least one cent")
    return round(cents)


def _drawdown(value: str) -> float:
    d = _number(value)
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
    p_sim.add_argument("--seed", type=_seed, default=None, help="override master seed")
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
    _check_writable(args.out, args.csv)
    try:
        report = run_scenario(config)
    except OverflowError as exc:  # amounts whose products no float can hold
        raise ConfigError("", f"its numbers overflow the model's arithmetic: {exc}") from None
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


def _override(raw: dict, section: str, **keys) -> None:
    """Set ``keys`` in the raw config's ``section``, made if absent; a
    section that is not an object is left for the schema to reject."""
    value = raw.get(section, {})
    if type(value) is dict:
        raw[section] = {**value, **keys}


def _load_scenario(args, edit) -> ScenarioConfig:
    """The ``--config`` scenario, parsed once after ``edit`` has written the
    command's flags into its raw dict (when it is an object)."""
    path = _resolve_config(args.config)
    raw = _read_json(path, str(path))
    if type(raw) is dict:
        edit(raw)
    return config_from_dict(raw, base_dir=path.parent)


def cmd_simulate(args) -> int:
    overrides = {"master_seed": args.seed, "num_paths": args.paths}
    overrides = {k: v for k, v in overrides.items() if v is not None}

    def edit(raw: dict) -> None:
        if overrides:
            _override(raw, "monte_carlo", **overrides)

    return _run_and_report(_load_scenario(args, edit), args)


def cmd_stress(args) -> int:
    def edit(raw: dict) -> None:
        raw["market"] = {
            "model": "stress",
            "kind": args.shape,
            "total_drawdown": args.drawdown,
            "horizon_months": args.months,
        }
        _override(raw, "treasury", horizon_months=args.months)
        _override(raw, "monte_carlo", num_paths=1)

    return _run_and_report(_load_scenario(args, edit), args)


MNAV_HEADER = f"{'TICKER':<8}{'BTC_HELD':>14}{'MKT_CAP_USD':>18}{'MNAV':>12}{'BTC_PER_SHARE':>16}"


def _table_row(cells: list[str]) -> str:
    """Fixed-width cells, with a space before a cell that would touch the last."""
    line = cells[0]
    for cell in cells[1:]:
        line += cell if line.endswith(" ") or cell.startswith(" ") else " " + cell
    return line


def cmd_mnav(args) -> int:
    rows = sorted(load_holdings_csv(args.holdings), key=lambda r: -r.btc_held)
    _check_writable(args.csv)
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
    except ValueError as exc:  # malformed content, config errors included
        raise DataFileError(f"graph: {exc}") from None
    if args.src not in graph.nodes or args.dst not in graph.nodes:
        print("error: unknown node", file=sys.stderr)
        return 2
    if args.src == args.dst:
        print("error: source and destination must differ", file=sys.stderr)
        return 2
    amount_msat = args.amount_sats * MSAT_PER_SAT
    max_fee = None if args.max_fee_sats is None else args.max_fee_sats * MSAT_PER_SAT
    route = find_route(graph, args.src, args.dst, amount_msat, max_fee)
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
    xs, ys = inner_join(load_price_csv(args.a), load_price_csv(args.b))
    if len(xs) < 2:
        raise DataFileError("fewer than two overlapping dates")
    if args.returns:
        xs, ys = to_returns(xs), to_returns(ys)
        if not all(map(math.isfinite, xs + ys)):
            raise DataFileError("a return is past the float range")
    print(f"{pearson_corr(xs, ys):.5f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # An output that names an input or the other output would overwrite it.
    # No command takes two inputs, so a file named twice names an output.
    named: dict[Path, str] = {}
    for flag in ("config", "holdings", "out", "csv"):
        path = getattr(args, flag, None)
        if path is not None:
            resolved = (_resolve_config(path) if flag == "config" else Path(path)).resolve()
            first = named.setdefault(resolved, flag)
            if first != flag:
                parser.error(f"argument --{flag}: names the same file as --{first}: {path}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except DataFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input or output file
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except FeeCapExceededError as exc:  # route's answers, on stdout
        print(f"no route within fee cap: {exc}")
        return 1
    except NoRouteError:
        print("no route")
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
