"""The headline experiment: can fee revenue bridge a -70% bear market?

Two runs of the same scenario: with the rail earning fees, and with the
rail switched off. Pathwise survival demands non-negative cash every month.

Run:  python demos/04_no_forced_sale.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from satsrail.engine import config_from_dict, run_scenario
from satsrail.treasury import no_forced_sale

MERCHANTS = [
    {"id": "shopco", "monthly_gmv_cents": 1_000_000, "take_rate_bps": 30,
     "settle_mode": "fiat", "sats_back_bps": 0}
]


def scenario(merchants, cash0_cents):
    return {
        "treasury": {
            "btc_core_sats": 64_000_000_000_000,  # 640k BTC position
            "cash0_cents": cash0_cents,
            "opex_monthly_cents": 3_400,
            "horizon_months": 24,
            "sleeve_fraction": 0.0,
            "survival_mode": "pathwise",
        },
        "market": {"model": "stress", "kind": "linear", "total_drawdown": 0.70},
        "start_price_cents": 10_000_000,
        "graph": {
            "nodes": ["hub", "shopco"],
            "hub": "hub",
            "channels": [
                {"id": "hub-shopco", "a": "hub", "b": "shopco",
                 "capacity_msat": 1_000_000_000_000,
                 "balance_a_msat": 1_000_000_000_000,
                 "policy_ab": {"base_msat": 0, "ppm": 0},
                 "policy_ba": {"base_msat": 0, "ppm": 0}}
            ],
        },
        "merchants": merchants,
        "rail": {"median_ticket_cents": 100_000, "ticket_sigma": 0.0,
                 "spread_bps": 5, "max_route_retries": 0},
    }


def show(label, report):
    path = report.paths[0]
    verdict = "SURVIVES" if path.survives else f"BREACH at month {path.breach_month}"
    line = f"{label:<28} {verdict:<20} terminal cash ${path.terminal_cash_cents / 100:,.2f}"
    if not path.survives:
        line += f", required sale {path.required_sale_sats:,} sats"
    print(line)


print("-70% linear bear over 24 months, opex $34/month (scaled-down book):")
print()
show("rail on, cash0 $0:", run_scenario(config_from_dict(scenario(MERCHANTS, 0))))
show("rail off, cash0 $500:", run_scenario(config_from_dict(scenario([], 50_000))))
show("rail off, cash0 $1,000:", run_scenario(config_from_dict(scenario([], 100_000))))

print()
print("Pathwise vs terminal on the same flows (interim gap, covered later):")
verdict_terminal = no_forced_sale(100, [0, 200], [150, 0], "terminal")
verdict_pathwise = no_forced_sale(100, [0, 200], [150, 0], "pathwise")
print(f"  terminal: survives={verdict_terminal.survives}")
print(f"  pathwise: survives={verdict_pathwise.survives}, "
      f"breach month {verdict_pathwise.breach_month}, "
      f"min cash {verdict_pathwise.min_cash_cents}")
