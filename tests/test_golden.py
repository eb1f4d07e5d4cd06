"""Golden replays: each committed config reproduces its committed report bytes,
and each committed report re-derives its nets, KPIs and verdicts from itself.

For a fixed config and seed the report is the behaviour contract. Each case
directory under ``tests/golden/`` holds a scenario ``config.json`` beside the
``report.json`` and ``report.csv`` that ``satsrail simulate`` writes for it;
this test runs every case again and compares bytes, so a change in behaviour
fails here by case name and first differing line.

The cases:

- ``rail_hub_tiny``, ``mesh_stress_tiny``, ``many_paths_tiny``: the
  ``--size tiny`` shapes of the three benchmark workloads at seed 31, stored
  as JSON so that the benchmark's generators can change without moving a
  golden. All their paths survive.
- ``stress_headline``: the -70% linear bear over 24 months, with churn,
  a stress-triggered sleeve shrink, and a pathwise breach.
- ``terminal_breach``: eight GBM paths in ``terminal`` survival mode, half
  of which breach and report a required sale.

A deliberate behaviour change regenerates the fixtures, and CHANGES.md says
why::

    PYTHONPATH=src python tests/test_golden.py

``made_with.json`` records the Python version that wrote them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from satsrail.engine import (
    COVERAGE_ZERO_OPEX,
    kpi_month,
    load_config_file,
    run_scenario,
    write_report_csv,
    write_report_json,
)
from satsrail.rail import RailMonthRecord
from satsrail.treasury import no_forced_sale

GOLDEN = Path(__file__).parent / "golden"
CASES = (
    "rail_hub_tiny",
    "mesh_stress_tiny",
    "many_paths_tiny",
    "stress_headline",
    "terminal_breach",
)
OUTPUTS = ("report.json", "report.csv")
MADE_WITH = GOLDEN / "made_with.json"


def render(case: str, out_dir: Path) -> None:
    """Write the case's ``report.json`` and ``report.csv`` into ``out_dir``."""
    report = run_scenario(load_config_file(GOLDEN / case / "config.json"))
    write_report_json(report, out_dir / "report.json")
    write_report_csv(report, out_dir / "report.csv")


def first_difference(expected: bytes, actual: bytes) -> str:
    """The first line at which two texts differ, numbered from 1."""
    want = expected.decode("utf-8").splitlines()
    got = actual.decode("utf-8").splitlines()
    for number, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {number}: expected {a[:160]!r}, got {b[:160]!r}"
    return f"line {min(len(want), len(got)) + 1}: {len(want)} lines expected, {len(got)} written"


@pytest.mark.parametrize("case", CASES)
def test_replay_matches_golden(case, tmp_path):
    render(case, tmp_path)
    made_with = json.loads(MADE_WITH.read_text(encoding="utf-8"))["python"]
    for name in OUTPUTS:
        expected = (GOLDEN / case / name).read_bytes()
        actual = (tmp_path / name).read_bytes()
        if actual != expected:
            pytest.fail(
                f"{case}/{name} differs from the golden at "
                f"{first_difference(expected, actual)}. The fixtures were made "
                f"with Python {made_with}; this is Python "
                f"{platform.python_version()}.",
                pytrace=False,
            )


# A month record's ten components, the constructor's arguments in order.
COMPONENTS = [f.name for f in dataclasses.fields(RailMonthRecord) if f.init]


def kpi_row(record: RailMonthRecord, rebal_volume_cents: int, opex_cents: int, churn) -> dict:
    """``kpi_month``'s row as a report carries it, infinite coverage as the sentinel."""
    row = dataclasses.asdict(kpi_month(record, rebal_volume_cents, opex_cents, churn))
    if math.isinf(row["opex_coverage_ratio"]):
        row["opex_coverage_ratio"] = COVERAGE_ZERO_OPEX
    return row


@pytest.mark.parametrize("case", CASES)
def test_golden_report_re_derives_from_its_own_file(case):
    # Only the file is read: each month's net from its fee stack, its KPIs
    # from its components, each path's aggregate from the summed months and
    # its verdict from the nets, the yield and the echoed outflows. The churn
    # rates come from the roster, which the file does not hold.
    report = json.loads((GOLDEN / case / "report.json").read_text(encoding="utf-8"))
    treasury = report["config"]["treasury"]
    opex = treasury["opex_monthly_cents"]
    outflow = opex + treasury["interest_monthly_cents"] + treasury["capex_monthly_cents"]
    for path in report["paths"]:
        months = path["months"]
        for month in months:
            r = month["rail"]
            revenue = r["acquiring_fee_cents"] + r["hedge_spread_cents"] + r["routing_fee_cents"]
            costs = r["rebalancing_cost_cents"] + r["sats_back_cents"] + r["variable_cost_cents"]
            assert r["net_inflow_cents"] == revenue - costs
            record = RailMonthRecord(*(r[name] for name in COMPONENTS))
            churn = month["kpi"]["merchant_churn_rate"]
            assert month["kpi"] == kpi_row(record, month["rebal_volume_cents"], opex, churn)
        summed = RailMonthRecord(*(sum(m["rail"][name] for m in months) for name in COMPONENTS))
        aggregate = kpi_row(
            summed,
            sum(m["rebal_volume_cents"] for m in months),
            opex * len(months),
            path["kpi_aggregate"]["merchant_churn_rate"],
        )
        del aggregate["month"]
        assert path["kpi_aggregate"] == aggregate
        verdict = no_forced_sale(
            treasury["cash0_cents"],
            [m["rail"]["net_inflow_cents"] + m["yield_cents"] for m in months],
            [outflow] * len(months),
            treasury["survival_mode"],
        )
        assert dataclasses.asdict(verdict) == {
            key: path[key]
            for key in ("survives", "breach_month", "min_cash_cents", "terminal_cash_cents")
        }
    assert report["surviving_paths"] == sum(path["survives"] for path in report["paths"])


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == "line 2: expected 'b', got 'x'"
    assert first_difference(b"a\nb\n", b"a\n") == "line 2: 2 lines expected, 1 written"


def test_report_hashes_prints_the_same_fingerprints_twice():
    # tests/report_hashes.py is the byte check between two checkouts.
    argv = [sys.executable, str(Path(__file__).parent / "report_hashes.py")]
    argv += ["--size", "tiny", "--seeds", "31"]
    runs = [subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in "ab"]
    assert runs[0] == runs[1]
    entries = json.loads(runs[0])
    assert sorted(entries) == ["many_paths-31", "mesh_stress-31", "rail_hub-31"]
    for entry in entries.values():
        assert sorted(entry) == ["reconciliation_hash", "report.csv", "report.json"]
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in entry.values())


def regenerate() -> None:
    for case in CASES:
        render(case, GOLDEN / case)
        print(f"wrote {GOLDEN / case}")
    MADE_WITH.write_text(
        json.dumps({"python": platform.python_version()}) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
