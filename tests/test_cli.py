"""Command-line behavior: outputs, determinism, exit-code contract."""

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_SLEEVES,
    HOLDINGS_FIXTURE,
    MALFORMED_CONFIGS,
    bad_sleeve_raw,
    chain_spec,
    set_key,
    stress_scenario_raw,
)
from satsrail import engine
from satsrail.cli import main
from satsrail.engine import config_from_dict, run_scenario, write_report_json
from satsrail.util import canonical_json


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(stress_scenario_raw()))
    return path


class TestSimulate:
    def test_minimal_run(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--config", str(scenario_file), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        summary = capsys.readouterr().out
        assert "survival_probability=1.0000" in summary

    def test_zero_paths_usage_error(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate",
                    "--config",
                    str(scenario_file),
                    "--paths",
                    "0",
                    "--out",
                    str(tmp_path / "r.json"),
                ]
            )
        assert exc.value.code == 2

    def test_byte_identical_reports(self, scenario_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(scenario_file), "--out", str(out)]) == 0
        h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_invalid_config_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"market": {"model": "gbm"}}))
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "treasury" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_csv_emitted(self, scenario_file, tmp_path):
        out = tmp_path / "r.json"
        csv_out = tmp_path / "series.csv"
        main(
            [
                "simulate",
                "--config",
                str(scenario_file),
                "--out",
                str(out),
                "--csv",
                str(csv_out),
            ]
        )
        lines = csv_out.read_text().strip().split("\n")
        assert lines[0].startswith("path,month,price,cash")
        assert len(lines) == 1 + 24

    def test_config_dir_env_fallback(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SATSRAIL_CONFIG_DIR", str(scenario_file.parent))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "r.json"
        code = main(["simulate", "--config", scenario_file.name, "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_seed_override_changes_nothing_for_stress(self, scenario_file, tmp_path):
        # Deterministic market: seed override must not change the verdict.
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["simulate", "--config", str(scenario_file), "--out", str(out1)])
        main(["simulate", "--config", str(scenario_file), "--seed", "99", "--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["survival_probability"] == b["survival_probability"]

    def test_overrides_reach_the_report(self, scenario_file, tmp_path):
        out = tmp_path / "r.json"
        argv = ["--config", str(scenario_file), "--out", str(out)]
        assert main(["simulate", "--seed", "5", "--paths", "2", *argv]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["monte_carlo"] == {"num_paths": 2, "master_seed": 5}
        assert main(["stress", "--months", "12", *argv]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["treasury"]["horizon_months"] == 12
        assert config["market"]["horizon_months"] == 12
        assert config["monte_carlo"] == {"num_paths": 1, "master_seed": 0}


def _truncated(raw: dict) -> bytes:
    data = json.dumps(raw).encode()
    return data[: len(data) // 2]


def _latin1(raw: dict) -> bytes:
    """``raw`` with a non-ASCII merchant id, as Latin-1 bytes."""
    raw["merchants"][0]["id"] = "caf\u00e9"
    return json.dumps(raw, ensure_ascii=False).encode("latin-1")


# JSON nested far past the recursion limit; each config case has it beside
# its config as deep.json.
DEEP_JSON = "[" * 100_000


def _deep_graph_path(raw: dict) -> bytes:
    del raw["graph"]
    raw["graph_path"] = "deep.json"
    return json.dumps(raw).encode()


def _malformed_cli_cases():
    for dotted, value, key in MALFORMED_CONFIGS:
        yield pytest.param(["simulate"], (dotted, value), key, id=f"{dotted}={value!r}")
    yield pytest.param(["simulate"], _truncated, "scenario.json", id="truncated-json")
    yield pytest.param(["simulate"], _latin1, "scenario.json", id="not-utf8")
    yield pytest.param(["simulate"], lambda raw: DEEP_JSON.encode(), "scenario.json", id="nested-too-deep")
    yield pytest.param(["simulate"], _deep_graph_path, "graph_path", id="graph-path-nested-too-deep")
    # Overrides are applied to the loaded config, so file errors still win.
    for argv, edit, key in (
        (["simulate", "--seed", "5"], ("rebalence", {}), "rebalence"),
        (["simulate", "--paths", "2"], ("market.sigmaa", 0.6), "market.sigmaa"),
        (["stress", "--months", "12"], ("rail.spred_bps", 3), "rail.spred_bps"),
    ):
        yield pytest.param(argv, edit, key, id=" ".join(argv[1:]))


class TestConfigErrors:
    @pytest.mark.parametrize("argv, edit, key", _malformed_cli_cases())
    def test_exit_2_naming_the_key(self, argv, edit, key, tmp_path, capsys):
        if callable(edit):  # a defect of the file itself
            data = edit(stress_scenario_raw())
        else:
            data = json.dumps(set_key(stress_scenario_raw(), *edit)).encode()
        config = tmp_path / "scenario.json"
        config.write_bytes(data)
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        out = tmp_path / "r.json"
        code = main([*argv, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: ")
        assert key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(BAD_SLEEVES))
    def test_a_sleeve_the_graph_rejects_exits_2(self, name, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(bad_sleeve_raw(stress_scenario_raw(), name)))
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: sleeve_peers: ")
        assert BAD_SLEEVES[name][3] in err
        assert not out.exists()


class TestStress:
    def test_preset_defaults(self, scenario_file, tmp_path):
        out = tmp_path / "r.json"
        code = main(["stress", "--config", str(scenario_file), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        market = payload["config"]["market"]
        assert market == {
            "model": "stress",
            "kind": "linear",
            "total_drawdown": 0.70,
            "horizon_months": 24,
        }
        assert payload["num_paths"] == 1

    def test_endpoint_at_thirty_percent(self, scenario_file, tmp_path):
        out = tmp_path / "r.json"
        main(
            [
                "stress",
                "--config",
                str(scenario_file),
                "--drawdown",
                "0.70",
                "--months",
                "24",
                "--out",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        months = payload["paths"][0]["months"]
        assert months[-1]["price_cents"] == 3_000_000

    def test_zero_drawdown_survives_when_covered(self, scenario_file, tmp_path):
        out = tmp_path / "r.json"
        main(
            [
                "stress",
                "--config",
                str(scenario_file),
                "--drawdown",
                "0",
                "--months",
                "18",
                "--out",
                str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["survival_probability"] == 1.0

    def test_drawdown_at_one_rejected(self, scenario_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "stress",
                    "--config",
                    str(scenario_file),
                    "--drawdown",
                    "1.0",
                    "--out",
                    str(tmp_path / "r.json"),
                ]
            )
        assert exc.value.code == 2


class TestMnav:
    def test_fixture_table(self, capsys):
        code = main(
            ["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", "110300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].split() == [
            "TICKER",
            "BTC_HELD",
            "MKT_CAP_USD",
            "MNAV",
            "BTC_PER_SHARE",
        ]
        mstr = next(line for line in lines if line.startswith("MSTR"))
        assert abs(float(mstr.split()[3]) - 1.095) <= 0.005
        # Sorted by BTC held, descending.
        tickers = [line.split()[0] for line in lines[1:]]
        assert tickers[0] == "MSTR" and tickers[-1] == "CANG"

    def test_synthetic_identity_row(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        p.write_text(
            "ticker,btc_held,mkt_cap_usd,shares_outstanding\nEQ,100,11030000,\n"
        )
        main(["mnav", "--holdings", str(p), "--price", "110300"])
        out = capsys.readouterr().out
        assert "1.000" in out

    def test_malformed_row_exit_1(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        p.write_text(
            "ticker,btc_held,mkt_cap_usd,shares_outstanding\nAAA,xx,1,\n"
        )
        assert main(["mnav", "--holdings", str(p), "--price", "110300"]) == 1
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "btc, cap",
        [("nan", "1000"), ("inf", "1000"), ("-inf", "1000"), ("10", "inf"), ("10", "1e400")]
        + [("10", "nan"), ("10", "-inf"), ("10", "1.7e308")],
    )
    def test_a_non_finite_number_is_refused_naming_its_row(self, tmp_path, capsys, btc, cap):
        p = tmp_path / "h.csv"
        p.write_text(
            "ticker,btc_held,mkt_cap_usd,shares_outstanding\n"
            f"EQ,100,11030000,\nBAD,{btc},{cap},\n"
        )
        out = tmp_path / "mnav.csv"
        argv = ["mnav", "--holdings", str(p), "--price", "110300", "--csv", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "row 2 (BAD)" in captured.err and "finite" in captured.err
        assert not out.exists()

    def test_a_share_count_past_the_float_range_is_refused(self, tmp_path, capsys):
        p = tmp_path / "h.csv"
        p.write_text("ticker,btc_held,mkt_cap_usd,shares_outstanding\nBIG,1,1,1" + "0" * 400 + "\n")
        assert main(["mnav", "--holdings", str(p), "--price", "110300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {p}: row 1 (BIG): shares_outstanding must be in the float range")

    def test_csv_output(self, tmp_path):
        out = tmp_path / "mnav.csv"
        main(
            [
                "mnav",
                "--holdings",
                str(HOLDINGS_FIXTURE),
                "--price",
                "110300",
                "--csv",
                str(out),
            ]
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "ticker,btc_held,mkt_cap_usd,mnav,btc_per_share"
        assert len(lines) == 11


# `mnav --holdings data/btc_holdings_top10.csv --price 110300`: no value
# overflows its column, so the table reads exactly as fixed-width columns.
MNAV_TABLE_110300 = """\
TICKER        BTC_HELD       MKT_CAP_USD        MNAV   BTC_PER_SHARE
MSTR       640,808.000    77,395,000,000       1.095      0.00223146
CEP         43,514.000     4,895,000,000       1.020      0.00016278
MTPLF       30,823.000     3,663,000,000       1.077      0.00002701
CEPO        30,021.000       215,000,000       0.065      0.00146444
BLSH        24,300.000     5,725,000,000       2.136      0.00021464
DJT         15,000.000     3,686,000,000       2.228      0.00006237
CLSK        13,011.000     5,003,000,000       3.486      0.00004629
TSLA        11,509.000 1,472,611,000,000    1160.045      0.00000357
GDC          7,500.000        74,000,000       0.089      0.00044655
CANG         6,394.000       691,000,000       0.980      0.00003712
"""


class TestMnavColumns:
    def test_fixed_width_table_when_nothing_overflows(self, capsys):
        assert main(["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", "110300"]) == 0
        assert capsys.readouterr().out == MNAV_TABLE_110300

    @pytest.mark.parametrize("price", ["110300", "0.01"])
    def test_every_column_stands_apart(self, price, tmp_path, capsys):
        # At one cent an mNAV runs to 15 characters, wider than its column.
        csv_out = tmp_path / "mnav.csv"
        argv = ["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", price]
        assert main([*argv, "--csv", str(csv_out)]) == 0
        table = capsys.readouterr().out.splitlines()[1:]
        rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
        assert len(table) == len(rows) == 10
        for line, (ticker, btc, cap, ratio, per_share) in zip(table, rows):
            cells = line.split()
            assert cells[0] == ticker and len(cells) == 5
            assert float(cells[1].replace(",", "")) == float(btc)
            assert int(cells[2].replace(",", "")) == int(cap)
            assert cells[3] == f"{float(ratio):.3f}"
            assert cells[4] == per_share


ROUTE_ARGS = ["--from", "A", "--to", "B", "--amount-sats", "1"]


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["mnav", "--holdings", "LATIN1", "--price", "1"], "LATIN1"),
            (["corr", "--a", "LATIN1", "--b", "PRICES"], "LATIN1"),
            (["simulate", "--config", "CONFIG", "--out", "NODIR"], "NODIR"),
            (["simulate", "--config", "CONFIG", "--out", "OUT", "--csv", "NODIR"], "NODIR"),
            (["stress", "--config", "CONFIG", "--out", "NODIR"], "NODIR"),
            (["stress", "--config", "CONFIG", "--out", "OUT", "--csv", "NODIR"], "NODIR"),
            (["mnav", "--holdings", "HOLDINGS", "--price", "1", "--csv", "NODIR"], "NODIR"),
            (["route", "--graph", "NOFILE", *ROUTE_ARGS], "NOFILE"),
            (["route", "--graph", "LATIN1", *ROUTE_ARGS], "LATIN1"),
            (["mnav", "--holdings", "LONG_HOLDINGS", "--price", "1"], "LONG_HOLDINGS"),
            (["corr", "--a", "PRICES", "--b", "LONG_PRICES"], "LONG_PRICES"),
            (["corr", "--a", "LATE", "--b", "PRICES"], "LATE"),
        ],
        ids=[
            "mnav-holdings-not-utf8",
            "corr-a-not-utf8",
            "simulate-out-no-dir",
            "simulate-csv-no-dir",
            "stress-out-no-dir",
            "stress-csv-no-dir",
            "mnav-csv-no-dir",
            "route-graph-missing",
            "route-graph-not-utf8",
            "mnav-holdings-field-over-limit",
            "corr-b-field-over-limit",
            "corr-a-not-utf8-past-16k",
        ],
    )
    def test_exit_1_naming_the_file(self, argv, culprit, scenario_file, tmp_path, capsys):
        # Fails before any output: no report file is left, nothing printed.
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("date,price\n2024-01-01,1\n# caf\u00e9\n".encode("latin-1"))
        prices = tmp_path / "prices.csv"
        prices.write_text("date,price\n2024-01-01,1\n2024-01-02,2\n")
        # The csv module refuses a field over 131,072 characters.
        long_holdings = tmp_path / "long_holdings.csv"
        long_holdings.write_text("ticker,btc_held,mkt_cap_usd,shares_outstanding\n" + "X" * 200_000 + ",1,1,\n")
        long_prices = tmp_path / "long_prices.csv"
        long_prices.write_text("date,price\n2024-01-01,1\n2024-01-02," + "9" * 200_000 + "\n")
        # A bad byte past the first 16 KB, where a text reader's decode
        # chunk no longer starts at the start of the file.
        late = tmp_path / "late.csv"
        rows = "".join(f"{datetime.date.fromordinal(730_000 + i)},1\n" for i in range(1_500))
        late.write_bytes(f"date,price\n{rows}".encode() + b"\xff")
        expected = {
            "LONG_HOLDINGS": ": row 1: field larger than field limit",
            "LONG_PRICES": ": row 2: field larger than field limit",
            "LATE": f"(invalid start byte at byte {late.stat().st_size - 1})",
        }
        paths = {
            "LATIN1": latin1,
            "PRICES": prices,
            "CONFIG": scenario_file,
            "HOLDINGS": HOLDINGS_FIXTURE,
            "OUT": tmp_path / "report.json",
            "NODIR": tmp_path / "missing" / "out.file",
            "NOFILE": tmp_path / "nope.json",
            "LONG_HOLDINGS": long_holdings,
            "LONG_PRICES": long_prices,
            "LATE": late,
        }
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {paths[culprit]}: ")
        assert expected.get(culprit, "") in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not paths["OUT"].exists()

    def test_json_nested_near_the_recursion_limit_is_refused(self, tmp_path, capsys):
        # Just under the limit a file loads, and an error message must still
        # show its value; past it, the file is not valid JSON.
        deep = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        for depth in range(limit - 300, limit + 1):
            deep.write_text("[" * depth + "]" * depth)
            assert main(["simulate", "--config", str(deep), "--out", str(tmp_path / "r.json")]) == 2
            assert main(["route", "--graph", str(deep), *ROUTE_ARGS]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("error: invalid config: ")
            assert err[1].startswith("error: graph: ") and len(err) == 2

    @pytest.mark.parametrize("command", ["simulate", "stress"])
    def test_out_and_csv_naming_one_file_is_a_usage_error(
        self, command, scenario_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", str(scenario_file), "--out", "r.json"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--csv", "./r.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --csv:" in captured.err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--config", "scenario.json", "--out", "./scenario.json"], "--out"),
            (
                ["stress", "--config", "scenario.json", "--out", "r.json",
                 "--csv", "cfg/scenario.json"],
                "--csv",
            ),
            (["mnav", "--holdings", "h.csv", "--price", "60000", "--csv", "h.csv"], "--csv"),
        ],
        ids=["config-out", "config-dir-csv", "holdings-csv"],
    )
    def test_an_output_naming_an_input_is_a_usage_error(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        inputs = {
            "scenario.json": json.dumps(stress_scenario_raw()),
            "cfg/scenario.json": json.dumps(stress_scenario_raw()),
            "h.csv": HOLDINGS_FIXTURE.read_text(),
        }
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        if argv[0] == "stress":  # found only through $SATSRAIL_CONFIG_DIR
            (tmp_path / "scenario.json").unlink()
            monkeypatch.setenv("SATSRAIL_CONFIG_DIR", "cfg")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: names the same file as --" in captured.err
        for name, text in inputs.items():
            assert not (tmp_path / name).exists() or (tmp_path / name).read_text() == text
        assert not (tmp_path / "r.json").exists()

    def test_an_existing_output_survives_a_failed_run(self, scenario_file, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("previous report")
        argv = ["simulate", "--config", str(scenario_file), "--out", str(out)]
        assert main([*argv, "--csv", str(tmp_path / "missing" / "s.csv")]) == 1
        assert out.read_text() == "previous report"


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", "nan"], "--price"),
            (["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", "inf"], "--price"),
            (["mnav", "--holdings", str(HOLDINGS_FIXTURE), "--price", "1e-9"], "--price"),
            (
                ["route", "--graph", "GRAPH", "--from", "A", "--to", "B",
                 "--amount-sats", "1000", "--max-fee-sats", "-5"],
                "--max-fee-sats",
            ),
        ],
        ids=["price-nan", "price-inf", "price-below-a-cent", "negative-fee-cap"],
    )
    def test_usage_error_exit_2(self, argv, flag, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(chain_spec()))
        argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = sorted(case.name for case in GOLDEN.iterdir() if case.is_dir())
# Keys that size the run. Nothing bounds them, and a large value runs until
# it is killed, so the fuzz holds them small.
WORK_KEYS = {
    "monte_carlo.num_paths",
    "market.horizon_months",
    "treasury.horizon_months",
    "payment_cap_per_month",
}
SMALL = st.sampled_from([-1, 0, 1, 2, 3, 2.5])
EXTREMES = st.one_of(
    st.sampled_from([0, -1, 1, 0.5, 1e-300, 1e11, 2**63, 10**30, -(10**30), 10**400]),
    st.integers(),
    st.floats(),
)


def leaves(node, kinds: tuple[type, ...], prefix: str = "") -> list[str]:
    """The dotted keys of every leaf of a raw config whose type is in ``kinds``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix[1:]] if type(node) in kinds else []
    return [leaf for key, value in items for leaf in leaves(value, kinds, f"{prefix}.{key}")]


# The string leaves that name a mode, a model or a node, and the odd values
# they are set to: empty, unknown, non-ASCII and 10 KB long.
STRING_LEAVES = re.compile(
    r"(merchants\.\d+\.(id|settle_mode)|treasury\.survival_mode|market\.(model|kind)"
    r"|graph\.hub|graph\.channels\.\d+\.[ab])"
)
ODD_STRINGS = st.sampled_from(["", "no-such-value", "caf\u00e9-\u03a9-\u2603", "x" * 10_240])


def _simulate_raw(raw: dict) -> tuple[int, str]:
    """Exit code and stderr of ``simulate`` on ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(config), "--out", f"{tmp}/r.json"])
    return code, err.getvalue()


def _golden_raw(case: str) -> dict:
    """A golden config held to one path of at most three months."""
    raw = json.loads((GOLDEN / case / "config.json").read_text(encoding="utf-8"))
    raw["monte_carlo"]["num_paths"] = 1
    raw["treasury"]["horizon_months"] = min(raw["treasury"]["horizon_months"], 3)
    return raw


class TestEveryConfigRunsOrIsRefused:
    """A golden config with its numbers set to extremes runs (exit 0), or is
    refused (exit 2) or fails on a file (exit 1), with no traceback."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_numeric_leaves_exit_0_1_or_2(self, data):
        raw = _golden_raw(data.draw(st.sampled_from(GOLDEN_CASES), label="case"))
        keys = st.lists(st.sampled_from(leaves(raw, (int, float))), min_size=1, max_size=3, unique=True)
        for key in data.draw(keys, label="keys"):
            set_key(raw, key, data.draw(SMALL if key in WORK_KEYS else EXTREMES, label=key))
        code, err = _simulate_raw(raw)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_string_leaves_exit_0_or_2_naming_the_key(self, data):
        raw = _golden_raw(data.draw(st.sampled_from(GOLDEN_CASES), label="case"))
        # survival_mode defaults, so a config need not hold it to have it.
        fuzzed = {"treasury.survival_mode"}
        fuzzed.update(key for key in leaves(raw, (str,)) if STRING_LEAVES.fullmatch(key))
        keys = data.draw(
            st.lists(st.sampled_from(sorted(fuzzed)), min_size=1, max_size=2, unique=True), label="keys"
        )
        for key in keys:
            set_key(raw, key, data.draw(ODD_STRINGS, label=key))
        code, err = _simulate_raw(raw)
        assert "Traceback" not in err
        # A 10 KB value is shown cut short, not whole.
        assert max(map(len, err.splitlines()), default=0) <= 200, err[:300]
        if code != 0:
            assert code == 2, err
            parents = {key.rpartition(".")[0] for key in keys}
            if len(parents) < len(keys):  # a rule over two fields names their record
                keys += parents
            named = [re.sub(r"\.(\d+)", r"[\1]", key) for key in keys]
            assert any(err.startswith(f"error: invalid config: {key}: ") for key in named), err[:300]

    def test_a_price_no_ticket_can_carry_runs(self, tmp_path):
        # At 10**30 cents a BTC every ticket is under half a msat: none is
        # sampled, nothing settles, and the run completes.
        raw = json.loads((GOLDEN / "stress_headline" / "config.json").read_text(encoding="utf-8"))
        raw["start_price_cents"] = 10**30
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        months = report["paths"][0]["months"]
        assert {(m["sampled_tx"], m["rail"]["tx_settled"]) for m in months} == {(0, 0)}
        assert months[0]["rail"]["tx_count"] > 0  # intended, none sampled

    def test_a_price_path_beyond_any_float_exits_2(self, tmp_path, capsys):
        raw = json.loads((GOLDEN / "many_paths_tiny" / "config.json").read_text(encoding="utf-8"))
        raw["market"]["mu"] = 1e30
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: its numbers overflow") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


# The parts hostile data files are made of: a field past the csv module's
# 131,072-character limit, an unbalanced quote, a NUL, a byte that is not
# UTF-8, a field too many or too few, and numbers at or past the float range.
HOSTILE_CELLS = st.sampled_from(
    [b"x" * 200_000, b'"unbalanced', b"a\x00b", b"caf\xe9", b"", b"1,2", b"1e300", b"1e-300"]
    + [b"nan", b"inf", b"-inf", b"0", b"-1", b"1" + b"0" * 400]
)
HOSTILE_JSON = st.sampled_from(
    [1e300, 1e-300, math.nan, math.inf, 10**400, -1, 0.5, "x" * 200_000, "a\x00b", None, [], {}]
)
# The route failures that are usage errors: exit 2.
ROUTE_USAGE_ERRORS = ("error: unknown node\n", "error: source and destination must differ\n")


def _hostile_csv(data, header: str, rows: list[list[str]]) -> bytes:
    """``header`` and ``rows`` as CSV bytes, up to two fields swapped for hostile parts."""
    cells = [[cell.encode() for cell in row] for row in rows]
    spots = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows[0]) - 1))
    for r, c in data.draw(st.lists(spots, max_size=2), label="swapped"):
        cells[r][c] = data.draw(HOSTILE_CELLS, label=f"row {r + 1} field {c + 1}")
    return b"\n".join([header.encode(), *map(b",".join, cells)]) + b"\n"


def _hostile_graph(data) -> bytes:
    """A chain graph spec with hostile leaves, or a file that is not one."""
    spec = chain_spec()
    for key in data.draw(st.lists(st.sampled_from(leaves(spec, (int, str, bool))), max_size=2), label="keys"):
        set_key(spec, key, data.draw(HOSTILE_JSON, label=key))
    text = json.dumps(spec).encode()
    return data.draw(st.sampled_from([text, text + b"\xff", text[: len(text) // 2], DEEP_JSON.encode()]))


class TestEveryDataFileRunsOrIsRefused:
    """``mnav``, ``corr`` and ``route`` on data files built from hostile
    parts exit 0, or 1 with one ``error:`` line; ``route`` exits 2 only for
    its usage errors. A failed ``mnav`` writes no ``--csv`` file."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exit_0_or_one_error_line(self, data):
        command = data.draw(st.sampled_from(["mnav", "corr", "route"]), label="command")
        with tempfile.TemporaryDirectory() as tmp:
            a, b, out = Path(tmp, "a"), Path(tmp, "b"), Path(tmp, "out.csv")
            if command == "mnav":
                rows = [["EQ", "100", "11030000", "1000"], ["AB", "2.5", "1", ""]]
                a.write_bytes(_hostile_csv(data, "ticker,btc_held,mkt_cap_usd,shares_outstanding", rows))
                argv = ["mnav", "--holdings", str(a), "--price", "110300", "--csv", str(out)]
            elif command == "corr":
                dates = [f"2024-01-0{day}" for day in range(1, 5)]
                for path, prices in ((a, ["1", "3", "2", "4"]), (b, ["1", "2", "3", "5"])):
                    path.write_bytes(_hostile_csv(data, "date,price", [list(r) for r in zip(dates, prices)]))
                argv = ["corr", "--a", str(a), "--b", str(b)]
                argv += data.draw(st.sampled_from([[], ["--returns"]]), label="returns")
            else:
                a.write_bytes(_hostile_graph(data))
                nodes = st.sampled_from(["A", "B", "C", "nope"])
                argv = ["route", "--graph", str(a), "--from", data.draw(nodes), "--to", data.draw(nodes)]
                argv += ["--amount-sats", str(data.draw(st.sampled_from([1, 10**6, 10**12])))]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            err = err.getvalue()
            assert code in (0, 1) or command == "route" and err in ROUTE_USAGE_ERRORS, (code, err[:300])
            assert err == "" or err.startswith("error: ") and err.count("\n") == 1, err[:300]
            assert code == 0 or not out.exists()


# Each domain bound: (dotted key, value past it, largest value within it).
# The bps shares are at most the whole; a channel holds at most the 21 M BTC
# supply, 2.1e18 msat, and its balance at most its capacity.
DOMAIN_BOUNDS = [
    ("merchants.0.take_rate_bps", 20_000, 10_000),
    ("merchants.0.take_rate_bps", -1, 0),
    ("merchants.0.sats_back_bps", 10_001, 10_000),
    ("rail.spread_bps", 10_001, 10_000),
    ("rail.variable_cost_bps", 10_001, 10_000),
    ("graph.channels.0.capacity_msat", 10**30, 21_000_000 * 10**11),
    ("graph.channels.0.balance_a_msat", 10**30, 0),
]


class TestDomainBounds:
    """A value past a domain bound is refused with exit 2, naming its key;
    the bound itself runs."""

    @staticmethod
    def _simulate(tmp_path, dotted: str, value) -> int:
        raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(set_key(raw, dotted, value)), encoding="utf-8")
        return main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("dotted, past, _", DOMAIN_BOUNDS)
    def test_past_the_bound_exits_2_naming_the_key(self, dotted, past, _, tmp_path, capsys):
        assert self._simulate(tmp_path, dotted, past) == 2
        key = re.sub(r"\.(\d+)", r"[\1]", dotted)
        assert capsys.readouterr().err.startswith(f"error: invalid config: {key}: must be in [")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("dotted, _, within", DOMAIN_BOUNDS)
    def test_the_bound_runs(self, dotted, _, within, tmp_path):
        assert self._simulate(tmp_path, dotted, within) == 0


# Integer keys that meet floats in the run; a value past the float range
# would raise OverflowError there.
FLOAT_RANGE_KEYS = [
    "merchants.0.monthly_gmv_cents",
    "treasury.cash0_cents",
    "start_price_cents",
    "rail.median_ticket_cents",
]


def _tiny_raw(dotted: str, value) -> dict:
    raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
    raw["rail"]["ticket_sigma"] = 0.0  # so the largest median has a finite mean ticket
    return set_key(raw, dotted, value)


class TestIntegersPastTheFloatRange:
    """An integer key past the float range is refused when the config is
    parsed, naming its key, by the library and the CLI; the largest integer
    a float holds is accepted."""

    @pytest.mark.parametrize("dotted", FLOAT_RANGE_KEYS)
    def test_the_largest_float_integer_is_accepted(self, dotted):
        config_from_dict(_tiny_raw(dotted, int(sys.float_info.max)))

    @pytest.mark.parametrize(
        "value", [int(sys.float_info.max) + 1, 10**400], ids=["max+1", "1e400"]
    )
    @pytest.mark.parametrize("dotted", FLOAT_RANGE_KEYS)
    def test_one_past_it_is_refused_naming_the_key(self, dotted, value):
        key = re.sub(r"\.(\d+)", r"[\1]", dotted)
        with pytest.raises(engine.ConfigError) as exc:
            config_from_dict(_tiny_raw(dotted, value))
        assert exc.value.key == key
        code, err = _simulate_raw(_tiny_raw(dotted, value))
        assert code == 2
        message = "must be an integer in the float range (up to ~1.8e308)"
        assert err == f"error: invalid config: {key}: {message}\n"


class TestLongSleeveErrors:
    """A sleeve error shows its first rejected peer cut short and counts the
    rest, so no line of stderr passes 200 characters."""

    @staticmethod
    def _refused(raw: dict) -> str:
        code, err = _simulate_raw(raw)
        assert code == 2 and "Traceback" not in err
        assert max(map(len, err.splitlines())) <= 200, err[:300]
        return err

    def test_a_sleeve_too_small_for_300_peers(self):
        raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
        raw["treasury"]["btc_core_sats"] = 1_000
        raw["sleeve_peers"] = [[f"p{i:03d}", 1.0] for i in range(300)]
        assert self._refused(raw) == (
            'error: invalid config: sleeve_peers: sleeve too small: peer "p000" and 299 more '
            "would get less than 1000 msat\n"
        )

    def test_a_10kb_peer_whose_channel_id_a_spec_channel_has(self):
        peer = "x" * 10_240
        raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
        raw["graph"]["channels"][0]["id"] = f"sleeve-{peer}"
        raw["sleeve_peers"] = [[peer, 1.0]]
        shown = json.dumps(f"sleeve-{peer}")[:60]
        assert self._refused(raw) == (
            f"error: invalid config: sleeve_peers: duplicate channel id {shown}\n"
        )


STRESS_MARKET = {"model": "stress", "kind": "linear", "total_drawdown": 0.5}
TRIGGER = {"drawdown_threshold": 0.3, "shrink_target": 0.5}
# The records' own range checks: (dotted key, a value past the range, a value
# at its edge or None, the message, sections set first).
GMV_MESSAGE = "must be positive, or 0 for an inactive merchant"
RANGE_ERRORS = [
    ("market.sigma", -0.1, 0.0, "must be non-negative", {}),
    ("market.horizon_months", 0, None, "must be at least one month", {}),
    ("market.total_drawdown", 1.0, 0.0, "must be in [0, 1)", {"market": STRESS_MARKET}),
    ("rebalance.low_watermark", 1.5, 1.0, "must be in [0, 1]", {}),
    ("rebalance.max_fee_bps", -1, 0, "must be non-negative", {}),
    ("stress_trigger.shrink_target", -0.5, 0.0, "must be in [0, 1]", {"stress_trigger": TRIGGER}),
    ("stress_trigger.drawdown_threshold", 2.0, 0.0, "must be in [0, 1]", {"stress_trigger": TRIGGER}),
    ("rail.base_churn", 1.01, 1.0, "must be in [0, 1]", {}),
    ("rail.churn_sensitivity", -0.5, 0.0, "must be non-negative", {}),
    ("rail.max_route_retries", -1, 0, "must be non-negative", {}),
    ("hub_fee_policy.base_msat", -1, 0, "must be non-negative", {}),
    ("hub_fee_policy.ppm", -1, 0, "must be non-negative", {}),
    ("graph.channels.0.policy_ab.ppm", -1, 0, "must be non-negative", {}),
    ("merchants.0.monthly_gmv_cents", 0, 1, GMV_MESSAGE, {}),
    ("merchants.0.monthly_gmv_cents", -1, None, GMV_MESSAGE, {}),
    ("graph.channels.0.b", "payer00", "hub", 'must differ from a (channel "spec-payer00")', {}),
]


class TestRangeErrors:
    """A record's range check is refused with exit 2, naming the JSON key
    below its section; its edge runs."""

    @staticmethod
    def _simulate(tmp_path, dotted: str, value, sections: dict) -> int:
        raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
        raw.update(json.loads(json.dumps(sections)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(set_key(raw, dotted, value)), encoding="utf-8")
        return main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize(
        "dotted, past, _, message, sections", RANGE_ERRORS, ids=[case[0] for case in RANGE_ERRORS]
    )
    def test_past_the_range_exits_2_naming_the_key(
        self, dotted, past, _, message, sections, tmp_path, capsys
    ):
        assert self._simulate(tmp_path, dotted, past, sections) == 2
        key = re.sub(r"\.(\d+)", r"[\1]", dotted)
        assert capsys.readouterr().err == f"error: invalid config: {key}: {message}\n"

    @pytest.mark.parametrize(
        "dotted, _, edge, __, sections",
        [pytest.param(*case, id=case[0]) for case in RANGE_ERRORS if case[2] is not None],
    )
    def test_the_edge_runs(self, dotted, _, edge, __, sections, tmp_path):
        assert self._simulate(tmp_path, dotted, edge, sections) == 0

    @pytest.mark.parametrize("gmv, code", [(-1, 2), (0, 0)])
    def test_an_inactive_merchant_may_have_no_gmv_but_not_less(self, gmv, code, tmp_path, capsys):
        raw = json.loads((GOLDEN / "rail_hub_tiny" / "config.json").read_text(encoding="utf-8"))
        raw["merchants"][0]["active"] = False
        sections = {"merchants": raw["merchants"]}
        assert self._simulate(tmp_path, "merchants.0.monthly_gmv_cents", gmv, sections) == code
        error = f"error: invalid config: merchants[0].monthly_gmv_cents: {GMV_MESSAGE}\n"
        assert capsys.readouterr().err == (error if code else "")


class TestNotANumber:
    """A flag that is not a number reads as such, naming no private function."""

    @pytest.mark.parametrize(
        "argv, flag, message",
        [
            (["simulate", "--paths", "x"], "--paths", "must be an integer"),
            (["simulate", "--seed", "abc"], "--seed", "must be an integer"),
            (["stress", "--months", "1.5"], "--months", "must be an integer"),
            (["stress", "--drawdown", "half"], "--drawdown", "must be a number"),
            (
                ["route", "--graph", "g.json", "--from", "A", "--to", "B", "--amount-sats", "1.5"],
                "--amount-sats",
                "must be an integer",
            ),
            (
                ["route", "--graph", "g.json", "--from", "A", "--to", "B",
                 "--amount-sats", "1", "--max-fee-sats", "1e3"],
                "--max-fee-sats",
                "must be an integer",
            ),
            (["mnav", "--holdings", "h.csv", "--price", "$60k"], "--price", "must be a number"),
        ],
        ids=["paths", "seed", "months", "drawdown", "amount-sats", "max-fee-sats", "price"],
    )
    def test_usage_error_exit_2(self, argv, flag, message, scenario_file, tmp_path, capsys):
        if argv[0] in ("simulate", "stress"):
            argv = [*argv, "--config", str(scenario_file), "--out", str(tmp_path / "r.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err
        assert re.search(r"(?<![\w-])_[a-z]", err) is None, err


class TestOneParse:
    """Each command parses its config, and builds its graph, once; the flags
    reach the report as if they were written in the config."""

    @staticmethod
    def counted_builds(monkeypatch) -> list:
        builds = []
        build = engine.build_graph

        def counting(spec, key=""):
            builds.append(key)
            return build(spec, key)

        monkeypatch.setattr(engine, "build_graph", counting)
        return builds

    @pytest.mark.parametrize(
        "flags, edit",
        [
            ([], lambda raw: None),
            (
                ["--seed", "7", "--paths", "3"],
                lambda raw: raw["monte_carlo"].update(master_seed=7, num_paths=3),
            ),
            (["--paths", "2"], lambda raw: raw["monte_carlo"].update(num_paths=2)),
        ],
        ids=["no-flags", "seed-and-paths", "paths"],
    )
    def test_simulate(self, flags, edit, tmp_path, monkeypatch):
        raw = stress_scenario_raw()
        raw["monte_carlo"] = {"num_paths": 1, "master_seed": 11}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        builds = self.counted_builds(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["simulate", "--config", str(config), *flags, "--out", str(out)]) == 0
        assert builds == ["graph"]
        edit(raw)
        expected = tmp_path / "expected.json"
        write_report_json(run_scenario(config_from_dict(raw)), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "flags, market",
        [
            ([], {"kind": "linear", "total_drawdown": 0.7, "horizon_months": 24}),
            (
                ["--shape", "exponential", "--drawdown", "0.4", "--months", "9"],
                {"kind": "exponential", "total_drawdown": 0.4, "horizon_months": 9},
            ),
        ],
        ids=["defaults", "shape-drawdown-months"],
    )
    def test_stress(self, flags, market, tmp_path, monkeypatch):
        raw = stress_scenario_raw()
        raw["market"] = {"model": "gbm", "mu": 0.1, "sigma": 0.5}  # replaced by the flags
        raw["monte_carlo"] = {"num_paths": 4, "master_seed": 11}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(raw))
        builds = self.counted_builds(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["stress", "--config", str(config), *flags, "--out", str(out)]) == 0
        assert builds == ["graph"]
        raw["market"] = {"model": "stress", **market}
        raw["treasury"]["horizon_months"] = market["horizon_months"]
        raw["monte_carlo"]["num_paths"] = 1
        expected = tmp_path / "expected.json"
        write_report_json(run_scenario(config_from_dict(raw)), expected)
        assert out.read_bytes() == expected.read_bytes()


class TestSeedRange:
    @pytest.mark.parametrize("seed", [str(2**127), str(-(2**127) - 1)])
    def test_a_seed_child_seed_cannot_encode_is_a_usage_error(
        self, seed, scenario_file, tmp_path, capsys
    ):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(scenario_file), "--seed", seed, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed:" in capsys.readouterr().err
        assert not out.exists()


class TestRoute:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(chain_spec(policies=(0, 0))))
        return path

    @pytest.fixture
    def fee_graph_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(chain_spec()))
        return path

    def test_direct_zero_fee(self, graph_file, capsys):
        code = main(
            [
                "route",
                "--graph",
                str(graph_file),
                "--from",
                "A",
                "--to",
                "B",
                "--amount-sats",
                "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 hop" in out
        assert "total fee 0 msat" in out

    def test_infeasible_no_route(self, graph_file, capsys):
        code = main(
            [
                "route",
                "--graph",
                str(graph_file),
                "--from",
                "A",
                "--to",
                "C",
                "--amount-sats",
                "999999999",
            ]
        )
        assert code == 1
        assert "no route" in capsys.readouterr().out

    def test_unknown_node(self, graph_file):
        code = main(
            [
                "route",
                "--graph",
                str(graph_file),
                "--from",
                "A",
                "--to",
                "nope",
                "--amount-sats",
                "10",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit, key",
        [
            pytest.param(None, "must be an object", id="list"),
            pytest.param(("channels", [{"id": "ab"}]), "channels[0].a", id="missing-key"),
            pytest.param(("channels", ["ab"]), "channels[0]", id="non-object-channel"),
            pytest.param(("channels.0.capacity_msat", "lots"), "channels[0].capacity_msat",
                         id="string-capacity"),
            pytest.param(("channels.0.capacity_msat", 1.5), "channels[0].capacity_msat",
                         id="fractional-capacity"),
            pytest.param(("channels.1.opne", False), "channels[1].opne", id="channel-typo"),
            pytest.param(("hubb", "B"), "hubb", id="spec-typo"),
            pytest.param(("channels.0.policy_ba.fee", 1), "channels[0].policy_ba.fee",
                         id="policy-typo"),
            pytest.param("deep", "nested too deeply", id="nested-too-deep"),
        ],
    )
    def test_malformed_graph_exit_1(self, edit, key, tmp_path, capsys):
        graph = tmp_path / "graph.json"
        if edit == "deep":
            graph.write_text(DEEP_JSON)
        else:
            graph.write_text(json.dumps([1, 2] if edit is None else set_key(chain_spec(), *edit)))
        argv = ["route", "--graph", str(graph), "--from", "A", "--to", "C"]
        assert main([*argv, "--amount-sats", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: graph: ")
        assert key in err
        assert "Traceback" not in err

    def test_fee_composition_on_chain(self, fee_graph_file, capsys):
        # 1_000_000 sats = 1e9 msat through one intermediary: fee 101_000.
        code = main(
            [
                "route",
                "--graph",
                str(fee_graph_file),
                "--from",
                "A",
                "--to",
                "C",
                "--amount-sats",
                "1000000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total fee 101000 msat" in out
        assert "fee 101000 msat" in out


class TestCorr:
    def _write(self, path, rows):
        path.write_text("date,price\n" + "\n".join(f"{d},{p}" for d, p in rows) + "\n")

    @pytest.fixture
    def series_file(self, tmp_path):
        p = tmp_path / "a.csv"
        self._write(
            p,
            [
                ("2024-01-01", 100.0),
                ("2024-01-02", 104.0),
                ("2024-01-03", 101.0),
                ("2024-01-04", 110.0),
            ],
        )
        return p

    def test_self_correlation(self, series_file, capsys):
        code = main(["corr", "--a", str(series_file), "--b", str(series_file)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.00000"

    def test_negative_affine_map(self, series_file, tmp_path, capsys):
        # Prices must stay positive, so negate via an affine flip.
        p = tmp_path / "b.csv"
        self._write(
            p,
            [
                ("2024-01-01", 1000.0 - 100.0),
                ("2024-01-02", 1000.0 - 104.0),
                ("2024-01-03", 1000.0 - 101.0),
                ("2024-01-04", 1000.0 - 110.0),
            ],
        )
        code = main(["corr", "--a", str(series_file), "--b", str(p)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "-1.00000"

    def test_returns_flag(self, series_file, tmp_path, capsys):
        # Doubled levels have identical returns: corr 1 either way, but the
        # flag exercises the returns branch.
        p = tmp_path / "b.csv"
        self._write(
            p,
            [
                ("2024-01-01", 200.0),
                ("2024-01-02", 208.0),
                ("2024-01-03", 202.0),
                ("2024-01-04", 220.0),
            ],
        )
        code = main(["corr", "--a", str(series_file), "--b", str(p), "--returns"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.00000"

    def test_no_overlap_exit_1(self, series_file, tmp_path, capsys):
        p = tmp_path / "b.csv"
        self._write(p, [("2030-01-01", 5.0), ("2030-01-02", 6.0)])
        assert main(["corr", "--a", str(series_file), "--b", str(p)]) == 1
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_prices_at_either_end_of_the_float_range(self, scale, tmp_path, capsys):
        # r = 0.5 at any scale; squares of 1e200 overflow, of 1e-200 vanish.
        dates = ["2024-01-01", "2024-01-02", "2024-01-03"]
        self._write(tmp_path / "a.csv", zip(dates, [1 * scale, 3 * scale, 2 * scale]))
        self._write(tmp_path / "b.csv", zip(dates, [1, 2, 3]))
        assert main(["corr", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out == "0.50000\n"

    def test_a_return_past_the_float_range_exit_1(self, series_file, tmp_path, capsys):
        p = tmp_path / "b.csv"
        self._write(p, [("2024-01-01", 1e-300), ("2024-01-02", 1e300), ("2024-01-03", 1.0)])
        assert main(["corr", "--a", str(series_file), "--b", str(p), "--returns"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a return is past the float range\n"
        assert captured.out == ""


class TestHelp:
    @pytest.mark.parametrize(
        "sub", ["simulate", "stress", "mnav", "route", "corr"]
    )
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corr", "--bogus"])
        assert exc.value.code == 2


STDLIB_ONLY_RUN = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import satsrail
import satsrail.cli
code = satsrail.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print("pool imported" if "concurrent.futures.process" in sys.modules else "no pool")
sys.exit(code)
"""


class TestStandardLibraryOnly:
    def test_simulate_runs_without_numpy_or_a_pool(self, tmp_path):
        # A fresh interpreter: this one has numpy and the pool loaded already.
        src = Path(__file__).parents[1] / "src"
        config = Path(__file__).parent / "golden" / "rail_hub_tiny" / "config.json"
        done = subprocess.run(
            [sys.executable, "-c", STDLIB_ONLY_RUN, str(config), str(tmp_path / "r.json")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "no pool"
        assert (tmp_path / "r.json").exists()
