"""Command-line behavior: outputs, determinism, exit-code contract."""

import hashlib
import json

import pytest

from conftest import (
    HOLDINGS_FIXTURE,
    MALFORMED_CONFIGS,
    chain_spec,
    set_key,
    stress_scenario_raw,
)
from satsrail.cli import main
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


def _malformed_cli_cases():
    for dotted, value, key in MALFORMED_CONFIGS:
        yield pytest.param(["simulate"], (dotted, value), key, id=f"{dotted}={value!r}")
    yield pytest.param(["simulate"], None, "scenario.json", id="truncated-json")
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
        text = json.dumps(stress_scenario_raw())
        if edit is None:
            text = text[: len(text) // 2]
        else:
            text = json.dumps(set_key(stress_scenario_raw(), *edit))
        config = tmp_path / "scenario.json"
        config.write_text(text)
        out = tmp_path / "r.json"
        code = main([*argv, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid config: ")
        assert key in err
        assert "Traceback" not in err
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
        ],
        ids=[
            "mnav-holdings-not-utf8",
            "corr-a-not-utf8",
            "simulate-out-no-dir",
            "simulate-csv-no-dir",
            "stress-out-no-dir",
            "stress-csv-no-dir",
            "mnav-csv-no-dir",
        ],
    )
    def test_exit_1_naming_the_file(self, argv, culprit, scenario_file, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("date,price\n2024-01-01,1\n# caf\u00e9\n".encode("latin-1"))
        prices = tmp_path / "prices.csv"
        prices.write_text("date,price\n2024-01-01,1\n2024-01-02,2\n")
        paths = {
            "LATIN1": latin1,
            "PRICES": prices,
            "CONFIG": scenario_file,
            "HOLDINGS": HOLDINGS_FIXTURE,
            "OUT": tmp_path / "report.json",
            "NODIR": tmp_path / "missing" / "out.file",
        }
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[culprit]}: ")
        assert err.count("\n") == 1


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
        ],
    )
    def test_malformed_graph_exit_1(self, edit, key, tmp_path, capsys):
        graph = tmp_path / "graph.json"
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
