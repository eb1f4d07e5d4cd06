"""What a run loads, checked in a fresh interpreter.

A small run needs none of OpenSSL (``_hashlib``), ``statistics``,
``fractions``, ``decimal``, ``csv`` or ``datetime``; together they are
~4 MB of every CLI run's resident memory. A report text past
``rng.OPENSSL_MIN_BYTES`` is the one input worth hashlib's import. README's
investor check needs nothing but the stdlib: it runs here, as README gives
it, on every golden report and on the reports these runs write.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"
README = Path(__file__).parents[1] / "README.md"
HEAVY = ("_hashlib", "statistics", "fractions", "decimal", "csv", "datetime")

# Runs a config through run_scenario, writes both reports, and prints which
# of the modules named after the two paths are loaded.
RUN = """
import json, sys
from pathlib import Path

import satsrail.cli
from satsrail.engine import config_from_dict, run_scenario, write_report_csv, write_report_json

config, out = Path(sys.argv[1]), Path(sys.argv[2])
report = run_scenario(config_from_dict(json.loads(config.read_text(encoding="utf-8"))))
write_report_json(report, out / "report.json")
write_report_csv(report, out / "report.csv")
print(json.dumps({
    "loaded": [name for name in sys.argv[3:] if name in sys.modules],
    "paths_bytes": len(report.paths_json.encode("utf-8")),
}))
"""


def _run(raw: dict, tmp_path: Path) -> dict:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    # -S: what an environment's site hooks import is not the program's.
    run = subprocess.run(
        [sys.executable, "-S", "-c", RUN, str(config), str(tmp_path), *HEAVY],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _readme_check() -> str:
    """The ``python`` blocks of README's "Reports" section, as one script."""
    section = README.read_text(encoding="utf-8").split("\n## Reports\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert blocks, "README's Reports section has no python block"
    return "\n".join(blocks)


def _run_readme_check(directory: Path) -> subprocess.CompletedProcess:
    """README's check run on ``directory``'s ``report.json`` by a bare
    interpreter: no site packages, no ``PYTHONPATH``, so no satsrail."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-S", "-c", _readme_check()],
        cwd=directory,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def _assert_readme_check_passes(directory: Path) -> None:
    run = _run_readme_check(directory)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("case", sorted(p.parent.name for p in GOLDEN.glob("*/report.json")))
def test_readme_check_passes_on_each_golden_report(case, tmp_path):
    shutil.copy(GOLDEN / case / "report.json", tmp_path / "report.json")
    _assert_readme_check_passes(tmp_path)


def test_readme_check_catches_a_net_that_is_not_its_components(tmp_path):
    # One cent off one month's net, with the hash re-derived to match: only
    # the check of the net against its components can catch it.
    report = json.loads((GOLDEN / "stress_headline" / "report.json").read_text(encoding="utf-8"))
    report["paths"][0]["months"][5]["rail"]["net_inflow_cents"] += 1
    text = json.dumps(report["paths"], sort_keys=True, indent=2, allow_nan=False) + "\n"
    report["reconciliation_hash"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    run = _run_readme_check(tmp_path)
    assert run.returncode == 1
    assert run.stderr.rstrip().endswith("AssertionError: (0, 6)"), run.stderr


def _golden_config(case: str) -> dict:
    return json.loads((GOLDEN / case / "config.json").read_text(encoding="utf-8"))


def test_a_small_run_loads_none_of_the_heavy_stdlib(tmp_path):
    figures = _run(_golden_config("rail_hub_tiny"), tmp_path)
    assert figures["loaded"] == []
    _assert_readme_check_passes(tmp_path)
    assert (tmp_path / "report.csv").stat().st_size > 0


def test_a_report_past_the_threshold_hashes_through_openssl(tmp_path):
    from satsrail.rng import OPENSSL_MIN_BYTES

    raw = _golden_config("many_paths_tiny")
    raw["monte_carlo"]["num_paths"] = 200
    figures = _run(raw, tmp_path)
    assert figures["paths_bytes"] >= OPENSSL_MIN_BYTES
    assert figures["loaded"] == ["_hashlib"]
    _assert_readme_check_passes(tmp_path)
