"""What a run loads, checked in a fresh interpreter.

A small run needs none of OpenSSL (``_hashlib``), ``statistics``,
``fractions``, ``decimal``, ``csv`` or ``datetime``; together they are
~4 MB of every CLI run's resident memory. A report text past
``rng.OPENSSL_MIN_BYTES`` is the one input worth hashlib's import.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"
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


def _readme_hash(report_path: Path) -> str:
    """README's stdlib re-derivation of ``reconciliation_hash``."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    text = json.dumps(report["paths"], sort_keys=True, indent=2, allow_nan=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _golden_config(case: str) -> dict:
    return json.loads((GOLDEN / case / "config.json").read_text(encoding="utf-8"))


def test_a_small_run_loads_none_of_the_heavy_stdlib(tmp_path):
    figures = _run(_golden_config("rail_hub_tiny"), tmp_path)
    assert figures["loaded"] == []
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["reconciliation_hash"] == _readme_hash(tmp_path / "report.json")
    assert (tmp_path / "report.csv").stat().st_size > 0


def test_a_report_past_the_threshold_hashes_through_openssl(tmp_path):
    from satsrail.rng import OPENSSL_MIN_BYTES

    raw = _golden_config("many_paths_tiny")
    raw["monte_carlo"]["num_paths"] = 200
    figures = _run(raw, tmp_path)
    assert figures["paths_bytes"] >= OPENSSL_MIN_BYTES
    assert figures["loaded"] == ["_hashlib"]
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["reconciliation_hash"] == _readme_hash(tmp_path / "report.json")
