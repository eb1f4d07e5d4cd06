"""Fingerprints of the benchmark workloads' reports, to compare two checkouts.

For each workload in ``bench/workloads.py`` and each seed, the scenario is
run and written as ``satsrail simulate`` writes it, and one JSON object is
printed: ``<workload>-<seed>`` maps to the ``reconciliation_hash`` and the
SHA-256 of the written ``report.json`` and ``report.csv``. The script runs
the ``src/`` and ``bench/`` of the checkout it sits in, so the same command
in two checkouts, with the outputs diffed, shows whether any byte moved::

    python tests/report_hashes.py [--size tiny|full] [--seeds 31-40,97]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from satsrail.engine import (  # noqa: E402
    config_from_dict,
    run_scenario,
    write_report_csv,
    write_report_json,
)

WORKLOADS = ("rail_hub", "mesh_stress", "many_paths")


def seeds(text: str) -> list[int]:
    """``"31-40,97"`` as ``[31, 32, ..., 40, 97]``."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def fingerprints(size: str, seed_list: list[int]) -> dict:
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in WORKLOADS:
            for seed in seed_list:
                report = run_scenario(config_from_dict(getattr(workloads, name)(seed, size)))
                write_report_json(report, out / "report.json")
                write_report_csv(report, out / "report.csv")
                result[f"{name}-{seed}"] = {
                    "reconciliation_hash": report.reconciliation_hash,
                    **{
                        f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                        for f in ("report.json", "report.csv")
                    },
                }
    return result


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("tiny", "full"), default="full")
    parser.add_argument("--seeds", type=seeds, default="31-40,97")
    args = parser.parse_args(argv)
    print(json.dumps(fingerprints(args.size, args.seeds), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
