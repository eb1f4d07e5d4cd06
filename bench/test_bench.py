"""Harness smoke test: tiny workloads, output schema, output checks, spans.

Run from the repository root: ``python -m pytest bench/test_bench.py``.
It asserts structure only, never timings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = run.SPEC


def bench(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args, "--size", "tiny", "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generators_are_seeded(name):
    gen = run.WORKLOADS[name]
    assert gen(3, "tiny") == gen(3, "tiny")
    assert gen(3, "tiny") != gen(4, "tiny")
    assert gen(3) == gen(3)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_result_schema(name):
    record, result = bench("--workload", name, "--seed", "5", "--trace", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # At --seconds 0 each child runs a warm-up and one timed repetition; a
    # traced run has two untraced children fewer, then the traced one.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (run.CHILDREN - 1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    assert set(record["env"]) == {"git_sha", "python", "numpy", "scipy", "nproc", "seed"}
    assert record["env"]["seed"] == 5
    assert len(record["reconciliation_hash"]) == 64
    assert record["failed_run_ratio"] == 0
    assert "searches_per_payment" in record["traffic"]


def test_untraced_result_schema():
    record, result = bench("--workload", "rail_hub", "--seed", "5", "--trace", "0")
    assert result["correct"] and result["attempted"] == 2 * run.CHILDREN
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["us_per_payment"] > 0
    assert record["timed_reps"] == run.CHILDREN
    assert len(record["children"]) == run.CHILDREN


def test_refuses_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "rail_hub",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def traced_rep(tmp_path_factory):
    """One traced tiny mesh_stress child, checked, with its spans."""
    out_dir = tmp_path_factory.mktemp("bench") / "traced"
    fig = run.run_child(ROOT, workloads.mesh_stress(7, "tiny"), out_dir, True, 0.0)
    assert fig["failures"] == [] and len(fig["walls"]) == 1
    return fig, out_dir


def test_output_checks_catch_a_wrong_verdict(traced_rep):
    from satsrail import engine
    from satsrail.treasury import no_forced_sale

    _, out_dir = traced_rep
    report = engine.run_scenario(engine.config_from_dict(workloads.mesh_stress(7, "tiny")))
    engine.write_report_json(report, out_dir / "report.json")
    engine.write_report_csv(report, out_dir / "report.csv")
    child.check_outputs(report, out_dir, no_forced_sale)
    report_path = out_dir / "report.json"
    written = json.loads(report_path.read_text(encoding="utf-8"))
    path = written["paths"][0]
    path["survives"] = not path["survives"]
    report_path.write_text(json.dumps(written), encoding="utf-8")
    with pytest.raises(child.CheckFailed):
        child.check_outputs(report, out_dir, no_forced_sale)


def test_spans_nest(traced_rep):
    _, out_dir = traced_rep
    doc = json.loads((out_dir / "spans.json").read_text(encoding="utf-8"))
    spans = doc["spans"]
    names = {s[0] for s in spans}
    for layer in ("lightning.find_route", "lightning.rebalance", "lightning.shrink_sleeve",
                  "treasury.sleeve_var", "util.canonical_json", "engine.run_path"):
        assert layer in names
    assert set(names) <= set(tracer.SITES)
    for sid, (name, start, end, parent, request) in enumerate(spans):
        assert start <= end
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_request = spans[parent]
        assert parent < sid
        assert p_start <= start and end <= p_end
        if name != "engine.run_path":
            assert request == p_request
    for name, _, _, _, request in spans:
        if name in ("lightning.find_route", "treasury.sleeve_var"):
            assert request == 0
    layers = tracer.layer_times(spans)
    for row in layers.values():
        assert row["self_s"] <= row["s"] + 1e-9
    assert layers["engine.run_scenario"]["calls"] == 1


def test_tail_percentile_states_samples_above():
    pct, value, above = tracer.tail_percentile([float(i) for i in range(1, 501)])
    assert (pct, value, above) == (98.0, 490.0, 10)
    assert tracer.tail_percentile([1.0, 2.0, 3.0])[0] == 50.0
