"""Benchmark runner for satsrail: seeded workloads, timed end to end.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner generates the workload's config
dict from ``--seed`` and hands it to child interpreters
(``bench/child.py``), one at a time. Each child is a fresh interpreter: it
times its own set-up, runs an untimed warm-up repetition, then serial
``run_scenario`` repetitions until its share of ``--seconds`` is used, a
closed loop with one client. Every repetition's outputs are checked. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones: ``wall_s`` is the median over every
timed repetition of the run, ``setup_s`` and ``peak_rss_mb`` the medians
over its children. With ``--trace 1`` untraced children are followed by one
traced repetition and the metrics are the per-layer ones. The line before
it is the result record: environment stamp, reconciliation hash, traffic
counts and every child's raw figures. It is also appended to
``bench/out/results.jsonl``; the traced repetition's spans are kept in
``bench/out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = {
    # Route search is ~93% of the wall time: the workload for router
    # changes, and the one whose payments retry.
    "rail_hub": workloads.rail_hub,
    # Larger graph, longer routes, circular rebalances and a sleeve shrink:
    # shows a router gain that costs the circular path or long searches.
    "mesh_stress": workloads.mesh_stress,
    # No payments at all; report stages and VaR dominate. The router is
    # bypassed, so router changes should leave it unchanged.
    "many_paths": workloads.many_paths,
}

# Metric names and units, in output order, as declared to tools.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Fresh interpreters per run: each gives one set-up sample and a slice of
# the timed repetitions.
CHILDREN = 4
CHILD_TIMEOUT_S = 150
OUT_DIR = BENCH_DIR / "out"


def run_child(root: Path, config: dict, out_dir: Path, trace: bool, deadline: float) -> dict:
    """Run one child interpreter and return its figures.

    The child repeats the workload until ``deadline`` (``perf_counter``
    seconds); see ``bench/child.py``. A child that crashes or prints no
    result counts as one failed repetition.
    """
    out_dir.mkdir(parents=True)
    job = out_dir / "job.json"
    job.write_text(
        json.dumps({"config": config, "out_dir": str(out_dir), "trace": trace, "deadline": deadline}),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(job)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
        fig = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, OSError, ValueError, IndexError) as exc:
        return {"attempted": 1, "failures": [f"child: {type(exc).__name__}: {exc}"], "walls": []}
    if proc.returncode != 0:
        return {"attempted": 1, "failures": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"], "walls": []}
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    fig["setup_s"] = fig["t_config"] - t_spawn
    return fig


def env_stamp(root: Path, seed: int) -> dict:
    """Where the numbers came from; replays are byte-identical only for a
    fixed numpy version. ``git_sha`` is null outside a git checkout."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def layer_metrics(spans_doc: dict, traced: dict, untraced: list[dict], sizes: dict) -> dict:
    """Per-layer figures of the traced repetition."""
    layers = tracer.layer_times(spans_doc["spans"])
    counts = spans_doc["counts"]

    def row(name: str) -> dict:
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    send, find = row("lightning.send_payment"), row("lightning.find_route")
    execute, path = row("lightning.execute_payment"), row("engine.run_path")
    path_ms = [
        (end - start) * 1e3
        for name, start, end, _, _ in spans_doc["spans"]
        if name == "engine.run_path"
    ]
    tail_pct, tail_ms, tail_samples = tracer.tail_percentile(path_ms)
    untraced_wall = statistics.median(w for f in untraced for w in f["walls"])
    return {
        "lightning.find_route.calls": find["calls"],
        "lightning.find_route.s": find["s"],
        "lightning.searches_per_payment": ratio(find["calls"], send["calls"]),
        "lightning.execute_payment.calls": execute["calls"],
        "lightning.execute_payment.s": execute["s"],
        "lightning.execute_fail_ratio": ratio(
            counts["execute_insufficient"], execute["calls"]
        ),
        "lightning.payment_success_ratio": ratio(
            counts["payments_settled"], send["calls"]
        ),
        "lightning.payments_no_route": counts["payments_no_route"],
        "lightning.route_hops_mean": ratio(
            counts["route_hops_settled"], counts["payments_settled"]
        ),
        "lightning.send_payment.calls": send["calls"],
        "lightning.send_payment.s": send["s"],
        "lightning.send_payment.self_s": send["self_s"],
        "lightning.rebalance.calls": row("lightning.rebalance")["calls"],
        "lightning.rebalance.s": row("lightning.rebalance")["s"],
        "lightning.rebalance_settled": counts["rebalance_settled"],
        "lightning.rebalance_no_route": counts["rebalance_no_route"],
        "lightning.rebalance_fee_capped": counts["rebalance_fee_capped"],
        "lightning.build_graph.calls": row("lightning.build_graph")["calls"],
        "lightning.build_graph.s": row("lightning.build_graph")["s"],
        "lightning.shrink_sleeve.calls": row("lightning.shrink_sleeve")["calls"],
        "market.gen_path.calls": row("market.gen_path")["calls"],
        "market.gen_path.s": row("market.gen_path")["s"],
        "rail.gen_monthly_payments.calls": row("rail.gen_monthly_payments")["calls"],
        "rail.gen_monthly_payments.s": row("rail.gen_monthly_payments")["s"],
        "rail.payments_sampled": counts["payments_sampled"],
        "rail.payments_intended": counts["payments_intended"],
        "rail.apply_churn.s": row("rail.apply_churn")["s"],
        "rng.stream.calls": row("rng.stream")["calls"],
        "rng.stream.s": row("rng.stream")["s"],
        "treasury.sleeve_var.calls": row("treasury.sleeve_var")["calls"],
        "treasury.sleeve_var.s": row("treasury.sleeve_var")["s"],
        "treasury.step_treasury.s": row("treasury.step_treasury")["s"],
        "treasury.no_forced_sale.s": row("treasury.no_forced_sale")["s"],
        "treasury.var_cap_check.s": row("treasury.var_cap_check")["s"],
        "engine.run_path.calls": path["calls"],
        "engine.run_path.s": path["s"],
        "engine.run_path.self_s": path["self_s"],
        "engine.run_path.p50_ms": statistics.median(path_ms),
        "engine.run_path.tail_pct": tail_pct,
        "engine.run_path.tail_ms": tail_ms,
        "engine.run_path.tail_samples": tail_samples,
        "engine.report_build.s": row("engine.run_scenario")["s"] - path["s"],
        "engine.write_report_json.s": row("engine.write_report_json")["s"],
        "engine.write_report_csv.s": row("engine.write_report_csv")["s"],
        "engine.report_bytes": sizes["report_bytes"],
        "engine.csv_bytes": sizes["csv_bytes"],
        "util.canonical_json.calls": row("util.canonical_json")["calls"],
        "util.canonical_json.s": row("util.canonical_json")["s"],
        "util.canonical_json.bytes": counts["canonical_json_bytes"],
        "setup.import_s": statistics.median(f["import_s"] for f in untraced),
        "setup.config_s": statistics.median(f["config_s"] for f in untraced),
        "trace.wall_s": traced["walls"][0],
        "trace.overhead_s": traced["walls"][0] - untraced_wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "satsrail" / "engine.py").is_file():
        print("bench: run from the repository root (src/satsrail not found)", file=sys.stderr)
        return 2

    config = WORKLOADS[args.workload](args.seed, args.size)
    run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    # Untraced children share the run; a traced run keeps the last part of
    # it for the traced child.
    budget = args.seconds * (0.6 if args.trace else 1.0)
    n_children = CHILDREN - 2 if args.trace else CHILDREN
    children = [
        run_child(root, config, run_dir / f"child{i}", False, start + budget * (i + 1) / n_children)
        for i in range(n_children)
    ]
    traced = None
    sizes: dict = {}
    if args.trace:
        traced = run_child(root, config, run_dir / "traced", True, 0.0)
        children.append(traced)
        if traced["walls"]:
            sizes = {
                "report_bytes": (run_dir / "traced" / "report.json").stat().st_size,
                "csv_bytes": (run_dir / "traced" / "report.csv").stat().st_size,
            }
            with open(run_dir / "traced" / "spans.json", encoding="utf-8") as fh:
                traced["spans_doc"] = json.load(fh)
            OUT_DIR.mkdir(exist_ok=True)
            os.replace(run_dir / "traced" / "spans.json", OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
    shutil.rmtree(run_dir, ignore_errors=True)

    failures = [f"child{i}: {msg}" for i, c in enumerate(children) for msg in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    hashes = {c["reconciliation_hash"] for c in children if c.get("reconciliation_hash")}
    if len(hashes) > 1:
        failures.append(f"reconciliation_hash differs between children: {sorted(hashes)}")
    untraced = [c for c in children if c is not traced and c["walls"]]
    walls = [w for c in untraced for w in c["walls"]]
    if not walls or (traced is not None and not traced["walls"]):
        for line in failures:
            print(line, file=sys.stderr)
        return 1

    # The median over every timed repetition of the run. Load from other
    # tenants of a shared host changes the speed of a repetition by up to
    # half within seconds; over a whole run the median of 30-80 short
    # repetitions averages most of that out, and it repeats across runs
    # better than the fastest repetition does.
    wall = statistics.median(walls)
    sampled = untraced[0]["sampled_tx"]
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "env": env_stamp(root, args.seed),
        "reconciliation_hash": hashes.pop() if len(hashes) == 1 else None,
        "failed_run_ratio": len(failures) / attempted,
        "failures": failures,
        "traffic": {"sampled_payments": sampled},
        "timed_reps": len(walls),
        "wall_s_min": min(walls),
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3,
        "children": [
            {k: c[k] for k in ("setup_s", "import_s", "config_s", "walls", "cpus", "peak_rss_mb")}
            for c in children
            if c["walls"]
        ],
    }
    if sampled:
        record["us_per_payment"] = wall / sampled * 1e6
    if args.trace:
        values = layer_metrics(traced.pop("spans_doc"), traced, untraced, sizes)
        record["traffic"].update(
            searches_per_payment=values["lightning.searches_per_payment"],
            route_hops_mean=values["lightning.route_hops_mean"],
            payment_success_ratio=values["lightning.payment_success_ratio"],
            rebalances_settled=values["lightning.rebalance_settled"],
            rebalances_attempted=values["lightning.rebalance.calls"],
        )
        declared = SPEC["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in untraced),
            "wall_s": wall,
            "paths_per_s": untraced[0]["num_paths"] / wall,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        }
        declared = SPEC["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "metrics": values}) + "\n")
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
