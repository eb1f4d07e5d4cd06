"""Timed repetitions of a workload in one fresh interpreter.

Usage: ``PYTHONPATH=src python bench/child.py JOB.json``

The job file holds the generated config dict, the output directory, whether
to trace, and a deadline on the ``time.perf_counter`` clock (on Linux that
is CLOCK_MONOTONIC, shared with the parent). The child imports
``satsrail.engine`` and validates the config (the set-up the parent times
from its spawn), runs one untimed warm-up repetition, then timed
repetitions until the deadline, at least one. A repetition is serial
``run_scenario`` plus ``write_report_json`` and ``write_report_csv``; the
written reports are checked after each one, outside the timed interval.

A traced job runs the warm-up untraced, then installs the tracer and runs
one traced repetition, and writes its spans and counters to ``spans.json``,
once, at the end.

The child prints one JSON object: clock readings, every timed repetition's
wall and CPU seconds, peak RSS, the in-memory facts of the last report and
the failures it found.
"""

import json
import resource
import sys
import time
from pathlib import Path


class CheckFailed(Exception):
    """A repetition's outputs disagree with what the program reported."""


def check_outputs(report, out: Path, no_forced_sale) -> None:
    """Check the written JSON and CSV reports against the in-memory report."""
    with open(out / "report.json", encoding="utf-8") as fh:
        written = json.load(fh)
    if written["reconciliation_hash"] != report.reconciliation_hash:
        raise CheckFailed("written hash differs from the in-memory hash")
    if written["survival_probability"] != report.survival_probability:
        raise CheckFailed("written survival_probability differs from in-memory")
    n = written["num_paths"]
    if len(written["paths"]) != n or n != report.num_paths:
        raise CheckFailed("path count mismatch")
    if written["survival_probability"] != written["surviving_paths"] / n:
        raise CheckFailed("survival_probability != surviving_paths / num_paths")
    treasury = written["config"]["treasury"]
    outflow = (
        treasury["opex_monthly_cents"]
        + treasury["interest_monthly_cents"]
        + treasury["capex_monthly_cents"]
    )
    months = 0
    for path in written["paths"]:
        inflows = [m["rail"]["net_inflow_cents"] + m["yield_cents"] for m in path["months"]]
        verdict = no_forced_sale(
            treasury["cash0_cents"],
            inflows,
            [outflow] * len(inflows),
            treasury["survival_mode"],
        )
        if (verdict.survives, verdict.breach_month) != (
            path["survives"],
            path["breach_month"],
        ):
            raise CheckFailed(f"path {path['path_index']}: verdict does not re-derive")
        months += len(path["months"])
    with open(out / "report.csv", encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh) - 1
    if csv_rows != months:
        raise CheckFailed(f"CSV has {csv_rows} rows for {months} path-months")


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    out = Path(job["out_dir"])
    t_job = time.perf_counter()
    from satsrail import engine
    from satsrail.treasury import no_forced_sale

    t_import = time.perf_counter()
    config = engine.config_from_dict(job["config"])
    t_config = time.perf_counter()

    walls: list[float] = []
    cpus: list[float] = []
    failures: list[str] = []
    hashes: set[str] = set()
    report = None
    tracer = None

    def repetition() -> tuple[float, float] | None:
        nonlocal report
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            report = engine.run_scenario(config)
            engine.write_report_json(report, out / "report.json")
            engine.write_report_csv(report, out / "report.csv")
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            check_outputs(report, out, no_forced_sale)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        hashes.add(report.reconciliation_hash)
        if len(hashes) > 1:
            failures.append("reconciliation_hash differs between repetitions")
            return None
        return wall, cpu

    attempted = 1
    warm = repetition()
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if warm is not None:
            attempted += 1
            timed = repetition()
            if timed is not None:
                walls.append(timed[0])
                cpus.append(timed[1])
    else:
        while warm is not None:
            attempted += 1
            timed = repetition()
            if timed is None:
                break
            walls.append(timed[0])
            cpus.append(timed[1])
            if time.perf_counter() >= job["deadline"]:
                break

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(out / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    result = {
        "t_config": t_config,
        "import_s": t_import - t_job,
        "config_s": t_config - t_import,
        "walls": walls,
        "cpus": cpus,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": rss_kb / 1024.0,
        "reconciliation_hash": report.reconciliation_hash if report else None,
        "num_paths": report.num_paths if report else 0,
        "sampled_tx": sum(m.sampled_tx for p in report.paths for m in p.months)
        if report
        else 0,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
