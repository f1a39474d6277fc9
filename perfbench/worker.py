"""Timed loop of one workload's operations, in a process of its own.

Usage: ``python3 worker.py JOB.json`` (``run.py`` writes the job).

The worker imports fatpanel from the job's source tree and calls only its
public entry points, ``fatpanel.cli.main`` and
``fatpanel.simulate.run_monte_carlo``, one operation after another (a
closed loop with one caller).  Each operation writes its outputs to its
own directory for ``run.py`` to check.  Calibrations (``calib.py``) run
between operations and between the commands of a CLI session.
Untraced, it measures for the job's seconds; traced, it alternates
operations without and with the spans of ``spans.py`` installed, so the
two can be compared.  The result file holds per-operation wall times, exit
codes and errors, the calibrations, the process's peak resident memory,
and the per-operation layer numbers when traced.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calib import calibrate


def cli_op(job, op_dir: Path, modules) -> dict:
    cli = modules["cli"]
    steps, exits, cals, error = {}, {}, [], None
    for i, (name, argv) in enumerate(job["commands"].items()):
        if i:
            cals.append(calibrate())
        out = ["--out-json", str(op_dir / f"{name}.json"),
               "--out-csv", str(op_dir / f"{name}.csv")]
        ts = time.perf_counter()
        try:
            exits[name] = cli.main(argv + out)
        except Exception:  # an escaped exception fails the operation
            error = traceback.format_exc()
            exits[name] = None
        steps[name] = time.perf_counter() - ts
    out_bytes = sum(p.stat().st_size for p in op_dir.iterdir())
    return {"seconds": sum(steps.values()), "steps": steps, "exits": exits,
            "error": error, "out_bytes": out_bytes, "cals": cals}


def mc_op(job, op_dir: Path, modules) -> dict:
    simulate = modules["simulate"]
    spec, cells = modules["study"]
    error, report = None, None
    t0 = time.perf_counter()
    try:
        report = simulate.run_monte_carlo(spec, cells, job["reps"],
                                          job["master_seed"],
                                          preset=job["preset"])
    except Exception:  # an escaped exception fails the operation
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    if report is not None:
        (op_dir / "report.json").write_text(json.dumps(report.to_dict()))
    return {"seconds": seconds, "steps": {"run_monte_carlo": seconds},
            "exits": {}, "error": error, "out_bytes": 0, "cals": []}


def run_ops(op, job, modules, cals, tracer=None) -> list:
    """Run operations, calibrating between them, until the seconds pass.

    Every calibration is appended to ``cals``.  With a tracer, odd
    operations run with its spans installed and even ones without, so
    drift in machine speed affects both alike; there is at least one of
    each.  Without one, there is at least one operation.
    """
    workdir = Path(job["workdir"])
    end = time.perf_counter() + job["seconds"]
    records = []
    cals.append(calibrate())
    while True:
        k = len(records)
        op_dir = workdir / f"op_{k:03d}"
        op_dir.mkdir()
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.op = k
            with tracer:
                record = op(job, op_dir, modules)
        else:
            record = op(job, op_dir, modules)
        cals.extend(record.pop("cals"))
        cals.append(calibrate())
        record.update(dir=op_dir.name, traced=traced)
        records.append(record)
        if time.perf_counter() >= end and (tracer is None or k >= 1):
            return records


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import fatpanel
    import fatpanel.cli
    import fatpanel.simulate
    if not Path(fatpanel.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"worker: fatpanel imported from {fatpanel.__file__}, "
              f"not from {job['src']}", file=sys.stderr)
        return 2
    modules = {"cli": fatpanel.cli, "simulate": fatpanel.simulate}
    if job["kind"] == "mc":
        spec, cells = fatpanel.simulate.preset(job["preset"])
        spec = dataclasses.replace(spec, **job["overrides"])
        modules["study"] = (spec, cells)
        op = mc_op
    else:
        op = cli_op

    cals = []
    rss_before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        result = {"ops": run_ops(op, job, modules, cals, tracer),
                  "per_op": tracer.per_op()}
        tracer.dump(job["trace_out"], {"job": job, "ops": result["ops"]})
    else:
        result = {"ops": run_ops(op, job, modules, cals)}
    result["cals"] = cals
    result["maxrss_before_ops_kb"] = rss_before_kb
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
