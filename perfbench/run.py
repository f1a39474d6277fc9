"""fatpanel benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload csv_staggered --seed 3 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``csv_staggered``: a five-command CLI session (validate, estimate,
  estimate --estimator mb, placebo, dfat) on a generated 5000-unit,
  12-period staggered CSV;
* ``mc_nonstationary``: ``run_monte_carlo`` on preset
  ``nonstationary_init``, 5 replications per operation;
* ``mc_common_shock``: ``run_monte_carlo`` on preset ``common_shock``,
  10 replications per operation.

The run measures set-up first: ``SETUP_SAMPLES`` fresh interpreters each
import ``fatpanel.cli`` from ``src/``, with calibrations between them.  It then generates the inputs from
the seed, starts ``worker.py`` in its own process to run operations back
to back for ``--seconds``, and checks every operation's outputs against
the oracle (and, at the default seed, the frozen reference).

With ``--trace 0`` the result carries the end-to-end metrics: the median
set-up time, the mean time of one operation, the worker's peak resident
memory and the share of operations that succeeded.  Every time is in
reference seconds, scaled by the run's calibrations (``calib.py``),
because the machine's speed drifts.  With ``--trace 1``
the worker alternates untraced operations with operations that record
spans around each layer (``spans.py``); the result carries the per-layer metrics, including
the tracing overhead, and the spans go to ``.bench_out/``.

Before the result line the run prints a provenance line: machine, library
versions, BLAS thread setting, git SHA, the input's measured properties
and every operation's time.  A run that cannot find ``src/fatpanel``
exits 2 without a result.

Known defects this benchmark steers around (not fixed here):

* ``fatpanel estimate --estimator mb`` with the default ``--r all`` always
  exits 3 ("lagged outcome missing"), so the session passes ``--r 3``.
* An interior gap inside an integer-R window makes ``fat`` raise for the
  whole panel and the CLI cannot set ``shrink_window``, so generated gaps
  lie before every window.

``python3 perfbench/run.py --freeze`` rewrites ``reference.json`` from one
operation per workload at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from calib import calibrate, scale  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio"))
LAYER_SELF = ("cli.main", "panel.load_panel", "panel.validate",
              "basis.forecast_weights", "estimators.fat",
              "estimators.placebo_fat", "estimators.dfat",
              "estimators.model_based_fat", "estimators.anderson_hsiao",
              "simulate.simulate_dgp", "simulate.run_monte_carlo")
LAYER_CALLS = ("panel.load_panel", "basis.forecast_weights",
               "estimators.anderson_hsiao", "simulate.simulate_dgp")
STEP_METRICS = {"validate": "cli.validate_s", "estimate": "cli.estimate_s",
                "estimate_mb": "cli.estimate_mb_s", "placebo": "cli.placebo_s",
                "dfat": "cli.dfat_s"}
# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYER_SELF),
    *((f"{layer}.calls", "count", "lower") for layer in LAYER_CALLS),
    ("panel.load_panel.rows", "count", "lower"),
    ("estimators.units_used_ratio", "ratio", "higher"),
    ("estimators.units_dropped", "count", "lower"),
    ("simulate.cells_failed", "count", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    *((name, "s", "lower") for name in STEP_METRICS.values()),
    ("mc.reps_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def measure_setup() -> tuple:
    """Wall times from a fresh interpreter to ``fatpanel.cli`` imported,
    and the calibrations taken between them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    walls, cals = [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fatpanel.cli"],
                       env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return walls, cals


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_sha": sha,
    }


def run_worker(workload, seed: int, seconds: float, trace: bool, tmp: Path,
               out_dir: Path):
    """Prepare inputs, run the worker, return (job, result)."""
    job = workload.prepare(seed, tmp)
    job.update(src=str(SRC), workdir=str(tmp), seconds=seconds, trace=trace,
               result=str(tmp / "result.json"),
               trace_out=str(out_dir / f"trace_{workload.name}_seed{seed}.json"))
    job_path = tmp / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                   check=True, timeout=WORKER_TIMEOUT_S)
    return job, json.loads((tmp / "result.json").read_text(encoding="utf-8"))


def check_ops(workload, seed: int, tmp: Path, ops: list) -> list:
    """One list of mismatch messages per operation (empty when correct)."""
    expected = workload.expected()
    reference = wl.frozen(workload.name) if seed == wl.DEFAULT_SEED else None
    input_problems = []
    if reference is not None and "input" in reference:
        input_problems = wl.compare(workload.input_summary, reference["input"],
                                    wl.RTOL_FROZEN, "$input")
    problems = []
    for record in ops:
        found = list(input_problems)
        if record["error"]:
            found.append(record["error"])
        actual = workload.actual(tmp / record["dir"], record)
        found += wl.compare(actual, expected, wl.RTOL_ORACLE, "$oracle")
        if reference is not None:
            found += wl.compare(wl.without_rows(actual), reference["ops"],
                                wl.RTOL_FROZEN, "$frozen")
        problems.append(found)
    return problems


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(job: dict, result: dict) -> dict:
    """Per-layer metrics in reference seconds: medians over the traced
    operations, and over the untraced ones for whole-step times."""
    ops = result["ops"]
    k = scale(result["cals"])
    plain = [r for r in ops if not r["traced"]]
    traced = [r for r in ops if r["traced"]]
    per_op = [result["per_op"][str(i)] for i, r in enumerate(ops) if r["traced"]]
    values = {}
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = k * _median([p[layer]["self_s"] for p in per_op])
    for layer in LAYER_CALLS:
        values[f"{layer}.calls"] = _median([p[layer]["calls"] for p in per_op])
    for name in ("panel.load_panel.rows", "estimators.units_dropped",
                 "simulate.cells_failed"):
        values[name] = _median([p[name] for p in per_op])
    used = _median([p["estimators.units_used"] for p in per_op])
    attempted = used + values["estimators.units_dropped"]
    values["estimators.units_used_ratio"] = used / attempted if attempted else 0.0
    values["cli.out_bytes"] = _median([r["out_bytes"] for r in traced])
    for step, name in STEP_METRICS.items():
        values[name] = k * _median([r["steps"][step] for r in plain
                                    if step in r["steps"]])
    plain_s = k * statistics.mean(r["seconds"] for r in plain)
    values["mc.reps_per_s"] = job["reps"] / plain_s if job["kind"] == "mc" else 0.0
    values["trace.overhead_s"] = (k * statistics.mean(r["seconds"] for r in traced)
                                  - plain_s)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def freeze() -> int:
    """Rewrite reference.json from one operation per workload."""
    reference = {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name, workload in wl.workloads().items():
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            _, result = run_worker(workload, wl.DEFAULT_SEED, 0.0, False,
                                   Path(tmp), out_dir)
            record = result["ops"][0]
            actual = workload.actual(Path(tmp) / record["dir"], record)
            entry = {"ops": wl.without_rows(actual)}
            if hasattr(workload, "input_summary"):
                entry["input"] = workload.input_summary
            problems = wl.compare(actual, workload.expected(), wl.RTOL_ORACLE)
            if record["error"] or problems:
                print(f"{name}: program disagrees with the oracle:",
                      record["error"] or problems[:5], file=sys.stderr)
                return 1
            reference[name] = entry
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.workloads()))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "fatpanel" / "__init__.py").is_file():
        print(f"benchmark: no fatpanel sources under {SRC}", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")

    workload = wl.workloads()[args.workload]
    setup_walls, setup_cals = measure_setup()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        job, result = run_worker(workload, args.seed, args.seconds,
                                 bool(args.trace), Path(tmp), out_dir)
        problems = check_ops(workload, args.seed, Path(tmp), result["ops"])

    ops = result["ops"]
    failed = sum(1 for p in problems if p)
    for i, found in enumerate(problems):
        for message in found[:5]:
            print(f"op {i}: {message}", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(job, result)
    else:
        values = {
            "setup_s": statistics.median(setup_walls) * scale(setup_cals),
            "op_s": (statistics.mean(r["seconds"] for r in ops)
                     * scale(result["cals"])),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "success_rate": (len(ops) - failed) / len(ops),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "provenance": provenance(), "workload": args.workload,
        "seed": args.seed, "setup_wall_s": setup_walls,
        "setup_cals_s": setup_cals, "cals_s": result["cals"],
        "peak_rss_before_ops_mb": result["maxrss_before_ops_kb"] / 1024.0,
        "ops": [{"seconds": r["seconds"], "steps": r["steps"]} for r in ops],
        "input": getattr(workload, "input_summary", None)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
