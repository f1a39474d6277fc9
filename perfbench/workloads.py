"""The benchmark's workloads, their output summaries and the reference check.

Each workload prepares its inputs from a seed, tells the worker process
what one operation is, and checks every operation's outputs.  A check
reduces the program's outputs to a summary (unit ids and drop reasons as
digests, counts and exit codes as they are, floats as they are, and every
row of a residual CSV as a (key, residual) pair) and compares it with two
expectations:

* the independent oracle in ``oracle.py``, at every seed, to relative
  error ``RTOL_ORACLE``, row by row;
* at ``DEFAULT_SEED`` also the summary frozen in ``reference.json`` from
  this program, to ROADMAP's relative error of ``RTOL_FROZEN``.  The
  frozen summary leaves out the rows (``without_rows``) and keeps, per
  CSV, a digest of the keys in order and sums of the residuals, of their
  squares and of each residual times its row number, so residuals that
  trade places between units change it.

Anything other than a float must match exactly.  A mismatch fails the
operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import oracle

DEFAULT_SEED = 0
RTOL_FROZEN = 1e-12
RTOL_ORACLE = 1e-9
REFERENCE = Path(__file__).with_name("reference.json")


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare(actual, expected, rtol: float, path: str = "$") -> list:
    """Mismatches between two summaries; floats within ``rtol``."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            got = sorted(actual) if isinstance(actual, dict) else actual
            return [f"{path}: expected keys {sorted(expected)}, got {got}"]
        return [m for k in expected
                for m in compare(actual[k], expected[k], rtol, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}, got {actual!r:.80}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in compare(a, e, rtol, f"{path}[{i}]")]
    if isinstance(expected, float):
        if (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and abs(actual - expected)
                <= rtol * max(abs(actual), abs(expected), 1.0)):
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if actual == expected and isinstance(actual, bool) == isinstance(expected, bool):
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def without_rows(summary):
    """The summary without its per-row pairs, as ``reference.json`` keeps it."""
    if isinstance(summary, dict):
        return {k: without_rows(v) for k, v in summary.items() if k != "pairs"}
    if isinstance(summary, list):
        return [without_rows(v) for v in summary]
    return summary


def frozen(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# csv_staggered: one CLI session on a generated staggered panel


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the session and the settings it runs."""

    name: str
    subcommand: str
    q: tuple
    R: int
    h: tuple = (1,)
    lags: tuple = ()
    estimator: str = "pr"

    def argv(self) -> list:
        args = [self.subcommand, "--q", *map(str, self.q), "--r", str(self.R)]
        if self.h != (1,):
            args += ["--h", *map(str, self.h)]
        if self.lags:
            args += ["--lags", *map(str, self.lags)]
        if self.estimator != "pr":
            args += ["--estimator", self.estimator]
        return args


# ``estimate --estimator mb`` with the default ``--r all`` always exits 3
# ("lagged outcome missing"): an R="all" window starts at the first
# observation, so no lagged outcome precedes it.  The session passes --r 3.
SESSION = (
    Command("validate", "validate", q=(1,), R=4),
    Command("estimate", "estimate", q=(0, 1, 2), R=4, h=(1, 2, 3)),
    Command("estimate_mb", "estimate", q=(0, 1), R=3, h=(1, 2), estimator="mb"),
    Command("placebo", "placebo", q=(0, 1), R=3, lags=(0, 1, 2)),
    Command("dfat", "dfat", q=(0, 1), R=4, h=(1, 2, 3)),
)
AH_LAG = 3  # the CLI default instrument lag; it implies a detrended first stage
VALIDATE_FIELDS = ("unit_id", "tau", "effective_tau", "pre_treatment_run",
                   "required_window", "short_window", "window_gap",
                   "series_gaps", "covariates_complete", "fatal", "messages")
FATAL = VALIDATE_FIELDS.index("fatal")


def _fat_summary(entry: dict) -> dict:
    out = {k: entry[k] for k in ("q", "R", "lag") if k in entry}
    dropped = [[d["unit"], d["reason"]] for d in entry["dropped_units"]]
    out.update(horizon=entry["horizon"], point=entry["point"], se=entry["se"],
               ci=entry["ci"], n_used=entry["n_used"], n_dropped=len(dropped),
               dropped_digest=digest(dropped))
    return out


def _csv_summary(keys: list, values: list) -> dict:
    return {"rows": len(keys), "keys_digest": digest(keys),
            "residual_sum": math.fsum(values),
            "residual_sumsq": math.fsum(v * v for v in values),
            "residual_isum": math.fsum(i * v for i, v in enumerate(values, 1)),
            "pairs": [[k, v] for k, v in zip(keys, values)]}


def _residual_csv_summary(path: Path) -> dict:
    keys, values = [], []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        key, value = line.rsplit(",", 1)
        keys.append(key)
        values.append(float(value))
    return _csv_summary(keys, values)


def _oracle_fat_summary(est: oracle.Estimate, **keys) -> dict:
    out = dict(keys)
    out.update(point=est.point, se=est.se, ci=list(est.ci),
               n_used=int(est.used.size), n_dropped=len(est.dropped),
               dropped_digest=digest([list(d) for d in est.dropped]))
    return out


def _oracle_csv_summary(panel, rows) -> dict:
    """``rows`` holds (key prefix, Estimate) in CSV order."""
    keys, values = [], []
    for prefix, est in rows:
        keys.extend(f"{prefix},{panel.ids[i]}" for i in est.used)
        values.extend(est.residuals.tolist())
    return _csv_summary(keys, values)


class CsvStaggered:
    """A five-command CLI session on one generated CSV."""

    name = "csv_staggered"

    def __init__(self, n_units: int = gen.N_UNITS):
        self.n_units = n_units

    def prepare(self, seed: int, workdir: Path) -> dict:
        self.data = gen.generate(seed, self.n_units)
        raw = self.data.csv_bytes()
        self.input_summary = self.data.summary(raw)
        path = workdir / "panel.csv"
        path.write_bytes(raw)
        commands = {c.name: c.argv() + ["--input", str(path)] for c in SESSION}
        return {"kind": "cli", "commands": commands}

    def actual(self, op_dir: Path, record: dict) -> dict:
        out = {}
        for c in SESSION:
            code = record["exits"].get(c.name)
            entry = {"exit": code}
            out[c.name] = entry
            jpath, cpath = op_dir / f"{c.name}.json", op_dir / f"{c.name}.csv"
            if code != 0 or not jpath.exists() or not cpath.exists():
                continue
            report = json.loads(jpath.read_text(encoding="utf-8"))
            if c.name == "validate":
                units = [[u[f] for f in VALIDATE_FIELDS] for u in report["units"]]
                entry["report"] = {
                    "ok": report["ok"], "balanced": report["balanced"],
                    "common_tau": report["common_tau"], "units": len(units),
                    "fatal": sum(1 for u in report["units"] if u["fatal"]),
                    "units_digest": digest(units)}
                entry["csv_rows"] = len(cpath.read_text().splitlines()) - 1
                continue
            if c.name == "dfat":
                entry["results"] = [
                    {"q": r["q"], "R": r["R"], "horizon": r["horizon"],
                     "point": r["point"], "se": r["se"], "ci": r["ci"],
                     "treated": _fat_summary(r["treated"]),
                     "control": _fat_summary(r["control"])}
                    for r in report["results"]]
            else:
                entry["results"] = [_fat_summary(r) for r in report["results"]]
            entry["csv"] = _residual_csv_summary(cpath)
        return out

    def expected(self) -> dict:
        d = self.data
        panel = oracle.DensePanel(d.ids, d.tau, d.Y)
        treated = np.flatnonzero(~d.control)
        controls = np.flatnonzero(d.control)
        out = {}
        for c in SESSION:
            results, csv_rows = [], []
            if c.name == "validate":
                units = panel.validate(c.q[0], c.R)
                fatal = sum(1 for u in units if u[FATAL])
                out[c.name] = {
                    "exit": 0,
                    "report": {"ok": fatal == 0,
                               "balanced": False, "common_tau": None,
                               "units": len(units), "fatal": fatal,
                               "units_digest": digest(units)},
                    "csv_rows": len(units)}
                continue
            for q in c.q:
                if c.name == "placebo":
                    for lag in c.lags:
                        est = panel.fat(treated, q, c.R, 1, lag=lag)
                        results.append(_oracle_fat_summary(
                            est, q=q, R=c.R, lag=lag, horizon=1))
                        csv_rows.append((f"{q},{c.R},{lag},1", est))
                    continue
                for h in c.h:
                    if c.name == "dfat":
                        et = panel.fat(treated, q, c.R, h)
                        ec = panel.fat(controls, q, c.R, h)
                        se = math.hypot(et.se, ec.se)
                        point = et.point - ec.point
                        results.append({
                            "q": q, "R": c.R, "horizon": h, "point": point,
                            "se": se, "ci": [point - oracle.Z95 * se,
                                             point + oracle.Z95 * se],
                            "treated": _oracle_fat_summary(et, horizon=h),
                            "control": _oracle_fat_summary(ec, horizon=h)})
                        csv_rows += [(f"{q},{c.R},{h},treated", et),
                                     (f"{q},{c.R},{h},control", ec)]
                        continue
                    if c.estimator == "mb":
                        est = panel.model_based(treated, q, c.R, h, AH_LAG)
                    else:
                        est = panel.fat(treated, q, c.R, h)
                    results.append(_oracle_fat_summary(est, q=q, R=c.R, horizon=h))
                    csv_rows.append((f"{q},{c.R},{h}", est))
            out[c.name] = {"exit": 0, "results": results,
                           "csv": _oracle_csv_summary(panel, csv_rows)}
        return out


# ---------------------------------------------------------------------------
# Monte Carlo presets


def _cell(estimator, q, R, lag=3, detrend=True, group=None) -> dict:
    return {"estimator": estimator, "q": q, "R": R, "h": 1,
            "instrument_lag": lag, "detrend": detrend,
            "name": f"{group or estimator}_q{q}_R{R}"}


# The preset grids as the package documents them; the check compares cell
# names, so a preset that changes its grid fails here rather than silently
# measuring different work.
NONSTATIONARY_CELLS = tuple(
    [_cell("pr", q, q + 1) for q in range(4)]
    + [_cell("mb", q, q + 1, 3, True, "mb") for q in range(4)]
    + [_cell("mb", q, q + 1, 2, False, "mb_missp") for q in range(4)])
COMMON_SHOCK_CELLS = (_cell("pr", 0, 5), _cell("dfat", 0, 5))
MC_KEYS = ("name", "n_ok", "n_failed", "degenerate", "bias", "mc_se",
           "coverage", "se_est_mean")


@dataclass
class MonteCarlo:
    """``run_monte_carlo`` on a preset, ``reps`` replications per operation.

    Every operation of a run uses the run's seed as master seed, so each is
    a rerun of one study and is checked against the same expectation.
    """

    name: str
    preset: str
    reps: int
    design: oracle.McDesign
    cells: tuple
    overrides: dict = field(default_factory=dict)

    def prepare(self, seed: int, workdir: Path) -> dict:
        self.seed = seed
        return {"kind": "mc", "preset": self.preset, "reps": self.reps,
                "master_seed": seed, "overrides": self.overrides}

    def actual(self, op_dir: Path, record: dict) -> dict:
        path = op_dir / "report.json"
        if record["error"] or not path.exists():
            return {"cells": None}
        report = json.loads(path.read_text(encoding="utf-8"))
        return {"cells": [{k: c[k] for k in MC_KEYS} for c in report["cells"]]}

    def expected(self) -> dict:
        return {"cells": oracle.mc_cells(self.design, self.cells, self.reps,
                                         self.seed)}


def workloads() -> dict:
    return {
        "csv_staggered": CsvStaggered(),
        "mc_nonstationary": MonteCarlo(
            "mc_nonstationary", "nonstationary_init", 5,
            oracle.McDesign("nonstationary_init", n=1000, n_control=0),
            NONSTATIONARY_CELLS),
        "mc_common_shock": MonteCarlo(
            "mc_common_shock", "common_shock", 10,
            oracle.McDesign("common_shock", n=500, n_control=500),
            COMMON_SHOCK_CELLS),
    }
