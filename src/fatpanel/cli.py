"""Command-line front end for estimation, placebo analysis, and simulation.

Each subcommand takes only the settings it reads: its flags, and in a JSON
file named with ``--config`` the same fields (``r`` or ``R``, ``horizons``
or ``h``, ``instrument_lag``, ``reps`` or ``n_reps``) plus a few that only
a file can set.  Every subcommand also takes ``--config``, ``--out-json``
and ``--out-csv``.  Any other flag or config key is a usage error.

=========  ================================================  ==============
command    flags                                             file-only keys
=========  ================================================  ==============
estimate   --input --q --r --h --delta --level --estimator   schema detrend
           --instrument-lag                                  mb_covariates
placebo    --input --q --r --h --lags --delta --level        schema
dfat       --input --q --r --h --delta --level               schema
simulate   --preset --reps --seed                            dgp cells
validate   --input --q --r --delta                           schema
=========  ================================================  ==============

``estimate`` gives effects per (q, horizon), ``placebo`` pre-treatment
placebo estimates over a lag grid at one horizon, ``dfat`` treated-minus-
control differences, ``simulate`` a Monte Carlo study from a named preset
or an inline process spec, and ``validate`` per-unit data diagnostics for
one q.  ``estimate``, ``placebo`` and ``dfat`` report a (q, horizon) pair
or a lag that cannot be estimated with its error, and fail only when all
do.
``--delta`` shifts every dated unit's treatment date back once, when the
panel is read; ``validate`` still reports the recorded dates.  Only
``estimate --estimator mb`` reads ``instrument_lag``, ``detrend`` and
``mb_covariates``; given with another estimator they are a usage error.

Defaults are those of ``RunConfig``; config-file values win over flags so
that a single artifact reproduces a run.  All JSON outputs carry
``"schema": 1`` and are byte-identical across reruns with the same
configuration and inputs.  One streaming writer, ``simulate.write_json``,
writes them all in ``json.dump``'s ``indent=2``, sorted-key layout, byte
for byte, and never holds a report's text whole.

Exit codes: 0 success, 1 usage or configuration problem, 2 input data or
I/O problem, 3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .basis import ForecastConfig, as_integer
from .errors import (ConfigError, EstimationError, PanelFormatError,
                     RankDeficiencyError)
from . import estimators
from .estimators import (AhEstimate, DfatEstimate, FatEstimate, MbConfig,
                         covariate_fat_heterogeneous, dfat, fat, model_based_fat,
                         placebo_fat)
from .panel import PanelData, apply_anticipation, csv_field, csv_text, load_panel, validate
from .simulate import (REPORT_SCHEMA, DgpSpec, GridCell, preset, run_monte_carlo,
                       write_json)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ESTIMATION = 3

_ESTIMATORS = ("pr", "mb", "covariate_het")


# --------------------------------------------------------------------------
# Run configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Everything one batch invocation needs, flags and file merged.

    Its defaults are the CLI's only defaults.  ``r`` is the estimation
    window length (integer or ``"all"``), ``q`` the polynomial orders to
    run, ``horizons`` the forecast horizons, ``lags`` the placebo lag grid,
    and ``delta`` the anticipation offset.  ``instrument_lag``, ``detrend``
    and ``mb_covariates`` set the mb first stage; unset, they take
    ``anderson_hsiao``'s defaults.  ``schema`` optionally remaps
    input CSV column names and can only be given through a config file.
    ``dgp`` and ``cells`` define an inline simulation study when no preset
    is named.
    """

    command: str
    input: Union[str, None] = None
    schema: Union[Mapping[str, object], None] = None
    q: tuple = (1,)
    r: Union[int, str] = "all"
    horizons: tuple = (1,)
    lags: tuple = (0, 1, 2, 3)
    delta: int = 0
    level: float = 0.95
    estimator: str = "pr"
    instrument_lag: Union[int, None] = None
    detrend: Union[bool, None] = None
    mb_covariates: tuple = ()
    preset: Union[str, None] = None
    dgp: Union[Mapping[str, object], None] = None
    cells: Union[tuple, None] = None
    reps: int = 200
    seed: int = 0
    out_json: Union[str, None] = None
    out_csv: Union[str, None] = None

    def __post_init__(self):
        if not self.q:
            raise ConfigError("q list must be nonempty")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must be a nonempty list of integers >= 1")
        if not self.lags or any(lag < 0 for lag in self.lags):
            raise ConfigError("lags must be a nonempty list of integers >= 0")
        if self.estimator not in _ESTIMATORS:
            raise ConfigError(
                f"estimator must be one of {_ESTIMATORS}, got {self.estimator!r}")

    def forecast_config(self, q: int) -> ForecastConfig:
        return ForecastConfig(q=q, R=self.r)

    def mb_config(self, q: int) -> MbConfig:
        return MbConfig(q=q, R=self.r, covariates=tuple(self.mb_covariates))


# Aliases so the file can use the same spelling as the flag.
_CONFIG_ALIASES = {"R": "r", "h": "horizons", "n_reps": "reps"}


def _window_length(text: str) -> Union[int, str]:
    return text if text == "all" else int(text)


def _normalised(key: str, value):
    """A flag or config-file value in the form ``RunConfig`` holds."""
    listed = value if isinstance(value, (list, tuple)) else [value]
    if key in ("q", "horizons", "lags"):
        return tuple(as_integer(key, v) for v in listed)
    if key in ("delta", "instrument_lag", "reps", "seed"):
        return as_integer(key, value)
    if key == "r" and value != "all":
        return as_integer("r", value, "an integer or 'all'")
    if key == "mb_covariates":
        return tuple(str(v) for v in listed)
    if key == "cells" and value is not None:
        return tuple(value)
    return value


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    _, _, flags, file_only = _SUBCOMMANDS[command]
    known = {"command", *flags, *_OUTPUTS, *file_only}
    merged = {}
    for key, value in raw.items():
        field = _CONFIG_ALIASES.get(key, key)
        if field not in known:
            raise ConfigError(f"{command} takes no config key {key!r}")
        merged[field] = value
    return merged


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Layer the ``RunConfig`` defaults, the flags given, then the config
    file, so that file values win."""
    values = vars(args).copy()
    path = values.pop("config", None)
    if path is not None:
        overrides = _load_config_file(path, args.command)
        file_command = overrides.pop("command", None)
        if file_command is not None and file_command != args.command:
            raise ConfigError(
                f"config file says command={file_command!r} but "
                f"{args.command!r} was invoked")
        values.update(overrides)
    try:
        return RunConfig(**{k: _normalised(k, v) for k, v in values.items()})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

def _read_panel(cfg: RunConfig) -> PanelData:
    """The input panel, its dates shifted back by ``delta``."""
    if cfg.input is None:
        raise ConfigError(f"command {cfg.command!r} requires --input")
    return apply_anticipation(load_panel(cfg.input, schema=cfg.schema), cfg.delta)


def _single(cfg: RunConfig, field: str):
    """The value of a list setting of which the command takes exactly one."""
    values = getattr(cfg, field)
    if len(values) != 1:
        raise ConfigError(f"{cfg.command} takes one {_FLAGS[field][0]} (config key "
                          f"{field!r}), got {list(values)}")
    return values[0]


def _emit(cfg: RunConfig, payload: dict, table: str) -> None:
    if cfg.out_json is not None:
        with open(cfg.out_json, "w", encoding="utf-8", newline="") as fh:
            write_json(payload, fh)
    else:
        write_json(payload, sys.stdout)
    if cfg.out_csv is not None:
        with open(cfg.out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(table)


def _estimate_one(panel: PanelData, cfg: RunConfig, q: int, h: int,
                  first: Union[AhEstimate, None]) -> FatEstimate:
    if cfg.estimator == "pr":
        return fat(panel, cfg.forecast_config(q), h, level=cfg.level)
    if cfg.estimator == "mb":
        return model_based_fat(panel, cfg.mb_config(q), h, level=cfg.level, first=first)
    return covariate_fat_heterogeneous(
        panel, cfg.forecast_config(q), h, level=cfg.level)


def _base_payload(cfg: RunConfig, kind: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "command": cfg.command,
        "input": cfg.input,
        "estimator": cfg.estimator,
        "R": cfg.r,
        "delta": cfg.delta,
        "level": cfg.level,
    }


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _run_grid(cfg: RunConfig, kind: str, cells, header: Sequence[str]) -> int:
    """Write one result per cell, ``(key, CSV row prefix, estimate thunk)``,
    and the residual CSV, where a dfat row names its group after the
    prefix.  A cell whose estimate fails is reported with its error; after
    writing, the command fails, with the first cell's error, only when
    every cell failed."""
    results, lines, failures = [], [], []
    spell = functools.cache(csv_field)  # each unit id is quoted once a command
    for key, prefix, run in cells:
        try:
            est = run()
        except (EstimationError, RankDeficiencyError) as exc:
            results.append({**key, "error": str(exc)})
            failures.append(exc)
            continue
        results.append({**key, **est.to_dict()})
        parts = (((("treated",), est.treated), (("control",), est.control))
                 if isinstance(est, DfatEstimate) else (((), est),))
        for group, part in parts:
            # A residual is finite, so ``repr`` spells it as ``csv_number`` would.
            cells_before = ",".join(map(str, (*prefix, *group)))
            lines += [f"{cells_before},{unit_id},{resid!r}" for unit_id, resid in
                      zip(map(spell, part.unit_ids), part.residuals.tolist())]
    _emit(cfg, {**_base_payload(cfg, kind), "results": results}, csv_text(header, lines))
    if len(failures) == len(results):
        raise failures[0]
    return EXIT_OK


def cmd_estimate(cfg: RunConfig) -> int:
    panel = _read_panel(cfg)
    first = None
    if cfg.estimator == "mb":
        cfg.mb_config(cfg.q[0])  # a bad q or R exits 1 before the fit is tried
        # The first stage depends on neither q nor h: one fit serves every
        # pair.  It is looked up on its module, where a tracer wraps it.
        lag = 3 if cfg.instrument_lag is None else cfg.instrument_lag
        first = estimators.anderson_hsiao(panel, lag, cfg.detrend, cfg.mb_covariates)
    else:
        unread = [k for k in ("instrument_lag", "detrend", "mb_covariates")
                  if getattr(cfg, k) not in (None, ())]
        if unread:
            raise ConfigError(f"--estimator {cfg.estimator} reads no {', '.join(unread)}: "
                              "only mb fits a first stage")
    return _run_grid(cfg, "estimates", (
        ({"q": q, "R": cfg.r, "horizon": h}, (q, cfg.r, h),
         lambda q=q, h=h: _estimate_one(panel, cfg, q, h, first))
        for q in cfg.q for h in cfg.horizons), ("q", "R", "horizon", "unit", "residual"))


def cmd_placebo(cfg: RunConfig) -> int:
    h = _single(cfg, "horizons")
    panel = _read_panel(cfg)
    return _run_grid(cfg, "placebo", (
        ({"q": q, "R": cfg.r, "lag": lag}, (q, cfg.r, lag, h),
         lambda q=q, lag=lag: placebo_fat(panel, cfg.forecast_config(q), lag, h,
                                          level=cfg.level))
        for q in cfg.q for lag in cfg.lags), ("q", "R", "lag", "horizon", "unit", "residual"))


def cmd_dfat(cfg: RunConfig) -> int:
    panel = _read_panel(cfg)
    return _run_grid(cfg, "dfat", (
        ({"q": q, "R": cfg.r, "horizon": h}, (q, cfg.r, h),
         lambda q=q, h=h: dfat(panel, cfg.forecast_config(q), h, level=cfg.level))
        for q in cfg.q for h in cfg.horizons),
        ("q", "R", "horizon", "group", "unit", "residual"))


def _cells_from_config(cfg: RunConfig) -> tuple:
    cells = []
    for entry in cfg.cells:
        if not isinstance(entry, Mapping):
            raise ConfigError("each cell must be a JSON object")
        try:
            cells.append(GridCell(**entry))
        except TypeError as exc:
            raise ConfigError(f"bad cell {entry!r}: {exc}") from exc
    return tuple(cells)


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.preset is not None:
        spec, cells = preset(cfg.preset)
    elif cfg.dgp is None or cfg.cells is None:
        raise ConfigError(
            "simulate needs --preset, or 'dgp' and 'cells' in the config file")
    else:
        spec, cells = DgpSpec(), ()
    if cfg.dgp is not None:
        try:
            spec = dataclasses.replace(spec, **cfg.dgp)
        except TypeError as exc:
            raise ConfigError(f"bad dgp spec: {exc}") from exc
    if cfg.cells is not None:
        cells = _cells_from_config(cfg)
    report = run_monte_carlo(spec, cells, cfg.reps, cfg.seed, preset=cfg.preset)
    _emit(cfg, report.to_dict(), report.to_csv_text())
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    q = _single(cfg, "q")
    panel = _read_panel(cfg)
    report = validate(panel, cfg.forecast_config(q))
    payload = {
        "schema": REPORT_SCHEMA,
        "kind": "validation",
        "command": cfg.command,
        "input": cfg.input,
        "R": cfg.r,
        "q": q,
        "delta": cfg.delta,
    }
    payload.update(report.to_dict())
    # Report the recorded dates: add back the shift ``_read_panel`` applied.
    for unit in payload["units"]:
        if unit["tau"] is not None:
            unit["tau"] += cfg.delta
    if payload["common_tau"] is not None:
        payload["common_tau"] += cfg.delta
    lines = [f"{csv_field(d.unit_id)},{d.fatal},{d.pre_treatment_run},{';'.join(d.messages)}"
             for d in report.units]
    _emit(cfg, payload, csv_text(("unit", "fatal", "pre_treatment_run", "messages"), lines))
    return EXIT_OK


# Every RunConfig field a flag sets: its flag, help text and argparse
# keywords.  The defaults are RunConfig's alone; the help quotes them.
_FLAGS = {
    "input": ("--input", "panel CSV file", dict(metavar="FILE")),
    "q": ("--q", "polynomial order(s)", dict(nargs="+", type=int, metavar="Q")),
    "r": ("--r", "window length, an integer or 'all'",
          dict(type=_window_length, metavar="R")),
    "horizons": ("--h", "forecast horizon(s)",
                 dict(nargs="+", type=int, metavar="H")),
    "lags": ("--lags", "placebo lag grid",
             dict(nargs="+", type=int, metavar="LAG")),
    "delta": ("--delta", "anticipation offset in periods",
              dict(type=int, metavar="D")),
    "level": ("--level", "confidence level", dict(type=float, metavar="P")),
    "estimator": ("--estimator", "point estimator", dict(choices=_ESTIMATORS)),
    "instrument_lag": ("--instrument-lag",
                       "instrument depth for the model-based first stage "
                       "(mb only), default 3", dict(type=int, choices=(2, 3))),
    "preset": ("--preset", "named simulation study", dict(metavar="NAME")),
    "reps": ("--reps", "Monte Carlo replications", dict(type=int, metavar="N")),
    "seed": ("--seed", "master seed", dict(type=int, metavar="S")),
    "out_json": ("--out-json", "write the JSON report here instead of stdout",
                 dict(metavar="FILE")),
    "out_csv": ("--out-csv", "also write a plot-ready CSV here",
                dict(metavar="FILE")),
}

# Every subcommand: its handler, a one-line description, the fields its
# flags set, and the fields only a config file sets.  Every subcommand also
# takes --config and the two output flags.
_SUBCOMMANDS = {
    "estimate": (cmd_estimate, "estimate effects per (q, horizon)",
                 ("input", "q", "r", "horizons", "delta", "level", "estimator",
                  "instrument_lag"),
                 ("schema", "detrend", "mb_covariates")),
    "placebo": (cmd_placebo, "pre-treatment placebo estimates over a lag grid",
                ("input", "q", "r", "horizons", "lags", "delta", "level"),
                ("schema",)),
    "dfat": (cmd_dfat, "treated-minus-control differenced estimates",
             ("input", "q", "r", "horizons", "delta", "level"), ("schema",)),
    "simulate": (cmd_simulate, "run a Monte Carlo study",
                 ("preset", "reps", "seed"), ("dgp", "cells")),
    "validate": (cmd_validate, "report per-unit data diagnostics",
                 ("input", "q", "r", "delta"), ("schema",)),
}
_OUTPUTS = ("out_json", "out_csv")


# --------------------------------------------------------------------------
# Argument parsing and entry point
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: a prefix of a flag the subcommand lacks could
    # otherwise resolve to another one (``simulate --r`` to ``--reps``).
    parser = _Parser(prog="fatpanel", allow_abbrev=False,
                     description="Forecasted average treatment effects "
                                 "from panel data.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    for name, (_, blurb, fields, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb,
                           allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", metavar="FILE",
                       help="JSON config file; its values win over flags")
        for field in fields + _OUTPUTS:
            flag, text, kwargs = _FLAGS[field]
            default = defaults[field]
            if isinstance(default, tuple):
                default = " ".join(map(str, default))
            if default is not None:
                text = f"{text}, default {default}"
            p.add_argument(flag, dest=field, help=text, **kwargs)
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = build_run_config(args)
        return _SUBCOMMANDS[cfg.command][0](cfg)
    except ConfigError as exc:
        print(f"fatpanel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PanelFormatError, csv.Error, OSError) as exc:
        print(f"fatpanel: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (EstimationError, RankDeficiencyError) as exc:
        print(f"fatpanel: error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
