"""Synthetic panel generators and a Monte Carlo driver.

The generators build counterfactual outcome processes from three optional
components — a mean-stationary AR(1), a random walk, and a deterministic
per-unit time trend — plus a recursive variant where the trend enters the
autoregression itself.  A treatment effect and a common post-adoption
shock can be injected on top, so the true effect is known by construction
and estimator bias, dispersion, and confidence-interval coverage can be
measured exactly.

``run_monte_carlo`` repeats simulate-and-estimate over a grid of estimator
settings with replication-local seeds split from one master seed, so
reports are bitwise reproducible and adding replications never reshuffles
earlier draws.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .basis import ForecastConfig, as_count
from .errors import ConfigError, EstimationError, RankDeficiencyError
# fat, placebo_fat, dfat and model_based_fat are not called here, but the
# benchmark's tracer (perfbench/spans.py) wraps each of them as an attribute
# of this module, and a traced run fails if one is missing.
from .estimators import (_ah_fit, _ah_settings, _interval, _kernel, _point_se, dfat,
                         fat, model_based_fat, placebo_fat)
from .panel import CohortBlock, PanelData

# A parameter that is either common to all units or drawn per unit from a
# uniform interval (lo, hi).
ParamLaw = Union[float, tuple]

#: Layout version of every JSON report, ``McReport``'s and the CLI's.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of the synthetic counterfactual process.

    Outcomes are observed at periods 1..T with adoption after period
    ``tau``.  In ``additive`` mode the counterfactual is the sum of the
    components switched on by ``include_ar`` (mean-stationary AR(1)),
    ``include_walk`` (random walk from zero), and ``include_trend``
    (per-unit deterministic trend ``delta * t**trend_power``).  In
    ``recursive`` mode the trend feeds back through the autoregression,
    y_t = mu + rho * y_{t-1} + delta * t**trend_power + noise, and the
    include flags are ignored.

    ``rho``, ``mu``, and ``delta`` are scalars or (lo, hi) uniform laws
    drawn once per unit.  The AR initial value is drawn from the process's
    stationary law or from a fixed normal with mean 1 and variance 2,
    independent of stationarity.

    ``true_att`` is added to treated units at every period after ``tau``;
    ``common_shock`` is added to every unit after ``tau``.
    """

    n: int = 100
    n_control: int = 0
    T: int = 6
    tau: int = 5
    include_ar: bool = True
    include_walk: bool = False
    include_trend: bool = False
    trend_mode: str = "additive"
    init_mode: str = "stationary"
    rho: ParamLaw = 0.2
    mu: ParamLaw = (-1.0, 1.0)
    delta: ParamLaw = 1.0
    trend_power: int = 1
    true_att: float = 0.0
    common_shock: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.n_control < 0:
            raise ConfigError("need n >= 1 treated units and n_control >= 0")
        if not 1 <= self.tau < self.T:
            raise ConfigError("periods must satisfy T > tau >= 1")
        if self.trend_mode not in ("additive", "recursive"):
            raise ConfigError(f"unknown trend_mode {self.trend_mode!r}")
        if self.init_mode not in ("stationary", "fixed"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")
        if self.trend_power < 1:
            raise ConfigError("trend_power must be >= 1")
        for name in ("rho", "mu", "delta"):
            law = getattr(self, name)
            if isinstance(law, tuple):
                if len(law) != 2 or not law[0] <= law[1]:
                    raise ConfigError(f"{name} law must be (lo, hi) with lo <= hi")
                object.__setattr__(self, name, (float(law[0]), float(law[1])))
            else:
                object.__setattr__(self, name, float(law))
        if self.init_mode == "stationary":
            hi = self.rho[1] if isinstance(self.rho, tuple) else abs(self.rho)
            if hi >= 1.0:
                raise ConfigError("stationary initialization requires |rho| < 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for name in ("rho", "mu", "delta"):
            if isinstance(d[name], tuple):
                d[name] = list(d[name])
        return d


def _draw(law: ParamLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Per-unit values for a scalar-or-uniform law.

    Scalar laws consume no random draws, so switching a parameter between
    scalar and interval changes the stream layout by design.
    """
    if isinstance(law, tuple):
        return rng.uniform(law[0], law[1], size=size)
    return np.full(size, float(law))


def simulate_dgp(spec: DgpSpec, seed=None) -> PanelData:
    """Draw one panel from the specified process.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.  Treated
    units are named ``t0001``..; control units ``c0001``.. and carry the
    shared adoption date as their forecasting cohort date.

    Draw order is fixed (mu, rho, delta, initial values, AR noise, walk
    noise), so identical seeds give bitwise-identical panels.

    The outcomes are written straight into one treated and one control
    cohort block, whose rows are views on the simulated array; no
    ``UnitSeries`` is built unless the caller reads ``panel.units``.
    """
    rng = np.random.default_rng(seed)
    N = spec.n + spec.n_control
    T, tau = spec.T, spec.tau

    mu = _draw(spec.mu, rng, N)
    rho = _draw(spec.rho, rng, N)
    delta = _draw(spec.delta, rng, N)

    if spec.init_mode == "stationary":
        init_mean = mu / (1.0 - rho)
        init_sd = 1.0 / np.sqrt(1.0 - rho ** 2)
    else:
        init_mean = np.full(N, 1.0)
        init_sd = np.full(N, math.sqrt(2.0))
    y_init = init_mean + init_sd * rng.standard_normal(N)

    tgrid = np.arange(1, T + 1)
    trend_vals = tgrid.astype(float) ** spec.trend_power

    if spec.trend_mode == "recursive":
        u = rng.standard_normal((N, T))
        Y = np.empty((N, T))
        prev = y_init
        for t in range(1, T + 1):
            prev = mu + rho * prev + delta * trend_vals[t - 1] + u[:, t - 1]
            Y[:, t - 1] = prev
    else:
        Y = np.zeros((N, T))
        if spec.include_ar:
            u = rng.standard_normal((N, T))
            prev = y_init
            for t in range(1, T + 1):
                prev = mu + rho * prev + u[:, t - 1]
                Y[:, t - 1] += prev
        if spec.include_walk:
            eps = rng.standard_normal((N, T))
            Y += np.cumsum(eps, axis=1)
        if spec.include_trend:
            Y += delta[:, None] * trend_vals[None, :]

    post = (tgrid > tau).astype(float)
    if spec.common_shock:
        Y += spec.common_shock * post[None, :]
    if spec.true_att:
        Y[:spec.n] += spec.true_att * post[None, :]

    width = max(4, len(str(N)))
    blocks = [CohortBlock(
        is_control=False, tau=tau, times=tgrid, outcomes=Y[:spec.n],
        covariates=None, positions=np.arange(spec.n),
        unit_ids=_unit_ids("t", spec.n, width))]
    if spec.n_control:
        blocks.append(CohortBlock(
            is_control=True, tau=tau, times=tgrid, outcomes=Y[spec.n:],
            covariates=None, positions=np.arange(spec.n, N),
            unit_ids=_unit_ids("c", spec.n_control, width)))
    return PanelData.from_blocks(blocks)


@functools.lru_cache(maxsize=16)
def _unit_ids(prefix: str, count: int, width: int) -> np.ndarray:
    """``prefix`` + 1..count zero-padded to ``width``; shared, so read-only."""
    ids = np.array([prefix + str(i).zfill(width) for i in range(1, count + 1)], dtype=object)
    ids.flags.writeable = False
    return ids


def analytic_mean_recursion(rho: float, delta: float, y0_mean: float, T: int,
                            mu: float = 0.0, trend_power: int = 1) -> np.ndarray:
    """Expected outcome path e_0..e_T of the recursive-trend process.

    e_t = mu + rho * e_{t-1} + delta * t**trend_power with e_0 = y0_mean.
    Noise terms are mean zero, so this is the exact mean path; combining
    it with forecast weights gives closed-form bias values.
    """
    e = np.empty(T + 1)
    e[0] = float(y0_mean)
    for t in range(1, T + 1):
        e[t] = mu + rho * e[t - 1] + delta * float(t) ** trend_power
    return e


# ---------------------------------------------------------------------------
# Monte Carlo driver


@dataclass(frozen=True)
class GridCell:
    """One estimator configuration evaluated in every replication.

    ``group`` is the row label used in reports (defaults to the estimator
    name); it separates variants such as differently instrumented
    model-based fits that share an estimator kind.
    """

    estimator: str = "pr"
    q: int = 0
    R: Union[int, str] = 1
    h: int = 1
    lag: int = 0
    instrument_lag: int = 3
    detrend: Union[bool, None] = None
    group: Union[str, None] = None

    def __post_init__(self):
        if self.estimator not in ("pr", "mb", "placebo", "dfat"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        object.__setattr__(self, "h", as_count("h", self.h, 1))
        object.__setattr__(self, "lag", as_count("lag", self.lag, 0))

    @property
    def label(self) -> str:
        base = self.group or self.estimator
        if self.estimator == "placebo" and self.group is None:
            base = f"placebo_lag{self.lag}"
        return base

    @property
    def name(self) -> str:
        tag = f"{self.label}_q{self.q}_R{self.R}"
        if self.h != 1:
            tag += f"_h{self.h}"
        return tag


@dataclass(frozen=True)
class McCellResult:
    """Aggregates for one grid cell across replications."""

    name: str
    estimator: str
    label: str
    q: int
    R: Union[int, str]
    h: int
    truth: float
    n_reps: int
    n_ok: int
    n_failed: int
    degenerate: bool
    bias: float
    mc_se: float
    coverage: float
    se_est_mean: float

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key in ("bias", "mc_se", "coverage", "se_est_mean"):
            if isinstance(d[key], float) and math.isnan(d[key]):
                d[key] = None
        return d


@dataclass(frozen=True)
class McReport:
    """Full Monte Carlo result: the spec, the seed, and per-cell rows."""

    spec: DgpSpec
    master_seed: int
    n_reps: int
    cells: tuple
    preset: Union[str, None] = None

    def cell(self, name: str) -> McCellResult:
        for c in self.cells:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "mc_report",
            "preset": self.preset,
            "master_seed": self.master_seed,
            "n_reps": self.n_reps,
            "spec": self.spec.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv_text(self) -> str:
        """Table-style text: one block row per (label, q), columns by R."""
        r_values = list(dict.fromkeys(c.R for c in self.cells))
        by_key = {(c.label, c.q, c.h, c.R): c for c in self.cells}
        lines = ["label,q,metric," + ",".join(f"R={r}" for r in r_values)]
        for label, q, h in dict.fromkeys((c.label, c.q, c.h) for c in self.cells):
            for metric in ("bias", "mc_se", "coverage"):
                vals = (getattr(by_key[label, q, h, r], metric)
                        if (label, q, h, r) in by_key else math.nan for r in r_values)
                lines.append(f"{label},{q},{metric},"
                             + ",".join("" if math.isnan(v) else repr(v) for v in vals))
        return "\n".join(lines) + "\n"


# Replications simulated and evaluated together: each cell's per-call cost
# is paid once a chunk, and a chunk's outcomes stay under 3 MB at the
# presets' 1,000 units and 6 periods.
_CHUNK = 50
_ARRAY_SUM = functools.partial(np.sum, axis=-1)


def run_monte_carlo(spec: DgpSpec, cells: Sequence[GridCell], n_reps: int,
                    master_seed: int, preset: Union[str, None] = None) -> McReport:
    """Simulate ``n_reps`` panels and evaluate every cell on each.

    Replication r uses the child seed split from ``master_seed`` with key
    (r,), so results do not depend on execution order and extending the
    run leaves earlier replications unchanged.  A cell whose estimator
    raises in more than half of the replications is marked degenerate.

    Replications run in chunks of ``_CHUNK``.  A simulated panel's layout
    (windows, targets, weights, drops) depends on the spec alone, so each
    cell is laid out once a chunk and applied, through the estimators'
    residual kernel, to the chunk's outcomes stacked block by block.  Each
    (``instrument_lag``, ``detrend``) group of mb cells fits one first
    stage a chunk; a replication whose moment matrix is singular fails the
    group's cells.  Points and standard errors are array sums, within
    about 1e-13 relative of the single-panel estimators' exact sums.

    Summaries per cell: ``bias`` (mean point estimate minus the truth),
    ``mc_se`` (standard deviation of point estimates across replications,
    ddof=1), ``coverage`` (share of confidence intervals containing the
    truth), and ``se_est_mean`` (average estimated standard error).
    """
    cells = tuple(cells)
    n_reps = as_count("n_reps", n_reps, 2)
    master_seed = as_count("master_seed", master_seed, 0)
    if not cells:
        raise ConfigError("no grid cells given")
    names = [c.name for c in cells]
    if len(set(names)) != len(names):
        raise ConfigError("grid cell names collide; set distinct group labels")

    truths = [0.0 if c.estimator == "placebo" else spec.true_att for c in cells]
    # Each cell's window, and an mb cell's first-stage key, checked in cell
    # order before the first replication.
    configs = [(ForecastConfig(q=c.q, R=c.R),
                _ah_settings(c.instrument_lag, c.detrend) if c.estimator == "mb" else None)
               for c in cells]
    # (point, se, interval covers the truth) of each replication a cell ran
    done: list[list[tuple]] = [[] for _ in cells]
    for start in range(0, n_reps, _CHUNK):
        reps = range(start, min(start + _CHUNK, n_reps))
        (panel, stacks), fits = _simulate_chunk(spec, master_seed, reps), {}
        for j, (cell, (config, key)) in enumerate(zip(cells, configs)):
            try:
                point, se = _chunk_estimates(panel, stacks, cell, config, key, fits)
            except (EstimationError, RankDeficiencyError):
                continue
            lo, hi = _interval(point, se, 0.95)
            ok = ~np.isnan(point)
            covers = (lo <= truths[j]) & (truths[j] <= hi)
            done[j] += zip(point[ok].tolist(), se[ok].tolist(), covers[ok].tolist())

    results = []
    for cell, truth, ok in zip(cells, truths, done):
        n_ok, n_failed = len(ok), n_reps - len(ok)
        points, ses, covers = zip(*ok) if ok else ((), (), ())
        mean = math.fsum(points) / n_ok if n_ok else math.nan
        mc_se = (math.sqrt(math.fsum((p - mean) ** 2 for p in points) / (n_ok - 1))
                 if n_ok >= 2 else math.nan)
        results.append(McCellResult(
            name=cell.name, estimator=cell.estimator, label=cell.label,
            q=cell.q, R=cell.R, h=cell.h, truth=truth, n_reps=n_reps,
            n_ok=n_ok, n_failed=n_failed, degenerate=n_failed > n_reps // 2,
            bias=mean - truth, mc_se=mc_se,
            coverage=sum(covers) / n_ok if n_ok else math.nan,
            se_est_mean=math.fsum(ses) / n_ok if n_ok else math.nan,
        ))
    return McReport(spec=spec, master_seed=master_seed, n_reps=n_reps,
                    cells=tuple(results), preset=preset)


def _simulate_chunk(spec: DgpSpec, master_seed: int, reps: range):
    """The first panel of replications ``reps`` and the outcomes of all of
    them, stacked block by block, treated blocks first.  Each panel is
    copied in as it is drawn, so only one is held at a time."""
    for i, r in enumerate(reps):
        drawn = simulate_dgp(spec, np.random.SeedSequence(entropy=master_seed, spawn_key=(r,)))
        blocks = drawn.treated_blocks + drawn.control_blocks
        if not i:
            panel, stacks = drawn, [np.empty((len(reps),) + b.outcomes.shape) for b in blocks]
        for stack, b in zip(stacks, blocks):
            stack[i] = b.outcomes
    return panel, stacks


def _chunk_estimates(panel: PanelData, stacks, cell: GridCell, config: ForecastConfig,
                     key, fits: dict):
    """Point estimates and standard errors of ``cell`` in each replication
    of a chunk, laid out on ``panel`` and applied to ``stacks`` (the chunk's
    outcomes, block by block, treated first); NaN where the first stage is
    singular.  ``fits`` keeps the mb groups' first stages by ``key``, an mb
    cell's (instrument lag, detrend)."""
    treated = panel.treated_blocks
    outcomes, control_outcomes = stacks[:len(treated)], stacks[len(treated):]
    if cell.estimator == "mb":
        if key not in fits:  # a fit that raises is tried again by each cell
            fits[key] = _ah_fit(panel, outcomes, *key, [])
        beta, _, psi, at, _, _ = fits[key]
        apply = _kernel(treated, config, cell.h, lagged=True)
        return _point_se(apply(beta, outcomes), (psi, at), _ARRAY_SUM)
    lag = cell.lag if cell.estimator == "placebo" else 0
    point, se = _point_se(_kernel(treated, config, cell.h, tau_shift=lag)(outcomes=outcomes),
                          total=_ARRAY_SUM)
    if cell.estimator == "dfat":
        # Simulated controls all carry the adoption date.
        c_point, c_se = _point_se(_kernel(panel.control_blocks, config, cell.h)(
            outcomes=control_outcomes), total=_ARRAY_SUM)
        return point - c_point, np.hypot(se, c_se)
    return point, se


# ---------------------------------------------------------------------------
# study presets


def _pr_grid(q_values=(0, 1, 2), tau=5, r_extra=5) -> tuple:
    cells = []
    for q in q_values:
        for R in range(q + 1, min(q + r_extra, tau) + 1):
            cells.append(GridCell(estimator="pr", q=q, R=R))
    return tuple(cells)


def _nonstationary_grid() -> tuple:
    cells = []
    for q in range(4):
        cells.append(GridCell(estimator="pr", q=q, R=q + 1))
    for q in range(4):
        cells.append(GridCell(estimator="mb", q=q, R=q + 1,
                              instrument_lag=3, detrend=True, group="mb"))
    for q in range(4):
        cells.append(GridCell(estimator="mb", q=q, R=q + 1,
                              instrument_lag=2, detrend=False,
                              group="mb_missp"))
    return tuple(cells)


def preset(name: str):
    """Named study setups: the process spec plus its estimator grid.

    Returns (DgpSpec, tuple of GridCell).  Available names:

    * ``nonstationary_init`` / ``nonstationary_init_rho09``: recursive
      trend, fixed initial condition, forecast and model-based estimators
      at R = q+1.
    * ``stationary``, ``unit_root``, ``trend``, ``components_all``:
      additive component processes under a tuning-parameter grid.
    * ``heterogeneous_trend``, ``heterogeneous_both``: per-unit trend
      slopes, optionally per-unit AR coefficients.
    * ``common_shock``: half treated, half control, a post-adoption shock
      common to all units; forecast-only and differenced estimators.
    """
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    spec, grid = _PRESETS[name]
    return DgpSpec(**spec), grid()


_BASE = dict(n=1000, T=6, tau=5)
_RECURSIVE = dict(_BASE, trend_mode="recursive", init_mode="fixed", mu=(-1.0, 1.0),
                  delta=1.0)
_COMPONENTS = dict(_BASE, include_ar=True, include_walk=True, include_trend=True, rho=0.2)
# name: (DgpSpec arguments, estimator grid)
_PRESETS = {
    "nonstationary_init": (dict(_RECURSIVE, rho=0.2), _nonstationary_grid),
    "nonstationary_init_rho09": (dict(_RECURSIVE, rho=0.9), _nonstationary_grid),
    "stationary": (dict(_BASE, include_ar=True, rho=0.2), _pr_grid),
    "unit_root": (dict(_BASE, include_ar=True, include_walk=True, rho=0.2), _pr_grid),
    "trend": (dict(_BASE, include_ar=True, include_trend=True, rho=0.2, delta=1.0),
              _pr_grid),
    "components_all": (dict(_COMPONENTS, delta=1.0), _pr_grid),
    "heterogeneous_trend": (dict(_COMPONENTS, delta=(0.0, 2.0)), _pr_grid),
    "heterogeneous_both": (dict(_COMPONENTS, rho=(0.0, 0.99), delta=(0.0, 2.0)), _pr_grid),
    "common_shock": (dict(n=500, n_control=500, T=6, tau=5, include_ar=True, rho=0.2,
                          common_shock=2.0),
                     lambda: (GridCell(estimator="pr", q=0, R=5),
                              GridCell(estimator="dfat", q=0, R=5))),
}
PRESET_NAMES = tuple(_PRESETS)
