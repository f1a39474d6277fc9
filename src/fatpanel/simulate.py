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
import io
import math
import numbers
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence, TextIO, Union

import numpy as np

from .basis import ForecastConfig, as_count
from .errors import ConfigError, EstimationError, RankDeficiencyError
# fat, placebo_fat, dfat and model_based_fat are not called here, but the
# benchmark's tracer (perfbench/spans.py) wraps each of them as an attribute
# of this module, and a traced run fails if one is missing.
from .estimators import (_ah_layout, _aligned, _ah_settings, _interval, _kernel,
                         _point_se, dfat, fat, model_based_fat, placebo_fat)
from .panel import CohortBlock, PanelData, csv_field, csv_number, csv_text

# A parameter that is either common to all units or drawn per unit from a
# uniform interval (lo, hi).
ParamLaw = Union[float, tuple]

#: Layout version of every JSON report, ``McReport``'s and the CLI's.
REPORT_SCHEMA = 1

# Parts a report writer holds before it hands them to the file.
_FLUSH_PARTS = 4096
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# The JSON text of a scalar, by its exact type.
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _subclass_text(value) -> str:
    """The JSON text of a scalar whose type subclasses str, int or float."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dict_heads(names: tuple) -> tuple:
    """For a dict at ``names`` = (depth, *keys): its (key, text before the
    value) pairs in key order, and the text that closes it.  A key that is
    not a str raises ``TypeError``, from the sort or the quoting."""
    depth, keys = names[0], sorted(names[1:])
    gap = "\n" + "  " * (depth + 1)
    heads = ["," + gap + encode_basestring_ascii(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return tuple(zip(keys, heads)), gap[:-2] + "}"


def write_json(payload, fh: TextIO) -> None:
    """Write ``payload`` to ``fh`` as ``json.dumps(payload, indent=2,
    sort_keys=True) + "\\n"`` would spell it, byte for byte.

    The layout of every JSON report.  Dicts, lists and tuples nest; str,
    int, float, bool and None (and subclasses of the first three, such as
    ``np.float64``) are scalars, with ``NaN`` and ``Infinity`` spelled as
    ``json`` spells them.  Anything else raises ``TypeError``, and so does
    a dict key that is not a str, which ``json`` would have converted.
    The text goes to ``fh`` whenever a few thousand parts are pending at
    the next item of a list, so a report of many records is never held
    whole, and each dict key set is sorted and quoted once a depth.
    """
    parts: list[str] = []
    append = parts.append
    heads: dict[tuple, tuple] = {}  # (depth, *keys) -> _dict_heads

    # The loops spell a scalar item themselves: a call of put for each
    # one made the session's reports about a fifth slower to write.
    def put(value, depth: int) -> None:
        if isinstance(value, dict):
            if not value:
                append("{}")
                return
            names = (depth, *value)
            pairs, close = heads.get(names) or heads.setdefault(names, _dict_heads(names))
            for key, head in pairs:
                append(head)
                item = value[key]
                text = _SCALAR_TEXT.get(type(item))
                if text is None:
                    put(item, depth + 1)
                else:
                    append(text(item))
            append(close)
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            gap = "\n" + "  " * (depth + 1)
            sep = "," + gap
            append("[" + gap)
            for i, item in enumerate(value):
                if i:
                    append(sep)
                if len(parts) > _FLUSH_PARTS:
                    fh.write("".join(parts))
                    parts.clear()
                text = _SCALAR_TEXT.get(type(item))
                if text is None:
                    put(item, depth + 1)
                else:
                    append(text(item))
            append(gap[:-2] + "]")
        else:
            append(_SCALAR_TEXT.get(type(value), _subclass_text)(value))

    put(payload, 0)
    append("\n")
    fh.write("".join(parts))


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
    drawn once per unit; a two-element list, as JSON spells one, is such
    a pair.  The AR initial value is drawn from the process's stationary
    law or from a fixed normal with mean 1 and variance 2, independent of
    stationarity.

    ``true_att`` is added to treated units at every period after ``tau``;
    ``common_shock`` is added to every unit after ``tau``.

    The sizes ``n``, ``n_control``, ``T``, ``tau`` and ``trend_power``
    must be integers (``5.0`` is refused), the include flags bools, and
    every number and interval end a finite number, not a bool; anything
    else raises ``ConfigError`` naming the field.
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
        for name, least in (("n", 1), ("n_control", 0), ("T", 2), ("tau", 1),
                            ("trend_power", 1)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))
        if not self.tau < self.T:
            raise ConfigError("periods must satisfy T > tau >= 1")
        if self.trend_mode not in ("additive", "recursive"):
            raise ConfigError(f"unknown trend_mode {self.trend_mode!r}")
        if self.init_mode not in ("stationary", "fixed"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")
        for name in ("include_ar", "include_walk", "include_trend"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise ConfigError(f"{name} must be true or false, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        for name in ("true_att", "common_shock"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("rho", "mu", "delta"):
            law = getattr(self, name)
            interval = isinstance(law, (tuple, list))
            malformed = ConfigError(f"{name} law must be a number or (lo, hi), got {law!r}")
            if any(isinstance(v, (bool, np.bool_)) for v in (law if interval else [law])):
                raise malformed
            try:
                value = tuple(map(float, law)) if interval else float(law)
            except (TypeError, ValueError):
                raise malformed from None
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} law must be finite, got {law!r}")
            if interval and (len(value) != 2 or not value[0] <= value[1]):
                raise ConfigError(f"{name} law must be (lo, hi) with lo <= hi")
            object.__setattr__(self, name, value)
        if self.init_mode == "stationary":
            if np.max(np.abs(self.rho)) >= 1.0:
                raise ConfigError("stationary initialization requires |rho| < 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for name in ("rho", "mu", "delta"):
            if isinstance(d[name], tuple):
                d[name] = list(d[name])
        return d


def _draw(law: ParamLaw, rngs: Sequence[np.random.Generator], size: int):
    """Per-unit values for a scalar-or-uniform law, one row per generator.

    A scalar law is returned as it is and consumes no random draws, so
    switching a parameter between scalar and interval changes the stream
    layout by design.
    """
    if isinstance(law, tuple):
        return np.stack([rng.uniform(law[0], law[1], size=size) for rng in rngs])
    return law


@np.errstate(over="ignore", invalid="ignore")
def _draw_outcomes(spec: DgpSpec, seeds: Sequence) -> np.ndarray:
    """The outcomes of one panel per seed, as a (B, N, T) array whose
    units are the treated ones followed by the controls.  Overflow is not
    warned of: an explosive design gives non-finite outcomes, which
    ``_panel`` refuses.

    Each seed is anything ``numpy.random.default_rng`` accepts, and each
    panel draws from its own stream in a fixed order (mu, rho, delta,
    initial values, AR noise, walk noise), so identical seeds give
    bitwise-identical outcomes whatever else is drawn beside them.  The
    AR noise is drawn straight into the output, and the recursion then
    runs in place over every panel at once.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    B, N, T = len(rngs), spec.n + spec.n_control, spec.T
    mu = _draw(spec.mu, rngs, N)
    rho = _draw(spec.rho, rngs, N)
    delta = _draw(spec.delta, rngs, N)

    recursive = spec.trend_mode == "recursive"
    ar, walk = recursive or spec.include_ar, spec.include_walk and not recursive
    y0 = np.empty((B, N))
    Y = np.empty((B, N, T)) if ar else np.zeros((B, N, T))
    eps = np.empty((B, N, T)) if walk else None
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=y0[b])
        if ar:
            rng.standard_normal(out=Y[b])
        if walk:
            rng.standard_normal(out=eps[b])

    if spec.init_mode == "stationary":
        init_mean, init_sd = mu / (1.0 - rho), 1.0 / np.sqrt(1.0 - rho * rho)
    else:
        init_mean, init_sd = 1.0, math.sqrt(2.0)
    y0 *= init_sd
    y0 += init_mean
    tgrid = np.arange(1, T + 1)
    trend_vals = tgrid.astype(float) ** spec.trend_power
    if ar:
        # y_t = mu + rho * y_{t-1} (+ delta * t**p when recursive) + noise,
        # with each step's mean part built in the initial values' buffer.
        prev = step = y0
        for t in range(T):
            np.multiply(rho, prev, out=step)
            step += mu
            if recursive:
                step += delta * trend_vals[t]
            prev = Y[:, :, t]
            prev += step
    if walk:
        Y += np.cumsum(eps, axis=2, out=eps)
    if spec.include_trend and not recursive:
        for t in range(T):
            Y[:, :, t] += delta * trend_vals[t]

    post = (tgrid > spec.tau).astype(float)
    if spec.common_shock:
        Y += spec.common_shock * post
    if spec.true_att:
        Y[:, :spec.n] += spec.true_att * post
    return Y


def simulate_dgp(spec: DgpSpec, seed=None) -> PanelData:
    """Draw one panel from the specified process.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.  Treated
    units are named ``t0001``..; control units ``c0001``.. and carry the
    shared adoption date as their forecasting cohort date.

    This is ``_draw_outcomes``, the one simulator, for a single seed: the
    same seed gives the same outcomes here as in any Monte Carlo chunk,
    and they are written into one treated and one control cohort block,
    whose rows are views on the simulated array.
    """
    return _panel(spec, _draw_outcomes(spec, [seed])[0])


def _panel(spec: DgpSpec, Y: np.ndarray) -> PanelData:
    """The panel of ``spec`` whose blocks are views on the (N, T) outcomes ``Y``."""
    N, tau = spec.n + spec.n_control, spec.tau
    tgrid = np.arange(1, spec.T + 1)
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
    model-based fits that share an estimator kind.  ``instrument_lag``
    (default 3) and ``detrend`` set an mb cell's first stage, as in
    ``anderson_hsiao``; any other cell refuses them.  ``lag`` shifts a
    placebo cell's adoption date back; any other cell refuses a non-zero
    one.
    """

    estimator: str = "pr"
    q: int = 0
    R: Union[int, str] = 1
    h: int = 1
    lag: int = 0
    instrument_lag: Union[int, None] = None
    detrend: Union[bool, None] = None
    group: Union[str, None] = None

    def __post_init__(self):
        if self.estimator not in ("pr", "mb", "placebo", "dfat"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.group is not None and not isinstance(self.group, str):
            raise ConfigError(f"group must be a string, got {self.group!r}")
        object.__setattr__(self, "h", as_count("h", self.h, 1))
        object.__setattr__(self, "lag", as_count("lag", self.lag, 0))
        unread = [k for k in ("instrument_lag", "detrend") if getattr(self, k) is not None]
        if self.estimator != "mb" and unread:
            raise ConfigError(f"a {self.estimator} cell takes no {', '.join(unread)}: "
                              "only mb cells fit a first stage")
        if self.estimator != "placebo" and self.lag:
            raise ConfigError(f"a {self.estimator} cell takes no lag: "
                              "only placebo cells shift adoption")
        if self.instrument_lag is None and self.estimator == "mb":
            object.__setattr__(self, "instrument_lag", 3)

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
        """The report as ``write_json`` writes it, without the final newline."""
        text = io.StringIO()
        write_json(self.to_dict(), text)
        return text.getvalue()[:-1]

    def to_csv_text(self) -> str:
        """Table-style text: one block row per (label, q), columns by R."""
        r_values = list(dict.fromkeys(c.R for c in self.cells))
        by_key = {(c.label, c.q, c.h, c.R): c for c in self.cells}
        lines = []
        for label, q, h in dict.fromkeys((c.label, c.q, c.h) for c in self.cells):
            for metric in ("bias", "mc_se", "coverage"):
                vals = (getattr(by_key[label, q, h, r], metric)
                        if (label, q, h, r) in by_key else math.nan for r in r_values)
                lines.append(f"{csv_field(label)},{q},{metric},"
                             + ",".join(map(csv_number, vals)))
        return csv_text(["label", "q", "metric", *(f"R={r}" for r in r_values)], lines)


# Replications simulated and evaluated together: each cell's per-call cost
# is paid once a chunk.  At the presets' 1,000 units and 6 periods a
# chunk's outcomes take 2.4 MB, a random walk's noise as much again while
# it is drawn, and each column of a kernel's contrast products 0.4 MB.
# 1,000 replications of common_shock, components_all or nonstationary_init
# peak at 42, 45 or 50 MB resident, numpy included.
_CHUNK = 50


def run_monte_carlo(spec: DgpSpec, cells: Sequence[GridCell], n_reps: int,
                    master_seed: int, preset: Union[str, None] = None) -> McReport:
    """Simulate ``n_reps`` panels and evaluate every cell on each.

    Replication r uses the child seed split from ``master_seed`` with key
    (r,), so results do not depend on execution order and extending the
    run leaves earlier replications unchanged.  A cell whose estimator
    raises in more than half of the replications is marked degenerate.
    A design whose draw is not finite (an explosive one overflows) raises
    the ``PanelFormatError`` that ``simulate_dgp`` raises for the first
    such replication.

    Replications run in chunks of ``_CHUNK``, each drawn by
    ``_draw_outcomes``, the simulator behind ``simulate_dgp``, as one
    (B, N, T) array whose treated and control rows are the stacks the
    estimators read; no panel is built per replication.  A simulated
    panel's layout depends on the spec alone, so each residual kernel
    (``_kernel``) and each (``instrument_lag``, ``detrend``) group's first
    stage (``_ah_layout``) is laid out once a run, and the cells are
    gathered under their treated kernel (a pr cell and dfat's treated
    side, or an mb and an mb_missp cell of one window, share one).  Each
    chunk fits every first stage once, then walks the kernels: a kernel
    makes its contrast products once, and each of its cells finishes from
    them with its own beta.  A replication whose moment matrix is singular
    fails its group's cells.  A dfat cell applies its control kernel
    itself, so two dfat cells of one window under different ``group``
    labels each apply it.  Every sum over units is the estimators' own, so
    each replication's fit, point and standard error are, bit for bit,
    those of the single-panel estimators on its simulated panel.

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
    # The layout of every chunk; its outcomes are never read.
    layout = _panel(spec, np.zeros((spec.n + spec.n_control, spec.T)))
    # Kernels by their keys (side, 0 treated or 1 controls; window; horizon;
    # shift; lagged) and first stages by theirs, laid out once a run; None
    # for one that cannot be, whose cells fail in every replication.  Each
    # treated kernel's runnable cells: (index, first-stage key, control kernel).
    sides, kernels, firsts, groups = (layout.treated_blocks, layout.control_blocks), {}, {}, {}
    for j, (c, (config, key)) in enumerate(zip(cells, configs)):
        plan = [(0, config, c.h, c.lag, key is not None)]
        if c.estimator == "dfat":
            plan.append((1, config, c.h, 0, False))
        for k in plan:
            if k not in kernels:
                try:
                    kernels[k] = _kernel(sides[k[0]], config, c.h, tau_shift=k[3], lagged=k[4])
                except (EstimationError, RankDeficiencyError):
                    kernels[k] = None
        if key and key not in firsts:
            try:
                firsts[key] = _ah_layout(layout.treated_blocks, *key, [])
            except EstimationError:
                firsts[key] = None
        if all(kernels[k] is not None for k in plan) and (not key or firsts[key] is not None):
            control = kernels[plan[1]] if plan[1:] else None
            groups.setdefault(plan[0], (kernels[plan[0]], []))[1].append((j, key, control))
    # Each cell's (3, n) point, se and covers-the-truth rows, one a chunk
    done = [[np.empty((3, 0))] for _ in cells]
    for start in range(0, n_reps, _CHUNK):
        Y = _draw_outcomes(spec, [np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
                                  for r in range(start, min(start + _CHUNK, n_reps))])
        finite = np.isfinite(Y).all(axis=(1, 2))
        if not finite.all():  # refused as ``simulate_dgp`` refuses the first such draw
            _panel(spec, Y[np.argmin(finite)])
        treated, controls = [Y[:, :spec.n]], [Y[:, spec.n:]]  # each side's blocks' outcomes
        # Each first stage with its fit on the chunk, made before any products.
        fits = {key: (first, first.fit(treated)) for key, first in firsts.items()
                if first is not None}
        for kernel, members in groups.values():
            products = kernel.products(treated)
            for j, key, control in members:
                try:
                    point, se = _estimates(kernel, products, fits.get(key), control, controls)
                except (EstimationError, RankDeficiencyError):
                    continue
                lo, hi = _interval(point, se, 0.95)
                ok = ~np.isnan(point)
                covers = (lo <= truths[j]) & (truths[j] <= hi)
                done[j].append(np.array([point, se, covers])[:, ok])
            del products
        del Y, treated, controls, fits  # freed before the next chunk is drawn

    results = []
    for cell, truth, ok in zip(cells, truths, done):
        points, ses, covers = np.concatenate(ok, axis=1).tolist()
        n_ok, n_failed = len(points), n_reps - len(points)
        # Sums across replications, not units: exact, whatever the chunking.
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


def _estimates(kernel, products, stage, control, controls):
    """A cell's points and standard errors on a chunk: its treated ``kernel``
    finished from its ``products`` with an mb cell's first ``stage`` (layout,
    fit), less a dfat cell's ``control`` kernel applied to the ``controls``.
    The residuals go when it returns."""
    beta, psi = (), None
    if stage:
        first, (beta, _, psi, _) = stage
        psi = _aligned(psi, first.positions, kernel.positions)
    point, se = _point_se(kernel.finish(products, beta), psi)
    if control is not None:
        c_point, c_se = _point_se(control.apply(outcomes=controls))
        point, se = point - c_point, np.hypot(se, c_se)
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
