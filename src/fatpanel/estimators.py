"""Average treatment effect estimators built on per-unit forecasts.

The central estimator compares each treated unit's realized outcome after
adoption with a counterfactual forecast extrapolated from that unit's own
pre-treatment history, then averages the differences.  No control group is
needed; identification rests on the pre-treatment trend family continuing
through the forecast horizon.

Variants included here:

* ``fat``: the plain forecasted effect at horizon h.
* ``placebo_fat``: the same construction pretending adoption happened
  earlier, so the estimand is zero by design.
* ``model_based_fat``: imposes a dynamic model with common coefficients,
  estimated by instrumented first differences, and forecasts the remainder.
* ``covariate_fat_heterogeneous``: augments each unit's window regression
  with covariates carrying unit-specific coefficients.
* ``dfat``: difference of forecasted effects between treated units and
  never-treated controls, which removes common post-adoption shocks.

A forecast is a fixed linear contrast of the unit's window outcomes whose
weights depend only on the window times.  Every estimator therefore works
on the panel's cohort blocks (units sharing a control flag, adoption date
and time grid): one kernel resolves each block's window, target and
weights once, forecasts all of its units with one matrix product, and
hands results back in panel order.  Units that cannot be forecast are
dropped with a stated reason, the same for a block of one unit as for a
block of thousands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import norm

from .basis import BasisSpec, ForecastConfig, _qr, _solver_design, as_integer, forecast_weights
from .errors import ConfigError, EstimationError, RankDeficiencyError
from .panel import CohortBlock, PanelData, _run_ending


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class FatEstimate:
    """A forecasted average treatment effect at one horizon.

    Attributes
    ----------
    horizon : int
        Periods past the (effective) adoption date.
    point : float
        Average of per-unit forecast residuals, accumulated in unit order
        with compensated summation.
    se : float
        Standard error of the point estimate.
    ci : (float, float)
        Two-sided normal confidence interval at ``level``.
    level : float
        Confidence level used for ``ci``.
    n_used : int
        Units entering the average.
    unit_ids : tuple of str
        Contributing units, in panel order.
    residuals : ndarray
        Per-unit residuals aligned with ``unit_ids``.
    dropped : tuple of (str, str)
        Units excluded from the average and the reason for each.
    """

    horizon: int
    point: float
    se: float
    ci: tuple[float, float]
    level: float
    n_used: int
    unit_ids: tuple[str, ...]
    residuals: np.ndarray
    dropped: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "point": self.point,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "level": self.level,
            "n_used": self.n_used,
            "dropped_units": [{"unit": u, "reason": r} for u, r in self.dropped],
        }


@dataclass(frozen=True)
class DfatEstimate:
    """Difference of forecasted effects: treated minus control group."""

    horizon: int
    point: float
    se: float
    ci: tuple[float, float]
    level: float
    treated: FatEstimate
    control: FatEstimate

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "point": self.point,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "level": self.level,
            "treated": self.treated.to_dict(),
            "control": self.control.to_dict(),
        }


@dataclass(frozen=True)
class AhEstimate:
    """First-differenced instrumental-variable fit of the dynamic model.

    ``beta`` stacks the lagged-outcome coefficient first, then covariate
    coefficients.  ``psi`` holds one influence vector per contributing
    unit: the estimation error of ``beta`` is the average of these, so they
    feed the variance correction of the model-based estimator.
    """

    beta: np.ndarray
    intercept: float | None
    psi: dict[str, np.ndarray]
    weak: bool
    n_units: int
    n_obs: int
    covariate_names: tuple[str, ...] = ()

    @property
    def rho(self) -> float:
        return float(self.beta[0])


@dataclass(frozen=True)
class MbConfig:
    """Settings for the model-based estimator.

    Parameters
    ----------
    q, R, h, delta : as in ``ForecastConfig``
        Polynomial order, window length, default horizon, anticipation.
        With ``lagged_outcome``, ``R="all"`` takes each unit's contiguous
        pre-treatment run less its first period, whose outcome is the
        window's first lag.
    lagged_outcome : bool
        Include the one-period-lagged outcome in the dynamic model.
    covariates : tuple of str
        Panel covariate columns entering the model with common
        coefficients.
    first_stage : {"anderson_hsiao", "user"}
        How the common coefficients are obtained.  The built-in first
        stage requires ``lagged_outcome=True``; ``"user"`` takes ``beta``
        as known and skips the variance correction.
    instrument_lag : {2, 3}
        Outcome lag used to instrument the differenced lagged outcome.
    detrend : bool or None
        Include an intercept in the differenced first stage, which absorbs
        a linear time trend in levels.  Defaults to True exactly when
        ``instrument_lag`` is 3 (a trend-robust instrument choice).
    beta : tuple of float, optional
        Known model coefficients when ``first_stage="user"``.
    """

    q: int = 1
    R: int | str = "all"
    h: int = 1
    delta: int = 0
    lagged_outcome: bool = True
    covariates: tuple[str, ...] = ()
    first_stage: str = "anderson_hsiao"
    instrument_lag: int = 3
    detrend: bool | None = None
    beta: tuple[float, ...] | None = None

    def __post_init__(self):
        self.forecast_config()  # refuses bad q, R, h and delta
        if self.first_stage not in ("anderson_hsiao", "user"):
            raise ConfigError(f"unknown first stage {self.first_stage!r}")
        if self.instrument_lag not in (2, 3):
            raise ConfigError("instrument_lag must be 2 or 3")
        object.__setattr__(self, "covariates", tuple(self.covariates))
        k = int(self.lagged_outcome) + len(self.covariates)
        if self.first_stage == "user":
            if self.beta is None or len(self.beta) != k:
                raise ConfigError(f"user first stage needs beta of length {k}")
            object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        else:
            if not self.lagged_outcome:
                raise ConfigError(
                    "the built-in first stage estimates the lagged-outcome "
                    "model; pass first_stage='user' with beta otherwise"
                )
        if self.detrend is None:
            object.__setattr__(self, "detrend", self.instrument_lag == 3)
        elif not isinstance(self.detrend, bool):
            raise ConfigError(f"detrend must be true, false or None, got {self.detrend!r}")

    def forecast_config(self) -> ForecastConfig:
        """Window settings of the polynomial remainder fit."""
        return ForecastConfig(q=self.q, R=self.R, h=self.h, delta=self.delta)


# ---------------------------------------------------------------------------
# variance helpers


def fat_variance(residuals) -> float:
    """Standard error of the residual mean: sqrt of (1/n) sample variance / n."""
    u = np.asarray(residuals, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ConfigError("residuals must be a non-empty 1-D array")
    n = u.size
    mean = math.fsum(u.tolist()) / n
    var = math.fsum(((u - mean) ** 2).tolist()) / n
    return math.sqrt(var / n)


def mb_variance(residuals, gradients, psi) -> float:
    """Standard error accounting for first-stage estimation error.

    Each residual is recentred by (mean forecast gradient) @ (unit influence
    vector) before the plain variance formula is applied: units that moved
    the first-stage coefficients have that feedback removed.
    """
    u = np.asarray(residuals, dtype=float)
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    P = np.atleast_2d(np.asarray(psi, dtype=float))
    if G.shape[0] != u.size or P.shape != G.shape:
        raise ConfigError("residuals, gradients, and psi must align")
    gbar = G.mean(axis=0)
    ustar = u - P @ gbar
    return fat_variance(ustar)


def _zscore(level: float) -> float:
    if not isinstance(level, (float, np.floating)) or not 0.0 < level < 1.0:
        raise ConfigError(f"confidence level must be in (0, 1), got {level!r}")
    return _normal_quantile(level)


# ``norm.ppf`` costs far more than the interval it serves; typed, so a
# float32 level keeps its own float32 quantile.
@functools.lru_cache(maxsize=32, typed=True)
def _normal_quantile(level: float) -> float:
    return float(norm.ppf(0.5 * (1.0 + level)))


def _interval(point: float, se: float, level: float) -> tuple[float, float]:
    z = _zscore(level)
    return (point - z * se, point + z * se)


# ---------------------------------------------------------------------------
# window resolution


class _DropUnit(Exception):
    """Internal: the block's units cannot contribute; reported, not fatal."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _resolve(block: CohortBlock, q: int, R, shrink: bool, eff_tau: int,
             h: int, lead: int = 0) -> tuple[int, int, int]:
    """Window start, window end and target position shared by a block.

    The window holds the ``R`` periods ending at ``eff_tau``; ``R="all"``
    takes the contiguous run ending there less its first ``lead`` periods.
    Raises ``_DropUnit`` when the block's units cannot be forecast, and
    ``EstimationError`` when the window has interior gaps and ``shrink``
    is off.
    """
    times = block.times
    i_tau = int(np.searchsorted(times, eff_tau))
    if i_tau >= times.size or times[i_tau] != eff_tau:
        raise _DropUnit(f"no observation at effective adoption date {eff_tau}")
    run = _run_ending(times, i_tau)
    R_i = run - lead if R == "all" else int(R)
    if run < R_i:
        if times[0] < eff_tau - run + 1:
            # Older observations exist, so the window has interior holes.
            if not shrink:
                raise EstimationError(
                    f"unit {block.unit_ids[0]!r}: missing periods inside the "
                    f"estimation window ending at {eff_tau}; pass "
                    "shrink_window=True to shrink to the contiguous run"
                )
            R_i = run
        else:
            raise _DropUnit(
                f"pre-treatment history of {run} periods is shorter than R={R_i}"
            )
    if R_i < q + 1:
        raise _DropUnit(f"only {R_i} usable pre-treatment periods, need q+1={q + 1}")
    target = eff_tau + h
    j = int(np.searchsorted(times, target))
    if j >= times.size or times[j] != target:
        raise _DropUnit(f"outcome not observed at target period {target}")
    return i_tau - R_i + 1, i_tau, j


def _weights(cache: dict, basis: BasisSpec, window: np.ndarray, target,
             h: int) -> np.ndarray:
    """Forecast weights for a contiguous window, reused within one call.

    Polynomial weights depend only on the window length and the horizon,
    Fourier weights also on the window's phase; custom bases are not
    cached.
    """
    if basis.family == "polynomial":
        key = (window.size, h)
    elif basis.family == "fourier":
        key = (window.size, h, int(window[0]))
    else:
        key = None
    if key in cache:
        return cache[key]
    w = forecast_weights(basis, window, target).weights
    if key is not None:
        cache[key] = w
    return w


class _PanelOrder:
    """Per-block results gathered in block order, returned in panel order."""

    def __init__(self, width: int = 0):
        self.positions = [np.empty(0, dtype=int)]
        self.ids = [np.empty(0, dtype=object)]
        self.residuals = [np.empty(0)]
        self.grads = [np.empty((0, width))]
        self.dropped = []

    def drop(self, block: CohortBlock, reason: str, rows=slice(None)) -> None:
        self.dropped.extend(zip(block.positions[rows], block.unit_ids[rows],
                                repeat(reason)))

    def use(self, block: CohortBlock, rows, residuals, grads) -> None:
        self.positions.append(block.positions[rows])
        self.ids.append(block.unit_ids[rows])
        self.residuals.append(residuals)
        self.grads.append(grads)

    def result(self):
        """(unit_ids, residuals, gradients, dropped), all in panel order."""
        order = np.argsort(np.concatenate(self.positions))
        return (tuple(np.concatenate(self.ids)[order]),
                np.concatenate(self.residuals)[order],
                np.concatenate(self.grads)[order],
                tuple((u, r) for _, u, r in sorted(self.dropped)))


# ---------------------------------------------------------------------------
# the residual kernel


def _fat_residuals(blocks: Sequence[CohortBlock], config: ForecastConfig,
                   h: int, tau_shift: int = 0, lagged: bool = False,
                   cov_idx: Sequence[int] = (), beta=()):
    """Forecast residuals y(tau_eff + h) - forecast of every unit in ``blocks``.

    Each block's window, target and weights are resolved once, and its
    residuals come from one product over its dense outcome rows:
    ``Y[:, j] - (Y[:, win] - X beta) @ w - x_j' beta``, where the model
    columns X stack the lagged outcome (``lagged``) and the covariates
    ``cov_idx``.  Without a model this is ``Y[:, j] - Y[:, win] @ w``.
    With ``lagged``, ``R="all"`` leaves the run's first period to serve
    as the window's first lag.

    Returns (unit_ids, residuals, gradients, dropped) in panel order; row
    i of the gradients is the derivative of unit i's forecast in ``beta``.
    """
    if not blocks:
        raise EstimationError("no units to estimate on")
    q = config.basis.order
    shift = config.delta + tau_shift
    out = _PanelOrder(int(lagged) + len(cov_idx))
    cache: dict = {}
    for b in blocks:
        try:
            i0, i1, j = _resolve(b, q, config.R, config.shrink_window,
                                 b.tau - shift, h, lead=int(lagged))
            if lagged and (i0 == 0 or b.times[i0 - 1] != b.times[i0] - 1
                           or b.times[j - 1] != b.times[j] - 1):
                raise _DropUnit("lagged outcome missing for the window or target")
        except _DropUnit as d:
            out.drop(b, d.reason)
            continue
        rows = slice(None)
        if cov_idx:
            X = b.covariates[:, :, cov_idx]
            bad = (np.isnan(X[:, i0:i1 + 1]).any(axis=(1, 2))
                   | np.isnan(X[:, j]).any(axis=1))
            out.drop(b, "incomplete covariates on the window or target", bad)
            rows = np.flatnonzero(~bad)
            if not rows.size:
                continue
        try:
            w = _weights(cache, config.basis, b.times[i0:i1 + 1], b.times[j], h)
        except RankDeficiencyError:
            out.drop(b, "window design is rank deficient", rows)
            continue
        Y = b.outcomes[rows]
        terms = [(Y[:, i0 - 1:i1], Y[:, j - 1])] if lagged else []
        terms += [(b.covariates[rows, i0:i1 + 1, c], b.covariates[rows, j, c])
                  for c in cov_idx]
        modeled = sum(bk * Xw for bk, (Xw, _) in zip(beta, terms))
        forecast = (sum(bk * xt for bk, (_, xt) in zip(beta, terms))
                    + (Y[:, i0:i1 + 1] - modeled) @ w)
        grads = np.empty((Y.shape[0], len(terms)))
        for c, (Xw, xt) in enumerate(terms):
            grads[:, c] = xt - Xw @ w
        out.use(b, rows, Y[:, j] - forecast, grads)
    return out.result()


def _summarize(ids, residuals, dropped, h, level, grads=None,
               psi: Mapping[str, np.ndarray] | None = None) -> FatEstimate:
    """Point, standard error and interval; with first-stage influence
    vectors ``psi`` the error is corrected through ``grads``."""
    n = len(ids)
    if n == 0:
        detail = "; ".join(f"{u}: {r}" for u, r in dropped[:3])
        raise EstimationError(f"no usable units ({detail})")
    point = math.fsum(residuals.tolist()) / n
    if psi:
        zeros = np.zeros(grads.shape[1])
        psi_arr = np.array([psi.get(u, zeros) for u in ids])
        se = mb_variance(residuals, grads, psi_arr)
    else:
        se = fat_variance(residuals)
    return FatEstimate(
        horizon=h, point=point, se=se, ci=_interval(point, se, level),
        level=level, n_used=n, unit_ids=tuple(ids),
        residuals=np.asarray(residuals, dtype=float), dropped=tuple(dropped),
    )


# ---------------------------------------------------------------------------
# public estimators


def fat(panel: PanelData, config: ForecastConfig, h: int | None = None,
        level: float = 0.95) -> FatEstimate:
    """Forecasted average treatment effect at horizon ``h``.

    For each treated unit, fits the basis regression on the window of
    ``config.R`` pre-treatment periods ending at the effective adoption
    date, forecasts the counterfactual at horizon ``h``, and averages the
    forecast errors.  Units that cannot be forecast (missing target
    outcome, short history, rank-deficient window) are dropped and listed
    on the result; interior window gaps raise unless
    ``config.shrink_window`` is set.

    Parameters
    ----------
    panel : PanelData
        Panel with treated units; control units are ignored here.
    config : ForecastConfig
        Basis, window length, and anticipation settings.
    h : int, optional
        Forecast horizon, defaulting to ``config.h``.
    level : float
        Confidence level for the normal interval.

    Returns
    -------
    FatEstimate
    """
    h = config.h if h is None else as_integer("h", h)
    if h < 1:
        raise ConfigError("horizon h must be >= 1")
    ids, residuals, _, dropped = _fat_residuals(panel.treated_blocks, config, h)
    return _summarize(ids, residuals, dropped, h, level)


def placebo_fat(panel: PanelData, config: ForecastConfig, lag: int,
                h: int = 1, level: float = 0.95) -> FatEstimate:
    """Forecasted effect computed as if adoption happened ``lag`` periods early.

    With ``lag >= h`` the target period is still untreated, so the estimand
    is zero and the estimate diagnoses forecast bias.  ``lag=0`` reproduces
    ``fat`` exactly.
    """
    if as_integer("lag", lag) < 0:
        raise ConfigError("placebo lag must be >= 0")
    ids, residuals, _, dropped = _fat_residuals(panel.treated_blocks, config, h,
                                                tau_shift=lag)
    return _summarize(ids, residuals, dropped, h, level)


def dfat(panel: PanelData, config: ForecastConfig, h: int | None = None,
         config_control: ForecastConfig | None = None,
         level: float = 0.95) -> DfatEstimate:
    """Treated-minus-control difference of forecasted effects.

    Controls are forecast from their own pre-period histories using their
    recorded cohort date, so any shock common to both groups after adoption
    cancels from the difference.  The two groups may use different window
    settings via ``config_control``.
    """
    h = config.h if h is None else as_integer("h", h)
    treated = panel.treated_blocks
    controls = [b for b in panel.control_blocks if b.tau is not None]
    skipped = tuple((u, "no adoption date") for _, u in sorted(
        (at, u) for b in panel.control_blocks if b.tau is None
        for at, u in zip(b.positions.tolist(), b.unit_ids)))
    if not treated or not controls:
        raise EstimationError(
            "dfat needs at least one treated unit and one control unit with "
            "an adoption date"
        )
    cc = config if config_control is None else config_control
    t_ids, t_res, _, t_drop = _fat_residuals(treated, config, h)
    c_ids, c_res, _, c_drop = _fat_residuals(controls, cc, h)
    est_t = _summarize(t_ids, t_res, t_drop, h, level)
    est_c = _summarize(c_ids, c_res, c_drop + skipped, h, level)
    point = est_t.point - est_c.point
    se = math.hypot(est_t.se, est_c.se)
    return DfatEstimate(
        horizon=h, point=point, se=se, ci=_interval(point, se, level),
        level=level, treated=est_t, control=est_c,
    )


def _ah_moments(block: CohortBlock, eff_tau: int, lag: int, detrend: bool,
                cov_idx: list[int]):
    """Moment blocks A_i = Z'W and b_i = Z'dy of every unit in ``block``.

    Period t <= eff_tau gives a moment row when t-1, t-2 and t-lag are
    observed; with covariates, only for the units whose covariates at t
    and t-1 are complete.  Rows are accumulated in time order.  Returns
    (A, b, rows) with shapes (n, k, k), (n, k) and (n,).
    """
    times, Y = block.times, block.outcomes
    t = times[times <= eff_tau]
    at = [np.searchsorted(times, t - d) for d in (1, 2, lag)]
    valid = np.logical_and.reduce([times[i] == t - d for i, d in zip(at, (1, 2, lag))])
    js = np.flatnonzero(valid)
    i1, i2, il = (i[valid] for i in at)
    dy = Y[:, js] - Y[:, i1]
    W = [Y[:, i1] - Y[:, i2]]
    Z = [Y[:, il]]
    rows = np.ones(dy.shape, dtype=bool)
    if cov_idx:
        x_t = block.covariates[:, js][:, :, cov_idx]
        x_1 = block.covariates[:, i1][:, :, cov_idx]
        rows = ~(np.isnan(x_t).any(axis=2) | np.isnan(x_1).any(axis=2))
        W += list(np.moveaxis(x_t - x_1, 2, 0))
        Z += list(np.moveaxis(x_1, 2, 0))
    if detrend:
        W.append(np.ones(dy.shape))
        Z.append(np.ones(dy.shape))
    W = np.stack(W, axis=2)
    Z = np.stack(Z, axis=2)
    # Rows a unit lacks add exact zeros, leaving its sums as if skipped.
    W[~rows] = 0.0
    Z[~rows] = 0.0
    n, k = Y.shape[0], Z.shape[2]
    A = np.zeros((n, k, k))
    b = np.zeros((n, k))
    for j in range(js.size):
        A += Z[:, j, :, None] * W[:, j, None, :]
        b += Z[:, j] * dy[:, j, None]
    return A, b, rows.sum(axis=1)


def _covariate_columns(panel: PanelData, names: Sequence[str]) -> list[int]:
    unknown = [c for c in names if c not in panel.covariate_names]
    if unknown:
        raise ConfigError(f"unknown covariates {unknown}; the panel has "
                          f"{list(panel.covariate_names)}")
    return [panel.covariate_names.index(c) for c in names]


def anderson_hsiao(panel: PanelData, instrument_lag: int = 3,
                   detrend: bool | None = None,
                   covariates: Sequence[str] = (), delta: int = 0) -> AhEstimate:
    """Instrumented first-difference fit of the dynamic outcome model.

    Differences the model y_t = rho * y_{t-1} + x_t' theta + (unit trend)
    and instruments the differenced lagged outcome with the level outcome
    ``instrument_lag`` periods back, pooling all pre-treatment observations
    of treated units.  With ``detrend`` an intercept enters the differenced
    equation (absorbing a linear trend in levels) and joins the instrument
    set; covariates enter differenced, instrumented by their first lag.

    A nearly singular first stage is flagged as ``weak`` but still solved,
    since weak-instrument noise is informative in itself.

    Returns
    -------
    AhEstimate
        Coefficients, optional intercept, and per-unit influence vectors.
    """
    if instrument_lag not in (2, 3):
        raise ConfigError("instrument_lag must be 2 or 3")
    if detrend is None:
        detrend = instrument_lag == 3
    cov_idx = _covariate_columns(panel, covariates)
    if not panel.treated_blocks:
        raise EstimationError("no treated units")
    k = 1 + len(cov_idx) + (1 if detrend else 0)
    A_all = np.zeros((len(panel), k, k))
    b_all = np.zeros((len(panel), k))
    rows = np.zeros(len(panel), dtype=int)
    ids = np.empty(len(panel), dtype=object)
    for block in panel.treated_blocks:
        at = block.positions
        ids[at] = block.unit_ids
        A_all[at], b_all[at], rows[at] = _ah_moments(
            block, block.tau - delta, instrument_lag, detrend, cov_idx)
    contrib = np.flatnonzero(rows)
    if not contrib.size:
        raise EstimationError(
            f"no unit has enough history for instrument lag {instrument_lag}"
        )
    A_all = A_all[contrib]
    b_all = b_all[contrib]
    uids = ids[contrib].tolist()
    n_contrib = len(uids)
    n_rows = int(rows.sum())

    ZtW = A_all.sum(axis=0)
    Ztdy = b_all.sum(axis=0)
    s = np.linalg.svd(ZtW, compute_uv=False)
    weak = bool(s[-1] < 1e-8 * max(s[0], np.finfo(float).tiny))
    try:
        beta_full = np.linalg.solve(ZtW, Ztdy)
    except np.linalg.LinAlgError:
        raise EstimationError("first-stage moment matrix is exactly singular") from None
    Abar = ZtW / n_contrib
    keep = k - (1 if detrend else 0)
    m = b_all - A_all @ beta_full
    try:
        psi_rows = np.linalg.solve(Abar, m.T).T[:, :keep]
    except np.linalg.LinAlgError:
        raise EstimationError("first-stage moment matrix is exactly singular") from None
    psi = {uid: psi_rows[i] for i, uid in enumerate(uids)}
    return AhEstimate(
        beta=beta_full[:keep],
        intercept=float(beta_full[-1]) if detrend else None,
        psi=psi,
        weak=weak,
        n_units=n_contrib,
        n_obs=n_rows,
        covariate_names=tuple(covariates),
    )


def model_based_fat(panel: PanelData, mb: MbConfig, h: int | None = None,
                    level: float = 0.95) -> FatEstimate:
    """Forecasted effect under a dynamic model with common coefficients.

    Removes the modeled part x_t' beta from each unit's window outcomes,
    fits the unit's polynomial remainder, and forecasts
    x_{target}' beta + remainder(target).  The standard error corrects for
    the estimation error of beta through the first stage's per-unit
    influence vectors; with user-supplied beta the correction is zero and
    the plain variance applies.

    With no lagged outcome, no covariates, and beta empty this reproduces
    ``fat`` residual for residual.
    """
    h = mb.h if h is None else as_integer("h", h)
    if h < 1:
        raise ConfigError("horizon h must be >= 1")
    if mb.first_stage == "user":
        beta = np.asarray(mb.beta, dtype=float)
        psi: Mapping[str, np.ndarray] = {}
    else:
        first = anderson_hsiao(panel, mb.instrument_lag, mb.detrend,
                               mb.covariates, mb.delta)
        beta, psi = first.beta, first.psi
    cov_idx = _covariate_columns(panel, mb.covariates)
    if not panel.treated_blocks:
        raise EstimationError("no treated units")
    ids, residuals, grads, dropped = _fat_residuals(
        panel.treated_blocks, mb.forecast_config(), h,
        lagged=mb.lagged_outcome, cov_idx=cov_idx, beta=beta)
    return _summarize(ids, residuals, dropped, h, level, grads, psi)


def covariate_fat_heterogeneous(panel: PanelData, config: ForecastConfig,
                                h: int | None = None,
                                covariates: Sequence[str] | None = None,
                                level: float = 0.95) -> FatEstimate:
    """Forecasted effect with unit-specific covariate coefficients.

    Each unit's window regression gains the selected covariate columns, so
    both the trend and the covariate response are estimated per unit; the
    forecast plugs in the covariates observed at the target period.  Units
    whose augmented design is rank deficient on their window are dropped.
    """
    h = config.h if h is None else as_integer("h", h)
    if h < 1:
        raise ConfigError("horizon h must be >= 1")
    names = panel.covariate_names if covariates is None else tuple(covariates)
    cov_idx = _covariate_columns(panel, names)
    if not cov_idx:
        raise ConfigError("no covariates selected")
    q = config.basis.order
    out = _PanelOrder()
    for b in panel.treated_blocks:
        try:
            i0, i1, j = _resolve(b, q, config.R, config.shrink_window,
                                 b.tau - config.delta, h)
        except _DropUnit as d:
            out.drop(b, d.reason)
            continue
        win = slice(i0, i1 + 1)
        R_i = i1 - i0 + 1
        if R_i < q + 1 + len(cov_idx):
            out.drop(b, f"window of {R_i} cannot fit {q + 1 + len(cov_idx)} parameters")
            continue
        base, hrow = _solver_design(config.basis, b.times[win].astype(float),
                                    float(b.times[j]))
        rows, residuals = [], []
        for row, (y, x) in enumerate(zip(b.outcomes, b.covariates)):
            Xc = x[win, :][:, cov_idx]
            xt = x[j, cov_idx]
            if np.isnan(Xc).any() or np.isnan(xt).any():
                out.drop(b, "incomplete covariates on the window or target", [row])
                continue
            D = np.hstack([base, Xc])
            drow = np.concatenate([hrow, xt])
            try:
                Qm, Rm = _qr(D)
            except RankDeficiencyError:
                out.drop(b, "augmented window design is rank deficient", [row])
                continue
            coef = solve_triangular(Rm, Qm.T @ y[win])
            rows.append(row)
            residuals.append(float(y[j]) - float(drow @ coef))
        out.use(b, rows, np.asarray(residuals, dtype=float), np.empty((len(rows), 0)))
    ids, residuals, _, dropped = out.result()
    return _summarize(ids, residuals, dropped, h, level)
