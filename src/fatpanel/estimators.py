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
weights depend only on the window times (and, with unit-specific
covariates, on the unit's covariates).  Every estimator, the covariate one
included, therefore works on the panel's cohort blocks (units sharing a
control flag, adoption date and time grid): one kernel resolves each
block's window, target and weights once, forecasts all of its units with
one product, and hands results back in panel order.  Units that cannot be
forecast are dropped with a stated reason, the same for a block of one
unit as for a block of thousands.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .basis import (BasisSpec, ForecastConfig, _qr, _solve_upper, _solver_design,
                    as_count, as_integer, forecast_weights)
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
        Periods past the adoption date.
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
    coefficients.  ``psi`` is an ``(n_units, k)`` array of influence
    vectors, row i for the contributing unit at panel position
    ``positions[i]`` (increasing): the estimation error of ``beta`` is their
    average, so the model-based variance correction gathers them by
    position.  ``covariate_names``, ``instrument_lag`` and ``detrend`` are
    the fit's settings and ``panel`` the panel it was fitted on;
    ``model_based_fat`` checks the panel and the covariates against its own
    when given the fit as ``first``.
    """

    beta: np.ndarray
    intercept: float | None
    psi: np.ndarray
    positions: np.ndarray
    weak: bool
    n_units: int
    n_obs: int
    covariate_names: tuple[str, ...]
    instrument_lag: int
    detrend: bool
    panel: PanelData = field(repr=False, compare=False)

    @property
    def rho(self) -> float:
        return float(self.beta[0])


@dataclass(frozen=True)
class MbConfig:
    """Settings for the model-based estimator.

    Parameters
    ----------
    q, R : as in ``ForecastConfig``
        Polynomial order and window length.  With
        ``lagged_outcome``, ``R="all"`` takes each unit's contiguous
        pre-treatment run less its first period, whose outcome is the
        window's first lag.
    lagged_outcome : bool
        Include the one-period-lagged outcome in the dynamic model.
    covariates : tuple of str
        Panel covariate columns entering the model with common
        coefficients.
    beta : tuple of float, optional
        Known common coefficients, lagged outcome first; the plain variance
        applies.  None (the default) fits them with ``anderson_hsiao``, which
        needs ``lagged_outcome``, and corrects the variance for the fit.
    """

    q: int = 1
    R: int | str = "all"
    lagged_outcome: bool = True
    covariates: tuple[str, ...] = ()
    beta: tuple[float, ...] | None = None

    def __post_init__(self):
        self.forecast_config()  # refuses bad q and R
        object.__setattr__(self, "covariates", tuple(self.covariates))
        k = int(self.lagged_outcome) + len(self.covariates)
        if self.beta is not None:
            if len(self.beta) != k:
                raise ConfigError(f"known beta needs length {k}, got {len(self.beta)}")
            object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        elif not self.lagged_outcome:
            raise ConfigError(
                "the built-in first stage estimates the lagged-outcome "
                "model; pass a known beta otherwise"
            )

    def forecast_config(self) -> ForecastConfig:
        """Window settings of the polynomial remainder fit."""
        return ForecastConfig(q=self.q, R=self.R)


# ---------------------------------------------------------------------------
# variance helpers


def fat_variance(residuals) -> float:
    """Standard error of the residual mean: sqrt of (1/n) sample variance / n."""
    u = np.asarray(residuals, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ConfigError("residuals must be a 1-D array of at least two")
    return float(_se(u, _fsum(u) / u.size))


def _fsum(a: np.ndarray) -> float:
    return math.fsum(a.tolist())


def _se(u: np.ndarray, mean, total=_fsum):
    """sqrt of the (1/n) variance of ``u`` about ``mean``, over n: along the
    last axis, with sums taken by ``total``."""
    n = u.shape[-1]
    return np.sqrt(total((u - np.expand_dims(mean, -1)) ** 2) / n / n)


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


# Typed, so a float32 level keeps its own quantile: Cephes works in double,
# and a float32 or float16 probability gets its quantile rounded to float32.
@functools.lru_cache(maxsize=32, typed=True)
def _normal_quantile(level: float) -> float:
    p = 0.5 * (1.0 + level)
    z = _ndtri(float(p))
    return float(np.float32(z)) if isinstance(p, (np.float16, np.float32)) else z


# Cephes ``ndtri``: rational approximations in y - 0.5 near the centre and
# in 1/sqrt(-2 log y) in the tails.  Each denominator's leading 1 is written
# out; 1.0 * x is exact, so this is Cephes' ``p1evl``.
_NDTRI_CENTRE = (
    (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
     1.39312609387279679503E1, -1.23916583867381258016E0),
    (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
     -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
     1.59056225126211695515E1, -1.18331621121330003142E0))
_NDTRI_TAIL = (
    (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
     4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
    (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
     1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4))
_NDTRI_FAR_TAIL = (
    (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
     1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9),
    (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
     2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9))
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coefficients) -> float:
    """Polynomial at ``x`` by Horner's rule, highest degree first."""
    return functools.reduce(lambda value, c: value * x + c, coefficients)


def _ndtri(p: float) -> float:
    """Standard normal quantile of probability ``p``, as Cephes computes it."""
    if not 0.0 < p < 1.0:
        return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        P, Q = _NDTRI_CENTRE
        x = y + y * (y2 * _polevl(y2, P) / _polevl(y2, Q))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    P, Q = _NDTRI_TAIL if x < 8.0 else _NDTRI_FAR_TAIL
    x = x - math.log(x) / x - z * _polevl(z, P) / _polevl(z, Q)
    return x if upper else -x


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


def _weights(basis: BasisSpec, window: np.ndarray, h: int) -> np.ndarray:
    """Forecast weights for a contiguous window, ``h`` periods past its end."""
    if basis.family == "custom":
        return forecast_weights(basis, window, window[-1] + h).weights
    start = int(window[0]) if basis.family == "fourier" else 0
    return _cached_weights(basis, window.size, h, start)


# Polynomial weights depend only on the window length and the horizon (the
# Legendre map of an integer window is exact, so any start gives the same
# bits), Fourier weights also on the window's phase.  Kept for the life of
# the process and shared by every caller, so they are read-only.
@functools.lru_cache(maxsize=1024)
def _cached_weights(basis: BasisSpec, R: int, h: int, start: int) -> np.ndarray:
    w = forecast_weights(basis, np.arange(start, start + R), start + R - 1 + h).weights
    w.flags.writeable = False
    return w


class _Residuals(NamedTuple):
    """Kernel output in panel order; ``grads`` row i is the derivative of
    unit i's forecast in the model coefficients.  ``residuals`` and
    ``grads`` carry the leading replication axes of their outcomes."""

    positions: np.ndarray
    ids: np.ndarray
    residuals: np.ndarray
    grads: np.ndarray
    dropped: tuple


def _unit_weights(basis: BasisSpec, block: CohortBlock, rows: np.ndarray, win: slice,
                  j: int, cov_idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Which of the units ``rows`` have a rank-deficient design [basis,
    covariates ``cov_idx``] on the window ``win``, and the (n_ok, R) forecast
    weights c_i = Q_i R_i^{-T} d_i of the others, d_i being the design's row
    at the target ``j``: one stacked QR for the block."""
    base, hrow = _solver_design(basis, block.times[win].astype(float),
                                float(block.times[j]))
    X = block.covariates[rows][:, :, cov_idx]
    n = len(rows)
    D = np.concatenate([np.broadcast_to(base, (n,) + base.shape), X[:, win]], axis=2)
    d = np.concatenate([np.broadcast_to(hrow, (n, hrow.size)), X[:, j]], axis=1)
    Q, Rm, deficient = _qr(D)
    ok = ~deficient
    return deficient, (Q[ok] @ _solve_upper(Rm[ok], d[ok])[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the residual kernel


def _kernel(blocks: Sequence[CohortBlock], config: ForecastConfig, h: int,
            tau_shift: int = 0, lagged: bool = False, cov_idx: Sequence[int] = (),
            het: bool = False):
    """The residual kernel for ``blocks``, split where the outcomes enter.

    Resolves each block's window, target, weights (from a per-process
    memo) and drops once, and returns ``apply(beta=(), outcomes=None)``:
    the residuals y(tau - tau_shift + h) - forecast of the units used, in panel
    order, each block's from one product over its outcome rows,
    ``Y[..., j] - (Y[..., win] - X beta) @ w - x_j' beta``, where the model
    columns X stack the ``lagged`` outcome and the covariates ``cov_idx``
    (without a model, ``Y[..., j] - Y[..., win] @ w``).  ``outcomes[k]``
    stands in for the outcomes of ``blocks[k]``; it and ``beta`` may carry
    leading replication axes.  With ``lagged``, ``R="all"`` leaves the
    run's first period to serve as the window's first lag.

    With ``het`` the covariates enter each unit's window regression
    instead, with unit-specific coefficients: there is no model, and each
    unit has its own weights (``_unit_weights``).
    """
    if not blocks:
        raise EstimationError("no units to estimate on")
    q = config.basis.order
    p = q + 1 + len(cov_idx)
    parts, dropped = [], []
    for k, b in enumerate(blocks):
        try:
            i0, i1, j = _resolve(b, q, config.R, config.shrink_window,
                                 b.tau - tau_shift, h, lead=int(lagged))
            if lagged and (i0 == 0 or b.times[i0 - 1] != b.times[i0] - 1
                           or b.times[j - 1] != b.times[j] - 1):
                raise _DropUnit("lagged outcome missing for the window or target")
            if het and i1 - i0 + 1 < p:
                raise _DropUnit(f"window of {i1 - i0 + 1} cannot fit {p} parameters")
        except _DropUnit as d:
            dropped.append((b, slice(None), d.reason))
            continue
        rows = slice(None)
        if cov_idx:
            X = b.covariates[:, :, cov_idx]
            bad = (np.isnan(X[:, i0:i1 + 1]).any(axis=(1, 2))
                   | np.isnan(X[:, j]).any(axis=1))
            dropped.append((b, bad, "incomplete covariates on the window or target"))
            rows = np.flatnonzero(~bad)
            if not rows.size:
                continue
        if het:
            deficient, w = _unit_weights(config.basis, b, rows, slice(i0, i1 + 1), j,
                                         cov_idx)
            dropped.append((b, rows[deficient], "augmented window design is rank deficient"))
            rows = rows[~deficient]
            if not rows.size:
                continue
        else:
            try:
                w = _weights(config.basis, b.times[i0:i1 + 1], h)
            except RankDeficiencyError:
                dropped.append((b, rows, "window design is rank deficient"))
                continue
        parts.append((k, rows, i0, i1, j, w))

    used = [(blocks[k], rows) for k, rows, *_ in parts]
    positions = np.concatenate([np.empty(0, dtype=int)] + [b.positions[r] for b, r in used])
    order = np.argsort(positions)
    ids = np.concatenate([np.empty(0, dtype=object)] + [b.unit_ids[r] for b, r in used])
    dropped = tuple((u, r) for _, u, r in sorted(
        (at, u, r) for b, rows, r in dropped
        for at, u in zip(b.positions[rows], b.unit_ids[rows])))
    model_cov = () if het else cov_idx

    def apply(beta=(), outcomes=None) -> _Residuals:
        beta = np.asarray(beta, dtype=float)
        coef = [beta[..., c, None] for c in range(beta.shape[-1])]
        residuals, grads = [], []
        for k, rows, i0, i1, j, w in parts:
            b = blocks[k]
            Y = (b.outcomes if outcomes is None else outcomes[k])[..., rows, :]
            terms = [(Y[..., i0 - 1:i1], Y[..., j - 1])] if lagged else []
            terms += [(b.covariates[rows, i0:i1 + 1, c], b.covariates[rows, j, c])
                      for c in model_cov]
            modeled = sum(bk[..., None] * Xw for bk, (Xw, _) in zip(coef, terms))
            Ywin = Y[..., i0:i1 + 1] - modeled
            forecast = (sum(bk * xt for bk, (_, xt) in zip(coef, terms))
                        + (Ywin @ w if w.ndim == 1 else (Ywin * w).sum(axis=-1)))
            g = np.empty(Y.shape[:-1] + (len(terms),))
            for c, (Xw, xt) in enumerate(terms):
                g[..., c] = xt - Xw @ w
            residuals.append(Y[..., j] - forecast)
            grads.append(g)
        return _Residuals(positions[order], ids[order],
                          np.concatenate(residuals or [np.empty(0)], axis=-1)[..., order],
                          np.concatenate(grads or [np.empty((0, 0))], axis=-2)[..., order, :],
                          dropped)
    return apply


def _point_se(res: _Residuals, first=None, total=_fsum):
    """Point estimate and standard error, per replication when ``res``
    carries a leading axis, with sums taken by ``total`` over the last.

    With a fitted first stage, ``first`` = (influence vectors, their panel
    positions), each residual is recentred by (mean gradient) @ (its
    influence vector; zero for a unit the fit did not use).  Fewer than two
    units give no standard error, so no interval: ``EstimationError``.
    """
    n = res.residuals.shape[-1]
    if n < 2:
        detail = "; ".join(f"{u}: {r}" for u, r in res.dropped[:3])
        raise EstimationError(f"no usable units ({detail})" if n == 0 else
                              f"only one usable unit ({res.ids[0]}); a standard "
                              "error needs at least two")
    point = total(res.residuals) / n
    if first is None:
        return point, _se(res.residuals, point, total)
    psi, at = first
    full = np.zeros(psi.shape[:-2] + (max(at[-1], res.positions[-1]) + 1, psi.shape[-1]))
    full[..., at, :] = psi
    gbar = res.grads.mean(axis=-2)[..., None]
    u = res.residuals - (full[..., res.positions, :] @ gbar)[..., 0]
    return point, _se(u, total(u) / n, total)


def _summarize(res: _Residuals, h, level, first: AhEstimate | None = None) -> FatEstimate:
    """``FatEstimate`` of one panel's residuals, summed exactly."""
    point, se = map(float, _point_se(res, first and (first.psi, first.positions)))
    return FatEstimate(
        horizon=h, point=point, se=se, ci=_interval(point, se, level),
        level=level, n_used=len(res.ids), unit_ids=tuple(res.ids), residuals=res.residuals,
        dropped=res.dropped,
    )


# ---------------------------------------------------------------------------
# public estimators


def fat(panel: PanelData, config: ForecastConfig, h: int = 1,
        level: float = 0.95) -> FatEstimate:
    """Forecasted average treatment effect at horizon ``h``.

    For each treated unit, fits the basis regression on the window of
    ``config.R`` pre-treatment periods ending at the unit's adoption
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
        Basis and window length settings.
    h : int
        Forecast horizon, an integer >= 1.
    level : float
        Confidence level for the normal interval.

    Returns
    -------
    FatEstimate
    """
    h = as_count("h", h, 1)
    return _summarize(_kernel(panel.treated_blocks, config, h)(), h, level)


def placebo_fat(panel: PanelData, config: ForecastConfig, lag: int,
                h: int = 1, level: float = 0.95) -> FatEstimate:
    """Forecasted effect computed as if adoption happened ``lag`` periods early.

    With ``lag >= h`` the target period is still untreated, so the estimand
    is zero and the estimate diagnoses forecast bias.  ``lag=0`` reproduces
    ``fat`` exactly.
    """
    lag = as_count("lag", lag, 0)
    h = as_count("h", h, 1)
    return _summarize(_kernel(panel.treated_blocks, config, h, tau_shift=lag)(),
                      h, level)


def dfat(panel: PanelData, config: ForecastConfig, h: int = 1,
         config_control: ForecastConfig | None = None,
         level: float = 0.95) -> DfatEstimate:
    """Treated-minus-control difference of forecasted effects.

    Controls are forecast from their own pre-period histories using their
    recorded cohort date, so any shock common to both groups after adoption
    cancels from the difference.  The two groups may use different window
    settings via ``config_control``.
    """
    h = as_count("h", h, 1)
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
    t = _kernel(treated, config, h)()
    c = _kernel(controls, cc, h)()
    est_t = _summarize(t, h, level)
    est_c = _summarize(c._replace(dropped=c.dropped + skipped), h, level)
    point = est_t.point - est_c.point
    se = math.hypot(est_t.se, est_c.se)
    return DfatEstimate(
        horizon=h, point=point, se=se, ci=_interval(point, se, level),
        level=level, treated=est_t, control=est_c,
    )


def _ah_moments(block: CohortBlock, Y: np.ndarray, lag: int, detrend: bool,
                cov_idx: list[int]):
    """Moment blocks A_i = Z'W and b_i = Z'dy of every unit in ``block``,
    whose outcomes ``Y`` may carry leading replication axes.

    Period t <= the block's ``tau`` gives a moment row when t-1, t-2 and t-lag are
    observed; with covariates, only for the units whose covariates at t
    and t-1 are complete.  Rows are accumulated in time order.  Returns
    (A, b, rows) with shapes (..., n, k, k), (..., n, k) and (n,).
    """
    times = block.times
    t = times[times <= block.tau]
    at = [np.searchsorted(times, t - d) for d in (1, 2, lag)]
    valid = np.logical_and.reduce([times[i] == t - d for i, d in zip(at, (1, 2, lag))])
    js = np.flatnonzero(valid)
    i1, i2, il = (i[valid] for i in at)
    dy = Y[..., js] - Y[..., i1]
    W = [Y[..., i1] - Y[..., i2]]
    Z = [Y[..., il]]
    rows = np.ones(dy.shape[-2:], dtype=bool)
    if cov_idx:
        x_t = block.covariates[:, js][:, :, cov_idx]
        x_1 = block.covariates[:, i1][:, :, cov_idx]
        rows = ~(np.isnan(x_t).any(axis=2) | np.isnan(x_1).any(axis=2))
        W += list(np.moveaxis(x_t - x_1, 2, 0))
        Z += list(np.moveaxis(x_1, 2, 0))
    if detrend:
        W.append(np.ones(rows.shape))
        Z.append(np.ones(rows.shape))
    # Rows a unit lacks add exact zeros, leaving its sums as if skipped.
    for x in W + Z:
        x[..., ~rows] = 0.0
    A = np.zeros(dy.shape[:-1] + (len(W), len(W)))
    b = np.zeros(dy.shape[:-1] + (len(W),))
    for j in range(js.size):
        for a, z in enumerate(Z):
            b[..., a] += z[..., j] * dy[..., j]
            for c, w in enumerate(W):
                A[..., a, c] += z[..., j] * w[..., j]
    return A, b, rows.sum(axis=1)


def _covariate_columns(panel: PanelData, names: Sequence[str]) -> list[int]:
    unknown = [c for c in names if c not in panel.covariate_names]
    if unknown:
        raise ConfigError(f"unknown covariates {unknown}; the panel has "
                          f"{list(panel.covariate_names)}")
    repeated = sorted({c for c in names if list(names).count(c) > 1})
    if repeated:
        raise ConfigError(f"covariates {repeated} are named more than once")
    return [panel.covariate_names.index(c) for c in names]


def _ah_settings(instrument_lag, detrend) -> tuple[int, bool]:
    """The checked instrument lag, and ``detrend`` with None resolved to
    ``instrument_lag == 3``."""
    lag = as_integer("instrument_lag", instrument_lag, "2 or 3")
    if lag not in (2, 3):
        raise ConfigError(f"instrument_lag must be 2 or 3, got {instrument_lag!r}")
    if detrend is None:
        return lag, lag == 3
    if not isinstance(detrend, bool):
        raise ConfigError(f"detrend must be true, false or None, got {detrend!r}")
    return lag, detrend


def anderson_hsiao(panel: PanelData, instrument_lag: int = 3,
                   detrend: bool | None = None,
                   covariates: Sequence[str] = ()) -> AhEstimate:
    """Instrumented first-difference fit of the dynamic outcome model.

    Differences the model y_t = rho * y_{t-1} + x_t' theta + (unit trend)
    and instruments the differenced lagged outcome with the level outcome
    ``instrument_lag`` (2 or 3) periods back, pooling all pre-treatment
    observations of treated units.  With ``detrend`` an intercept enters the
    differenced equation (absorbing a linear trend in levels) and joins the
    instrument set; None, the default, detrends exactly when
    ``instrument_lag`` is 3 (a trend-robust instrument choice).  Covariates
    enter differenced, instrumented by their first lag.

    A nearly singular first stage is flagged as ``weak`` but still solved,
    since weak-instrument noise is informative in itself.

    Returns
    -------
    AhEstimate
        Coefficients, optional intercept, and the influence vectors of the
        contributing units with their panel positions.
    """
    instrument_lag, detrend = _ah_settings(instrument_lag, detrend)
    beta, intercept, psi, contrib, weak, n_obs = _ah_fit(
        panel, None, instrument_lag, detrend, _covariate_columns(panel, covariates))
    return AhEstimate(
        beta=beta,
        intercept=float(intercept[0]) if detrend else None,
        psi=psi,
        positions=contrib,
        weak=bool(weak),
        n_units=contrib.size,
        n_obs=n_obs,
        covariate_names=tuple(covariates),
        instrument_lag=instrument_lag,
        detrend=detrend,
        panel=panel,
    )


def _ah_fit(panel: PanelData, outcomes, instrument_lag: int, detrend: bool,
            cov_idx: list[int]) -> tuple:
    """``anderson_hsiao`` on ``panel``, or on ``outcomes`` standing in for
    its treated blocks' with leading replication axes: the coefficients,
    the intercept (empty without ``detrend``), the influence vectors of the
    contributing units, their positions, the weak flags and the moment-row
    count.  A replication whose moment matrix is exactly singular gets NaN
    coefficients and influence vectors."""
    blocks = panel.treated_blocks
    if not blocks:
        raise EstimationError("no treated units")
    outcomes = [b.outcomes for b in blocks] if outcomes is None else outcomes
    k = 1 + len(cov_idx) + (1 if detrend else 0)
    lead = outcomes[0].shape[:-2]
    A_all = np.zeros(lead + (len(panel), k, k))
    b_all = np.zeros(lead + (len(panel), k))
    rows = np.zeros(len(panel), dtype=int)
    for block, Y in zip(blocks, outcomes):
        at = block.positions
        A_all[..., at, :, :], b_all[..., at, :], rows[at] = _ah_moments(
            block, Y, instrument_lag, detrend, cov_idx)
    contrib = np.flatnonzero(rows)
    if not contrib.size:
        raise EstimationError(
            f"no unit has enough history for instrument lag {instrument_lag}"
        )
    A_all = A_all[..., contrib, :, :]
    b_all = b_all[..., contrib, :]

    ZtW = A_all.sum(axis=-3)
    Ztdy = b_all.sum(axis=-2)
    s = np.linalg.svd(ZtW, compute_uv=False)
    weak = s[..., -1] < 1e-8 * np.maximum(s[..., 0], np.finfo(float).tiny)
    beta = _solve(ZtW, Ztdy[..., None])[..., 0]
    keep = k - (1 if detrend else 0)
    m = b_all - (A_all @ beta[..., None, :, None])[..., 0]
    psi = _solve(ZtW / contrib.size, m.swapaxes(-1, -2)).swapaxes(-1, -2)[..., :keep]
    return beta[..., :keep], beta[..., keep:], psi, contrib, weak, int(rows.sum())


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over leading replication axes, where an exactly
    singular matrix gives NaN; a lone one raises ``EstimationError``."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        if A.ndim == 2:
            raise EstimationError("first-stage moment matrix is exactly singular") from None
    solved = np.full(b.shape, np.nan)
    for r, (a, y) in enumerate(zip(A, b)):
        with contextlib.suppress(np.linalg.LinAlgError):
            solved[r] = np.linalg.solve(a, y)
    return solved


def model_based_fat(panel: PanelData, mb: MbConfig, h: int = 1,
                    level: float = 0.95, first: AhEstimate | None = None) -> FatEstimate:
    """Forecasted effect under a dynamic model with common coefficients.

    Removes the modeled part x_t' beta from each unit's window outcomes,
    fits the unit's polynomial remainder, and forecasts
    x_{target}' beta + remainder(target).  The standard error corrects for
    the estimation error of beta through the first stage's per-unit
    influence vectors; with a known ``mb.beta`` the correction is zero and
    the plain variance applies.

    ``first``, an ``anderson_hsiao`` fit of ``panel`` with ``mb``'s
    covariates, lets callers share one fit and choose its instrument lag
    and detrending; when omitted, the fit at ``anderson_hsiao``'s defaults
    is made here.  One of another panel object or with other covariates,
    or beside a known beta, is refused.

    With no lagged outcome, no covariates, and beta empty this reproduces
    ``fat`` residual for residual.
    """
    h = as_count("h", h, 1)
    if first is None:
        if mb.beta is None:
            first = anderson_hsiao(panel, covariates=mb.covariates)
    elif mb.beta is not None:
        raise ConfigError("a known beta takes no fitted first stage")
    elif first.panel is not panel:
        raise ConfigError("the first stage was fitted on another panel")
    elif first.covariate_names != mb.covariates:
        raise ConfigError("the first stage was fitted with other covariates than mb")
    beta = np.asarray(mb.beta, dtype=float) if first is None else first.beta
    cov_idx = _covariate_columns(panel, mb.covariates)
    if not panel.treated_blocks:
        raise EstimationError("no treated units")
    res = _kernel(panel.treated_blocks, mb.forecast_config(), h,
                  lagged=mb.lagged_outcome, cov_idx=cov_idx)(beta)
    return _summarize(res, h, level, first)


def covariate_fat_heterogeneous(panel: PanelData, config: ForecastConfig,
                                h: int = 1,
                                covariates: Sequence[str] | None = None,
                                level: float = 0.95) -> FatEstimate:
    """Forecasted effect with unit-specific covariate coefficients.

    Each unit's window regression gains the selected covariate columns, so
    both the trend and the covariate response are estimated per unit; the
    forecast plugs in the covariates observed at the target period.  Units
    whose augmented design is rank deficient on their window are dropped.
    """
    h = as_count("h", h, 1)
    names = panel.covariate_names if covariates is None else tuple(covariates)
    cov_idx = _covariate_columns(panel, names)
    if not cov_idx:
        raise ConfigError("no covariates selected")
    return _summarize(_kernel(panel.treated_blocks, config, h, cov_idx=cov_idx, het=True)(),
                      h, level)
