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
        Average of per-unit forecast residuals (``_mean``).
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
    u = _finite("residuals", residuals)
    if u.ndim != 1 or u.size < 2:
        raise ConfigError("residuals must be a 1-D array of at least two")
    return float(_se(u))


def _finite(name: str, values) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must be finite")
    return a


def _mean(a: np.ndarray):
    """The mean over the last axis, the units: the one sum over units, on a
    contiguous axis so that its bits do not depend on the axes in front."""
    return np.add.reduce(np.ascontiguousarray(a), axis=-1) / a.shape[-1]


def _se(u: np.ndarray):
    """sqrt of the (1/n) variance of ``u`` over the last axis, over n; where
    the mean or the squares overflow, ``_rescaled``, so no other input changes a bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = u - _mean(u)[..., None]
        se = np.sqrt(_mean(d ** 2) / u.shape[-1])
    return se if np.isfinite(se).all() else _rescaled(_se, u, se)


def _rescaled(f, u: np.ndarray, value):
    """``value``, ``f(u)``, made again as 2^e f(u / 2^e), 2^e above the
    largest |u|, where it is not finite but ``u`` is: nothing overflows
    below 1.  Deviations, unlike ``u``, are infinite once a mean overflows."""
    top = np.abs(u).max(axis=-1)
    redo = ~np.isfinite(value) & np.isfinite(top)
    if not redo.any():
        return value
    e = np.frexp(top)[1]
    return np.where(redo, np.ldexp(f(np.ldexp(u, -e[..., None])), e), value)


def mb_variance(residuals, gradients, psi) -> float:
    """Standard error accounting for first-stage estimation error.

    Each residual is recentred by (mean forecast gradient) @ (unit influence
    vector) before the plain variance formula is applied: units that moved
    the first-stage coefficients have that feedback removed.  ``gradients``
    and ``psi`` are (n, k); a 1-D pair is one coefficient's, (n, 1).
    """
    u = _finite("residuals", residuals)
    G, P = (_finite(name, a) for name, a in (("gradients", gradients), ("psi", psi)))
    G, P = (a[:, None] if a.ndim == 1 else a for a in (G, P))  # one coefficient
    if G.ndim != 2 or G.shape[0] != u.size or P.shape != G.shape:
        raise ConfigError("residuals, gradients, and psi must align")
    return fat_variance(u - (P * _mean(G.T)).sum(axis=-1))


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
    if not isinstance(level, (float, np.floating)) or not 0.0 < level < 1.0:
        raise ConfigError(f"confidence level must be in (0, 1), got {level!r}")
    z = _normal_quantile(level)
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
    start = 0 if basis.family == "polynomial" else int(window[0])
    return _cached_weights(basis, window.size, h, start)


# Polynomial weights depend only on the window length and the horizon (the
# Legendre map of an integer window is exact, so any start gives the same
# bits), Fourier and custom weights also on the window's start.  Kept for the
# life of the process and shared by every caller, so they are read-only.
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


def _contrast(Y: np.ndarray, columns) -> np.ndarray:
    """The products of the outcome rows ``Y`` (..., n, T) with the contrast
    ``columns``, as an (m, ..., n) array.  A column (j, i0, w) is the
    contrast e_j - w on the window of ``len(w)`` periods starting at
    period index ``i0``, giving Y[..., j] - Y[..., window] @ w; per unit,
    ``w`` is an (n, R) array of each unit's weights.

    Each column is its own matrix-vector product, so its bits depend on
    that column and the unit's row alone, not on the columns beside it or
    the replications stacked with it: a Monte Carlo chunk's residuals are,
    replication by replication, the single-panel estimators' bits, and a
    lagged kernel's residual column is the plain kernel's of its window.
    (One matrix product over the columns does not keep that: BLAS rounds a
    column differently as the number of columns beside it changes.)"""
    P = np.empty((len(columns),) + Y.shape[:-1])
    for k, (j, i0, w) in enumerate(columns):
        window = Y[..., i0:i0 + w.shape[-1]]
        np.subtract(Y[..., j], window @ w if w.ndim == 1 else (window * w).sum(axis=-1),
                    out=P[k])
    return P


class _Part(NamedTuple):
    """A used block of a kernel layout: its index among the kernel's
    blocks, the block rows used, its contrast columns (``_contrast``; the
    residual's first, then with the lagged outcome that outcome's
    gradient) and the (n_rows, n_model_covariates) covariate gradients
    x_j - X_win w, which no outcome enters."""

    block: int
    rows: object
    columns: tuple
    cov_grads: np.ndarray


class _Layout(NamedTuple):
    """A kernel resolved on its blocks: the used ``parts``, the units'
    panel ``positions`` and ``ids`` in panel order, the permutation
    ``order`` from part order to panel order (None when they agree), and
    the ``dropped`` units."""

    blocks: Sequence[CohortBlock]
    parts: tuple
    positions: np.ndarray
    ids: np.ndarray
    order: np.ndarray | None
    dropped: tuple

    def products(self, outcomes=None) -> list:
        """Each used block's contrast products with its own columns, one
        ``_contrast`` call a block over its outcome rows; ``outcomes[k]``
        stands in for those of ``blocks[k]`` and may carry leading
        replication axes."""
        return [_contrast((self.blocks[p.block].outcomes if outcomes is None
                           else outcomes[p.block])[..., p.rows, :], p.columns)
                for p in self.parts]

    def apply(self, beta=(), outcomes=None) -> _Residuals:
        """The residuals on ``outcomes``: ``finish(products(outcomes), beta)``."""
        return self.finish(self.products(outcomes), beta)

    def finish(self, products, beta=()) -> _Residuals:
        """The residuals from each part's contrast products, one (..., n_rows)
        array per column: the first column less grads @ ``beta``, where the
        gradients stack the other columns and the covariate gradients."""
        beta = np.asarray(beta, dtype=float)
        residuals, grads = [], []
        for p, (first, *rest) in zip(self.parts, products):
            g = np.stack(rest, axis=-1) if rest else np.empty(first.shape + (0,))
            if p.cov_grads.shape[-1]:
                g = np.concatenate([g, np.broadcast_to(
                    p.cov_grads, g.shape[:-1] + p.cov_grads.shape[-1:])], axis=-1)
            residuals.append(first - (g * beta[..., None, :]).sum(axis=-1) if g.shape[-1]
                             else first)
            grads.append(g)
        if not residuals:
            residuals, grads = [np.empty(0)], [np.empty((0, 0))]
        return _Residuals(self.positions, self.ids, _in_order(residuals, self.order, -1),
                          _in_order(grads, self.order, -2), self.dropped)


def _in_order(arrays: list, order, axis: int) -> np.ndarray:
    """The parts' ``arrays`` joined along the unit ``axis`` and put in
    panel ``order`` (None when they already are)."""
    joined = arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)
    return joined if order is None else np.take(joined, order, axis=axis)


def _kernel(blocks: Sequence[CohortBlock], config: ForecastConfig, h: int,
            tau_shift: int = 0, lagged: bool = False, cov_idx: Sequence[int] = (),
            het: bool = False) -> _Layout:
    """The residual kernel for ``blocks``, laid out before any outcome is read.

    Resolves each block's window, target, weights (from a per-process
    memo) and drops once.  A residual y(tau - tau_shift + h) - forecast is
    a fixed linear contrast of the unit's outcome row, so each used block
    gets its contrast columns here: e_j - w on the window, and with the
    ``lagged`` outcome e_{j-1} - w on the window shifted back one period,
    the gradient y_{j-1} - w'y_{win-1}.  The model's covariates ``cov_idx``
    enter through their gradients x_j - X_win w, built here too.  The
    returned layout's ``products(outcomes=None)`` makes one product per
    used block, and its ``finish(products, beta=())`` gives the residuals
    of the units used, in panel order: the first column less
    grads @ beta, which is
    ``Y[..., j] - (Y[..., win] - X beta) @ w - x_j' beta``.  With
    ``lagged``, ``R="all"`` leaves the run's first period to serve as the
    window's first lag.

    With ``het`` the covariates enter each unit's window regression
    instead, with unit-specific coefficients: there is no model, and each
    unit has its own weights (``_unit_weights``), so its own contrast row.
    """
    if not blocks:
        raise EstimationError("no units to estimate on")
    q = config.basis.order
    p = q + 1 + len(cov_idx)
    model_cov = () if het else cov_idx
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
        columns = ((j, i0, w),) + (((j - 1, i0 - 1, w),) if lagged else ())
        cov_grads = np.stack([b.covariates[rows, j, c] - b.covariates[rows, i0:i1 + 1, c] @ w
                              for c in model_cov], axis=-1) if model_cov else np.empty((0, 0))
        parts.append(_Part(k, rows, columns, cov_grads))

    used = [(blocks[p.block], p.rows) for p in parts]
    positions = np.concatenate([np.empty(0, dtype=int)] + [b.positions[r] for b, r in used])
    ids = np.concatenate([np.empty(0, dtype=object)] + [b.unit_ids[r] for b, r in used])
    order = None if np.all(positions[:-1] < positions[1:]) else np.argsort(positions)
    if order is not None:
        positions, ids = positions[order], ids[order]
    dropped = tuple((u, r) for _, u, r in sorted(
        (at, u, r) for b, rows, r in dropped
        for at, u in zip(b.positions[rows], b.unit_ids[rows])))
    return _Layout(blocks, tuple(parts), positions, ids, order, dropped)


def _aligned(psi: np.ndarray, at: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The influence vectors ``psi`` of the units at the increasing panel
    positions ``at``, gathered for the units at ``positions``: zero for a
    unit the first stage did not use; ``psi`` itself when the units agree."""
    if np.array_equal(at, positions):
        return psi
    i = np.minimum(np.searchsorted(at, positions), at.size - 1)
    return np.where((at[i] == positions)[:, None], psi[..., i, :], 0.0)


def _point_se(res: _Residuals, psi=None):
    """Point estimate and standard error, per replication when ``res``
    carries a leading axis.

    With a fitted first stage, ``psi`` holds the influence vectors of the
    units of ``res`` (``_aligned``), and each residual is recentred by
    (mean gradient) @ (its influence vector).  Fewer than two units give
    no standard error, so no interval: ``EstimationError``.
    """
    n = res.residuals.shape[-1]
    if n < 2:
        detail = "; ".join(f"{u}: {r}" for u, r in res.dropped[:3])
        raise EstimationError(f"no usable units ({detail})" if n == 0 else
                              f"only one usable unit ({res.ids[0]}); a standard "
                              "error needs at least two")
    u = res.residuals
    if psi is not None:
        u = u - (psi * _mean(res.grads.swapaxes(-1, -2))[..., None, :]).sum(axis=-1)
    with np.errstate(over="ignore"):  # the sum may overflow; then the mean is made again
        point = _mean(res.residuals)
    if np.isinf(point).any():  # a mean of finite doubles is finite: the sum overflowed
        point = _rescaled(_mean, res.residuals, point)
    return point, _se(u)


def _summarize(res: _Residuals, h, level, first: AhEstimate | None = None) -> FatEstimate:
    """``FatEstimate`` of one panel's residuals."""
    psi = first and _aligned(first.psi, first.positions, res.positions)
    point, se = map(float, _point_se(res, psi))
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
    return _summarize(_kernel(panel.treated_blocks, config, h).apply(), h, level)


def placebo_fat(panel: PanelData, config: ForecastConfig, lag: int,
                h: int = 1, level: float = 0.95) -> FatEstimate:
    """Forecasted effect computed as if adoption happened ``lag`` periods early.

    With ``lag >= h`` the target period is still untreated, so the estimand
    is zero and the estimate diagnoses forecast bias.  ``lag=0`` reproduces
    ``fat`` exactly.
    """
    lag = as_count("lag", lag, 0)
    h = as_count("h", h, 1)
    return _summarize(_kernel(panel.treated_blocks, config, h, tau_shift=lag).apply(),
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
    t = _kernel(treated, config, h).apply()
    c = _kernel(controls, cc, h).apply()
    est_t = _summarize(t, h, level)
    est_c = _summarize(c._replace(dropped=c.dropped + skipped), h, level)
    point = est_t.point - est_c.point
    se = float(np.hypot(est_t.se, est_c.se))
    return DfatEstimate(
        horizon=h, point=point, se=se, ci=_interval(point, se, level),
        level=level, treated=est_t, control=est_c,
    )


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
    since weak-instrument noise is informative in itself.  The fit is laid
    out on the panel's treated blocks first (``_ah_layout``: moment rows,
    covariate masks and contributing units) and then made on their
    outcomes, as the Monte Carlo makes it on each chunk's.

    Returns
    -------
    AhEstimate
        Coefficients, optional intercept, and the influence vectors of the
        contributing units with their panel positions.
    """
    instrument_lag, detrend = _ah_settings(instrument_lag, detrend)
    layout = _ah_layout(panel.treated_blocks, instrument_lag, detrend,
                        _covariate_columns(panel, covariates))
    beta, intercept, psi, weak = layout.fit()
    return AhEstimate(
        beta=beta,
        intercept=float(intercept[0]) if detrend else None,
        psi=psi,
        positions=layout.positions,
        weak=bool(weak),
        n_units=layout.positions.size,
        n_obs=layout.n_obs,
        covariate_names=tuple(covariates),
        instrument_lag=instrument_lag,
        detrend=detrend,
        panel=panel,
    )


class _AhLayout(NamedTuple):
    """A first stage laid out on its blocks (``_ah_layout``).  Each of the
    ``parts`` is a contributing block's (index, rows used, moment rows,
    mask, dx, x1): the outcome columns t, t-1, t-2 and t-lag of each of
    its m moment rows, (m, 4); the (m, n_rows) mask of the rows each unit
    has, None when it has all; and each row's covariate columns x_t -
    x_{t-1} of W and x_{t-1} of Z, (m, c, n_rows), zero off the mask.
    ``positions`` are the contributing units' in panel order, ``order``
    the permutation from part order to panel order (None when they
    agree), and ``n_obs`` the moment-row count."""

    blocks: Sequence[CohortBlock]
    parts: tuple
    positions: np.ndarray
    order: np.ndarray | None
    n_obs: int
    detrend: bool

    def fit(self, outcomes=None) -> tuple:
        """The coefficients, the intercept (empty without ``detrend``), the
        influence vectors of the units at ``positions`` and the weak flags,
        on the blocks' outcomes or on ``outcomes[k]`` standing in for those
        of ``blocks[k]`` with leading replication axes.  A replication whose
        moment matrix is exactly singular gets NaN beta and psi."""
        M = _in_order([_ah_moments((self.blocks[b].outcomes if outcomes is None
                                    else outcomes[b])[..., units, :], *rest, self.detrend)
                       for b, units, *rest in self.parts], self.order, -1)
        k, lead, n = M.shape[0], M.shape[2:-1], M.shape[-1]
        # In unit order: a plain sum leaves the order to the memory layout.
        S = np.moveaxis(np.cumsum(M, axis=-1)[..., -1], (0, 1), (-2, -1))
        s = np.linalg.svd(S[..., 1:], compute_uv=False)
        weak = s[..., -1] < 1e-8 * np.maximum(s[..., 0], np.finfo(float).tiny)
        beta = _solve(S[..., 1:], S[..., :1])[..., 0]
        keep = k - self.detrend
        # Every unit's A_i @ beta in one product over a contiguous
        # (..., n k, k) array: the bits of n stacked (k, k) products.
        Ab = (np.ascontiguousarray(np.moveaxis(M[:, 1:], (0, 1), (-2, -1)))
              .reshape(lead + (n * k, k)) @ beta[..., :, None])
        m = np.moveaxis(M[:, 0], 0, -1) - Ab.reshape(lead + (n, k))
        psi = _solve(S[..., 1:] / n, m.swapaxes(-1, -2)).swapaxes(-1, -2)[..., :keep]
        return beta[..., :keep], beta[..., keep:], psi, weak


def _ah_layout(blocks: Sequence[CohortBlock], lag: int, detrend: bool,
               cov_idx: Sequence[int]) -> _AhLayout:
    """The first stage of ``anderson_hsiao`` on ``blocks``, laid out before
    any outcome is read: period t <= a block's ``tau`` gives a moment row
    when t-1, t-2 and t-``lag`` are observed, and with covariates only for
    the units whose covariates at t and t-1 are complete."""
    if not blocks:
        raise EstimationError("no treated units")
    parts, n_obs = [], 0
    for k, block in enumerate(blocks):
        times = block.times
        t = times[times <= block.tau]
        at = [np.searchsorted(times, t - d) for d in (1, 2, lag)]
        valid = np.logical_and.reduce([times[i] == t - d for i, d in zip(at, (1, 2, lag))])
        rows = np.stack([np.flatnonzero(valid)] + [i[valid] for i in at], axis=1)
        ok = np.ones((len(rows), len(block.unit_ids)), dtype=bool)  # (m, n)
        dx = x1 = np.empty((len(rows), 0, ok.shape[1]))
        if cov_idx:
            X = block.covariates[:, :, cov_idx].transpose(1, 2, 0)
            x_t, x_1 = X[rows[:, 0]], X[rows[:, 1]]  # (m, c, n)
            ok = ~(np.isnan(x_t).any(axis=1) | np.isnan(x_1).any(axis=1))
            dx, x1 = (np.where(ok[:, None], x, 0.0) for x in (x_t - x_1, x_1))
        units = np.flatnonzero(ok.any(axis=0))
        if units.size == ok.shape[1]:
            units = slice(None)
        elif not units.size:
            continue
        n_obs += int(ok.sum())
        ok = ok[:, units]
        parts.append((k, units, rows, None if ok.all() else ok, dx[..., units], x1[..., units]))
    if not parts:
        raise EstimationError(f"no unit has enough history for instrument lag {lag}")
    positions = np.concatenate([blocks[k].positions[units] for k, units, *_ in parts])
    order = None if np.all(positions[:-1] < positions[1:]) else np.argsort(positions)
    return _AhLayout(blocks, tuple(parts), positions if order is None else positions[order],
                     order, n_obs, detrend)


def _ah_moments(Y: np.ndarray, rows, mask, dx, x1, detrend: bool) -> np.ndarray:
    """The moments Z'[dy, W] of a layout part's units, as a (k, 1 + k, ...,
    n) array, from their outcomes ``Y``, which may carry leading
    replication axes.  Each entry is summed over the moment ``rows`` in
    time order from 0.0; a row a unit lacks adds zeros."""
    k = 1 + dx.shape[1] + detrend
    M = np.zeros((k, 1 + k) + Y.shape[:-1])
    for r, (t, t1, t2, tl) in enumerate(rows):
        y1 = Y[..., t1]
        dy, w, z = Y[..., t] - y1, y1 - Y[..., t2], Y[..., tl]
        if mask is not None:
            dy, w, z = (np.where(mask[r], x, 0.0) for x in (dy, w, z))
        dyW, Z = [dy, w, *dx[r]], [z, *x1[r]]
        for a, za in enumerate(Z):
            for c, x in enumerate(dyW):
                M[a, c] += za * x
        if detrend:  # the intercept's column, 1 on a row and 0 off the mask
            M[-1, -1] += 1.0 if mask is None else mask[r]
            for a, x in enumerate(Z):
                M[a, -1] += x
            for c, x in enumerate(dyW):
                M[-1, c] += x
    return M


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
                  lagged=mb.lagged_outcome, cov_idx=cov_idx).apply(beta)
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
    return _summarize(_kernel(panel.treated_blocks, config, h, cov_idx=cov_idx, het=True).apply(),
                      h, level)
