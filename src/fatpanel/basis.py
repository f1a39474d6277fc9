"""Basis functions, forecast weights, and short-window forecasts.

Every estimator in this package reduces to the same primitive: regress a
window of pre-treatment outcomes on known functions of time, then evaluate
the fitted curve at a later target period.  Because the fit is linear least
squares, the forecast is a fixed linear combination of the window outcomes,
``forecast_weights(...).weights @ y``; ``forecast_weights`` solves for those
combination weights.

The first basis function is always the constant 1, which forces the weights
to sum to one and makes the forecast invariant to shifting the time origin
for polynomial bases.  Polynomial fits are solved on a Legendre basis over a
window mapped to [-1, 1]; this spans the same function space as raw powers
while keeping the design well conditioned, so no regularization is ever
applied, even when the window length equals the number of parameters and the
fit interpolates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import ConfigError, RankDeficiencyError

#: Polynomial orders above this are refused unless explicitly allowed:
#: short-window extrapolation at high order amplifies noise explosively.
MAX_POLY_ORDER = 8

_RANK_RTOL = 1e-10


def as_integer(name: str, value, what: str = "an integer") -> int:
    """``value`` as an int; ``ConfigError`` unless an int or NumPy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return int(value)


def as_count(name: str, value, least: int) -> int:
    """``value`` as an int no smaller than ``least``; ``ConfigError`` otherwise."""
    what = f"an integer >= {least}"
    n = as_integer(name, value, what)
    if n < least:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return n


@dataclass(frozen=True)
class BasisSpec:
    """Family of time-basis functions used for counterfactual forecasting.

    Parameters
    ----------
    family : {"polynomial", "fourier", "custom"}
        Functional family.  ``polynomial`` uses 1, t, ..., t^order.
        ``fourier`` uses 1, sin(2*pi*j*t/period), cos(2*pi*j*t/period) for
        j = 1, 2, ...  ``custom`` takes user callables.
    order : int
        Highest basis index q; the design has q + 1 columns.  Polynomial
        order is capped at ``MAX_POLY_ORDER`` unless ``allow_high_order``.
    period : float, optional
        Fundamental period for the Fourier family.
    functions : sequence of callables, optional
        Custom basis, one vectorized callable per column.  The first must
        be identically 1; the set must be linearly independent on integer
        grids (checked numerically at construction).
    allow_high_order : bool
        Opt out of the polynomial order cap.
    """

    family: str = "polynomial"
    order: int = 1
    period: float | None = None
    functions: tuple[Callable, ...] | None = None
    allow_high_order: bool = False

    def __post_init__(self):
        if self.family not in ("polynomial", "fourier", "custom"):
            raise ConfigError(f"unknown basis family {self.family!r}")
        object.__setattr__(self, "order", as_count("basis order", self.order, 0))
        if self.family == "polynomial":
            if self.order > MAX_POLY_ORDER and not self.allow_high_order:
                raise ConfigError(
                    f"polynomial order {self.order} exceeds the cap of "
                    f"{MAX_POLY_ORDER}; pass allow_high_order=True to override"
                )
        if self.family == "fourier":
            if self.period is None or self.period <= 0:
                raise ConfigError("fourier basis requires a positive period")
        if self.family == "custom":
            if self.functions is None:
                raise ConfigError("custom basis requires functions")
            object.__setattr__(self, "functions", tuple(self.functions))
            if len(self.functions) != self.order + 1:
                raise ConfigError(
                    f"custom basis needs order + 1 = {self.order + 1} "
                    f"functions, got {len(self.functions)}"
                )
            self._check_custom()

    def _check_custom(self):
        # Probe on a generic integer grid: first column must be constant 1
        # and the columns must be linearly independent.
        probe = np.arange(0.0, 2.0 * (self.order + 1) + 1.0)
        vals = self.values(probe)
        if not np.allclose(vals[:, 0], 1.0, atol=1e-9):
            raise ConfigError("the first basis function must be identically 1")
        s = np.linalg.svd(vals, compute_uv=False)
        if s[-1] <= _RANK_RTOL * s[0]:
            raise ConfigError(
                "custom basis functions are linearly dependent on an "
                "integer time grid"
            )

    def values(self, times) -> np.ndarray:
        """Evaluate all basis functions at ``times``; shape (len, order+1)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if self.family == "polynomial":
            return np.vander(t, self.order + 1, increasing=True)
        if self.family == "fourier":
            cols = [np.ones_like(t)]
            for k in range(1, self.order + 1):
                j = (k + 1) // 2
                angle = 2.0 * np.pi * j * t / self.period
                cols.append(np.sin(angle) if k % 2 == 1 else np.cos(angle))
            return np.column_stack(cols)
        return np.column_stack([np.asarray(f(t), dtype=float) for f in self.functions])


@dataclass(frozen=True)
class ForecastConfig:
    """Window and basis settings shared by the forecasting estimators.

    Windows end at each unit's treatment date; ``apply_anticipation``
    moves those dates.

    Parameters
    ----------
    q : int, optional
        Polynomial order shorthand; ignored when ``basis`` is given.
    R : int or "all"
        Estimation window length (number of pre-treatment periods used).
        ``"all"`` uses each unit's full contiguous pre-treatment run.
    basis : BasisSpec, optional
        Full basis specification; defaults to a polynomial of order ``q``.
    shrink_window : bool
        When a unit's window contains interior gaps, shrink to the longest
        contiguous run instead of raising.
    """

    q: int | None = None
    R: int | str = "all"
    basis: BasisSpec | None = None
    shrink_window: bool = False

    def __post_init__(self):
        if self.basis is None:
            object.__setattr__(
                self, "basis", BasisSpec("polynomial", order=self.q if self.q is not None else 1)
            )
        elif self.q is not None and self.q != self.basis.order:
            raise ConfigError(f"q={self.q} conflicts with basis order {self.basis.order}")
        object.__setattr__(self, "q", self.basis.order)
        if self.R != "all":
            object.__setattr__(self, "R", as_integer("R", self.R, "an integer or 'all'"))
            if self.R < self.q + 1:
                raise ConfigError(f"window length R={self.R} is below q+1={self.q + 1}")


@dataclass(frozen=True)
class ForecastWeights:
    """Linear weights w such that the window forecast equals w @ y.

    Attributes
    ----------
    times : ndarray of int
        Window periods the weights apply to, in increasing order.
    weights : ndarray of float
        One weight per window period; always sums to 1 because the basis
        contains the constant function.
    target : float
        Period the weighted combination forecasts.
    """

    times: np.ndarray
    weights: np.ndarray
    target: float

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.times.shape != self.weights.shape:
            raise ConfigError("times and weights must have matching length")
        total = math.fsum(self.weights.tolist())
        if abs(total - 1.0) > 1e-6:
            raise RankDeficiencyError(
                f"forecast weights sum to {total!r}, not 1; the window design "
                "is degenerate"
            )


def _window_array(window, basis: BasisSpec) -> np.ndarray:
    t = np.atleast_1d(np.asarray(window, dtype=float))
    if t.ndim != 1 or t.size == 0:
        raise ConfigError("window must be a non-empty 1-D sequence of times")
    if np.unique(t).size != t.size:
        raise ConfigError("window times must be distinct")
    if t.size < basis.order + 1:
        raise ConfigError(
            f"window has {t.size} times but the basis needs at least "
            f"{basis.order + 1}"
        )
    return t


def _solver_design(basis: BasisSpec, window: np.ndarray, target: float):
    """Design matrix and target row in the numerically solved basis.

    Polynomial fits are re-expressed in Legendre polynomials over the window
    mapped affinely onto [-1, 1]; this spans exactly the same space, so
    weights and forecasts are unchanged, but the factorization stays well
    conditioned.  Other families are solved in their raw representation.
    """
    if basis.family == "polynomial":
        lo, hi = window.min(), window.max()
        span = (hi - lo) or 1.0  # a one-point window fits order 0, 1 at any x
        x = (2.0 * window - (lo + hi)) / span
        xt = (2.0 * target - (lo + hi)) / span
        return legendre.legvander(x, basis.order), legendre.legvander(
            np.array([xt]), basis.order
        )[0]
    X = basis.values(window)
    Hrow = basis.values(np.array([target], dtype=float))[0]
    return X, Hrow


def _qr(X: np.ndarray):
    """Reduced QR of the design ``X``, over any leading axes, and whether
    each design is rank deficient: an |R| diagonal entry within
    ``_RANK_RTOL`` of the largest."""
    Q, Rm = np.linalg.qr(X)
    d = np.abs(np.diagonal(Rm, axis1=-2, axis2=-1))
    return Q, Rm, d.min(-1) <= _RANK_RTOL * np.maximum(d.max(-1), np.finfo(float).tiny)


def _solve_upper(Rm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``Rm.T @ x = b`` for upper-triangular ``Rm``, over any leading
    axes, by forward substitution: each entry's terms subtracted in index
    order, then one division."""
    R = np.moveaxis(Rm, (-2, -1), (0, 1))
    x = list(np.moveaxis(np.asarray(b, dtype=float), -1, 0))
    for i in range(len(x)):
        s = x[i]
        for k in range(i):
            s = s - R[k, i] * x[k]
        x[i] = s / R[i, i]
    return np.stack(x, axis=-1)


def forecast_weights(basis: BasisSpec, window, target) -> ForecastWeights:
    """Weights placing the least-squares forecast at ``target``.

    Solves w' = H (X'X)^{-1} X' through a QR factorization of the design,
    where H is the basis row at the target period.  The weights depend only
    on the window times, the basis, and the target, never on outcomes.
    """
    t = _window_array(window, basis)
    X, Hrow = _solver_design(basis, t, float(target))
    Q, Rm, deficient = _qr(X)
    if deficient:
        raise RankDeficiencyError("basis design is rank deficient on this window")
    # w = Q R^{-T} H' so that X'X w-projection reproduces H exactly.
    w = Q @ _solve_upper(Rm, Hrow)
    times = np.asarray(window)
    if np.issubdtype(times.dtype, np.floating) and np.all(times == np.round(times)):
        times = times.astype(int)
    return ForecastWeights(times=times, weights=w, target=float(target))


def binomial_weights(q: int, tau: int = 0) -> ForecastWeights:
    """Closed-form one-step weights for order q on the window of length q+1.

    On the window (tau-q, ..., tau) the weight at time t is
    (-1)^(tau-t) * C(q+1, tau-t+1), forecasting period tau+1.  These are the
    exact least-squares weights for a polynomial of order q fit to the q+1
    most recent periods.
    """
    if q < 0:
        raise ConfigError("q must be >= 0")
    times = np.arange(tau - q, tau + 1)
    lags = tau - times
    w = np.array([(-1.0) ** s * math.comb(q + 1, s + 1) for s in lags])
    return ForecastWeights(times=times, weights=w, target=float(tau + 1))
