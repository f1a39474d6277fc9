"""Tests for basis designs, forecast weights, and window forecasts."""

import numpy as np
import pytest

from fatpanel.basis import (
    BasisSpec,
    ForecastConfig,
    ForecastWeights,
    _qr,
    _solve_upper,
    _solver_design,
    binomial_weights,
    forecast_weights,
)
from fatpanel.errors import ConfigError, RankDeficiencyError
from oracles import iterative_forecast

# Hand-derived one-step weights on the minimal window (oldest time first):
# order 0 repeats the last value; order 1 extends the line through the last
# two; order 2 extends the parabola; order 3 the cubic.
BINOMIAL_EXPECTED = {
    0: [1.0],
    1: [-1.0, 2.0],
    2: [1.0, -3.0, 3.0],
    3: [-1.0, 4.0, -6.0, 4.0],
}


@pytest.mark.parametrize("q", sorted(BINOMIAL_EXPECTED))
def test_binomial_weights_closed_form(q):
    fw = binomial_weights(q)
    assert fw.times.tolist() == list(range(-q, 1))
    assert fw.weights.tolist() == BINOMIAL_EXPECTED[q]
    assert fw.target == 1.0


@pytest.mark.parametrize("q", range(7))
def test_binomial_matches_least_squares_weights(q):
    fw = binomial_weights(q, tau=10)
    ols = forecast_weights(BasisSpec("polynomial", order=q), fw.times, 11)
    assert np.allclose(fw.weights, ols.weights, atol=1e-8)


@pytest.mark.parametrize("q", range(7))
@pytest.mark.parametrize("extra", range(6))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_polynomial_weights_sum_to_one(q, extra, h):
    R = q + 1 + extra
    window = np.arange(1, R + 1)
    fw = forecast_weights(BasisSpec("polynomial", order=q), window, R + h)
    assert abs(fw.weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("q", range(5))
@pytest.mark.parametrize("extra", range(4))
@pytest.mark.parametrize("h", [1, 2, 3])
def test_fourier_weights_sum_to_one(q, extra, h):
    R = q + 1 + extra
    window = np.arange(1, R + 1)
    fw = forecast_weights(BasisSpec("fourier", order=q, period=4 * R + 1.5), window, R + h)
    assert abs(fw.weights.sum() - 1.0) < 1e-12


def _exact_poly_weights(window, q, target):
    # Independent oracle: solve the normal equations of the raw-power
    # regression in exact rational arithmetic, so w = X (X'X)^{-1} H' is
    # computed without any floating-point error.
    from fractions import Fraction

    times = [Fraction(int(t)) for t in window]
    X = [[t**k for k in range(q + 1)] for t in times]
    A = [
        [sum(row[i] * row[j] for row in X) for j in range(q + 1)]
        for i in range(q + 1)
    ]
    b = [Fraction(int(target)) ** k for k in range(q + 1)]
    # Gaussian elimination with exact pivots.
    m = [rowA + [rb] for rowA, rb in zip(A, b)]
    ncol = q + 1
    for col in range(ncol):
        piv = next(r for r in range(col, ncol) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for r in range(ncol):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * c for a, c in zip(m[r], m[col])]
    sol = [m[r][ncol] / m[r][r] for r in range(ncol)]
    return [float(sum(Xr[k] * sol[k] for k in range(ncol))) for Xr in X]


def test_weights_match_exact_normal_equations():
    rng = np.random.default_rng(7)
    for trial in range(50):
        q = int(rng.integers(0, 5))
        R = q + 1 + int(rng.integers(0, 5))
        start = int(rng.integers(-30, 30))
        window = np.arange(start, start + R)
        target = int(window[-1]) + int(rng.integers(1, 4))
        exact = _exact_poly_weights(window, q, target)
        fw = forecast_weights(BasisSpec("polynomial", order=q), window, target)
        assert np.allclose(fw.weights, exact, atol=1e-8)


def test_weight_route_equals_coefficient_route():
    # The coefficient route is numpy's least-squares fit, evaluated at the
    # target; the package only has the weight route.
    rng = np.random.default_rng(21)
    for trial in range(50):
        q = int(rng.integers(0, 5))
        R = q + 1 + int(rng.integers(0, 5))
        window = np.arange(1, R + 1)
        target = R + int(rng.integers(1, 4))
        y = rng.normal(size=R)
        cfg = ForecastConfig(q=q, R=R)
        X, H = _solver_design(cfg.basis, window.astype(float), float(target))
        fitted = H @ np.linalg.lstsq(X, y, rcond=None)[0]
        fw = forecast_weights(cfg.basis, window, target)
        assert abs(fw.weights @ y - fitted) < 1e-10


def test_one_point_window_weights_are_those_of_the_all_ones_design():
    # A one-point window maps to x = 0 with a unit span, and order 0's one
    # Legendre column is 1 at any x: the design and target row are all
    # ones, so the weights are those of the all-ones design bit for bit,
    # int64-extreme times and targets included.
    Q, Rm, _ = _qr(np.ones((1, 1)))
    expected = (Q @ _solve_upper(Rm, np.ones(1))).tobytes()
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    basis = BasisSpec("polynomial", order=0)
    for t, target in [(0, 1), (5, 7), (-3, 10**6), (lo, hi), (hi, lo), (lo, lo + 1),
                      (hi - 1, hi), (hi, hi), (0, hi), (0, lo)]:
        X, H = _solver_design(basis, np.array([float(t)]), float(target))
        assert X.tobytes() == np.ones((1, 1)).tobytes()
        assert H.tobytes() == np.ones(1).tobytes()
        assert forecast_weights(basis, [t], target).weights.tobytes() == expected


def _oracle_windows():
    """Every polynomial window (q <= 8, R <= 15, h <= 5) and a grid of
    full-rank Fourier windows, as (basis, times, target)."""
    for q in range(9):
        for R in range(q + 1, 16):
            for h in range(1, 6):
                yield BasisSpec("polynomial", order=q), np.arange(R), R - 1 + h
    for q in range(1, 7):
        for period in (4.0, 5.5, 7.0, 12.0):
            basis = BasisSpec("fourier", order=q, period=period)
            for R in range(q + 1, 16):
                for start in (0, 3):
                    window = np.arange(start, start + R)
                    for h in (1, 2, 3):
                        try:
                            forecast_weights(basis, window, start + R - 1 + h)
                        except RankDeficiencyError:
                            continue
                        yield basis, window, start + R - 1 + h


def test_substitution_matches_scipy_triangular_solve():
    # scipy is the oracle.  The package substitutes entry by entry, so the
    # last bits may differ from LAPACK, within 1e-15 of the largest entry.
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(31)
    count = 0
    for basis, window, target in _oracle_windows():
        X, H = _solver_design(basis, window.astype(float), float(target))
        Q, Rm, deficient = _qr(X)
        assert not deficient
        w = forecast_weights(basis, window, target).weights
        expected = Q @ solve_triangular(Rm, H, trans="T")
        assert np.max(np.abs(w - expected)) <= 1e-15 * np.max(np.abs(expected))
        # The forecast equals the fitted row at the target of scipy's
        # coefficients R^{-1} Q'y.
        y = rng.normal(size=window.size)
        fitted = H @ solve_triangular(Rm, Q.T @ y)
        assert abs(w @ y - fitted) <= 1e-10 * max(1.0, np.abs(y).max())
        count += 1
    assert count > 1000


def _substitute(Rm, b):
    """x with Rm.T @ x = b, one system at a time in Python floats."""
    R, x = Rm.tolist(), b.tolist()
    for i in range(len(x)):
        s = x[i]
        for k in range(i):
            s -= R[k][i] * x[k]
        x[i] = s / R[i][i]
    return np.array(x)


def test_stacked_substitution_equals_the_per_system_solve():
    # Over leading axes, each system is solved with the same operations in
    # the same order as on its own, so the bits agree; so do the stacked
    # QR factors and rank flags with the per-design ones.
    rng = np.random.default_rng(41)
    for p in range(1, 10):
        D = rng.normal(size=(300, p + 3, p))
        D[::7, :, -1] = D[::7, :, 0]  # every seventh design is rank deficient
        Q, Rm, deficient = _qr(D)
        for i in range(len(D)):
            Qi, Ri, di = _qr(D[i])
            assert Qi.tobytes() == Q[i].tobytes() and Ri.tobytes() == Rm[i].tobytes()
            assert di == deficient[i] == (i % 7 == 0 and p > 1)
        Rm, b = Rm[~deficient], rng.normal(size=(int((~deficient).sum()), p))
        x = _solve_upper(Rm, b)
        assert x.tobytes() == np.stack([_substitute(r, v) for r, v in zip(Rm, b)]).tobytes()
        assert x.tobytes() == np.stack([_solve_upper(r, v) for r, v in zip(Rm, b)]).tobytes()
        twice = _solve_upper(np.stack([Rm, Rm]), np.stack([b, b]))
        assert twice.tobytes() == np.stack([x, x]).tobytes()


def test_reparametrization_invariance():
    # Shifting every window time and the target by the same offset leaves
    # polynomial weights unchanged.
    base = forecast_weights(BasisSpec("polynomial", order=2), np.arange(1, 6), 7)
    for shift in (-40, 13, 1000):
        moved = forecast_weights(
            BasisSpec("polynomial", order=2), np.arange(1, 6) + shift, 7 + shift
        )
        assert np.allclose(base.weights, moved.weights, atol=1e-9)


def test_quadratic_interpolation_forecast():
    # y = t^2/2 - t/2 + 1 passes through (1,1), (2,2), (3,4); its value at
    # t=4 is 7, and the minimal-window quadratic fit must reproduce it.
    w = forecast_weights(BasisSpec("polynomial", order=2), [1, 2, 3], 4).weights
    assert w @ [1.0, 2.0, 4.0] == pytest.approx(7.0, abs=1e-10)


def test_linear_trend_forecast():
    w = forecast_weights(BasisSpec("polynomial", order=1), np.arange(1, 5), 5).weights
    assert w @ (2.0 * np.arange(1, 5)) == pytest.approx(10.0, abs=1e-10)


@pytest.mark.parametrize("q", range(7))
def test_iterative_forecast_matches_least_squares(q):
    rng = np.random.default_rng(100 + q)
    for trial in range(20):
        y = rng.normal(size=q + 1)
        basis = BasisSpec("polynomial", order=q)
        direct = forecast_weights(basis, np.arange(1, q + 2), q + 2).weights @ y
        assert abs(iterative_forecast(y, q) - direct) < 1e-8


def test_iterative_forecast_frozen_example():
    assert iterative_forecast([1.0, 2.0, 4.0], 2) == pytest.approx(7.0, abs=1e-12)


def test_iterative_forecast_length_check():
    with pytest.raises(ConfigError):
        iterative_forecast([1.0, 2.0], 2)


@pytest.mark.parametrize("q0", range(4))
def test_exact_recovery_of_polynomial_outcomes(q0):
    # Noise-free outcomes that are polynomial of order q0 are forecast
    # exactly by any fit with q >= q0.
    rng = np.random.default_rng(11)
    coefs = rng.normal(size=q0 + 1)
    for q in range(q0, 5):
        for R in (q + 1, q + 3):
            window = np.arange(3, 3 + R)
            target = window[-1] + 2
            y = np.vander(window.astype(float), q0 + 1, increasing=True) @ coefs
            truth = np.vander(np.array([float(target)]), q0 + 1, increasing=True)[0] @ coefs
            got = forecast_weights(BasisSpec("polynomial", order=q), window, target).weights @ y
            assert abs(got - truth) < 1e-9


def test_minimal_window_interpolates():
    rng = np.random.default_rng(3)
    for q in range(5):
        window = np.arange(1, q + 2)
        y = rng.normal(size=q + 1)
        basis = BasisSpec("polynomial", order=q)
        for t, val in zip(window, y):
            assert forecast_weights(basis, window, t).weights @ y == pytest.approx(val, abs=1e-8)


# The window design has one row of basis values per window time;
# ``forecast_weights`` refuses a window that cannot carry it.
def test_design_matrix_values():
    X = BasisSpec("polynomial", order=1).values([4, 5])
    assert np.allclose(X, [[1.0, 4.0], [1.0, 5.0]])


def test_design_matrix_requires_enough_times():
    with pytest.raises(ConfigError, match="window has 2 times but the basis needs at least 3"):
        forecast_weights(BasisSpec("polynomial", order=2), [1, 2], 3)


def test_design_matrix_rejects_duplicate_times():
    with pytest.raises(ConfigError, match="window times must be distinct"):
        forecast_weights(BasisSpec("polynomial", order=1), [3, 3], 4)


def test_fourier_design_rank_failure():
    # With period 2 every sine column vanishes on integer times.
    with pytest.raises(RankDeficiencyError, match="rank deficient"):
        forecast_weights(BasisSpec("fourier", order=1, period=2.0), [1, 2, 3], 4)


@pytest.mark.parametrize("build, error, message", [
    (lambda: BasisSpec("spline"), ConfigError, "unknown basis family 'spline'"),
    (lambda: BasisSpec("custom", order=1), ConfigError, "custom basis requires functions"),
    (lambda: BasisSpec("custom", order=1, functions=(np.ones_like,)), ConfigError,
     "custom basis needs order + 1 = 2 functions, got 1"),
    (lambda: binomial_weights(-1), ConfigError, "q must be >= 0"),
    (lambda: forecast_weights(BasisSpec(order=0), [], 1), ConfigError,
     "window must be a non-empty 1-D sequence of times"),
    (lambda: ForecastWeights(times=[1, 2], weights=[1.0], target=3.0), ConfigError,
     "times and weights must have matching length"),
    (lambda: ForecastWeights(times=[1, 2], weights=[1.0, 1.0], target=3.0),
     RankDeficiencyError,
     "forecast weights sum to 2.0, not 1; the window design is degenerate"),
], ids=["unknown_family", "custom_without_functions", "custom_too_few_functions",
        "negative_binomial_order", "empty_window", "misaligned_weights",
        "weights_not_summing_to_one"])
def test_basis_refusals_name_their_fault(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_an_integral_float_window_gives_integer_times():
    fw = forecast_weights(BasisSpec(order=1), [1.0, 2.0, 3.0], 4)
    assert fw.times.dtype == np.int64 and fw.times.tolist() == [1, 2, 3]
    assert forecast_weights(BasisSpec(order=1), [1.0, 2.5, 3.0], 4).times.dtype == float


def test_fourier_requires_period():
    with pytest.raises(ConfigError):
        BasisSpec("fourier", order=2)


def test_custom_basis_roundtrip():
    spec = BasisSpec(
        "custom",
        order=1,
        functions=(lambda t: np.ones_like(t), lambda t: np.sqrt(np.abs(t))),
    )
    fw = forecast_weights(spec, [1, 4, 9], 16)
    # sqrt is linear in sqrt-space: y = 2 + 3*sqrt(t) extrapolates exactly.
    y = 2.0 + 3.0 * np.sqrt(np.array([1.0, 4.0, 9.0]))
    assert fw.weights @ y == pytest.approx(2.0 + 3.0 * 4.0, abs=1e-9)
    assert abs(fw.weights.sum() - 1.0) < 1e-9


def test_custom_basis_must_start_with_constant():
    with pytest.raises(ConfigError):
        BasisSpec("custom", order=1, functions=(lambda t: t, lambda t: t**2))


def test_custom_basis_dependence_detected():
    with pytest.raises(ConfigError):
        BasisSpec(
            "custom",
            order=1,
            functions=(lambda t: np.ones_like(t), lambda t: 2.0 * np.ones_like(t)),
        )


def test_polynomial_order_cap():
    with pytest.raises(ConfigError):
        BasisSpec("polynomial", order=9)
    spec = BasisSpec("polynomial", order=9, allow_high_order=True)
    assert spec.order == 9


def test_forecast_config_validation():
    with pytest.raises(ConfigError):
        ForecastConfig(q=2, R=2)
    with pytest.raises(ConfigError):
        ForecastConfig(q=2, R=5, basis=BasisSpec("polynomial", order=1))
    cfg = ForecastConfig(q=0, R="all")
    assert cfg.basis.order == 0


@pytest.mark.parametrize("field, value", [
    ("R", 2.5), ("R", 3.0), ("R", True), ("R", "3"),
    ("q", 1.5), ("q", True),
])
def test_forecast_config_refuses_non_integers(field, value):
    kw = {"q": 0, "R": 3, field: value}
    name = "basis order" if field == "q" else field
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        ForecastConfig(**kw)


def test_forecast_config_takes_numpy_integers_as_python_ints():
    cfg = ForecastConfig(q=np.int64(1), R=np.uint8(3))
    assert (cfg.q, cfg.R) == (1, 3)
    assert all(type(v) is int for v in (cfg.q, cfg.R))
