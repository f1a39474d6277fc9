"""Tests for the forecast-based effect estimators.

Expected values are frozen from independent derivations: small examples
worked by hand, exact algebraic identities (equivalent estimator forms,
noiseless model recovery), and closed-form variance arithmetic.
"""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from fatpanel import estimators as estimators_module
from fatpanel.basis import BasisSpec, ForecastConfig, forecast_weights
from fatpanel.errors import ConfigError, EstimationError
from fatpanel.estimators import (
    AhEstimate,
    MbConfig,
    anderson_hsiao,
    covariate_fat_heterogeneous,
    dfat,
    fat,
    fat_variance,
    mb_variance,
    model_based_fat,
    placebo_fat,
)
from fatpanel.cli import main
from fatpanel.panel import (PanelData, UnitSeries, apply_anticipation, load_panel, validate,
                            write_panel)
from fatpanel.simulate import DgpSpec, simulate_dgp
from oracles import fat_balanced_avg, fat_pooled


def make_panel(Y, times, tau, control=None, covs=None, names=()):
    """Panel from an outcomes matrix; row i becomes unit ``u{i}``."""
    Y = np.asarray(Y, dtype=float)
    times = np.asarray(times)
    units = []
    for i in range(Y.shape[0]):
        is_ctrl = bool(control[i]) if control is not None else False
        units.append(UnitSeries(
            unit_id=f"u{i}", times=times.copy(), outcomes=Y[i],
            tau=tau, is_control=is_ctrl,
            covariates=None if covs is None else covs[i],
        ))
    return PanelData(units, covariate_names=names)


def random_balanced_panel(rng, n=6, T=8, tau=5):
    Y = rng.normal(size=(n, T)) + rng.normal(size=(n, 1)) * np.arange(T)
    return make_panel(Y, np.arange(T), tau)


# ---------------------------------------------------------------------------
# hand-worked point estimates


def test_single_unit_quadratic_under_linear_fit():
    # y = t^2 on window {1..4}; the line fitted by least squares is
    # -5 + 5t, so the forecast at t=5 is 20 while y_5 = 25.  One unit
    # gives no standard error, so no interval: it is refused, and two
    # copies of it give its residual.
    y = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    with pytest.raises(EstimationError, match=r"only one usable unit \(u0\)"):
        fat(make_panel(y[None, :], [1, 2, 3, 4, 5], tau=4), ForecastConfig(q=1, R=4))
    panel = make_panel(np.vstack([y, y]), [1, 2, 3, 4, 5], tau=4)
    est = fat(panel, ForecastConfig(q=1, R=4))
    assert est.point == pytest.approx(5.0, abs=1e-10)
    assert est.n_used == 2
    assert est.se == 0.0


def test_two_units_average_in_order():
    ya = np.array([1.0, 4.0, 9.0, 16.0, 25.0])   # residual 5 (above)
    yb = 3.0 * np.arange(1, 6, dtype=float)       # linear: residual 0
    panel = make_panel(np.vstack([ya, yb]), [1, 2, 3, 4, 5], tau=4)
    est = fat(panel, ForecastConfig(q=1, R=4))
    assert est.point == pytest.approx(2.5, abs=1e-10)
    assert est.unit_ids == ("u0", "u1")
    np.testing.assert_allclose(est.residuals, [5.0, 0.0], atol=1e-10)
    # The point is exactly the array sum of the residuals over their count.
    assert est.point == np.add.reduce(est.residuals) / est.n_used


def test_exact_polynomial_outcomes_give_zero_effect():
    rng = np.random.default_rng(7)
    times = np.arange(10)
    for q in (0, 1, 2, 3):
        coefs = rng.normal(size=(4, q + 1))
        Y = np.vstack([np.polynomial.polynomial.polyval(times, c) for c in coefs])
        panel = make_panel(Y, times, tau=7)
        est = fat(panel, ForecastConfig(q=q, R=q + 3), h=2)
        assert abs(est.point) < 1e-8


# ---------------------------------------------------------------------------
# variance arithmetic


def test_fat_variance_hand_example():
    # residuals (0, 2): mean 1, population variance 1, se = sqrt(1/2)
    assert fat_variance([0.0, 2.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert fat_variance([1.0, 1.0, 1.0]) == 0.0


@pytest.mark.filterwarnings("error")
def test_fat_variance_of_residuals_whose_squares_overflow_is_finite():
    # (1e200)^2 overflows a double; the deviations are scaled by a power
    # of two instead, and a row that does not overflow keeps its bits.
    assert fat_variance([1e200, -1e200]) == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
    se = estimators_module._se(np.array([[1e200, -1e200, 3e200], [1.0, 2.0, 4.0]]))
    assert se[0] == pytest.approx(math.sqrt(8 / 9) * 1e200, rel=1e-15)
    assert se[1] == fat_variance([1.0, 2.0, 4.0])


@pytest.mark.filterwarnings("error")
def test_fat_of_residuals_whose_sum_overflows_is_finite():
    # 1.5e308 + 1e308 overflows a double, but a mean of finite doubles is
    # finite: the point and the standard error are made again on the
    # residuals scaled by a power of two, and a replication stacked beside
    # one that overflows keeps its bits.
    est = fat(make_panel([[1.0, 2.0, 1.5e308], [1.0, 3.0, 1e308]], [1, 2, 3], 2),
              ForecastConfig(q=0, R=2))
    assert est.point == pytest.approx(1.25e308, rel=1e-15)
    assert est.se == pytest.approx(0.25e308 / math.sqrt(2), rel=1e-15)
    assert all(math.isfinite(x) for x in est.ci)
    u = np.array([[1.5e308, 1e308, 1.5e308], [1.0, 2.0, 4.0]])
    point, se = estimators_module._point_se(estimators_module._Residuals(
        np.arange(3), np.array(["a", "b", "c"], dtype=object), u, np.empty((2, 3, 0)), ()))
    assert point[0] == pytest.approx(4 / 3 * 1e308, rel=1e-15)
    assert se[0] == pytest.approx(math.sqrt(1 / 54) * 1e308, rel=1e-15)
    assert (point[1], se[1]) == (7 / 3, fat_variance([1.0, 2.0, 4.0]))


def test_variance_helpers_refuse_fewer_than_two_residuals():
    # One residual gives no standard error, not a zero-width interval; a
    # non-finite input gives none either, not a silent nan.
    for call, message in (
            (lambda: fat_variance([1.5]), "at least two"),
            (lambda: fat_variance([]), "at least two"),
            (lambda: mb_variance([1.5], [[0.2]], [[0.3]]), "at least two"),
            (lambda: fat_variance([1.0, math.nan]), "residuals must be finite"),
            (lambda: fat_variance([math.inf, 1.0]), "residuals must be finite"),
            (lambda: mb_variance([1.0, math.nan], [[1.0], [1.0]], [[0.0], [0.0]]),
             "residuals must be finite"),
            (lambda: mb_variance([1.0, 2.0], [[1.0], [math.nan]], [[0.0], [0.0]]),
             "gradients must be finite"),
            (lambda: mb_variance([1.0, 2.0], [[1.0], [1.0]], [[-math.inf], [0.0]]),
             "psi must be finite")):
        with pytest.raises(ConfigError, match=message):
            call()


def test_mb_variance_reduces_to_plain_with_zero_psi():
    u = np.array([0.3, -0.2, 0.5, 0.1])
    g = np.ones((4, 1))
    p = np.zeros((4, 1))
    assert mb_variance(u, g, p) == fat_variance(u)


def test_mb_variance_hand_example():
    # ustar = u - psi * gbar with gbar = 1: (0,2) - (1,-1) = (-1,3)
    u = np.array([0.0, 2.0])
    g = np.ones((2, 1))
    p = np.array([[1.0], [-1.0]])
    # mean 1, deviations (-2, 2), variance 4, se = sqrt(4/2) = sqrt(2)
    assert mb_variance(u, g, p) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_mb_variance_reads_1d_gradients_as_one_coefficient():
    rng = np.random.default_rng(3)
    u, g, p = rng.normal(size=(3, 7))
    se = mb_variance(u, g, p)
    assert se == mb_variance(u, g[:, None], p[:, None])
    res = estimators_module._Residuals(np.arange(7), np.arange(7).astype(str), u,
                                       g[:, None], ())
    assert se == float(estimators_module._point_se(res, p[:, None])[1])
    with pytest.raises(ConfigError, match="must align"):
        mb_variance(u, g, p[:-1])


def test_mb_variance_is_the_estimators_se_with_several_coefficients():
    # The helper recentres and sums as the estimators do, bit for bit.
    rng = np.random.default_rng(4)
    for n, k in [(7, 2), (13, 3), (40, 4)] * 10:
        u, g, p = rng.normal(size=n), rng.normal(size=(n, k)), rng.normal(size=(n, k))
        res = estimators_module._Residuals(np.arange(n), np.arange(n).astype(str), u, g, ())
        assert mb_variance(u, g, p) == float(estimators_module._point_se(res, p)[1])


def test_confidence_interval_uses_normal_quantile():
    y = np.array([1.0, 4.0, 9.0, 16.0, 25.0])
    yb = np.array([1.0, 4.0, 9.0, 16.0, 21.0])
    panel = make_panel(np.vstack([y, yb]), [1, 2, 3, 4, 5], tau=4)
    est = fat(panel, ForecastConfig(q=1, R=4), level=0.95)
    half = est.ci[1] - est.point
    assert half == pytest.approx(1.959963984540054 * est.se, rel=1e-12)
    wider = fat(panel, ForecastConfig(q=1, R=4), level=0.99)
    assert wider.ci[1] - wider.point > half


def test_normal_quantile_matches_scipy_bit_for_bit():
    # scipy is the oracle: the package's own Cephes port must give the very
    # bits of norm.ppf for every level, in float64 and in float32.
    from scipy.stats import norm

    quantile = estimators_module._normal_quantile.__wrapped__
    rng = np.random.default_rng(2024)
    levels = np.concatenate([rng.random(350_000), 1.0 - 10.0 ** rng.uniform(-16, 0, 2_000),
                             [5e-324, 0.5, 0.95, np.nextafter(1.0, 0.0)]])
    expected = norm.ppf(0.5 * (1.0 + levels))
    got = np.array([quantile(level) for level in levels.tolist()])
    assert np.array_equal(got, expected)
    levels32 = rng.random(100_000).astype(np.float32)
    expected32 = norm.ppf(0.5 * (1.0 + levels32))
    got32 = np.array([quantile(level) for level in levels32])
    assert np.array_equal(got32, expected32)


def test_ndtri_matches_scipy_down_to_the_far_tail():
    from scipy.special import ndtri

    rng = np.random.default_rng(2025)
    p = np.concatenate([10.0 ** rng.uniform(-300, 0, 100_000),
                        1.0 - 10.0 ** rng.uniform(-16, 0, 20_000), rng.random(30_000),
                        [0.0, 1e-300, np.exp(-2.0), 0.5, 1.0 - np.exp(-2.0), 1.0,
                         -0.5, 1.5, np.nan]])
    got = np.array([estimators_module._ndtri(x) for x in p.tolist()])
    assert np.array_equal(got, ndtri(p), equal_nan=True)


# ---------------------------------------------------------------------------
# equivalent forms on balanced panels


def test_equivalence_of_three_forms_random_panels():
    rng = np.random.default_rng(123)
    for trial in range(25):
        n = int(rng.integers(2, 8))
        T = int(rng.integers(7, 11))
        tau = int(rng.integers(4, T - 2))
        q = int(rng.integers(0, 3))
        R = int(rng.integers(q + 1, tau + 2))
        panel = random_balanced_panel(rng, n=n, T=T, tau=tau)
        direct = fat(panel, ForecastConfig(q=q, R=R), h=1).point
        avg = fat_balanced_avg(panel, q=q, R=R, h=1)
        pooled = fat_pooled(panel, q=q, R=R, h=1)
        assert avg == pytest.approx(direct, abs=1e-8)
        assert pooled[0] == pytest.approx(direct, abs=1e-8)


def test_pooled_matches_direct_at_both_horizons():
    rng = np.random.default_rng(99)
    panel = random_balanced_panel(rng, n=5, T=9, tau=5)
    pooled = fat_pooled(panel, q=1, R=4, h=2)
    for k in (1, 2):
        direct = fat(panel, ForecastConfig(q=1, R=4), h=k).point
        assert pooled[k - 1] == pytest.approx(direct, abs=1e-8)


def test_pooled_requires_shared_dates():
    rng = np.random.default_rng(5)
    units = [
        UnitSeries("a", np.arange(8), rng.normal(size=8), tau=5),
        UnitSeries("b", np.arange(8), rng.normal(size=8), tau=6),
    ]
    panel = PanelData(units)
    with pytest.raises(EstimationError):
        fat_pooled(panel, q=0, R=2, h=1)
    with pytest.raises(EstimationError):
        fat_balanced_avg(panel, q=0, R=2, h=1)


# ---------------------------------------------------------------------------
# placebo estimates


def test_placebo_lag_zero_is_the_plain_estimate():
    rng = np.random.default_rng(11)
    panel = random_balanced_panel(rng, n=4, T=9, tau=6)
    cfg = ForecastConfig(q=1, R=4)
    a = fat(panel, cfg, h=1)
    b = placebo_fat(panel, cfg, lag=0, h=1)
    assert b.point == a.point
    assert b.se == a.se


def test_placebo_is_exact_zero_on_polynomial_data():
    times = np.arange(12)
    Y = np.vstack([1.0 + 0.5 * times, 2.0 - 0.25 * times])
    panel = make_panel(Y, times, tau=9)
    for lag in (1, 2, 3):
        est = placebo_fat(panel, ForecastConfig(q=1, R=4), lag=lag)
        assert abs(est.point) < 1e-10


def test_placebo_rejects_negative_lag():
    rng = np.random.default_rng(1)
    panel = random_balanced_panel(rng)
    with pytest.raises(ConfigError):
        placebo_fat(panel, ForecastConfig(q=0, R=2), lag=-1)


@pytest.mark.parametrize("call", [
    lambda p, c, h: fat(p, c, h=h),
    lambda p, c, h: placebo_fat(p, c, lag=1, h=h),
    lambda p, c, h: dfat(p, c, h=h),
    lambda p, c, h: model_based_fat(p, MbConfig(q=0, R=2), h=h),
    lambda p, c, h: covariate_fat_heterogeneous(p, c, h=h),
    # A lag follows the horizon rule one lower: an int h stands for lag h - 1.
    lambda p, c, h: placebo_fat(p, c, lag=h - 1 if type(h) is int else h),
])
def test_estimators_refuse_non_integer_horizon_or_lag(call):
    rng = np.random.default_rng(1)
    panel = make_panel(rng.normal(size=(6, 8)), np.arange(8), tau=5,
                       control=[False] * 3 + [True] * 3,
                       covs=list(rng.normal(size=(6, 8, 1))), names=("x",))
    config = ForecastConfig(q=0, R=2)
    call(panel, config, 1)  # the panel itself estimates
    for h in (0, -1, 1.5, True, np.float64(2.0)):
        with pytest.raises(ConfigError, match="must be an integer >= "):
            call(panel, config, h)


def test_estimators_take_numpy_integer_horizons_as_python_ints():
    panel = random_balanced_panel(np.random.default_rng(1))
    est = fat(panel, ForecastConfig(q=0, R=2), h=np.int64(2))
    assert type(est.horizon) is int and est.horizon == 2


# ---------------------------------------------------------------------------
# dropped-unit policy and window handling


def test_unit_missing_target_is_dropped():
    times = np.arange(6)
    ya = np.arange(6, dtype=float)
    units = [
        UnitSeries("full", times, ya, tau=4),
        UnitSeries("short", times[:5], ya[:5], tau=4),  # no period 5
        UnitSeries("full2", times, ya + 1.0, tau=4),
    ]
    panel = PanelData(units)
    est = fat(panel, ForecastConfig(q=0, R=2), h=1)
    assert est.n_used == 2
    assert est.unit_ids == ("full", "full2")
    assert est.dropped[0][0] == "short"
    assert "target period" in est.dropped[0][1]


def test_unit_with_short_history_is_dropped():
    units = [
        UnitSeries("long", np.arange(6), np.ones(6), tau=4),
        UnitSeries("tiny", np.arange(3, 6), np.ones(3), tau=4),
        UnitSeries("long2", np.arange(6), np.zeros(6), tau=4),
    ]
    panel = PanelData(units)
    est = fat(panel, ForecastConfig(q=1, R=4))
    assert est.unit_ids == ("long", "long2")
    assert "shorter than" in est.dropped[0][1]


def test_window_gap_raises_unless_shrinking_allowed():
    times = np.array([0, 1, 3, 4])  # hole at t=2 inside a 4-period window
    y = np.array([0.0, 1.0, 3.0, 4.0])
    units = [
        UnitSeries("gappy", times, y, tau=4),
        UnitSeries("ok", np.arange(6), np.arange(6, dtype=float), tau=4),
        UnitSeries("ok2", np.arange(6), np.ones(6), tau=4),
    ]
    panel = PanelData(units)
    with pytest.raises(EstimationError, match="shrink_window"):
        fat(panel, ForecastConfig(q=0, R=4), h=1)
    # With shrinking, the gappy unit uses the run {3, 4}; constant fit on
    # (3, 4) forecasts 3.5 at t=5, and y_5 is unobserved -> dropped anyway.
    est = fat(panel, ForecastConfig(q=0, R=4, shrink_window=True), h=1)
    assert est.unit_ids == ("ok", "ok2")


def test_shrunk_window_is_used_when_target_exists():
    times = np.array([0, 1, 3, 4, 5])
    y = np.array([0.0, 1.0, 3.0, 4.0, 9.0])
    panel = PanelData([UnitSeries(g, times, y, tau=4) for g in ("g", "g2")])
    est = fat(panel, ForecastConfig(q=0, R=4, shrink_window=True), h=1)
    # Run ending at 4 is {3, 4}; constant forecast (3+4)/2 = 3.5; y_5 = 9.
    assert est.point == pytest.approx(9.0 - 3.5, abs=1e-12)


def test_all_units_dropped_is_an_error():
    panel = PanelData([UnitSeries("a", np.arange(3), np.ones(3), tau=2)])
    with pytest.raises(EstimationError, match="no usable units"):
        fat(panel, ForecastConfig(q=0, R=2), h=5)  # target period absent


def test_anticipation_config_matches_shifted_panel(tmp_path):
    # The CLI's --delta, the one anticipation setting, shifts the panel
    # once; on the shifted panel fat is the placebo at lag delta, bit for bit.
    panel = random_balanced_panel(np.random.default_rng(21), n=5, T=10, tau=7)
    path, out = tmp_path / "panel.csv", tmp_path / "out.json"
    write_panel(panel, path)
    assert main(["estimate", "--input", str(path), "--q", "1", "--r", "3", "--delta", "2",
                 "--out-json", str(out)]) == 0
    reported = json.loads(out.read_text())["results"][0]
    cfg = ForecastConfig(q=1, R=3)
    via_panel = fat(apply_anticipation(panel, 2), cfg, h=1)
    via_placebo = placebo_fat(panel, cfg, lag=2, h=1)
    assert ((reported["point"], reported["se"]) == (via_panel.point, via_panel.se)
            == (via_placebo.point, via_placebo.se))
    assert via_panel.residuals.tobytes() == via_placebo.residuals.tobytes()


def test_a_unit_shifted_before_its_first_observation_is_dropped():
    rng = np.random.default_rng(24)
    units = [UnitSeries(f"u{i}", np.arange(10), rng.normal(size=10), tau=6) for i in range(3)]
    units.append(UnitSeries("late", np.arange(5, 10), rng.normal(size=5), tau=6))
    shifted = apply_anticipation(PanelData(units), 2)
    est = fat(shifted, ForecastConfig(q=0, R=2))
    assert est.unit_ids == ("u0", "u1", "u2")
    assert est.dropped == (("late", "no observation at effective adoption date 4"),)
    report = validate(shifted, ForecastConfig(q=0, R=2))
    assert report.fatal_units == ("late",)
    assert report.unit("late").messages[0] == "no observation at effective treatment date 4"


def test_anticipation_is_no_estimator_setting():
    # Anticipation moves the panel's dates (apply_anticipation); no
    # estimator setting or first-stage fit carries it.
    for cls in (ForecastConfig, MbConfig, AhEstimate):
        assert "delta" not in {f.name for f in dataclasses.fields(cls)}, cls
    assert "delta" not in inspect.signature(anderson_hsiao).parameters


# ---------------------------------------------------------------------------
# the per-process forecast-weight memo


def _outcome(f):
    try:
        return f().tobytes()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("family", ["polynomial", "fourier"])
def test_cached_weights_equal_uncached_weights_bit_for_bit(family):
    for q in range(4):
        basis = (BasisSpec("polynomial", order=q) if family == "polynomial"
                 else BasisSpec("fourier", order=q, period=5.5))
        for R in range(q + 1, q + 5):
            for h in (1, 2, 3):
                for start in (-7, 0, 1, 4, 19):
                    window = np.arange(start, start + R)
                    expected = _outcome(lambda: forecast_weights(
                        basis, window, start + R - 1 + h).weights)
                    got = _outcome(lambda: estimators_module._weights(basis, window, h))
                    assert got == expected, (q, R, h, start)


def test_cached_weights_are_read_only_and_shared():
    basis = BasisSpec("polynomial", order=2)
    w = estimators_module._weights(basis, np.arange(3, 8), 2)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    # Polynomial weights do not depend on where the window starts.
    assert estimators_module._weights(basis, np.arange(-4, 1), 2) is w


def test_estimators_solve_each_window_once_per_process(monkeypatch):
    solves = []
    solve = estimators_module.forecast_weights
    monkeypatch.setattr(estimators_module, "forecast_weights",
                        lambda *a: solves.append(a) or solve(*a))
    estimators_module._cached_weights.cache_clear()
    rng = np.random.default_rng(5)
    panel = make_panel(rng.normal(size=(6, 8)), np.arange(1, 9), tau=5)
    first = fat(panel, ForecastConfig(q=1, R=3), h=2)
    assert len(solves) == 1
    again = fat(panel, ForecastConfig(q=1, R=3), h=2)
    placebo_fat(panel, ForecastConfig(q=1, R=3), lag=1, h=2)
    assert len(solves) == 1
    assert again.residuals.tobytes() == first.residuals.tobytes()
    fat(panel, ForecastConfig(q=1, R=3), h=1)
    assert len(solves) == 2


# ---------------------------------------------------------------------------
# instrumented first stage


def _dynamic_panel(rng, n, T, rho, mu=0.0, trend=0.0, noise=0.0, tau=None):
    """y_t = mu + rho y_{t-1} + trend*t + noise, y_0 heterogeneous."""
    tau = T - 1 if tau is None else tau
    times = np.arange(T)
    Y = np.empty((n, T))
    Y[:, 0] = rng.normal(1.0, 1.0, size=n)
    for t in range(1, T):
        eps = rng.normal(0.0, noise, size=n) if noise else 0.0
        Y[:, t] = mu + rho * Y[:, t - 1] + trend * t + eps
    return make_panel(Y, times, tau)


def test_first_stage_exact_on_noiseless_trend_data():
    rng = np.random.default_rng(17)
    panel = _dynamic_panel(rng, n=8, T=7, rho=0.5, trend=0.3, noise=0.0, tau=6)
    est = anderson_hsiao(panel, instrument_lag=3)
    assert est.rho == pytest.approx(0.5, abs=1e-8)
    # Differencing turns the linear trend into a constant shift.
    assert est.intercept == pytest.approx(0.3, abs=1e-8)
    assert not est.weak


def test_first_stage_exact_on_noiseless_ar_data():
    rng = np.random.default_rng(18)
    panel = _dynamic_panel(rng, n=6, T=6, rho=0.7, noise=0.0, tau=5)
    est = anderson_hsiao(panel, instrument_lag=2, detrend=False)
    assert est.rho == pytest.approx(0.7, abs=1e-8)
    assert est.intercept is None


def test_first_stage_consistency_on_noisy_data():
    rng = np.random.default_rng(19)
    panel = _dynamic_panel(rng, n=4000, T=6, rho=0.5, mu=1.0, noise=1.0, tau=5)
    est = anderson_hsiao(panel, instrument_lag=2, detrend=False)
    assert est.rho == pytest.approx(0.5, abs=0.08)
    assert est.n_units == 4000


def test_influence_vectors_average_to_zero():
    rng = np.random.default_rng(20)
    panel = _dynamic_panel(rng, n=60, T=7, rho=0.4, trend=0.2, noise=1.0, tau=6)
    est = anderson_hsiao(panel, instrument_lag=3)
    # One row per contributing unit, aligned with its panel position.
    assert est.psi.shape == (est.n_units, 1)
    np.testing.assert_array_equal(est.positions, np.arange(60))
    total = math.fsum(est.psi[:, 0].tolist())
    scale = float(np.abs(est.psi[:, 0]).max())
    assert abs(total) <= 1e-8 * max(scale, 1.0)


def test_default_detrend_follows_instrument_lag():
    rng = np.random.default_rng(22)
    panel = _dynamic_panel(rng, n=30, T=7, rho=0.4, noise=0.5, tau=6)
    assert anderson_hsiao(panel, instrument_lag=3).intercept is not None
    assert anderson_hsiao(panel, instrument_lag=2).intercept is None
    assert anderson_hsiao(panel, instrument_lag=3).detrend is True
    fit = anderson_hsiao(panel, instrument_lag=np.int64(2))
    assert type(fit.instrument_lag) is int and fit.detrend is False


@pytest.mark.parametrize("detrend", ["yes", "", 1, 0, np.True_])
def test_first_stage_refuses_non_bool_detrend(detrend):
    # A truthy string used to fit the intercept and an empty one not to.
    rng = np.random.default_rng(22)
    panel = _dynamic_panel(rng, n=30, T=7, rho=0.4, noise=0.5, tau=6)
    message = f"detrend must be true, false or None, got {detrend!r}"
    with pytest.raises(ConfigError) as excinfo:
        anderson_hsiao(panel, instrument_lag=3, detrend=detrend)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("delta", [-1, 1.5, True])
def test_first_stage_refuses_a_bad_anticipation(delta):
    # The first stage takes anticipation from the panel's dates only, and the
    # shift refuses a negative one, which would pool treated periods into
    # the fit.
    panel = _dynamic_panel(np.random.default_rng(22), n=30, T=7, rho=0.4, noise=0.5, tau=5)
    with pytest.raises(ConfigError, match="delta must be an integer >= 0"):
        anderson_hsiao(apply_anticipation(panel, delta))
    # A shift of one drops each unit's moment row at t = 5.
    shifted = anderson_hsiao(apply_anticipation(panel, np.int64(1)))
    assert shifted.n_obs == anderson_hsiao(panel).n_obs - 30 == 60


def test_first_stage_detrend_none_follows_instrument_lag():
    rng = np.random.default_rng(22)
    panel = _dynamic_panel(rng, n=30, T=7, rho=0.4, noise=0.5, tau=6)
    for lag, detrend in ((3, True), (2, False)):
        default = anderson_hsiao(panel, instrument_lag=lag, detrend=None)
        explicit = anderson_hsiao(panel, instrument_lag=lag, detrend=detrend)
        assert (default.intercept is None) is not detrend
        np.testing.assert_array_equal(default.beta, explicit.beta)
        np.testing.assert_array_equal(default.psi, explicit.psi)


def test_near_constant_outcomes_flag_weak_instruments():
    rng = np.random.default_rng(23)
    n, T = 20, 7
    Y = 5.0 + 1e-10 * rng.normal(size=(n, T))
    panel = make_panel(Y, np.arange(T), tau=6)
    est = anderson_hsiao(panel, instrument_lag=3, detrend=True)
    assert est.weak


def test_first_stage_with_covariates_exact():
    rng = np.random.default_rng(24)
    n, T = 5, 8
    times = np.arange(T)
    X = rng.normal(size=(n, T))
    Y = np.empty((n, T))
    Y[:, 0] = rng.normal(size=n)
    for t in range(1, T):
        Y[:, t] = 0.5 * Y[:, t - 1] + 2.0 * X[:, t] + 0.3 * t
    covs = [X[i][:, None] for i in range(n)]
    panel = make_panel(Y, times, tau=7, covs=covs, names=("x",))
    est = anderson_hsiao(panel, instrument_lag=3, covariates=("x",))
    assert est.rho == pytest.approx(0.5, abs=1e-7)
    assert est.beta[1] == pytest.approx(2.0, abs=1e-7)
    assert est.intercept == pytest.approx(0.3, abs=1e-7)
    assert est.covariate_names == ("x",)


def test_constant_outcomes_make_first_stage_singular():
    panel = make_panel(np.full((4, 6), 2.0), np.arange(6), tau=5)
    with pytest.raises(EstimationError):
        anderson_hsiao(panel, instrument_lag=2, detrend=False)


def test_stacked_first_stage_on_interleaved_blocks_is_each_copys_fit(tmp_path):
    # A loaded staggered panel whose treated cohorts (four dates, late
    # starts, a gap) interleave in panel position, with covariate holes
    # that leave some units no moment row.  One layout fitted on three
    # perturbed copies of its treated outcomes, stacked, gives each copy's
    # anderson_hsiao fit byte for byte.
    rng = np.random.default_rng(2026)
    units = []
    for i in range(60):
        tau = int(rng.choice([5, 6, 7, 8]))
        start = int(rng.choice([0, 0, 0, tau - 3]))
        times = np.array([t for t in range(start, 11) if not (i % 7 == 3 and t == 1)])
        cov = rng.normal(size=(times.size, 2))
        cov[rng.random(cov.shape) < 0.1] = np.nan
        units.append(UnitSeries(f"u{i}", times, rng.normal(size=times.size) + 0.3 * times,
                                tau=tau, is_control=i % 5 == 0, covariates=cov))
    path = tmp_path / "staggered.csv"
    write_panel(PanelData(units, covariate_names=("x", "z")), path)
    panel = load_panel(path)
    blocks = panel.treated_blocks
    stacked = [b.outcomes + rng.normal(size=(3,) + b.outcomes.shape) for b in blocks]
    copies = [PanelData.from_blocks(
        [dataclasses.replace(b, outcomes=Y[r]) for b, Y in zip(blocks, stacked)]
        + list(panel.control_blocks), covariate_names=panel.covariate_names)
        for r in range(3)]
    for lag, detrend, covariates in ((3, True, ("x", "z")), (2, False, ("z",)),
                                     (2, True, ("x",)), (3, False, ())):
        layout = estimators_module._ah_layout(blocks, lag, detrend, [
            panel.covariate_names.index(c) for c in covariates])
        assert layout.order is not None  # the blocks interleave
        assert np.all(np.diff(layout.positions) > 0)
        beta, intercept, psi, weak = layout.fit(stacked)
        for r, copy in enumerate(copies):
            one = anderson_hsiao(copy, lag, detrend, covariates)
            assert beta[r].tobytes() == one.beta.tobytes()
            assert intercept[r].tolist() == ([one.intercept] if detrend else [])
            assert psi[r].tobytes() == one.psi.tobytes()
            assert layout.positions.tobytes() == one.positions.tobytes()
            assert (bool(weak[r]), layout.n_obs) == (one.weak, one.n_obs)
        if lag == 3 and detrend:  # the holes drop some units and some of their rows
            assert one.n_units < sum(len(b.unit_ids) for b in blocks)
            assert any(mask is not None for _, _, _, mask, _, _ in layout.parts)


# ---------------------------------------------------------------------------
# model-based estimator


def test_model_based_reduces_to_plain_fat_without_a_model():
    rng = np.random.default_rng(31)
    panel = random_balanced_panel(rng, n=5, T=8, tau=5)
    plain = fat(panel, ForecastConfig(q=1, R=4), h=1)
    mb = MbConfig(q=1, R=4, lagged_outcome=False, beta=())
    modeled = model_based_fat(panel, mb, h=1)
    assert np.array_equal(modeled.residuals, plain.residuals)
    assert modeled.point == plain.point
    assert modeled.se == plain.se


def test_model_based_reduction_holds_on_unbalanced_panels():
    rng = np.random.default_rng(32)
    units = [
        UnitSeries("a", np.arange(8), rng.normal(size=8), tau=5),
        UnitSeries("b", np.arange(-1, 8), rng.normal(size=9), tau=5),
    ]
    panel = PanelData(units)
    plain = fat(panel, ForecastConfig(q=0, R=3), h=1)
    mb = MbConfig(q=0, R=3, lagged_outcome=False, beta=())
    modeled = model_based_fat(panel, mb, h=1)
    assert np.array_equal(modeled.residuals, plain.residuals)


def test_model_based_exact_on_noiseless_ar():
    rng = np.random.default_rng(34)
    n, T, rho = 4, 6, 0.6
    Y = np.empty((n, T))
    Y[:, 0] = rng.normal(size=n)
    for t in range(1, T):
        Y[:, t] = rho * Y[:, t - 1]
    panel = make_panel(Y, np.arange(T), tau=4)
    mb = MbConfig(q=0, R=2, beta=(rho,))
    est = model_based_fat(panel, mb, h=1)
    assert est.point == pytest.approx(0.0, abs=1e-12)
    assert est.se == pytest.approx(0.0, abs=1e-12)


def test_model_based_with_estimated_first_stage_runs():
    rng = np.random.default_rng(35)
    panel = _dynamic_panel(rng, n=200, T=6, rho=0.5, mu=1.0, noise=1.0, tau=4)
    first = anderson_hsiao(panel, instrument_lag=2, detrend=False)
    est = model_based_fat(panel, MbConfig(q=0, R=2), h=1, first=first)
    assert est.n_used == 200
    assert est.se > 0.0
    assert abs(est.point) < 0.5


def _covariate_dynamic_panel(rng, n=40, T=9, tau=6):
    """y_t = 0.5 y_{t-1} + x_t + 0.2 t + noise with one covariate ``x``."""
    X = rng.normal(size=(n, T))
    Y = np.empty((n, T))
    Y[:, 0] = rng.normal(size=n)
    for t in range(1, T):
        Y[:, t] = 0.5 * Y[:, t - 1] + X[:, t] + 0.2 * t + rng.normal(size=n)
    return make_panel(Y, np.arange(T), tau, covs=list(X[:, :, None]), names=("x",))


def test_model_based_takes_its_first_stage_as_a_value():
    panel = _covariate_dynamic_panel(np.random.default_rng(36))
    for covariates, shift in (((), 0), (("x",), 1)):
        shifted = apply_anticipation(panel, shift)
        first = anderson_hsiao(shifted, covariates=covariates)
        for q, h in ((0, 1), (1, 2)):
            mb = MbConfig(q=q, R=3, covariates=covariates)
            given = model_based_fat(shifted, mb, h, first=first)
            fitted = model_based_fat(shifted, mb, h)
            assert (given.point, given.se, given.ci) == (fitted.point, fitted.se, fitted.ci)
            assert np.array_equal(given.residuals, fitted.residuals)
            assert given.unit_ids == fitted.unit_ids and given.dropped == fitted.dropped


@pytest.mark.parametrize("other", [dict(covariates=()), dict(shift=1)],
                         ids=["covariates", "panel"])
def test_model_based_refuses_a_first_stage_fitted_with_other_settings(other):
    panel = _covariate_dynamic_panel(np.random.default_rng(37))
    settings = dict(covariates=("x",))
    fitted = {**settings, **other}
    # A fit on the panel shifted for anticipation is a fit on another panel.
    first = anderson_hsiao(apply_anticipation(panel, fitted.pop("shift", 0)), **fitted)
    assert first.covariate_names == fitted["covariates"]
    with pytest.raises(ConfigError, match="fitted on another panel" if "shift" in other
                       else "fitted with other covariates"):
        model_based_fat(panel, MbConfig(q=1, R=3, **settings), first=first)


def test_model_based_refuses_a_first_stage_beside_a_known_beta():
    panel = _covariate_dynamic_panel(np.random.default_rng(38))
    first = anderson_hsiao(panel)
    with pytest.raises(ConfigError, match="known beta takes no fitted first stage"):
        model_based_fat(panel, MbConfig(q=1, R=3, beta=(0.9,)), first=first)


def test_model_based_refuses_a_first_stage_of_another_panel():
    # Two draws of one design: a's fit would forecast b's units with a's
    # coefficients, giving 0.0011 where b's own fit gives 0.312.
    spec = DgpSpec(n=40, T=8, tau=6, trend_mode="recursive", init_mode="fixed", rho=0.4)
    a, b = simulate_dgp(spec, 1), simulate_dgp(spec, 2)
    mb = MbConfig(q=1, R=3)
    with pytest.raises(ConfigError, match="another panel"):
        model_based_fat(b, mb, first=anderson_hsiao(a))
    own = model_based_fat(b, mb, first=anderson_hsiao(b))
    assert own.point == model_based_fat(b, mb).point == pytest.approx(0.312, abs=1e-3)


def test_model_based_uses_a_given_beta_as_known():
    # A given beta is known: the first stage neither runs nor overrides it.
    rng = np.random.default_rng(39)
    panel = _dynamic_panel(rng, n=50, T=7, rho=0.5, mu=1.0, noise=1.0, tau=4)
    known = model_based_fat(panel, MbConfig(q=0, R=2, beta=(0.9,)))
    Y = panel.treated_blocks[0].outcomes
    remainder = Y[:, 3:5] - 0.9 * Y[:, 2:4]
    expected = Y[:, 5] - 0.9 * Y[:, 4] - remainder.mean(axis=1)
    np.testing.assert_allclose(known.residuals, expected, rtol=0, atol=1e-12)
    assert known.se == fat_variance(known.residuals)
    fitted = model_based_fat(panel, MbConfig(q=0, R=2))
    assert not np.allclose(known.residuals, fitted.residuals)


def test_model_based_needs_lagged_outcome_history():
    # Window starts at the first observation, so y_{t-1} is unavailable.
    panel = make_panel(np.arange(5, dtype=float)[None, :], np.arange(5), tau=3)
    mb = MbConfig(q=0, R=4, beta=(0.5,))
    with pytest.raises(EstimationError, match="lagged"):
        model_based_fat(panel, mb, h=1)


@pytest.mark.parametrize("lag", [2.0, 3.0, True, "2", 4, 1])
def test_instrument_lag_must_be_the_integer_2_or_3(lag):
    panel = _dynamic_panel(np.random.default_rng(23), n=30, T=7, rho=0.4, noise=0.5, tau=6)
    message = f"instrument_lag must be 2 or 3, got {lag!r}"
    with pytest.raises(ConfigError) as excinfo:
        anderson_hsiao(panel, instrument_lag=lag)
    assert str(excinfo.value) == message


def test_mb_config_validation():
    with pytest.raises(ConfigError, match="known beta needs length 1"):
        MbConfig(beta=(0.5, 1.0))                  # wrong length
    with pytest.raises(ConfigError, match="needs length 2"):
        MbConfig(covariates=("x",), beta=(0.5,))
    with pytest.raises(ConfigError, match="pass a known beta"):
        MbConfig(lagged_outcome=False)             # no beta: the built-in stage needs the lag


def test_mb_config_holds_the_model_and_the_window():
    # The first stage's instrument lag and detrending are anderson_hsiao's
    # arguments; model_based_fat without ``first`` fits at their defaults.
    fields = [f.name for f in dataclasses.fields(MbConfig)]
    assert fields == ["q", "R", "lagged_outcome", "covariates", "beta"]
    for name in ("instrument_lag", "detrend"):
        with pytest.raises(TypeError):
            MbConfig(**{name: 3})
    panel = _covariate_dynamic_panel(np.random.default_rng(36))
    mb = MbConfig(q=1, R=3)
    default = model_based_fat(panel, mb, 2, first=anderson_hsiao(panel, 3, True))
    assert model_based_fat(panel, mb, 2).to_dict() == default.to_dict()
    assert model_based_fat(panel, mb, 2, first=anderson_hsiao(panel, 2)).point != default.point


# ---------------------------------------------------------------------------
# difference of forecasted effects


def test_dfat_resolves_both_groups_before_summarizing_either():
    # Every treated unit is dropped and a control's window has a hole: the
    # hole is reported, not the empty treated group.
    units = [
        UnitSeries("t", np.arange(4, 8), np.arange(4.0), tau=5),
        UnitSeries("c", np.array([1, 2, 4, 5, 6, 7]), np.arange(6.0), tau=5,
                   is_control=True),
    ]
    with pytest.raises(EstimationError, match="missing periods inside"):
        dfat(PanelData(units), ForecastConfig(q=0, R=3), h=1)


def test_dfat_cancels_a_common_post_period_shock():
    times = np.arange(6)
    base = times.astype(float)
    att, shock = 1.0, 3.0
    treated = base.copy(); treated[5] += att + shock
    ctrl = base.copy(); ctrl[5] += shock
    units = [
        UnitSeries("t1", times, treated, tau=4),
        UnitSeries("t2", times, treated + 0.5, tau=4),
        UnitSeries("c1", times, ctrl, tau=4, is_control=True),
        UnitSeries("c2", times, ctrl - 0.25, tau=4, is_control=True),
    ]
    panel = PanelData(units)
    cfg = ForecastConfig(q=1, R=4)
    biased = fat(panel, cfg, h=1)
    assert biased.point == pytest.approx(att + shock, abs=1e-10)
    diff = dfat(panel, cfg, h=1)
    assert diff.point == pytest.approx(att, abs=1e-10)
    assert diff.treated.n_used == 2
    assert diff.control.n_used == 2
    assert diff.se == pytest.approx(math.hypot(diff.treated.se, diff.control.se))


def test_dfat_requires_both_groups():
    rng = np.random.default_rng(41)
    panel = random_balanced_panel(rng)
    with pytest.raises(EstimationError):
        dfat(panel, ForecastConfig(q=0, R=2))


def test_dfat_skips_controls_without_a_date():
    times = np.arange(6)
    y = times.astype(float)
    units = [
        UnitSeries("t1", times, y, tau=4),
        UnitSeries("t2", times, y + 1.0, tau=4),
        UnitSeries("c1", times, y, tau=4, is_control=True),
        UnitSeries("c2", times, y, is_control=True),  # no date: unusable
        UnitSeries("c3", times, y - 1.0, tau=4, is_control=True),
    ]
    est = dfat(PanelData(units), ForecastConfig(q=1, R=3))
    assert est.control.n_used == 2
    assert ("c2", "no adoption date") in est.control.dropped


def test_dfat_allows_separate_control_settings():
    times = np.arange(8)
    y = times.astype(float)
    units = [
        UnitSeries("t1", times, y, tau=5),
        UnitSeries("t2", times, y + 1.0, tau=5),
        UnitSeries("c1", times, 2 * y, tau=5, is_control=True),
        UnitSeries("c2", times, 2 * y - 1.0, tau=5, is_control=True),
    ]
    est = dfat(PanelData(units), ForecastConfig(q=1, R=4),
               config_control=ForecastConfig(q=1, R=3))
    assert est.point == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# unit-specific covariate coefficients


def test_heterogeneous_covariates_recover_exact_effect():
    rng = np.random.default_rng(51)
    n, T, tau, att = 4, 9, 6, 0.75
    times = np.arange(T)
    covs, units = [], []
    for i in range(n):
        a, b, c = rng.normal(size=3)
        x = rng.normal(size=T)
        y = a + b * times + c * x
        y[tau + 1:] += att
        units.append(UnitSeries(f"u{i}", times, y, tau=tau,
                                covariates=x[:, None]))
    panel = PanelData(units, covariate_names=("x",))
    est = covariate_fat_heterogeneous(panel, ForecastConfig(q=1, R=5), h=1)
    assert est.point == pytest.approx(att, abs=1e-8)
    assert est.n_used == n


def test_heterogeneous_covariates_drop_singular_units():
    times = np.arange(8)
    good_x = np.sin(times.astype(float))
    bad_x = np.ones(8)  # collinear with the intercept column
    units = [
        UnitSeries("good", times, times + good_x, tau=5,
                   covariates=good_x[:, None]),
        UnitSeries("bad", times, times.astype(float), tau=5,
                   covariates=bad_x[:, None]),
        UnitSeries("good2", times, times - good_x, tau=5,
                   covariates=good_x[:, None]),
    ]
    panel = PanelData(units, covariate_names=("x",))
    est = covariate_fat_heterogeneous(panel, ForecastConfig(q=1, R=5), h=1)
    assert est.unit_ids == ("good", "good2")
    assert "rank deficient" in est.dropped[0][1]


def test_heterogeneous_covariates_drop_on_missing_values():
    times = np.arange(8)
    x = np.sin(times.astype(float))
    x_missing = x.copy(); x_missing[3] = np.nan
    units = [
        UnitSeries("full", times, times + x, tau=5, covariates=x[:, None]),
        UnitSeries("holey", times, times + x, tau=5,
                   covariates=x_missing[:, None]),
        UnitSeries("full2", times, times - x, tau=5, covariates=x[:, None]),
    ]
    panel = PanelData(units, covariate_names=("x",))
    est = covariate_fat_heterogeneous(panel, ForecastConfig(q=1, R=5), h=1)
    assert est.unit_ids == ("full", "full2")
    assert "covariates" in est.dropped[0][1]


def test_heterogeneous_requires_room_for_parameters():
    times = np.arange(8)
    x = np.cos(times.astype(float))
    units = [UnitSeries("u", times, times + x, tau=5, covariates=x[:, None])]
    panel = PanelData(units, covariate_names=("x",))
    with pytest.raises(EstimationError, match="no usable units"):
        covariate_fat_heterogeneous(panel, ForecastConfig(q=1, R=2), h=1)


def test_unit_without_covariates_is_dropped_as_incomplete():
    t = np.arange(8.0)
    units = [UnitSeries("a", np.arange(8), t + np.sin(t), tau=5,
                        covariates=np.sin(t)[:, None]),
             UnitSeries("b", np.arange(8), t + 1.0, tau=5),
             UnitSeries("c", np.arange(8), t - np.sin(t), tau=5,
                        covariates=np.sin(t)[:, None])]
    panel = PanelData(units, covariate_names=("x",))
    reason = ("b", "incomplete covariates on the window or target")
    het = covariate_fat_heterogeneous(panel, ForecastConfig(q=1, R=5), h=1)
    assert het.unit_ids == ("a", "c") and het.dropped == (reason,)
    mb = MbConfig(q=1, R=4, covariates=("x",), beta=(0.3, 1.0))
    assert model_based_fat(panel, mb, h=1).dropped == (reason,)


@pytest.mark.parametrize("call", [
    lambda p: anderson_hsiao(p, covariates=("x", "nope")),
    lambda p: model_based_fat(p, MbConfig(q=1, R=4, covariates=("nope",),
                                          beta=(0.3, 1.0)), h=1),
    lambda p: covariate_fat_heterogeneous(p, ForecastConfig(q=1, R=5), h=1,
                                          covariates=("nope",)),
])
def test_an_unknown_covariate_is_a_config_error_naming_it(call):
    t = np.arange(8.0)
    panel = PanelData([UnitSeries("a", np.arange(8), t + np.sin(t), tau=5,
                                  covariates=np.sin(t)[:, None])],
                      covariate_names=("x",))
    with pytest.raises(ConfigError, match=r"unknown covariates \['nope'\]"):
        call(panel)


@pytest.mark.parametrize("call", [
    lambda p: anderson_hsiao(p, covariates=("x", "z", "x")),
    lambda p: model_based_fat(p, MbConfig(q=1, R=4, covariates=("x", "x")), h=1),
    lambda p: covariate_fat_heterogeneous(p, ForecastConfig(q=1, R=5), h=1,
                                          covariates=("x", "x")),
])
def test_a_repeated_covariate_is_a_config_error_naming_it(call):
    # Named twice, a covariate would enter its design twice: a singular
    # first stage, or every unit dropped as rank deficient.
    rng = np.random.default_rng(4)
    t = np.arange(10.0)
    panel = PanelData([UnitSeries(f"u{i}", np.arange(10), t + rng.normal(size=10), tau=7,
                                  covariates=rng.normal(size=(10, 2)))
                       for i in range(6)], covariate_names=("x", "z"))
    with pytest.raises(ConfigError, match=r"covariates \['x'\] are named more than once"):
        call(panel)
