"""Tests for the synthetic panel generators and the Monte Carlo driver.

Expected values are frozen from independent derivations: deterministic
component panels worked by hand, the closed-form mean recursion, and
large-sample moment checks with 3-standard-error tolerances.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpanel import estimators as estimators_module
from fatpanel import panel as panel_module
from fatpanel import simulate as simulate_module
from fatpanel.basis import ForecastConfig
from fatpanel.errors import ConfigError, EstimationError, RankDeficiencyError
from fatpanel.estimators import (MbConfig, anderson_hsiao, dfat, fat, model_based_fat,
                                 placebo_fat)
from fatpanel.panel import PanelData, UnitSeries
from fatpanel.simulate import (
    PRESET_NAMES,
    DgpSpec,
    GridCell,
    McCellResult,
    analytic_mean_recursion,
    preset,
    run_monte_carlo,
    simulate_dgp,
)
from oracles import monte_carlo_per_replication


def outcomes_matrix(panel):
    return np.vstack([u.outcomes for u in panel.units])


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_period_layout():
    with pytest.raises(ConfigError):
        DgpSpec(T=5, tau=5)
    with pytest.raises(ConfigError):
        DgpSpec(T=5, tau=0)


def test_spec_rejects_nonstationary_rho_with_stationary_init():
    with pytest.raises(ConfigError):
        DgpSpec(rho=1.0, init_mode="stationary")
    with pytest.raises(ConfigError):
        DgpSpec(rho=(0.0, 1.2), init_mode="stationary")
    # Either end of an interval law may leave the stationary region.
    with pytest.raises(ConfigError, match=re.escape("requires |rho| < 1")):
        DgpSpec(n=50, rho=(-1.5, 0.5), init_mode="stationary")
    # The fixed initial condition has no such restriction.
    DgpSpec(rho=1.0, init_mode="fixed", trend_mode="recursive")


def test_spec_rejects_malformed_laws_and_enums():
    with pytest.raises(ConfigError):
        DgpSpec(mu=(1.0, -1.0))
    with pytest.raises(ConfigError):
        DgpSpec(delta=(0.0, 1.0, 2.0))
    with pytest.raises(ConfigError):
        DgpSpec(trend_mode="multiplicative")
    with pytest.raises(ConfigError):
        DgpSpec(init_mode="zero")
    with pytest.raises(ConfigError):
        DgpSpec(trend_power=0)
    with pytest.raises(ConfigError):
        DgpSpec(n=0)
    for law in ("ab", [0.0, "x"], [None, 1.0], {"lo": 0.0}):
        with pytest.raises(ConfigError, match="rho law must be a number or"):
            DgpSpec(rho=law)


@pytest.mark.parametrize("field, value, message", [
    ("n", 20.5, "n must be an integer >= 1, got 20.5"),
    ("n", True, "n must be an integer >= 1, got True"),
    ("n_control", -1, "n_control must be an integer >= 0, got -1"),
    ("T", 6.0, "T must be an integer >= 2, got 6.0"),
    ("tau", 5.0, "tau must be an integer >= 1, got 5.0"),
    ("tau", 0, "tau must be an integer >= 1, got 0"),
    ("trend_power", 1.5, "trend_power must be an integer >= 1, got 1.5"),
    ("include_ar", "no", "include_ar must be true or false, got 'no'"),
    ("include_walk", 1, "include_walk must be true or false, got 1"),
    ("include_trend", None, "include_trend must be true or false, got None"),
    ("true_att", math.nan, "true_att must be a finite number, got nan"),
    ("true_att", "0.5", "true_att must be a finite number, got '0.5'"),
    ("common_shock", math.inf, "common_shock must be a finite number, got inf"),
    ("common_shock", True, "common_shock must be a finite number, got True"),
    ("mu", math.nan, "mu law must be finite, got nan"),
    ("mu", (0.0, math.inf), "mu law must be finite, got (0.0, inf)"),
    ("rho", [-math.inf, 0.5], "rho law must be finite, got [-inf, 0.5]"),
    ("delta", -math.inf, "delta law must be finite, got -inf"),
    ("rho", False, "rho law must be a number or (lo, hi), got False"),
    ("mu", [False, True], "mu law must be a number or (lo, hi), got [False, True]"),
    ("delta", True, "delta law must be a number or (lo, hi), got True"),
    ("mu", (0.0, np.bool_(True)), "mu law must be a number or (lo, hi), got (0.0, np.True_)"),
])
def test_spec_refuses_malformed_sizes_flags_and_numbers(field, value, message):
    # Each used to run, crash later or give n_ok = 0 with no reason.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        DgpSpec(**{field: value})


def test_spec_takes_numpy_sizes_and_flags_as_python_values():
    spec = DgpSpec(n=np.int64(4), T=np.int32(6), include_ar=np.bool_(False),
                   true_att=np.float64(0.5))
    assert (spec.n, spec.T, spec.include_ar) == (4, 6, False)
    assert type(spec.n) is type(spec.T) is int and type(spec.include_ar) is bool
    assert json.loads(json.dumps(spec.to_dict()))["true_att"] == 0.5


def test_spec_to_dict_converts_laws_to_lists():
    d = DgpSpec(rho=(0.0, 0.99), delta=1.0).to_dict()
    assert d["rho"] == [0.0, 0.99]
    assert d["delta"] == 1.0
    assert d["mu"] == [-1.0, 1.0]
    # A two-element list is an interval law, so a report's spec reads back.
    for spec in (DgpSpec(rho=(0.0, 0.99), delta=1.0), *(preset(n)[0] for n in PRESET_NAMES)):
        assert DgpSpec(**spec.to_dict()) == spec
        assert DgpSpec(**json.loads(json.dumps(spec.to_dict()))) == spec
    assert DgpSpec(rho=[0.1, 0.5]).rho == (0.1, 0.5)


# ---------------------------------------------------------------------------
# deterministic component panels


def test_all_components_off_gives_zero_panel():
    spec = DgpSpec(n=3, T=5, tau=3, include_ar=False, include_walk=False,
                   include_trend=False)
    Y = outcomes_matrix(simulate_dgp(spec, 0))
    assert Y.shape == (3, 5)
    np.testing.assert_array_equal(Y, 0.0)


def test_pure_unit_trend_is_the_time_grid():
    spec = DgpSpec(n=2, T=6, tau=5, include_ar=False, include_trend=True,
                   delta=1.0)
    panel = simulate_dgp(spec, 0)
    for unit in panel.units:
        np.testing.assert_array_equal(unit.times, np.arange(1, 7))
        np.testing.assert_allclose(unit.outcomes, np.arange(1.0, 7.0))


def test_trend_power_squares_the_grid():
    spec = DgpSpec(n=1, T=4, tau=3, include_ar=False, include_trend=True,
                   delta=2.0, trend_power=2)
    Y = outcomes_matrix(simulate_dgp(spec, 0))
    np.testing.assert_allclose(Y[0], 2.0 * np.arange(1.0, 5.0) ** 2)


def test_effect_and_shock_injection_on_zero_base():
    # With every stochastic component off the panel is exactly the two
    # post-adoption injections: controls get only the common shock.
    spec = DgpSpec(n=2, n_control=2, T=4, tau=2, include_ar=False,
                   true_att=0.5, common_shock=2.0)
    panel = simulate_dgp(spec, 0)
    Y = outcomes_matrix(panel)
    np.testing.assert_allclose(Y[:2], [[0, 0, 2.5, 2.5]] * 2)
    np.testing.assert_allclose(Y[2:], [[0, 0, 2.0, 2.0]] * 2)
    assert [u.unit_id for u in panel.units] == ["t0001", "t0002",
                                                "c0001", "c0002"]
    assert [u.is_control for u in panel.units] == [False, False, True, True]
    assert all(u.tau == 2 for u in panel.units)


def test_same_seed_reproduces_panel_bitwise():
    spec = DgpSpec(n=20, T=8, tau=6, include_ar=True, include_walk=True,
                   include_trend=True, delta=(0.0, 2.0))
    Y1 = outcomes_matrix(simulate_dgp(spec, 42))
    Y2 = outcomes_matrix(simulate_dgp(spec, 42))
    Y3 = outcomes_matrix(simulate_dgp(spec, 43))
    np.testing.assert_array_equal(Y1, Y2)
    assert not np.array_equal(Y1, Y3)


# ---------------------------------------------------------------------------
# large-sample moment checks (3 standard errors)


def test_stationary_ar_mean_is_constant_over_time():
    n = 20000
    spec = DgpSpec(n=n, T=6, tau=5, include_ar=True, rho=0.2)
    Y = outcomes_matrix(simulate_dgp(spec, 11))
    # mu ~ U[-1,1] has mean 0, so E[y_t] = 0 at every t under the
    # stationary initial condition.
    for t in range(6):
        se = Y[:, t].std(ddof=1) / math.sqrt(n)
        assert abs(Y[:, t].mean()) <= 3 * se


def test_random_walk_increments_have_zero_mean():
    n = 20000
    spec = DgpSpec(n=n, T=6, tau=5, include_ar=False, include_walk=True)
    Y = outcomes_matrix(simulate_dgp(spec, 12))
    steps = np.diff(np.hstack([np.zeros((n, 1)), Y]), axis=1)
    for t in range(6):
        se = steps[:, t].std(ddof=1) / math.sqrt(n)
        assert abs(steps[:, t].mean()) <= 3 * se
        # Each increment is a fresh standard normal draw.
        assert abs(steps[:, t].std(ddof=1) - 1.0) < 0.05


def test_recursive_trend_mean_path_matches_recursion():
    n = 20000
    spec = DgpSpec(n=n, T=6, tau=5, trend_mode="recursive",
                   init_mode="fixed", rho=0.2, mu=0.0, delta=1.0)
    Y = outcomes_matrix(simulate_dgp(spec, 13))
    e = analytic_mean_recursion(rho=0.2, delta=1.0, y0_mean=1.0, T=6)
    for t in range(1, 7):
        se = Y[:, t - 1].std(ddof=1) / math.sqrt(n)
        assert abs(Y[:, t - 1].mean() - e[t]) <= 3 * se


def test_fixed_initial_condition_moments():
    # y_1 = mu + rho*y_0 + u_1 with y_0 ~ N(1, 2), so with mu=0 and
    # rho=0.5 the first observed period has mean 0.5 and variance 1.5.
    n = 40000
    spec = DgpSpec(n=n, T=2, tau=1, include_ar=True, init_mode="fixed",
                   rho=0.5, mu=0.0)
    Y = outcomes_matrix(simulate_dgp(spec, 14))
    se = Y[:, 0].std(ddof=1) / math.sqrt(n)
    assert abs(Y[:, 0].mean() - 0.5) <= 3 * se
    assert abs(Y[:, 0].var(ddof=1) - 1.5) < 0.06


# ---------------------------------------------------------------------------
# analytic mean recursion


def test_recursion_oracle_matches_hand_computed_path():
    e = analytic_mean_recursion(rho=0.2, delta=1.0, y0_mean=1.0, T=6)
    np.testing.assert_allclose(
        e, [1.0, 1.2, 2.24, 3.448, 4.6896, 5.93792, 7.187584], rtol=1e-12)
    # One-step-ahead naive bias: e_6 - e_5.
    assert e[6] - e[5] == pytest.approx(1.249664, abs=1e-12)


def test_recursion_oracle_trivial_and_mu_cases():
    np.testing.assert_array_equal(
        analytic_mean_recursion(rho=0.9, delta=0.0, y0_mean=0.0, T=5),
        np.zeros(6))
    # With rho=0 and delta=0 the path is flat at mu.
    e = analytic_mean_recursion(rho=0.0, delta=0.0, y0_mean=3.0, T=4, mu=2.0)
    np.testing.assert_allclose(e, [3.0, 2.0, 2.0, 2.0, 2.0], rtol=1e-15)


def test_recursion_oracle_quadratic_power():
    e = analytic_mean_recursion(rho=0.5, delta=1.0, y0_mean=0.0, T=3,
                                trend_power=2)
    np.testing.assert_allclose(e, [0.0, 1.0, 4.5, 11.25], rtol=1e-15)


# ---------------------------------------------------------------------------
# grid cells


def test_grid_cell_names_and_labels():
    assert GridCell(estimator="pr", q=0, R=1).name == "pr_q0_R1"
    assert GridCell(estimator="pr", q=2, R=4, h=3).name == "pr_q2_R4_h3"
    assert GridCell(estimator="placebo", q=0, R=2, lag=2).label == "placebo_lag2"
    assert GridCell(estimator="mb", q=1, R=2, group="mb_missp").name == "mb_missp_q1_R2"
    with pytest.raises(ConfigError):
        GridCell(estimator="ols")


@pytest.mark.parametrize("field, value", [
    ("h", 0), ("h", -1), ("h", 1.5), ("h", True), ("h", np.float64(2.0)),
    ("lag", -1), ("lag", 0.5), ("lag", False),
])
def test_grid_cell_refuses_a_bad_horizon_or_lag(field, value):
    least = 1 if field == "h" else 0
    with pytest.raises(ConfigError, match=f"{field} must be an integer >= {least}"):
        GridCell(estimator="placebo", **{field: value})


@pytest.mark.parametrize("estimator", ["pr", "dfat", "mb"])
def test_only_a_placebo_cell_takes_a_lag(estimator):
    with pytest.raises(ConfigError, match=f"^a {estimator} cell takes no lag: "
                                          "only placebo cells shift adoption$"):
        GridCell(estimator=estimator, q=0, R=2, lag=2)
    assert GridCell(estimator=estimator, q=0, R=2, lag=0).lag == 0
    assert GridCell(estimator="placebo", q=0, R=2, lag=0).name == "placebo_lag0_q0_R2"
    for name in PRESET_NAMES:
        assert all(c.lag == 0 or c.estimator == "placebo" for c in preset(name)[1])


@pytest.mark.parametrize("group", [5, 1.5, True, ["mb"], b"mb"])
def test_grid_cell_refuses_a_non_string_group(group):
    # A report's CSV spells the label as text, so a number could not be written.
    message = f"group must be a string, got {group!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        GridCell(estimator="mb", q=0, R=2, group=group)
    assert GridCell(estimator="mb", q=0, R=2, group="mb_2").label == "mb_2"


def test_grid_cell_takes_numpy_integers_as_python_ints():
    cell = GridCell(estimator="placebo", h=np.int64(2), lag=np.int32(1))
    assert (cell.h, cell.lag) == (2, 1) and type(cell.h) is type(cell.lag) is int
    assert cell.name == "placebo_lag1_q0_R1_h2"


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_monte_carlo_rejects_bad_arguments():
    spec = DgpSpec(n=4, T=4, tau=3)
    cells = (GridCell(estimator="pr", q=0, R=1),)
    with pytest.raises(ConfigError):
        run_monte_carlo(spec, cells, n_reps=1, master_seed=0)
    with pytest.raises(ConfigError):
        run_monte_carlo(spec, (), n_reps=2, master_seed=0)
    with pytest.raises(ConfigError):
        run_monte_carlo(spec, cells + cells, n_reps=2, master_seed=0)


@pytest.mark.parametrize("n_reps, master_seed, message", [
    (3.0, 0, "n_reps must be an integer >= 2, got 3.0"),
    (True, 0, "n_reps must be an integer >= 2, got True"),
    (1, 0, "n_reps must be an integer >= 2, got 1"),
    (2, -1, "master_seed must be an integer >= 0, got -1"),
    (2, True, "master_seed must be an integer >= 0, got True"),
    (2, 1.0, "master_seed must be an integer >= 0, got 1.0"),
])
def test_monte_carlo_refuses_a_bad_rep_count_or_seed(n_reps, master_seed, message):
    cells = (GridCell(estimator="pr", q=0, R=1),)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_monte_carlo(DgpSpec(n=4, T=4, tau=3), cells, n_reps, master_seed)


@pytest.mark.parametrize("settings, message", [
    (dict(instrument_lag=4), "instrument_lag must be 2 or 3, got 4"),
    (dict(instrument_lag=2.0), "instrument_lag must be 2 or 3, got 2.0"),
    (dict(detrend="yes"), "detrend must be true, false or None, got 'yes'"),
])
def test_monte_carlo_refuses_a_bad_first_stage_setting_before_simulating(
        monkeypatch, settings, message):
    # A good pr cell comes first: the mb cell's settings are still checked
    # before the first replication is drawn.
    drawn = []
    monkeypatch.setattr(simulate_module, "_draw_outcomes", lambda *a: drawn.append(a))
    cells = (GridCell(estimator="pr", q=0, R=1),
             GridCell(estimator="mb", q=0, R=1, **settings))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_monte_carlo(DgpSpec(n=4, T=4, tau=3), cells, 2, 0)
    assert drawn == []


@pytest.mark.parametrize("estimator", ["pr", "placebo", "dfat"])
@pytest.mark.parametrize("settings, unread", [
    (dict(instrument_lag=7, detrend="yes"), "instrument_lag, detrend"),
    (dict(instrument_lag=3), "instrument_lag"),
    (dict(detrend=False), "detrend"),
])
def test_only_an_mb_cell_takes_first_stage_settings(estimator, settings, unread):
    with pytest.raises(ConfigError, match=f"^a {estimator} cell takes no {unread}: "
                                          "only mb cells fit a first stage$"):
        run_monte_carlo(DgpSpec(n=20, T=6, tau=5, include_ar=True),
                        (GridCell(estimator=estimator, q=0, R=1, **settings),), 2, 0)
    assert (GridCell(estimator=estimator).instrument_lag, GridCell().detrend) == (None, None)
    # An mb cell's lag defaults to the first stage's 3.
    mb = GridCell(estimator="mb", q=0, R=1)
    assert (mb.instrument_lag, mb.detrend) == (3, None)
    assert mb == GridCell(estimator="mb", q=0, R=1, instrument_lag=3)


def test_monte_carlo_takes_numpy_integers():
    cells = (GridCell(estimator="pr", q=0, R=1),)
    spec = DgpSpec(n=4, T=4, tau=3)
    report = run_monte_carlo(spec, cells, np.int64(3), np.uint32(7))
    assert report.to_json() == run_monte_carlo(spec, cells, 3, 7).to_json()
    assert type(report.n_reps) is int and type(report.master_seed) is int


def assert_rows_equal(got, want):
    """Report rows that agree in every field, every float bit for bit: by
    ``repr``, which round-trips a float, matches NaN with NaN and tells
    -0.0 from 0.0."""
    assert [g["name"] for g in got] == [w["name"] for w in want]
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, expected in w.items():
            assert repr(g[key]) == repr(expected), (g["name"], key, g[key], expected)


def _direct_cells(spec, cells, n_reps, master_seed):
    """The report's cell rows from a loop over the public estimators, with
    every estimator and configuration built afresh in every replication."""
    points = [[] for _ in cells]
    ses = [[] for _ in cells]
    hits = [0] * len(cells)
    fails = [0] * len(cells)
    truths = [0.0 if c.estimator == "placebo" else spec.true_att for c in cells]
    for r in range(n_reps):
        child = np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
        panel = simulate_dgp(spec, child)
        for j, c in enumerate(cells):
            config = ForecastConfig(q=c.q, R=c.R)
            try:
                if c.estimator == "pr":
                    est = fat(panel, config, h=c.h)
                elif c.estimator == "placebo":
                    est = placebo_fat(panel, config, lag=c.lag, h=c.h)
                elif c.estimator == "dfat":
                    est = dfat(panel, config, h=c.h)
                else:
                    est = model_based_fat(panel, MbConfig(q=c.q, R=c.R), h=c.h,
                                          first=anderson_hsiao(panel, c.instrument_lag,
                                                               c.detrend))
            except (EstimationError, RankDeficiencyError):
                fails[j] += 1
                continue
            points[j].append(est.point)
            ses[j].append(est.se)
            hits[j] += est.ci[0] <= truths[j] <= est.ci[1]
    rows = []
    for j, c in enumerate(cells):
        n_ok = len(points[j])
        mean = math.fsum(points[j]) / n_ok if n_ok else math.nan
        mc_se = (math.sqrt(math.fsum((p - mean) ** 2 for p in points[j]) / (n_ok - 1))
                 if n_ok >= 2 else math.nan)
        rows.append(McCellResult(
            name=c.name, estimator=c.estimator, label=c.label, q=c.q, R=c.R, h=c.h,
            truth=truths[j], n_reps=n_reps, n_ok=n_ok, n_failed=fails[j],
            degenerate=fails[j] > n_reps // 2, bias=mean - truths[j],
            mc_se=mc_se, coverage=hits[j] / n_ok if n_ok else math.nan,
            se_est_mean=math.fsum(ses[j]) / n_ok if n_ok else math.nan))
    return [row.to_dict() for row in rows]


_PANEL = DgpSpec(n=12, n_control=9, T=7, tau=5, include_ar=True, rho=0.2, true_att=0.3)
_DYNAMIC = DgpSpec(n=40, T=8, tau=6, trend_mode="recursive", init_mode="fixed",
                   rho=0.4, mu=(-1.0, 1.0), delta=0.5)
_MIXED = dataclasses.replace(_DYNAMIC, n=30, n_control=20, true_att=0.3)
DIRECT_CASES = {
    "pr": (_PANEL, (GridCell(estimator="pr", q=1, R=3),
                    GridCell(estimator="pr", q=0, R="all", h=1),
                    GridCell(estimator="pr", q=0, R=2, h=2))),
    "placebo": (_PANEL, (GridCell(estimator="placebo", q=1, R=3, lag=1),
                         GridCell(estimator="placebo", q=0, R=2, lag=2, h=2))),
    "dfat": (_PANEL, (GridCell(estimator="dfat", q=1, R=3),
                      GridCell(estimator="dfat", q=0, R=1, h=2))),
    # Two first-stage groups with several cells each (detrend=None with
    # instrument lag 3 joins the detrended one), and a third that differs
    # from the first in detrend alone.
    "mb": (_DYNAMIC, (GridCell(estimator="mb", q=0, R=1, instrument_lag=3,
                               detrend=True, group="mb"),
                      GridCell(estimator="mb", q=0, R=1, instrument_lag=3,
                               detrend=False, group="mb_flat"),
                      GridCell(estimator="mb", q=1, R=2, instrument_lag=2,
                               detrend=False, group="mb_missp"),
                      GridCell(estimator="mb", q=1, R=2, instrument_lag=3,
                               detrend=None, group="mb"),
                      GridCell(estimator="mb", q=0, R=1, instrument_lag=2,
                               detrend=False, group="mb_missp", h=2),
                      GridCell(estimator="pr", q=1, R=2))),
    # Every kind of cell on one recursive-trend spec with controls: pr, mb
    # and dfat's treated side share one residual column, and a window
    # longer than the history fails every replication.
    "mixed": (_MIXED, (GridCell(estimator="pr", q=1, R=3),
                       GridCell(estimator="placebo", q=0, R=2, lag=1),
                       GridCell(estimator="dfat", q=1, R=3),
                       GridCell(estimator="mb", q=1, R=3, instrument_lag=3,
                                detrend=True, group="mb"),
                       GridCell(estimator="mb", q=0, R=2, instrument_lag=2,
                                detrend=False, group="mb_missp"),
                       GridCell(estimator="pr", q=0, R=7))),
}
_ALWAYS_FAILS = {"pr_q0_R7"}


@pytest.mark.parametrize("kind", DIRECT_CASES)
def test_monte_carlo_matches_direct_estimation(kind):
    # Every cell row must match a hand-rolled loop over child seeds split
    # from the master seed by replication index, through the public
    # estimators: counts and floats exactly.
    spec, cells = DIRECT_CASES[kind]
    report = run_monte_carlo(spec, cells, n_reps=6, master_seed=99)
    assert_rows_equal([c.to_dict() for c in report.cells], _direct_cells(spec, cells, 6, 99))
    assert all((c.n_ok, c.n_failed) == ((0, 6) if c.name in _ALWAYS_FAILS else (6, 0))
               for c in report.cells)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_cell_gets_the_same_result_alone_as_in_its_grid(name):
    # Cells of one window share a kernel and its products, and a chunk
    # finishes its cells grouped by kernel, not in grid order: neither may
    # change a cell's bits, so each cell's row is byte-identical alone and
    # in its preset's grid, over two chunks.
    spec, cells = preset(name)
    spec = dataclasses.replace(spec, n=min(spec.n, 200), n_control=min(spec.n_control, 200))
    grid = run_monte_carlo(spec, cells, 60, 23)
    for cell, row in zip(cells, grid.cells):
        (alone,) = run_monte_carlo(spec, (cell,), 60, 23).cells
        assert json.dumps(alone.to_dict()) == json.dumps(row.to_dict()), cell.name


def test_kernel_residuals_on_a_chunk_are_the_estimators_on_each_panel():
    # The first stages and the residuals the Monte Carlo finishes from
    # are, replication by replication, the bytes the public estimators
    # give on that replication's simulated panel.
    spec = _MIXED
    seeds = [np.random.SeedSequence(entropy=4, spawn_key=(r,)) for r in range(5)]
    Y = simulate_module._draw_outcomes(spec, seeds)
    treated, controls = [Y[:, :spec.n]], [Y[:, spec.n:]]
    layout = simulate_module._panel(spec, np.zeros(Y.shape[1:]))
    kernel = estimators_module._kernel
    panels = [simulate_dgp(spec, seed) for seed in seeds]
    config, h = ForecastConfig(q=1, R=3), 2
    # One moment with lag 2, or lag 3 undetrended; two with lag 3 detrended.
    fits = {key: estimators_module._ah_layout(layout.treated_blocks, *key, []).fit(treated)
            for key in ((3, True), (3, False), (2, False))}
    first = fits[3, True]
    chunks = {
        "fat": kernel(layout.treated_blocks, config, h).apply(outcomes=treated),
        "placebo": kernel(layout.treated_blocks, config, h, tau_shift=1).apply(
            outcomes=treated),
        "control": kernel(layout.control_blocks, config, h).apply(outcomes=controls),
        "mb": kernel(layout.treated_blocks, config, h, lagged=True).apply(
            first[0], treated),
    }
    for r, panel in enumerate(panels):
        both = dfat(panel, config, h)
        single = {
            "fat": fat(panel, config, h), "placebo": placebo_fat(panel, config, 1, h),
            "control": both.control,
            "mb": model_based_fat(panel, MbConfig(q=1, R=3), h,
                                  first=anderson_hsiao(panel, 3, True)),
        }
        assert both.treated.residuals.tobytes() == single["fat"].residuals.tobytes()
        for (lag, detrend), (beta, _, psi, *_) in fits.items():
            one = anderson_hsiao(panel, lag, detrend)
            assert beta[r].tobytes() == one.beta.tobytes(), (r, lag, detrend)
            assert psi[r].tobytes() == one.psi.tobytes(), (r, lag, detrend)
        for key, est in single.items():
            res = chunks[key]
            assert res.ids.tolist() == list(est.unit_ids)
            assert res.residuals[r].tobytes() == est.residuals.tobytes(), (r, key)


@pytest.mark.parametrize("name, n_reps, calls", [
    # 4 pr kernels and 4 lagged ones, each shared by an mb and an mb_missp cell
    ("nonstationary_init", 50, 8),
    ("nonstationary_init", 120, 3 * 8),
    # pr and dfat's treated side share one kernel; dfat's controls have one
    ("common_shock", 50, 2),
    ("common_shock", 120, 3 * 2),
])
def test_a_chunk_makes_one_product_per_distinct_kernel(monkeypatch, name, n_reps, calls):
    made = []

    def counted(Y, columns):
        made.append(len(columns))
        return contrast(Y, columns)

    contrast = estimators_module._contrast
    monkeypatch.setattr(estimators_module, "_contrast", counted)
    spec, cells = preset(name)
    report = run_monte_carlo(spec, cells, n_reps, 5)
    assert len(made) == calls
    assert all(c.n_ok == n_reps for c in report.cells)


def test_monte_carlo_counts_a_failed_first_stage_against_each_cell():
    # With adoption after period 3, no period has its outcome three lags
    # back, so the lag-3 first stage fails in every replication: each of
    # its cells counts every failure and is degenerate, as when each cell
    # fitted its own first stage; the lag-2 group is unaffected.
    spec = DgpSpec(n=30, T=5, tau=3, trend_mode="recursive", init_mode="fixed")
    cells = (GridCell(estimator="mb", q=0, R=1, instrument_lag=3, group="a"),
             GridCell(estimator="mb", q=0, R=1, instrument_lag=2, group="b"),
             GridCell(estimator="mb", q=1, R=2, instrument_lag=3, group="a"))
    report = run_monte_carlo(spec, cells, n_reps=4, master_seed=5)
    assert_rows_equal([c.to_dict() for c in report.cells], _direct_cells(spec, cells, 4, 5))
    for name in ("a_q0_R1", "a_q1_R2"):
        row = report.cell(name)
        assert (row.n_ok, row.n_failed, row.degenerate) == (0, 4, True)
    assert report.cell("b_q0_R1").n_ok == 4


def test_monte_carlo_fits_one_first_stage_per_group(monkeypatch):
    # nonstationary_init has 8 model-based cells in 2 first-stage groups;
    # each group is laid out once a run and fitted once on each chunk's
    # stacked outcomes, and no cell goes through the per-panel estimators.
    chunk = simulate_module._CHUNK
    layouts, fits = [], []
    lay_out, fit = simulate_module._ah_layout, estimators_module._AhLayout.fit
    monkeypatch.setattr(simulate_module, "_ah_layout", lambda blocks, *a: (
        layouts.append(a) or lay_out(blocks, *a)))
    monkeypatch.setattr(estimators_module._AhLayout, "fit", lambda self, stacks: (
        fits.append((stacks[0].shape[0], self.detrend)) or fit(self, stacks)))
    for name in ("fat", "placebo_fat", "dfat", "model_based_fat"):
        monkeypatch.setattr(simulate_module, name, None)
    spec, cells = preset("nonstationary_init")
    assert sum(c.estimator == "mb" for c in cells) == 8
    run_monte_carlo(dataclasses.replace(spec, n=40), cells, n_reps=chunk + 3,
                    master_seed=0)
    assert layouts == [(3, True, []), (2, False, [])]
    assert fits == [(chunk, True), (chunk, False), (3, True), (3, False)]


def test_monte_carlo_fails_only_the_replication_whose_first_stage_is_singular(monkeypatch):
    # Replication 2 has constant outcomes, so its first-stage moment matrix
    # is exactly singular and the chunk's stacked solve raises: it is solved
    # again one replication at a time, and only replication 2's mb cells
    # fail.  The other replications' fits are those of their own panels.
    # The oracle simulates through ``simulate_dgp``, which draws through the
    # same ``_draw_outcomes``, so it sees the same flat replication.
    spec = DgpSpec(n=30, T=8, tau=6, trend_mode="recursive", init_mode="fixed", rho=0.4)
    draw = simulate_module._draw_outcomes

    def flat_replication_2(s, seeds):
        Y = draw(s, seeds)
        for y, seed in zip(Y, seeds):
            if seed.spawn_key == (2,):
                y[...] = 1.0
        return Y

    monkeypatch.setattr(simulate_module, "_draw_outcomes", flat_replication_2)
    cells = (GridCell(estimator="mb", q=1, R=2, instrument_lag=3, group="mb"),
             GridCell(estimator="mb", q=0, R=1, instrument_lag=2, detrend=False,
                      group="mb_missp"),
             GridCell(estimator="pr", q=1, R=2))
    report = run_monte_carlo(spec, cells, n_reps=5, master_seed=3)
    expected = monte_carlo_per_replication(spec, cells, 5, 3)
    assert_rows_equal([c.to_dict() for c in report.cells],
                      [c.to_dict() for c in expected.cells])
    assert [(c.n_ok, c.n_failed) for c in report.cells] == [(4, 1), (4, 1), (5, 0)]

    panels = [simulate_dgp(spec, np.random.SeedSequence(entropy=3, spawn_key=(r,)))
              for r in range(5)]
    assert (panels[2].treated_blocks[0].outcomes == 1.0).all()
    stacked = [np.stack([p.treated_blocks[0].outcomes for p in panels])]
    beta, _, psi, _ = estimators_module._ah_layout(
        panels[0].treated_blocks, 3, True, []).fit(stacked)
    assert np.isnan(beta[2]).all() and np.isnan(psi[2]).all()
    for r in (0, 1, 3, 4):
        one = estimators_module.anderson_hsiao(panels[r], 3, True)
        assert beta[r].tobytes() == one.beta.tobytes()
        assert psi[r].tobytes() == one.psi.tobytes()
    with pytest.raises(EstimationError, match="exactly singular"):
        estimators_module.anderson_hsiao(panels[2], 3, True)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_monte_carlo_matches_the_per_replication_oracle(name):
    # Every preset, at up to 200 units a group, over one full chunk and a
    # ragged one: counts and floats exactly.
    spec, cells = preset(name)
    spec = dataclasses.replace(spec, n=min(spec.n, 200), n_control=min(spec.n_control, 200))
    n_reps = simulate_module._CHUNK + 7
    report = run_monte_carlo(spec, cells, n_reps, 17, preset=name)
    expected = monte_carlo_per_replication(spec, cells, n_reps, 17, preset=name)
    assert_rows_equal([c.to_dict() for c in report.cells],
                      [c.to_dict() for c in expected.cells])


def test_cells_that_share_a_kernel_apart_in_the_grid_match_the_oracle():
    # The mb and mb_missp cells share a lagged kernel, and the pr cell and
    # both dfat cells a plain one, with other cells between them in the
    # grid; the two dfat cells differ in their group label alone.  Over a
    # full chunk and a ragged one, counts and floats exactly.
    cells = (GridCell(estimator="mb", q=1, R=2, instrument_lag=3, group="mb"),
             GridCell(estimator="pr", q=0, R=1),
             GridCell(estimator="mb", q=1, R=2, instrument_lag=2, detrend=False,
                      group="mb_missp"),
             GridCell(estimator="dfat", q=0, R=1),
             GridCell(estimator="placebo", q=0, R=1, lag=1),
             GridCell(estimator="dfat", q=0, R=1, group="dfat_b"))
    n_reps = simulate_module._CHUNK + 7
    report = run_monte_carlo(_MIXED, cells, n_reps, 31)
    expected = monte_carlo_per_replication(_MIXED, cells, n_reps, 31)
    assert_rows_equal([c.to_dict() for c in report.cells],
                      [c.to_dict() for c in expected.cells])
    assert all(c.n_ok == n_reps for c in report.cells)


def test_monte_carlo_fails_a_cell_with_one_usable_unit():
    # One unit gives no standard error: the cell fails in every replication
    # instead of reporting zero-width intervals.
    report = run_monte_carlo(DgpSpec(n=1, T=3, tau=2), (GridCell(estimator="pr", q=0, R=1),),
                             n_reps=3, master_seed=0)
    row = report.cell("pr_q0_R1")
    assert (row.n_ok, row.n_failed, row.degenerate) == (0, 3, True)
    assert row.to_dict()["coverage"] is None and row.to_dict()["se_est_mean"] is None


def test_monte_carlo_solves_each_window_once_per_process(monkeypatch):
    # The pr and mb cells of nonstationary_init share four (q, R, h)
    # windows; later replications and runs reuse their weights.
    solves = []
    solve = estimators_module.forecast_weights
    monkeypatch.setattr(estimators_module, "forecast_weights",
                        lambda *a: solves.append(a[0].order) or solve(*a))
    estimators_module._cached_weights.cache_clear()
    spec, cells = preset("nonstationary_init")
    run_monte_carlo(spec, cells, n_reps=3, master_seed=0)
    run_monte_carlo(spec, cells, n_reps=2, master_seed=1)
    assert solves == [0, 1, 2, 3]


def test_monte_carlo_truth_uses_injected_effect_but_zero_for_placebo():
    spec = DgpSpec(n=10, T=6, tau=4, include_ar=True, true_att=0.7)
    cells = (GridCell(estimator="pr", q=0, R=2),
             GridCell(estimator="placebo", q=0, R=2, lag=1))
    report = run_monte_carlo(spec, cells, n_reps=3, master_seed=5)
    assert report.cell("pr_q0_R2").truth == 0.7
    assert report.cell("placebo_lag1_q0_R2").truth == 0.0


def test_monte_carlo_marks_always_failing_cell_degenerate():
    # Horizon 2 in a panel observed only one period past adoption: the
    # forecast target is never observed, so every replication fails.
    spec = DgpSpec(n=5, T=3, tau=2, include_ar=True)
    cells = (GridCell(estimator="pr", q=0, R=1),
             GridCell(estimator="pr", q=0, R=1, h=2))
    report = run_monte_carlo(spec, cells, n_reps=4, master_seed=1)
    good, bad = report.cell("pr_q0_R1"), report.cell("pr_q0_R1_h2")
    assert good.n_ok == 4 and not good.degenerate
    assert bad.n_ok == 0 and bad.n_failed == 4 and bad.degenerate
    assert math.isnan(bad.bias)
    assert bad.to_dict()["bias"] is None
    assert bad.to_dict()["mc_se"] is None


def test_monte_carlo_marks_a_cell_whose_kernel_cannot_be_laid_out_degenerate():
    # With no controls, dfat's control kernel cannot be laid out: the cell
    # fails in every replication, while pr on the same draws does not.
    spec = DgpSpec(n=20, n_control=0, T=6, tau=5)
    cells = (GridCell(estimator="pr", q=0, R=2), GridCell(estimator="dfat", q=0, R=2))
    report = run_monte_carlo(spec, cells, n_reps=3, master_seed=1)
    good, bad = report.cell("pr_q0_R2"), report.cell("dfat_q0_R2")
    assert good.n_ok == 3 and not good.degenerate
    assert bad.n_ok == 0 and bad.n_failed == 3 and bad.degenerate
    assert math.isnan(bad.bias)
    assert report.to_json() == monte_carlo_per_replication(spec, cells, 3, 1).to_json()


def test_monte_carlo_report_is_reproducible_bytewise():
    spec = DgpSpec(n=8, T=6, tau=5, include_ar=True)
    cells = (GridCell(estimator="pr", q=0, R=1),
             GridCell(estimator="pr", q=0, R=2))
    a = run_monte_carlo(spec, cells, n_reps=4, master_seed=7, preset=None)
    b = run_monte_carlo(spec, cells, n_reps=4, master_seed=7, preset=None)
    assert a.to_json() == b.to_json()
    assert a.to_csv_text() == b.to_csv_text()


def test_monte_carlo_report_keeps_its_bytes():
    # The digest is of the text json.dumps(indent=2, sort_keys=True) gave
    # this report before write_json replaced it; a change that moves an MC
    # bit on purpose updates it.
    spec, cells = preset("nonstationary_init")
    report = run_monte_carlo(spec, cells, 20, 0, preset="nonstationary_init")
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5516759d3c7918756cd43a7db62f5d0ef2aa69350ee3805a32bb3a9a0d9f6468")


def test_report_json_shape():
    spec = DgpSpec(n=6, T=6, tau=5, include_ar=True)
    cells = (GridCell(estimator="pr", q=0, R=1),)
    report = run_monte_carlo(spec, cells, n_reps=2, master_seed=3,
                             preset="stationary")
    doc = json.loads(report.to_json())
    assert doc["schema"] == 1
    assert doc["kind"] == "mc_report"
    assert doc["preset"] == "stationary"
    assert doc["master_seed"] == 3
    assert doc["n_reps"] == 2
    assert doc["spec"]["rho"] == 0.2
    assert len(doc["cells"]) == 1
    assert doc["cells"][0]["name"] == "pr_q0_R1"


def test_report_csv_layout_round_trips_floats():
    spec = DgpSpec(n=6, T=6, tau=5, include_ar=True)
    cells = (GridCell(estimator="pr", q=0, R=1),
             GridCell(estimator="pr", q=0, R=2),
             GridCell(estimator="pr", q=1, R=2))
    report = run_monte_carlo(spec, cells, n_reps=3, master_seed=8)
    lines = report.to_csv_text().strip().split("\n")
    assert lines[0] == "label,q,metric,R=1,R=2"
    # One block of three metric rows per (label, q) pair.
    assert len(lines) == 1 + 2 * 3
    bias_row = lines[1].split(",")
    assert bias_row[:3] == ["pr", "0", "bias"]
    assert float(bias_row[3]) == report.cell("pr_q0_R1").bias
    # q=1 exists only at R=2; the R=1 column is blank.
    q1_bias = lines[4].split(",")
    assert q1_bias[:3] == ["pr", "1", "bias"]
    assert q1_bias[3] == ""
    assert float(q1_bias[4]) == report.cell("pr_q1_R2").bias


@pytest.mark.parametrize("group", ["a,b", 'say "hi"', "x\ry", "x\ny"])
def test_report_csv_quotes_a_group_label_that_needs_it(group):
    spec = DgpSpec(n=6, T=6, tau=5, include_ar=True)
    cells = (GridCell(estimator="pr", q=0, R=1, group=group),
             GridCell(estimator="pr", q=0, R=2, group=group),
             GridCell(estimator="pr", q=1, R=2))
    report = run_monte_carlo(spec, cells, n_reps=3, master_seed=8)
    rows = list(csv.reader(io.StringIO(report.to_csv_text(), newline="")))
    assert rows[0] == ["label", "q", "metric", "R=1", "R=2"]
    assert [len(r) for r in rows] == [5] * 7
    assert [r[:3] for r in rows[1:4]] == [[group, "0", m] for m in ("bias", "mc_se", "coverage")]
    assert float(rows[1][4]) == report.cell(f"{group}_q0_R2").bias
    assert rows[4][:4] == ["pr", "1", "bias", ""]


def test_report_cell_lookup_raises_for_unknown_name():
    spec = DgpSpec(n=4, T=6, tau=5)
    report = run_monte_carlo(spec, (GridCell(estimator="pr", q=0, R=1),),
                             n_reps=2, master_seed=0)
    with pytest.raises(KeyError):
        report.cell("pr_q9_R9")


# ---------------------------------------------------------------------------
# presets


def test_all_presets_load_and_have_distinct_cells():
    for name in PRESET_NAMES:
        spec, cells = preset(name)
        assert isinstance(spec, DgpSpec)
        names = [c.name for c in cells]
        assert len(set(names)) == len(names) and names


def test_unknown_preset_raises():
    with pytest.raises(ConfigError):
        preset("anova")


def test_tuning_grid_shape():
    spec, cells = preset("stationary")
    assert spec.include_ar and not spec.include_walk and not spec.include_trend
    assert spec.init_mode == "stationary" and spec.rho == 0.2
    assert (spec.n, spec.T, spec.tau) == (1000, 6, 5)
    # q=0 runs R=1..5, q=1 runs R=2..5, q=2 runs R=3..5.
    got = [(c.q, c.R) for c in cells]
    want = [(0, r) for r in range(1, 6)] + [(1, r) for r in range(2, 6)] \
        + [(2, r) for r in range(3, 6)]
    assert got == want


def test_component_presets_toggle_the_right_terms():
    assert preset("unit_root")[0].include_walk
    assert not preset("unit_root")[0].include_trend
    trend_spec = preset("trend")[0]
    assert trend_spec.include_trend and trend_spec.delta == 1.0
    both = preset("heterogeneous_both")[0]
    assert both.rho == (0.0, 0.99) and both.delta == (0.0, 2.0)
    assert preset("heterogeneous_trend")[0].rho == 0.2


def test_recursive_presets_differ_only_in_rho():
    spec_a, cells_a = preset("nonstationary_init")
    spec_b, cells_b = preset("nonstationary_init_rho09")
    assert spec_a.trend_mode == "recursive" and spec_a.init_mode == "fixed"
    assert spec_a.rho == 0.2 and spec_b.rho == 0.9
    assert cells_a == cells_b
    labels = {c.label for c in cells_a}
    assert labels == {"pr", "mb", "mb_missp"}
    assert all(c.R == c.q + 1 for c in cells_a)
    mb = [c for c in cells_a if c.label == "mb"]
    missp = [c for c in cells_a if c.label == "mb_missp"]
    assert all(c.instrument_lag == 3 and c.detrend for c in mb)
    assert all(c.instrument_lag == 2 and c.detrend is False for c in missp)


def test_shock_preset_has_controls_and_differenced_cell():
    spec, cells = preset("common_shock")
    assert spec.n == 500 and spec.n_control == 500
    assert spec.common_shock == 2.0 and spec.true_att == 0.0
    assert {c.estimator for c in cells} == {"pr", "dfat"}


# ---------------------------------------------------------------------------
# simulating straight into cohort blocks


def draw_per_replication(spec, seed):
    """One replication's (N, T) outcomes, drawn on their own from
    ``default_rng(seed)`` with one noise matrix per component."""
    rng = np.random.default_rng(seed)
    N = spec.n + spec.n_control
    T, tau = spec.T, spec.tau
    law = lambda v: (rng.uniform(v[0], v[1], size=N) if isinstance(v, tuple)
                     else np.full(N, float(v)))
    mu, rho, delta = law(spec.mu), law(spec.rho), law(spec.delta)
    if spec.init_mode == "stationary":
        init_mean, init_sd = mu / (1.0 - rho), 1.0 / np.sqrt(1.0 - rho ** 2)
    else:
        init_mean, init_sd = np.full(N, 1.0), np.full(N, math.sqrt(2.0))
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
            Y += np.cumsum(rng.standard_normal((N, T)), axis=1)
        if spec.include_trend:
            Y += delta[:, None] * trend_vals[None, :]
    post = (tgrid > tau).astype(float)
    if spec.common_shock:
        Y += spec.common_shock * post[None, :]
    if spec.true_att:
        Y[:spec.n] += spec.true_att * post[None, :]
    return Y


def simulate_per_unit(spec, seed):
    """The simulator as one validated ``UnitSeries`` per unit, stacked back
    into blocks by ``PanelData``: the reference for ``simulate_dgp``."""
    N, T, tau = spec.n + spec.n_control, spec.T, spec.tau
    Y, tgrid = draw_per_replication(spec, seed), np.arange(1, T + 1)
    width = max(4, len(str(N)))
    units = [UnitSeries(f"t{i + 1:0{width}d}", tgrid, Y[i], tau=tau)
             for i in range(spec.n)]
    units += [UnitSeries(f"c{j + 1:0{width}d}", tgrid, Y[spec.n + j], tau=tau,
                         is_control=True) for j in range(spec.n_control)]
    return PanelData(units)


def refuse_unit_series(monkeypatch):
    def refuse(self):
        raise AssertionError("UnitSeries built")

    monkeypatch.setattr(panel_module.UnitSeries, "__post_init__", refuse)


SPECS = {name: preset(name)[0] for name in PRESET_NAMES}
SPECS["mixed_small"] = DgpSpec(n=7, n_control=3, T=8, tau=3, include_walk=True,
                               include_trend=True, rho=(0.0, 0.5), true_att=0.25,
                               common_shock=-1.0, trend_power=2)


@pytest.mark.parametrize("name", list(SPECS))
def test_simulate_dgp_matches_the_per_unit_construction(name, monkeypatch):
    spec = SPECS[name]
    expected = simulate_per_unit(spec, 31)
    refuse_unit_series(monkeypatch)
    panel = simulate_dgp(spec, 31)
    got_blocks = panel.treated_blocks + panel.control_blocks
    want_blocks = expected.treated_blocks + expected.control_blocks
    assert len(panel.treated_blocks) == 1
    assert len(panel.control_blocks) == int(spec.n_control > 0)
    assert len(got_blocks) == len(want_blocks)
    for got, want in zip(got_blocks, want_blocks):
        assert (got.is_control, got.tau) == (want.is_control, want.tau)
        assert got.covariates is None and want.covariates is None
        assert got.times.tolist() == want.times.tolist()
        assert got.positions.tolist() == want.positions.tolist()
        assert got.unit_ids.tolist() == want.unit_ids.tolist()
        assert got.outcomes.tobytes() == want.outcomes.tobytes()
        assert got.outcomes.shape == want.outcomes.shape
    # The blocks are rows of one simulated array, not copies of it.
    assert all(b.outcomes.base is got_blocks[0].outcomes.base for b in got_blocks)
    assert len(panel) == len(expected)
    assert panel.common_tau() == expected.common_tau() == spec.tau
    assert panel.is_balanced()
    monkeypatch.undo()
    assert [(u.unit_id, u.tau, u.is_control) for u in panel.units] == \
        [(u.unit_id, u.tau, u.is_control) for u in expected.units]
    assert all(a.outcomes.tobytes() == b.outcomes.tobytes()
               for a, b in zip(panel.units, expected.units))


def test_simulated_panels_share_read_only_unit_ids():
    spec = DgpSpec(n=7, n_control=3, T=6, tau=4)
    a, b = simulate_dgp(spec, 1), simulate_dgp(spec, 2)
    for x, y in zip(a.treated_blocks + a.control_blocks,
                    b.treated_blocks + b.control_blocks):
        assert x.unit_ids is y.unit_ids
        assert not x.unit_ids.flags.writeable
    with pytest.raises(ValueError):
        a.treated_blocks[0].unit_ids[0] = "c0001"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_monte_carlo_report_equals_the_report_on_per_unit_panels(name, monkeypatch):
    # The same report when the layout panel is rebuilt from one UnitSeries
    # per unit and every replication is drawn by the per-unit simulator.
    spec, cells = preset(name)
    with monkeypatch.context() as m:
        refuse_unit_series(m)
        report = run_monte_carlo(spec, cells, 3, 5, preset=name)
    layout = simulate_module._panel
    monkeypatch.setattr(simulate_module, "_panel",
                        lambda s, Y: PanelData(list(layout(s, Y).units)))
    monkeypatch.setattr(simulate_module, "_draw_outcomes", lambda s, seeds: np.stack(
        [outcomes_matrix(simulate_per_unit(s, seed)) for seed in seeds]))
    rebuilt = run_monte_carlo(spec, cells, 3, 5, preset=name)
    assert report.to_json() == rebuilt.to_json()


def _law(draw, lo, hi):
    """A scalar or a (lo, hi) interval inside [lo, hi]."""
    a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    return draw(st.sampled_from([a, (min(a, b), max(a, b))]))


@st.composite
def dgp_specs(draw):
    T = draw(st.integers(2, 9))
    init_mode = draw(st.sampled_from(["stationary", "fixed"]))
    rho_bound = 0.95 if init_mode == "stationary" else 1.2
    return DgpSpec(
        n=draw(st.integers(1, 6)), n_control=draw(st.sampled_from([0, 0, 1, 4])),
        T=T, tau=draw(st.integers(1, T - 1)),
        include_ar=draw(st.booleans()), include_walk=draw(st.booleans()),
        include_trend=draw(st.booleans()),
        trend_mode=draw(st.sampled_from(["additive", "recursive"])), init_mode=init_mode,
        rho=_law(draw, -rho_bound, rho_bound), mu=_law(draw, -2.0, 2.0),
        delta=_law(draw, -2.0, 2.0), trend_power=draw(st.integers(1, 3)),
        true_att=draw(st.sampled_from([0.0, draw(st.floats(-3.0, 3.0))])),
        common_shock=draw(st.sampled_from([0.0, draw(st.floats(-3.0, 3.0))])))


def _with_chunk_examples(test):
    # Every SPECS entry drawn alone (B = 1), as a chunk (B = 7), and as a
    # chunk after the first (reps 50-56).
    for spec in SPECS.values():
        for start, size in ((0, 1), (0, 7), (50, 7)):
            test = example(spec=spec, master_seed=31, start=start, size=size)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(spec=dgp_specs(), master_seed=st.integers(0, 2 ** 32 - 1),
       start=st.integers(0, 120), size=st.integers(1, 7))
@_with_chunk_examples
def test_draw_outcomes_matches_the_per_replication_simulator(spec, master_seed, start, size):
    # Each replication's outcomes are its own stream's, bit for bit, whether
    # it is drawn alone, in a chunk, or in a chunk after the first.
    seeds = [np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
             for r in range(start, start + size)]
    got = simulate_module._draw_outcomes(spec, seeds)
    want = np.stack([draw_per_replication(spec, seed) for seed in seeds])
    assert got.shape == (size, spec.n + spec.n_control, spec.T)
    assert got.tobytes() == want.tobytes()
    # The one panel simulate_dgp draws for a seed is that seed's row of a chunk.
    panel = simulate_dgp(spec, seeds[-1])
    blocks = panel.treated_blocks + panel.control_blocks
    assert np.concatenate([b.outcomes for b in blocks]).tobytes() == got[-1].tobytes()
