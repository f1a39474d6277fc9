"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a single scorecard line (``ACCEPTANCE Cn: PASS/FAIL``)
that the conftest hook prints after the run, outside output capture,
then asserts.  Monte Carlo runs use frozen master seeds and are cached
at module scope, so a full run is reproducible bit for bit and criteria
can share the expensive simulations.  Reference dispersion values are
frozen from an independent implementation of the same simulation
designs.
"""

import dataclasses
import time
from functools import lru_cache
from math import sqrt

import numpy as np

from fatpanel.basis import (BasisSpec, ForecastConfig, binomial_weights,
                            fit_and_forecast, forecast_weights)
from fatpanel.estimators import fat
from fatpanel.panel import PanelData, UnitSeries
from fatpanel.simulate import (DgpSpec, GridCell, analytic_mean_recursion,
                               preset, run_monte_carlo)
from oracles import fat_balanced_avg, fat_pooled, iterative_forecast

REPS = 1000
SEEDS = {
    "stationary": 1031,
    "unit_root": 1032,
    "trend": 1033,
    "nonstationary_init": 1041,
    "nonstationary_init_rho09": 1042,
    "heterogeneous_trend": 1051,
    "heterogeneous_both": 1052,
    "quadratic": 1061,
    "coverage": 1071,
    "common_shock": 1091,
    "placebo": 1101,
}

# Monte Carlo dispersion (mc_se) per (q, R) cell of the component-process
# designs, frozen from an independent implementation run at n=1000; our
# estimates must land within 20%.
REFERENCE_MC_SE = {
    "stationary": {
        (0, 1): 0.0397, (0, 2): 0.0360, (0, 3): 0.0354, (0, 4): 0.0346,
        (0, 5): 0.0341, (1, 2): 0.0709, (1, 3): 0.0565, (1, 4): 0.0476,
        (1, 5): 0.0448, (2, 3): 0.1225, (2, 4): 0.0907, (2, 5): 0.0726,
    },
    "unit_root": {
        (0, 1): 0.0516, (0, 2): 0.0512, (0, 3): 0.0525, (0, 4): 0.0547,
        (0, 5): 0.0577, (1, 2): 0.0820, (1, 3): 0.0664, (1, 4): 0.0625,
        (1, 5): 0.0606, (2, 3): 0.1454, (2, 4): 0.0997, (2, 5): 0.0868,
    },
    "trend": {
        (1, 2): 0.0680, (1, 3): 0.0536, (1, 4): 0.0466, (1, 5): 0.0442,
        (2, 3): 0.1225, (2, 4): 0.0839, (2, 5): 0.0698,
    },
}


VERDICTS = []


def _verdict(tag: str, title: str, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {tag}: {status} - {title}"
    VERDICTS.append(line)
    print(line)
    assert not failures, f"{title}: " + "; ".join(failures)


@lru_cache(maxsize=None)
def preset_run(name, n_reps=REPS):
    spec, cells = preset(name)
    return run_monte_carlo(spec, cells, n_reps, SEEDS[name], preset=name)


# -- C1: weight algebra -------------------------------------------------------

def test_c01_weight_algebra():
    failures = []
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for q in range(7):
        basis = BasisSpec("polynomial", order=q)
        for R in range(q + 1, q + 7):
            window = np.arange(1, R + 1)
            for h in (1, 2, 3):
                w = forecast_weights(basis, window, R + h).weights
                gap = abs(w.sum() - 1.0)
                if gap >= 1e-12:
                    failures.append(f"q={q} R={R} h={h}: |sum w - 1| = {gap:.2e}")
        # Closed form for the shortest window, one step ahead.
        w_ols = forecast_weights(basis, np.arange(1, q + 2), q + 2).weights
        w_binom = binomial_weights(q).weights
        if np.max(np.abs(w_ols - w_binom)) >= 1e-8:
            failures.append(f"q={q}: closed form differs from OLS weights")
        y = rng.normal(size=q + 1)
        direct = fit_and_forecast(y, basis, q + 2, times=np.arange(1, q + 2))
        if abs(iterative_forecast(y, q) - direct) >= 1e-8:
            failures.append(f"q={q}: iterative forecast differs from direct")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict("C1", "forecast weight algebra", failures)


# -- C2: balanced-panel equivalences ------------------------------------------

def test_c02_balanced_panel_equivalence():
    failures = []
    rng = np.random.default_rng(1002)
    for trial in range(100):
        n = int(rng.integers(2, 51))
        T = int(rng.integers(4, 11))
        q = int(rng.integers(0, 3))
        tau = int(rng.integers(q + 1, T))
        R = int(rng.integers(q + 1, tau + 1))
        h = int(rng.integers(1, T - tau + 1))
        units = [UnitSeries(unit_id=f"u{i}", times=np.arange(1, T + 1),
                            outcomes=rng.normal(size=T), tau=tau)
                 for i in range(n)]
        panel = PanelData(units)
        point = fat(panel, ForecastConfig(q=q, R=R), h).point
        avg = fat_balanced_avg(panel, q=q, R=R, h=h)
        pooled = fat_pooled(panel, q=q, R=R, h=h)[h - 1]
        if abs(point - avg) >= 1e-8 or abs(point - pooled) >= 1e-8:
            failures.append(
                f"trial {trial} (n={n} T={T} tau={tau} q={q} R={R} h={h}): "
                f"fat={point!r} avg={avg!r} pooled={pooled!r}")
    _verdict("C2", "balanced-panel estimator equivalence", failures)


# -- C3: component-process designs against reference dispersions ---------------

def test_c03_component_process_designs():
    failures = []
    for name in ("stationary", "unit_root", "trend"):
        report = preset_run(name)
        for cell in report.cells:
            if name == "trend" and cell.q == 0:
                # Linear trend outside the q=0 span: known analytic bias
                # delta * (h + (R-1)/2).
                target = 1.0 + (cell.R - 1) / 2
                if abs(cell.bias - target) > 0.05:
                    failures.append(
                        f"{name} {cell.name}: bias {cell.bias:.4f} "
                        f"not {target} +- 0.05")
                continue
            bound = 3.0 * cell.mc_se / sqrt(cell.n_ok)
            if abs(cell.bias) > bound:
                failures.append(
                    f"{name} {cell.name}: |bias| {abs(cell.bias):.5f} "
                    f"exceeds 3*mc_se/sqrt(reps) = {bound:.5f}")
            ref = REFERENCE_MC_SE[name][(cell.q, cell.R)]
            if abs(cell.mc_se / ref - 1.0) > 0.20:
                failures.append(
                    f"{name} {cell.name}: mc_se {cell.mc_se:.4f} not within "
                    f"20% of reference {ref}")
    _verdict("C3", "component-process designs match reference", failures)


# -- C4: recursive-trend designs and the model-based estimator -----------------

def _oracle_bias(rho: float, q: int) -> float:
    """Mean forecast error of the order-q fit on the recursive design."""
    e = analytic_mean_recursion(rho, 1.0, 1.0, 6)
    w = binomial_weights(q).weights
    window = e[5 - q:6]
    return float(e[6] - w @ window)


def test_c04_recursive_trend_designs():
    failures = []
    rep02 = preset_run("nonstationary_init")
    rep09 = preset_run("nonstationary_init_rho09")

    for report, rho, q, pinned in ((rep02, 0.2, 0, 1.25),
                                   (rep09, 0.9, 1, 0.597),
                                   (rep09, 0.9, 2, -0.066)):
        cell = report.cell(f"pr_q{q}_R{q + 1}")
        oracle = _oracle_bias(rho, q)
        if abs(cell.bias - pinned) > 0.05:
            failures.append(f"pr q={q} rho={rho}: bias {cell.bias:.4f} "
                            f"not {pinned} +- 0.05")
        if abs(cell.bias - oracle) > 0.05:
            failures.append(f"pr q={q} rho={rho}: bias {cell.bias:.4f} "
                            f"disagrees with analytic oracle {oracle:.4f}")
        if abs(oracle - pinned) > 0.005:
            failures.append(f"analytic oracle {oracle:.4f} does not back "
                            f"the pinned value {pinned}")

    for report, rho in ((rep02, 0.2), (rep09, 0.9)):
        cell = report.cell("mb_q1_R2")
        if abs(cell.bias) > 0.03:
            failures.append(f"mb q=1 rho={rho}: |bias| {abs(cell.bias):.4f} "
                            f"> 0.03")

    ratios = []
    for report in (rep02, rep09):
        for q in range(4):
            pr = report.cell(f"pr_q{q}_R{q + 1}")
            missp = report.cell(f"mb_missp_q{q}_R{q + 1}")
            ratios.append(missp.mc_se / pr.mc_se)
    if max(ratios) < 5.0:
        failures.append(
            f"misspecified first stage never reaches 5x the forecast-only "
            f"dispersion (max ratio {max(ratios):.2f})")
    _verdict("C4", "recursive-trend designs and model-based estimator",
             failures)


# -- C5: heterogeneous-coefficient designs -------------------------------------

def test_c05_heterogeneous_designs():
    failures = []
    for name in ("heterogeneous_trend", "heterogeneous_both"):
        report = preset_run(name)
        for cell in report.cells:
            if cell.q < 1:
                continue
            if abs(cell.bias) > 3.0 * cell.mc_se:
                failures.append(f"{name} {cell.name}: |bias| "
                                f"{abs(cell.bias):.4f} > 3*mc_se "
                                f"{3 * cell.mc_se:.4f}")
    _verdict("C5", "heterogeneous-coefficient designs unbiased for q>=1",
             failures)


# -- C6: polynomial order at the identification boundary -----------------------

def test_c06_quadratic_trend_order_boundary():
    failures = []
    spec = DgpSpec(n=1000, T=6, tau=5, include_ar=True, include_trend=True,
                   trend_power=2, rho=0.2, delta=1.0)
    cells = (GridCell(estimator="pr", q=1, R=2),
             GridCell(estimator="pr", q=2, R=3),
             GridCell(estimator="pr", q=3, R=4))
    report = run_monte_carlo(spec, cells, REPS, SEEDS["quadratic"])
    for q in (2, 3):
        cell = report.cell(f"pr_q{q}_R{q + 1}")
        if abs(cell.bias) > 3.0 * cell.mc_se:
            failures.append(f"q={q}: |bias| {abs(cell.bias):.4f} > 3*mc_se")
    low = report.cell("pr_q1_R2")
    if abs(low.bias) <= 5.0 * low.mc_se:
        failures.append(f"q=1 should be badly biased under a quadratic "
                        f"trend, got |bias| {abs(low.bias):.4f} <= 5*mc_se")
    _verdict("C6", "quadratic trend needs q >= 2", failures)


# -- C7: confidence-interval coverage ------------------------------------------

def test_c07_interval_coverage():
    failures = []
    spec, cells = preset("stationary")
    spec = dataclasses.replace(spec, true_att=0.5)
    report = run_monte_carlo(spec, cells, 2000, SEEDS["coverage"])
    for cell in report.cells:
        if not 0.93 <= cell.coverage <= 0.97:
            failures.append(f"{cell.name}: coverage {cell.coverage:.4f} "
                            f"outside [0.93, 0.97]")
    _verdict("C7", "95% intervals cover an injected effect", failures)


# -- C8: estimated standard errors track the Monte Carlo truth ------------------

def test_c08_variance_estimators():
    failures = []
    for cell in preset_run("stationary").cells:
        ratio = cell.se_est_mean / cell.mc_se
        if abs(ratio - 1.0) > 0.10:
            failures.append(f"stationary {cell.name}: se/mc_se {ratio:.3f} "
                            f"off by more than 10%")
    # The q=0 model-based cell is excluded: its window cannot span the
    # trend, so the estimator is biased there and its model-implied
    # variance has no reason to match the Monte Carlo spread.
    for name in ("nonstationary_init", "nonstationary_init_rho09"):
        report = preset_run(name)
        for q in (1, 2, 3):
            cell = report.cell(f"mb_q{q}_R{q + 1}")
            ratio = cell.se_est_mean / cell.mc_se
            if abs(ratio - 1.0) > 0.15:
                failures.append(f"{name} {cell.name}: se/mc_se {ratio:.3f} "
                                f"off by more than 15%")
    _verdict("C8", "estimated standard errors track MC dispersion", failures)


# -- C9: common post-adoption shock cancels in the differenced estimator -------

def test_c09_common_shock_cancellation():
    failures = []
    report = preset_run("common_shock", 400)
    fat_cell = report.cell("pr_q0_R5")
    dfat_cell = report.cell("dfat_q0_R5")
    if abs(fat_cell.bias - 2.0) > 0.1:
        failures.append(f"forecast-only bias {fat_cell.bias:.4f} "
                        f"not 2 +- 0.1 under the common shock")
    if abs(dfat_cell.bias) > 3.0 * dfat_cell.mc_se:
        failures.append(f"differenced estimator bias {dfat_cell.bias:.5f} "
                        f"> 3*mc_se {3 * dfat_cell.mc_se:.5f}")
    _verdict("C9", "differenced estimator cancels common shocks", failures)


# -- C10: placebo estimates cover zero at the nominal rate ----------------------

def test_c10_placebo_validity():
    failures = []
    spec, _ = preset("stationary")
    cells = tuple(GridCell(estimator="placebo", q=0, R=2, lag=j)
                  for j in (1, 2, 3))
    report = run_monte_carlo(spec, cells, 2000, SEEDS["placebo"])
    for cell in report.cells:
        if not 0.93 <= cell.coverage <= 0.97:
            failures.append(f"{cell.name}: coverage {cell.coverage:.4f} "
                            f"outside [0.93, 0.97]")
    _verdict("C10", "placebo intervals cover zero at the nominal rate",
             failures)
