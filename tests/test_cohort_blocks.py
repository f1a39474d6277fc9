"""Property tests: the cohort-block estimators against a per-unit oracle.

The oracle below resolves every unit on its own, exactly as the
estimators are documented to: window, target, lagged outcome and
covariates are looked up period by period, forecast weights are solved
per unit, and first-stage moments are accumulated one observation at a
time.  Random staggered panels (late starts, early and interior gaps,
missing targets, covariate holes, controls with and without a cohort
date) are built from a few unit templates assigned in random order, so
cohort blocks hold several units and interleave in the panel.  The
estimators must reproduce the oracle's unit ids, drop order and reasons
exactly and its numbers to 1e-12 of the data's scale.  On a panel whose
dates ``apply_anticipation`` moved back by 0 to 2 periods they must match
the oracles at that shift, and, bit for bit, the panel with its dates
moved by hand.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fatpanel.basis import BasisSpec, ForecastConfig, forecast_weights
from fatpanel.errors import EstimationError, FatpanelError, RankDeficiencyError
from fatpanel.estimators import (MbConfig, anderson_hsiao, covariate_fat_heterogeneous,
                                 dfat, fat, fat_variance, mb_variance, model_based_fat,
                                 placebo_fat)
from fatpanel.panel import PanelData, UnitSeries, apply_anticipation, validate
from oracles import covariate_fat_per_unit, oracle_validate

TOL = 1e-12


# ---------------------------------------------------------------------------
# the per-unit oracle


def _index(u, t):
    i = int(np.searchsorted(u.times, t))
    return i if i < u.times.size and u.times[i] == t else None


def _window(u, eff_tau, q, R, shrink, lead=0):
    """(i0, i1) of the unit's window, or the reason it is dropped."""
    i = _index(u, eff_tau)
    if i is None:
        return f"no observation at effective adoption date {eff_tau}"
    run = 1
    while i - run >= 0 and u.times[i - run] == eff_tau - run:
        run += 1
    R_i = run - lead if R == "all" else R
    if run < R_i:
        if u.times[0] < eff_tau - run + 1:
            if not shrink:
                raise EstimationError(
                    f"unit {u.unit_id!r}: missing periods inside the "
                    f"estimation window ending at {eff_tau}; pass "
                    "shrink_window=True to shrink to the contiguous run")
            R_i = run
        else:
            return f"pre-treatment history of {run} periods is shorter than R={R_i}"
    if R_i < q + 1:
        return f"only {R_i} usable pre-treatment periods, need q+1={q + 1}"
    return i - R_i + 1, i


def oracle_residuals(units, config, h, shift, lagged=False, cov_idx=(), beta=()):
    """(ids, residuals, gradients, dropped), one unit at a time."""
    if not units:
        raise EstimationError("no units to estimate on")
    q = config.basis.order
    beta = np.asarray(beta, dtype=float)
    ids, res, grads, dropped = [], [], [], []
    for u in units:
        eff = u.tau - shift
        win = _window(u, eff, q, config.R, config.shrink_window, int(lagged))
        if isinstance(win, str):
            dropped.append((u.unit_id, win))
            continue
        i0, i1 = win
        target = eff + h
        jt = _index(u, target)
        if jt is None:
            dropped.append((u.unit_id, f"outcome not observed at target period {target}"))
            continue
        xcols, xt = [], []
        if lagged:
            jl = _index(u, target - 1)
            if i0 == 0 or u.times[i0 - 1] != u.times[i0] - 1 or jl is None:
                dropped.append((u.unit_id, "lagged outcome missing for the window or target"))
                continue
            xcols.append(u.outcomes[i0 - 1:i1])
            xt.append(u.outcomes[jl])
        complete = True
        for c in cov_idx:
            col, tgt = u.covariates[i0:i1 + 1, c], u.covariates[jt, c]
            if np.isnan(col).any() or np.isnan(tgt):
                complete = False
                break
            xcols.append(col)
            xt.append(tgt)
        if not complete:
            dropped.append((u.unit_id, "incomplete covariates on the window or target"))
            continue
        try:
            w = forecast_weights(config.basis, u.times[i0:i1 + 1], target).weights
        except RankDeficiencyError:
            dropped.append((u.unit_id, "window design is rank deficient"))
            continue
        X = np.column_stack(xcols) if xcols else np.zeros((i1 - i0 + 1, 0))
        xt = np.asarray(xt, dtype=float)
        forecast = float(xt @ beta) + float(w @ (u.outcomes[i0:i1 + 1] - X @ beta))
        ids.append(u.unit_id)
        res.append(float(u.outcomes[jt]) - forecast)
        grads.append(xt - X.T @ w)
    grads = np.vstack(grads) if grads else np.zeros((0, len(beta)))
    return tuple(ids), np.array(res), grads, tuple(dropped)


def oracle_ah(panel, lag, detrend, cov_idx, shift):
    """(beta, intercept, psi by unit, n_units, n_obs) of the first stage."""
    treated = [u for u in panel.units if not u.is_control]
    if not treated:
        raise EstimationError("no treated units")
    k = 1 + len(cov_idx) + int(detrend)
    uids, As, bs, n_obs = [], [], [], 0
    for u in treated:
        A, b, rows = np.zeros((k, k)), np.zeros(k), 0
        for i_t, t in enumerate(u.times):
            if t > u.tau - shift:
                break
            i1, i2, il = _index(u, t - 1), _index(u, t - 2), _index(u, t - lag)
            if i1 is None or i2 is None or il is None:
                continue
            wrow = [u.outcomes[i1] - u.outcomes[i2]]
            zrow = [u.outcomes[il]]
            if cov_idx:
                x_t, x_1 = u.covariates[i_t, cov_idx], u.covariates[i1, cov_idx]
                if np.isnan(x_t).any() or np.isnan(x_1).any():
                    continue
                wrow.extend(x_t - x_1)
                zrow.extend(x_1)
            if detrend:
                wrow.append(1.0)
                zrow.append(1.0)
            A += np.outer(zrow, wrow)
            b += np.asarray(zrow) * (u.outcomes[i_t] - u.outcomes[i1])
            rows += 1
        if rows:
            uids.append(u.unit_id)
            As.append(A)
            bs.append(b)
            n_obs += rows
    if not uids:
        raise EstimationError(f"no unit has enough history for instrument lag {lag}")
    A_all, b_all = np.stack(As), np.stack(bs)
    ZtW = A_all.sum(axis=0)
    try:
        beta = np.linalg.solve(ZtW, b_all.sum(axis=0))
        m = b_all - A_all @ beta
        psi = np.linalg.solve(ZtW / len(uids), m.T).T[:, :k - int(detrend)]
    except np.linalg.LinAlgError:
        raise EstimationError("first-stage moment matrix is exactly singular") from None
    return (beta[:k - int(detrend)], float(beta[-1]) if detrend else None,
            dict(zip(uids, psi)), len(uids), n_obs)


def _summary(ids, res, dropped, se_of=fat_variance):
    if len(ids) < 2:
        detail = "; ".join(f"{u}: {r}" for u, r in dropped[:3])
        raise EstimationError(f"no usable units ({detail})" if not ids else
                              f"only one usable unit ({ids[0]}); a standard "
                              "error needs at least two")
    return math.fsum(res.tolist()) / len(ids), se_of(res)


# ---------------------------------------------------------------------------
# random staggered panels


@st.composite
def cases(draw):
    """(panel, settings) with units drawn from a few templates."""
    T = draw(st.integers(5, 11))
    has_cov = draw(st.booleans())
    templates = []
    for _ in range(draw(st.integers(2, 4))):
        control = draw(st.sampled_from([False, False, False, True]))
        tau = None if control and draw(st.booleans()) else draw(st.integers(2, T - 2))
        last = tau if tau is not None else T - 2
        start = draw(st.one_of(st.just(0), st.integers(0, last)))
        hole = draw(st.one_of(st.none(), st.integers(start + 1, T - 1)))
        templates.append((control, tau, [t for t in range(start, T) if t != hole]))
    copies = [k for k in range(len(templates)) for _ in range(draw(st.integers(1, 3)))]
    assignment = draw(st.permutations(copies))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    units = []
    for i, k in enumerate(assignment):
        control, tau, times = templates[k]
        times = np.array(times)
        y = rng.normal(0.0, 1.0) + rng.normal(0.0, 0.3) * times + rng.normal(size=times.size)
        cov = None
        if has_cov:
            cov = rng.normal(size=(times.size, 1))
            cov[rng.random(times.size) < 0.15] = np.nan
        units.append(UnitSeries(f"u{i}", times, y, tau=tau, is_control=control,
                                covariates=cov))
    panel = PanelData(units, covariate_names=("x",) if has_cov else ())
    q = draw(st.integers(0, 2))
    basis = draw(st.sampled_from([None, None, None, 2.0, 3.0]))
    settings_ = dict(
        q=q, R=draw(st.sampled_from(["all", q + 1, q + 2, q + 3])),
        h=draw(st.integers(1, 3)), lag=draw(st.integers(0, 2)),
        shrink=draw(st.booleans()),
        fourier_period=basis, instrument_lag=draw(st.sampled_from([2, 3])),
        beta=draw(st.floats(-0.9, 0.9)), use_cov=has_cov,
    )
    return panel, settings_


def _slow_path_example():
    # A balanced panel in which one unit has an extra, far-earlier
    # observation: its time grid differs but every window and target is
    # unchanged.
    rng = np.random.default_rng(33)
    Y = rng.normal(size=(6, 8)) + rng.normal(size=(6, 1)) * np.arange(8)
    units = [UnitSeries(f"u{i}", np.arange(8), Y[i], tau=5) for i in range(6)]
    units[0] = UnitSeries("u0", np.concatenate([[-10], np.arange(8)]),
                          np.concatenate([[99.0], Y[0]]), tau=5)
    return PanelData(units), dict(q=1, R=4, h=1, lag=0, shrink=False,
                                  fourier_period=None, instrument_lag=3,
                                  beta=0.5, use_cov=False)


def _outcome(fn):
    try:
        return fn()
    except FatpanelError as exc:
        return exc


def _scale(panel, beta=()):
    ymax = max(float(np.abs(u.outcomes).max()) for u in panel.units)
    return TOL * 100.0 * max(1.0, ymax) * (1.0 + float(np.abs(beta).sum()))


def _same(actual, expected, atol):
    """Compare an estimator outcome with the oracle's (or both errors)."""
    if isinstance(expected, Exception):
        assert isinstance(actual, Exception), f"expected {expected!r}, got a result"
        assert (type(actual), str(actual)) == (type(expected), str(expected))
        return
    assert not isinstance(actual, Exception), f"unexpected {actual!r}"
    est, (ids, res, dropped, point, se) = actual, expected
    assert est.unit_ids == ids
    assert est.dropped == dropped
    np.testing.assert_allclose(est.residuals, res, rtol=TOL, atol=atol)
    assert est.point == pytest.approx(point, rel=TOL, abs=atol)
    assert est.se == pytest.approx(se, rel=TOL, abs=atol)


def _config(s):
    basis = (BasisSpec("polynomial", order=s["q"]) if s["fourier_period"] is None
             else BasisSpec("fourier", order=s["q"], period=s["fourier_period"]))
    return ForecastConfig(R=s["R"], basis=basis,
                          shrink_window=s["shrink"])


def _fat_oracle(units, config, h, shift):
    def run():
        ids, res, _, dropped = oracle_residuals(units, config, h, shift)
        return (ids, res, dropped, *_summary(ids, res, dropped))
    return _outcome(run)


def _check_fat_family(panel, s, shift=0):
    """``fat``, ``placebo_fat`` and ``dfat`` on ``panel`` with its dates
    moved back by ``shift`` against the oracle at that shift."""
    shifted = apply_anticipation(panel, shift)
    config = _config(s)
    h, lag = s["h"], s["lag"]
    atol = _scale(panel)
    treated = [u for u in panel.units if not u.is_control]

    _same(_outcome(lambda: fat(shifted, config, h)),
          _fat_oracle(treated, config, h, shift), atol)
    _same(_outcome(lambda: placebo_fat(shifted, config, lag, h)),
          _fat_oracle(treated, config, h, shift + lag), atol)

    controls = [u for u in panel.units if u.is_control and u.tau is not None]
    skipped = tuple((u.unit_id, "no adoption date") for u in panel.units
                    if u.is_control and u.tau is None)
    est = _outcome(lambda: dfat(shifted, config, h))
    if not treated or not controls:
        assert isinstance(est, EstimationError) and "dfat needs" in str(est)
        return

    def run_dfat():
        t_ids, t_res, _, t_drop = oracle_residuals(treated, config, h, shift)
        c_ids, c_res, _, c_drop = oracle_residuals(controls, config, h, shift)
        c_drop += skipped
        return ((t_ids, t_res, t_drop, *_summary(t_ids, t_res, t_drop)),
                (c_ids, c_res, c_drop, *_summary(c_ids, c_res, c_drop)))
    expected = _outcome(run_dfat)
    if isinstance(expected, Exception):
        _same(est, expected, atol)
        return
    assert not isinstance(est, Exception), f"unexpected {est!r}"
    _same(est.treated, expected[0], atol)
    _same(est.control, expected[1], atol)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=_slow_path_example())
@given(case=cases())
def test_blocks_match_per_unit_oracle(case):
    _check_fat_family(*case)


def _mb_oracle(panel, mb, h, shift, lag=None):
    """``model_based_fat`` with ``mb``'s known beta, or with the first stage
    at instrument lag ``lag`` and its default detrending."""
    cov_idx = [panel.covariate_names.index(c) for c in mb.covariates]
    if mb.beta is not None:
        beta, psi = np.asarray(mb.beta), {}
    else:
        beta, _, psi, _, _ = oracle_ah(panel, lag, lag == 3, cov_idx, shift)
    treated = [u for u in panel.units if not u.is_control]
    if not treated:
        raise EstimationError("no treated units")
    ids, res, grads, dropped = oracle_residuals(
        treated, mb.forecast_config(), h, shift, mb.lagged_outcome, cov_idx, beta)
    zeros = np.zeros(len(beta))

    def se_of(r):
        if not psi:
            return fat_variance(r)
        return mb_variance(r, grads, np.vstack([psi.get(u, zeros) for u in ids]))
    return ids, res, dropped, *_summary(ids, res, dropped, se_of)


def _check_model_based(panel, s, shift=0):
    """``model_based_fat`` with a known and a fitted first stage, and
    ``anderson_hsiao``, on ``panel`` with its dates moved back by ``shift``
    against the oracle at that shift."""
    shifted = apply_anticipation(panel, shift)
    covs = ("x",) if s["use_cov"] else ()
    user = MbConfig(q=s["q"], R=s["R"], covariates=covs,
                    beta=(s["beta"],) + (0.7,) * len(covs))
    _same(_outcome(lambda: model_based_fat(shifted, user, s["h"])),
          _outcome(lambda: _mb_oracle(panel, user, s["h"], shift)),
          _scale(panel, user.beta))

    ah, lag = MbConfig(q=s["q"], R=s["R"], covariates=covs), s["instrument_lag"]
    cov_idx = [panel.covariate_names.index(c) for c in covs]
    first = _outcome(lambda: anderson_hsiao(shifted, lag, None, covs))
    expected = _outcome(lambda: oracle_ah(panel, lag, lag == 3, cov_idx, shift))
    if isinstance(expected, Exception):
        _same(first, expected, 0.0)
        return
    beta, intercept, psi, n_units, n_obs = expected
    # Moments are accumulated in the same order, so the fit is exact.
    np.testing.assert_array_equal(first.beta, beta)
    assert first.intercept == intercept
    # psi rows are aligned with the contributing units' panel positions.
    units = panel.units
    assert [units[p].unit_id for p in first.positions] == list(psi)
    np.testing.assert_array_equal(first.psi, np.vstack(list(psi.values())))
    assert (first.n_units, first.n_obs) == (n_units, n_obs)
    _same(_outcome(lambda: model_based_fat(shifted, ah, s["h"], first=first)),
          _outcome(lambda: _mb_oracle(panel, ah, s["h"], shift, lag)),
          _scale(panel, beta))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=_slow_path_example())
@given(case=cases())
def test_model_based_blocks_match_per_unit_oracle(case):
    _check_model_based(*case)


def _same_as_het_oracle(panel, config, h, shift=0):
    """``covariate_fat_heterogeneous`` on ``panel`` with its dates moved back
    by ``shift`` against its per-unit oracle at that shift: the same ids,
    drops and errors; residuals to 1e-13 and the point to 1e-12 of the
    largest |residual|, se and interval to 1e-12 relative."""
    shifted = apply_anticipation(panel, shift)
    est = _outcome(lambda: covariate_fat_heterogeneous(shifted, config, h))
    ref = _outcome(lambda: covariate_fat_per_unit(panel, config, h, shift=shift))
    if isinstance(ref, Exception):
        assert (type(est), str(est)) == (type(ref), str(ref))
        return
    assert not isinstance(est, Exception), f"unexpected {est!r}"
    assert (est.unit_ids, est.dropped, est.n_used) == (ref.unit_ids, ref.dropped, ref.n_used)
    scale = float(np.abs(ref.residuals).max())
    np.testing.assert_allclose(est.residuals, ref.residuals, rtol=0, atol=1e-13 * scale)
    assert est.point == pytest.approx(ref.point, rel=0, abs=1e-12 * scale)
    assert est.se == pytest.approx(ref.se, rel=TOL, abs=0)
    assert est.ci == pytest.approx(ref.ci, rel=TOL, abs=1e-12 * scale)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=cases())
def test_heterogeneous_covariates_match_per_unit_oracle(case):
    panel, s = case
    assume(s["use_cov"])
    _same_as_het_oracle(panel, _config(s), s["h"])


def _covariate_panel(seed):
    """40 staggered units, some starting late or missing a period, with
    covariate holes and, for about one unit in six, a second covariate
    constant over time, so collinear with the intercept."""
    rng = np.random.default_rng(seed)
    units = []
    for i in range(40):
        times = np.arange(int(rng.choice([0, 0, 0, 2, 5])), 12)
        if rng.random() < 0.1:
            times = np.delete(times, rng.integers(times.size))
        x1 = rng.normal(size=times.size)
        x1[rng.random(times.size) < 0.03] = np.nan
        x2 = np.full(times.size, 2.5) if rng.random() < 0.15 else rng.normal(size=times.size)
        y = rng.normal() + rng.normal(0.0, 0.3) * times + rng.normal(size=times.size)
        units.append(UnitSeries(f"u{i}", times, y + 0.8 * np.nan_to_num(x1),
                                tau=int(rng.integers(5, 11)),
                                covariates=np.column_stack([x1, x2])))
    return PanelData(units, covariate_names=("x1", "x2"))


@pytest.mark.parametrize("seed", range(20))
def test_heterogeneous_covariates_match_per_unit_oracle_on_seeded_panels(seed):
    panel = _covariate_panel(seed)
    for q in range(3):
        for R in (4, 6, "all"):
            for h in (1, 2, 3):
                _same_as_het_oracle(panel, ForecastConfig(q=q, R=R, shrink_window=True), h)


# ---------------------------------------------------------------------------
# identities


def _estimate(est):
    if isinstance(est, Exception):
        return type(est), str(est)
    return (est.unit_ids, est.dropped, est.residuals.tobytes(), est.point, est.se,
            est.ci, est.horizon)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), shift=st.integers(-40, 40))
def test_identities_on_random_panels(case, shift):
    panel, s = case
    config, h = _config(s), s["h"]
    q = config.basis.order
    if s["fourier_period"] is not None:
        # A Fourier span is shift-invariant only under whole periods.
        shift *= int(s["fourier_period"])
    for u in panel.units:
        if u.is_control:
            continue
        try:
            win = _window(u, u.tau, q, s["R"], s["shrink"])
        except EstimationError:
            continue
        if isinstance(win, str):
            continue
        times, target = u.times[win[0]:win[1] + 1], u.tau + h
        try:
            w = forecast_weights(config.basis, times, target).weights
        except RankDeficiencyError:
            with pytest.raises(RankDeficiencyError):
                forecast_weights(config.basis, times + shift, target + shift)
            continue
        # Weights sum to one and depend only on the window relative to the target.
        assert math.fsum(w.tolist()) == pytest.approx(1.0, abs=1e-12)
        moved = forecast_weights(config.basis, times + shift, target + shift).weights
        np.testing.assert_allclose(moved, w, rtol=0, atol=1e-10)

    estimate = _estimate(_outcome(lambda: fat(panel, config, h)))
    assert _estimate(_outcome(lambda: placebo_fat(panel, config, 0, h))) == estimate
    mb = MbConfig(q=s["q"], R=s["R"], lagged_outcome=False, beta=())
    model_based = _outcome(lambda: model_based_fat(panel, mb, h))
    if not panel.treated_blocks:
        # Both refuse a panel without treated units, each in its own words.
        assert isinstance(model_based, EstimationError)
        assert isinstance(estimate, tuple) and estimate[0] is EstimationError
        return
    assert (_estimate(model_based)
            == _estimate(_outcome(lambda: fat(panel, mb.forecast_config(), h))))


# ---------------------------------------------------------------------------
# anticipation: a shifted panel against the oracles at the shift


def _bits(est):
    """Everything an estimate or error reports, exactly."""
    if hasattr(est, "treated"):
        return _bits(est.treated), _bits(est.control), est.point, est.se, est.ci
    return _estimate(est)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(case=_slow_path_example(), shift=2)
@given(case=cases(), shift=st.integers(0, 2))
def test_a_shifted_panel_matches_the_per_unit_oracles_at_the_shift(case, shift):
    panel, s = case
    config, h = _config(s), s["h"]
    _check_fat_family(panel, s, shift)
    _check_model_based(panel, s, shift)
    if s["use_cov"]:
        _same_as_het_oracle(panel, config, h, shift)
    shifted = apply_anticipation(panel, shift)
    assert validate(shifted, config).to_dict() == oracle_validate(panel, config, shift).to_dict()

    # The panel with its dates moved by hand gives the same estimates, bit
    # for bit, and fat on the shifted panel is the placebo at lag ``shift``.
    by_hand = PanelData([u if u.tau is None else dataclasses.replace(u, tau=u.tau - shift)
                         for u in panel.units], covariate_names=panel.covariate_names)
    covs = ("x",) if s["use_cov"] else ()
    known = MbConfig(q=s["q"], R=s["R"], covariates=covs, beta=(s["beta"],) + (0.7,) * len(covs))
    fitted = MbConfig(q=s["q"], R=s["R"], covariates=covs)
    runs = [lambda p: fat(p, config, h), lambda p: placebo_fat(p, config, s["lag"], h),
            lambda p: dfat(p, config, h), lambda p: model_based_fat(p, known, h),
            lambda p: model_based_fat(p, fitted, h, first=anderson_hsiao(
                p, s["instrument_lag"], covariates=covs))]
    if covs:
        runs.append(lambda p: covariate_fat_heterogeneous(p, config, h))
    for run in runs:
        assert _bits(_outcome(lambda: run(shifted))) == _bits(_outcome(lambda: run(by_hand)))
    assert (_bits(_outcome(lambda: fat(shifted, config, h)))
            == _bits(_outcome(lambda: placebo_fat(panel, config, shift, h))))


# ---------------------------------------------------------------------------
# regressions


def test_rank_deficient_window_drops_on_a_balanced_panel():
    # sin(pi t) vanishes on integer periods, so every window design of a
    # period-2 Fourier basis is rank deficient: units are dropped with the
    # reason, as on any other panel, instead of the call raising.
    rng = np.random.default_rng(3)
    units = [UnitSeries(f"u{i}", np.arange(8), rng.normal(size=8), tau=5)
             for i in range(3)]
    config = ForecastConfig(R=4, basis=BasisSpec("fourier", order=1, period=2.0))
    with pytest.raises(EstimationError, match="window design is rank deficient"):
        fat(PanelData(units), config, h=1)


def test_lagged_model_window_all_is_run_less_first_period():
    rng = np.random.default_rng(8)
    units = [UnitSeries(f"u{i}", np.arange(7), rng.normal(size=7), tau=5)
             for i in range(5)]
    units.append(UnitSeries("late", np.arange(2, 7), rng.normal(size=5), tau=5))
    panel = PanelData(units)
    for beta, first in (((0.4,), None), (None, anderson_hsiao(panel, instrument_lag=2))):
        every = model_based_fat(panel, MbConfig(q=1, R="all", beta=beta), h=1, first=first)
        fixed = model_based_fat(panel, MbConfig(q=1, R=5, beta=beta), h=1, first=first)
        # The late unit's run is 4 periods, so R="all" keeps it with a
        # 3-period window while R=5 drops it.
        assert every.unit_ids == fixed.unit_ids + ("late",)
        np.testing.assert_array_equal(every.residuals[:-1], fixed.residuals)
