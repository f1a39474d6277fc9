"""Reference forms the tests compare the package against.

These are algebraically equivalent, slower ways to compute what the
package computes, kept here as oracles:

* ``iterative_forecast``: the minimal-window polynomial forecast by an
  error-correcting recursion (2^q calls), with no linear solve;
* ``fat_balanced_avg``: on a balanced panel with one adoption date, the
  forecast of the cross-sectional average series;
* ``fat_pooled``: the pooled regression on post-period dummies and
  unit-specific trends, whose dummy coefficients are ``fat`` at horizons
  1..h on such a panel;
* ``covariate_fat_per_unit``: ``covariate_fat_heterogeneous`` with each
  unit's augmented window regression factored on its own and its
  coefficients solved by back substitution;
* ``oracle_validate``: ``validate`` one ``UnitSeries`` at a time;
* ``unit_of``: one unit of a panel, looked up by id in ``panel.units``;
* ``monte_carlo_per_replication``: ``run_monte_carlo`` as one call of the
  public estimators per replication and cell, summed exactly;
* ``csv_per_row`` with ``residual_rows`` and ``validate_rows``: the CLI's
  residual and ``validate`` CSVs, spelled one row at a time.
"""

import dataclasses
import math

import numpy as np

from fatpanel.basis import (_RANK_RTOL, BasisSpec, ForecastConfig, _solver_design,
                           forecast_weights)
from fatpanel.errors import ConfigError, EstimationError, RankDeficiencyError
from fatpanel.estimators import (DfatEstimate, MbConfig, _DropUnit, _resolve, _Residuals,
                                 _summarize, anderson_hsiao, dfat, fat, model_based_fat,
                                 placebo_fat)
from fatpanel.panel import CohortBlock, PanelData, UnitDiagnostics
from fatpanel import simulate as simulate_module
from fatpanel.simulate import McCellResult, McReport


def iterative_forecast(y, q: int) -> float:
    """One-step forecast of order q built by error-correcting recursion.

    Uses the q+1 most recent outcomes.  Order 0 repeats the last outcome;
    order q takes the order q-1 forecast and subtracts the error that the
    order q-1 rule made when forecasting the last observed period.  This
    reproduces the least-squares polynomial forecast on the minimal window
    without solving any linear system.
    """
    yv = np.asarray(y, dtype=float)
    if q < 0:
        raise ConfigError("q must be >= 0")
    if yv.ndim != 1 or yv.size != q + 1:
        raise ConfigError(f"iterative forecast of order {q} needs exactly {q + 1} outcomes")

    def one_ahead(win: np.ndarray) -> float:
        if win.size == 1:
            return float(win[0])
        ahead = one_ahead(win[1:])
        lagged = one_ahead(win[:-1])
        return ahead - (lagged - float(win[-1]))

    return one_ahead(yv)


def _single_block(panel: PanelData, name: str) -> CohortBlock:
    blocks = panel.treated_blocks
    if not blocks:
        raise EstimationError("no treated units")
    if len(blocks) > 1:
        raise EstimationError(
            f"{name} requires a balanced panel with a shared adoption date")
    return blocks[0]


def fat_balanced_avg(panel: PanelData, q: int, R: int, h: int) -> float:
    """Forecast the cross-sectional average series; balanced panels only.

    On a balanced panel with a shared adoption date this equals ``fat``
    exactly, because the forecast is linear in outcomes.
    """
    block = _single_block(panel, "fat_balanced_avg")
    try:
        i0, i1, j = _resolve(block, q, int(R), False, block.tau, h)
    except _DropUnit as d:
        raise EstimationError(d.reason) from None
    times = block.times
    ybar = block.outcomes.mean(axis=0)
    w = forecast_weights(BasisSpec("polynomial", order=q), times[i0:i1 + 1],
                         times[j]).weights
    return float(ybar[j] - w @ ybar[i0:i1 + 1])


def fat_pooled(panel: PanelData, q: int, R: int, h: int) -> np.ndarray:
    """Pooled regression on post-period dummies and unit-specific trends.

    Stacks, for every treated unit, the window periods and the ``h``
    post-adoption periods; regresses outcomes on one dummy per post period
    plus a full polynomial trend per unit.  On a balanced panel the dummy
    coefficients equal ``fat`` at horizons 1..h exactly.
    """
    block = _single_block(panel, "fat_pooled")
    if R < q + 1:
        raise ConfigError(f"window length R={R} is below q+1={q + 1}")
    tau, times = block.tau, block.times
    wanted = np.arange(tau - R + 1, tau + h + 1)
    idx = np.searchsorted(times, wanted)
    if np.any(idx >= times.size) or np.any(times[np.minimum(idx, times.size - 1)] != wanted):
        raise EstimationError(
            f"pooled regression needs every period in [{wanted[0]}, {wanted[-1]}]"
        )
    n = block.unit_ids.size
    rel = (wanted - tau).astype(float)
    rows_per = wanted.size
    dummies = np.zeros((rows_per, h))
    for k in range(1, h + 1):
        dummies[rel == k, k - 1] = 1.0
    trend = np.vander(rel, q + 1, increasing=True)
    X = np.zeros((n * rows_per, h + n * (q + 1)))
    y = np.empty(n * rows_per)
    for i in range(n):
        r0 = i * rows_per
        X[r0:r0 + rows_per, :h] = dummies
        X[r0:r0 + rows_per, h + i * (q + 1):h + (i + 1) * (q + 1)] = trend
        y[r0:r0 + rows_per] = block.outcomes[i, idx]
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise EstimationError("pooled design is rank deficient")
    return coef[:h]


# ---------------------------------------------------------------------------
# covariate_fat_heterogeneous, one unit at a time


def _back_substitute(Rm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with ``Rm @ x = b`` for upper-triangular ``Rm``, in Python floats."""
    R, x = Rm.tolist(), b.tolist()
    for i in reversed(range(len(x))):
        s = x[i]
        for k in range(i + 1, len(x)):
            s -= R[i][k] * x[k]
        x[i] = s / R[i][i]
    return np.array(x)


def covariate_fat_per_unit(panel: PanelData, config: ForecastConfig, h: int = 1,
                           covariates=None, level: float = 0.95, shift: int = 0):
    """``covariate_fat_heterogeneous`` by the coefficient route: for each
    unit, the QR of its window design [basis, covariates], the rank rule on
    the diagonal of R, the coefficients R^{-1} Q'y and the fitted row at the
    target; windows end ``shift`` periods before each unit's date."""
    names = panel.covariate_names if covariates is None else tuple(covariates)
    cov_idx = [panel.covariate_names.index(c) for c in names]
    if not panel.treated_blocks:
        raise EstimationError("no units to estimate on")
    q = config.basis.order
    p = q + 1 + len(cov_idx)
    used, dropped = [], []  # (position, unit id, residual or reason)
    for b in panel.treated_blocks:
        try:
            i0, i1, j = _resolve(b, q, config.R, config.shrink_window,
                                 b.tau - shift, h)
            if i1 - i0 + 1 < p:
                raise _DropUnit(f"window of {i1 - i0 + 1} cannot fit {p} parameters")
        except _DropUnit as d:
            dropped += [(at, u, d.reason) for at, u in zip(b.positions, b.unit_ids)]
            continue
        win = slice(i0, i1 + 1)
        base, hrow = _solver_design(config.basis, b.times[win].astype(float),
                                    float(b.times[j]))
        for at, u, y, x in zip(b.positions, b.unit_ids, b.outcomes, b.covariates):
            Xc, xt = x[win, :][:, cov_idx], x[j, cov_idx]
            if np.isnan(Xc).any() or np.isnan(xt).any():
                dropped.append((at, u, "incomplete covariates on the window or target"))
                continue
            Q, Rm = np.linalg.qr(np.hstack([base, Xc]))
            d = np.abs(np.diag(Rm))
            if d.min() <= _RANK_RTOL * max(d.max(), np.finfo(float).tiny):
                dropped.append((at, u, "augmented window design is rank deficient"))
                continue
            coef = _back_substitute(Rm, Q.T @ y[win])
            used.append((at, u, float(y[j]) - float(np.concatenate([hrow, xt]) @ coef)))
    used.sort()
    at, ids, res = zip(*used) if used else ((), (), ())
    res = np.array(res, dtype=float)
    return _summarize(_Residuals(np.array(at, dtype=int), np.array(ids, dtype=object), res,
                                 np.empty((res.size, 0)),
                                 tuple((u, r) for _, u, r in sorted(dropped))), h, level)


# ---------------------------------------------------------------------------
# validate, one unit at a time


def _contiguous_run_ending(u, time):
    i = int(np.searchsorted(u.times, time))
    if i >= u.times.size or u.times[i] != time:
        return 0
    run = 1
    while i - run >= 0 and u.times[i - run] == u.times[i] - run:
        run += 1
    return run


def unit_of(panel: PanelData, unit_id: str):
    """The ``UnitSeries`` of ``panel`` named ``unit_id``."""
    return next(u for u in panel.units if u.unit_id == unit_id)


@dataclasses.dataclass(frozen=True)
class UnitReport:
    """A validation report as one ``UnitDiagnostics`` a unit, with the
    ``to_dict`` of ``ValidationReport``."""

    units: tuple
    balanced: bool
    common_tau: int | None

    def to_dict(self) -> dict:
        return {"ok": not any(d.fatal for d in self.units), "balanced": self.balanced,
                "common_tau": self.common_tau, "units": [d.to_dict() for d in self.units]}


def oracle_validate(panel: PanelData, config: ForecastConfig, shift: int = 0):
    """``validate`` of ``panel`` with every dated unit's date moved back by
    ``shift``, one unit at a time."""
    q = config.basis.order
    diags = []
    for u in panel.units:
        messages = []
        fatal = False
        tau = eff_tau = None
        run = 0
        required = config.R if isinstance(config.R, int) else None
        if u.tau is None:
            messages.append("no treatment date")
            if not u.is_control:
                fatal = True
        else:
            tau = eff_tau = u.tau - shift
            run = _contiguous_run_ending(u, eff_tau)
            if run == 0:
                messages.append(f"no observation at effective treatment date {eff_tau}")
        short = u.tau is not None and required is not None and run < required
        needed = required if required is not None else q + 1
        window_gap = False
        if u.tau is not None and run < needed and run > 0:
            window_gap = bool(u.times.min() < eff_tau - run + 1)
        if short:
            messages.append(
                f"contiguous pre-treatment run of {run} is shorter than R={required}"
            )
        if u.tau is not None and run < q + 1:
            fatal = True
            messages.append(f"fewer than q+1={q + 1} usable pre-treatment periods")
        series_gaps = bool(u.times.size > 1 and np.any(np.diff(u.times) > 1))
        if u.covariates is None:
            cov_complete = panel.covariate_names == ()
        else:
            cov_complete = not np.isnan(u.covariates).any()
        if not cov_complete:
            messages.append("incomplete covariates")
        diags.append(UnitDiagnostics(
            unit_id=u.unit_id, tau=tau, effective_tau=eff_tau,
            pre_treatment_run=run, required_window=required, short_window=short,
            window_gap=window_gap, series_gaps=series_gaps,
            covariates_complete=cov_complete, fatal=fatal,
            messages=tuple(messages)))
    common = panel.common_tau()
    return UnitReport(units=tuple(diags), balanced=panel.is_balanced(),
                      common_tau=None if common is None else common - shift)


# ---------------------------------------------------------------------------
# run_monte_carlo, one replication at a time


def _evaluate_cell(panel: PanelData, cell, config, first_stages: dict):
    """The cell's estimate on ``panel``; mb cells share the ``anderson_hsiao``
    fits (or the errors) with their instrument lag and detrend setting, kept
    in ``first_stages``."""
    if cell.estimator == "pr":
        return fat(panel, config, h=cell.h)
    if cell.estimator == "placebo":
        return placebo_fat(panel, config, lag=cell.lag, h=cell.h)
    if cell.estimator == "dfat":
        return dfat(panel, config, h=cell.h)
    key = (cell.instrument_lag, cell.detrend)
    if key not in first_stages:
        try:
            first_stages[key] = anderson_hsiao(panel, *key)
        except (EstimationError, RankDeficiencyError) as exc:
            first_stages[key] = exc
    if isinstance(first_stages[key], Exception):
        raise first_stages[key]
    return model_based_fat(panel, config, cell.h, first=first_stages[key])


def monte_carlo_per_replication(spec, cells, n_reps: int, master_seed: int,
                                preset=None) -> McReport:
    """``run_monte_carlo`` with every replication simulated and estimated on
    its own through the public estimators; one first stage per group and
    replication."""
    cells = tuple(cells)
    truths = [0.0 if c.estimator == "placebo" else spec.true_att for c in cells]
    configs = [MbConfig(q=c.q, R=c.R) if c.estimator == "mb"
               else ForecastConfig(q=c.q, R=c.R) for c in cells]
    # (point, se, interval covers the truth) of each replication a cell ran
    done = [[] for _ in cells]
    for r in range(n_reps):
        child = np.random.SeedSequence(entropy=master_seed, spawn_key=(r,))
        panel = simulate_module.simulate_dgp(spec, child)
        first_stages = {}
        for j, (cell, config) in enumerate(zip(cells, configs)):
            try:
                est = _evaluate_cell(panel, cell, config, first_stages)
            except (EstimationError, RankDeficiencyError):
                continue
            done[j].append((est.point, est.se, est.ci[0] <= truths[j] <= est.ci[1]))

    results = []
    for cell, truth, ok in zip(cells, truths, done):
        n_ok, n_failed = len(ok), n_reps - len(ok)
        points, ses, covers = zip(*ok) if ok else ((), (), ())
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
    return McReport(spec=spec, master_seed=int(master_seed), n_reps=n_reps,
                    cells=tuple(results), preset=preset)


def _csv_field(value) -> str:
    text = repr(value) if isinstance(value, float) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def csv_per_row(header, rows) -> str:
    """A CSV of ``header`` and ``rows`` built one line at a time: a float
    spelled by ``repr``, anything else by ``str``, and a field holding a
    comma, a quote, ``\\r`` or ``\\n`` quoted with its quotes doubled."""
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in (header, *rows))


def residual_rows(prefix, est):
    """The residual CSV rows of one estimate: ``prefix``, a dfat estimate's
    group, then each unit's id and residual, a row at a time."""
    groups = ((("treated",), est.treated), (("control",), est.control)) if isinstance(
        est, DfatEstimate) else (((), est),)
    for group, part in groups:
        for uid, residual in zip(part.unit_ids, part.residuals.tolist()):
            yield (*prefix, *group, uid, residual)


def validate_rows(report):
    """The ``validate`` CSV rows of ``report``: each unit's id, fatal flag,
    pre-treatment run and messages, from its ``UnitDiagnostics``."""
    for d in report.units:
        yield d.unit_id, d.fatal, d.pre_treatment_run, ";".join(d.messages)
