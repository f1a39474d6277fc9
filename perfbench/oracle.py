"""Independent reference results for the benchmark workloads.

Nothing here imports ``fatpanel``.  The oracle recomputes, from the
generator's dense arrays or from a re-implementation of the documented
simulation draw order, what every timed operation must output: which
units are used or dropped and why, and every point estimate, standard
error and interval.  Forecast weights come from exact rational least
squares, residuals from dense array arithmetic over all units at once, so
the numbers agree with the package to rounding but share no code path
with it.  ``workloads.py`` turns these results into the same summary
shape it extracts from the program's outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

import numpy as np

Z95 = NormalDist().inv_cdf(0.975)


class OracleError(RuntimeError):
    """The input reaches a case the program refuses as a whole."""


@lru_cache(maxsize=None)
def forecast_weights(q: int, R: int, h: int) -> np.ndarray:
    """Exact weights w with w @ y = order-q least-squares fit at period h.

    The window is periods -R+1..0; polynomial weights do not depend on
    the time origin, so these apply to every window of length R.
    """
    rows = [[Fraction(t) ** k for k in range(q + 1)] for t in range(-R + 1, 1)]
    gram = [[sum(r[a] * r[b] for r in rows) for b in range(q + 1)]
            for a in range(q + 1)]
    coef = _solve_exact(gram, [Fraction(h) ** k for k in range(q + 1)])
    return np.array([float(sum(r[a] * coef[a] for a in range(q + 1)))
                     for r in rows])


def _solve_exact(A, b):
    n = len(b)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


@dataclass(frozen=True)
class Estimate:
    """One estimator result: used units with residuals, dropped units."""

    used: np.ndarray          # unit row indices, in panel order
    residuals: np.ndarray
    dropped: list             # (unit_id, reason), in panel order
    se: float

    @property
    def point(self) -> float:
        return math.fsum(self.residuals.tolist()) / self.residuals.size

    @property
    def ci(self) -> tuple:
        return (self.point - Z95 * self.se, self.point + Z95 * self.se)


def plain_se(u: np.ndarray) -> float:
    n = u.size
    mean = math.fsum(u.tolist()) / n
    return math.sqrt(math.fsum(((u - mean) ** 2).tolist()) / n / n)


# ---------------------------------------------------------------------------
# staggered panels with holes (csv_staggered)


def _reason_texts(eff, run, target, R):
    """Drop reasons by code, worded as the estimators word them."""
    return {
        1: lambda k: f"no observation at effective adoption date {eff[k]}",
        2: lambda k: (f"pre-treatment history of {run[k]} periods is "
                      f"shorter than R={R}"),
        3: lambda k: f"outcome not observed at target period {target[k]}",
        4: lambda k: "lagged outcome missing for the window or target",
    }


class DensePanel:
    """Outcomes on periods 1..T with NaN holes, plus per-unit dates."""

    def __init__(self, ids, tau, Y):
        self.ids = ids
        self.tau = np.asarray(tau, dtype=int)
        self.Y = Y
        self.obs = ~np.isnan(Y)
        self.T = Y.shape[1]
        run = np.zeros(Y.shape, dtype=int)
        run[:, 0] = self.obs[:, 0]
        for j in range(1, self.T):
            run[:, j] = (run[:, j - 1] + 1) * self.obs[:, j]
        self.run = run
        self.first = self.obs.argmax(axis=1) + 1

    def observed_at(self, rows, period) -> np.ndarray:
        period = np.broadcast_to(period, rows.shape)
        ok = (period >= 1) & (period <= self.T)
        out = np.zeros(rows.shape, dtype=bool)
        out[ok] = self.obs[rows[ok], period[ok] - 1]
        return out

    def values(self, rows, periods) -> np.ndarray:
        return self.Y[rows[:, None] if periods.ndim == 2 else rows,
                      periods - 1]

    def _window(self, rows, eff, q, R):
        """Reason codes for the window of R periods ending at ``eff``."""
        reason = np.zeros(rows.shape, dtype=int)
        has_eff = self.observed_at(rows, eff)
        reason[~has_eff] = 1
        run = np.where(has_eff, self.run[rows, np.clip(eff, 1, self.T) - 1], 0)
        short = has_eff & (run < R)
        if np.any(short & (self.first[rows] < eff - run + 1)):
            raise OracleError("interior gap inside an estimation window")
        reason[short] = 2
        return reason, run

    def _drop_list(self, rows, reason, texts):
        return [(self.ids[rows[k]], texts[reason[k]](k))
                for k in np.flatnonzero(reason)]

    def fat(self, rows, q, R, h, lag=0) -> Estimate:
        """``fat`` (lag 0) or ``placebo_fat`` on the given unit rows."""
        eff = self.tau[rows] - lag
        reason, run = self._window(rows, eff, q, R)
        target = eff + h
        reason[(reason == 0) & ~self.observed_at(rows, target)] = 3
        texts = _reason_texts(eff, run, target, R)
        ok = reason == 0
        used = rows[ok]
        win = eff[ok, None] + np.arange(-R + 1, 1)[None, :]
        res = (self.values(used, target[ok])
               - self.values(used, win) @ forecast_weights(q, R, h))
        return Estimate(used, res, self._drop_list(rows, reason, texts),
                        plain_se(res))

    def anderson_hsiao(self, rows, lag):
        """Detrended first stage: rho, influence values of the contributing
        rows, and which rows contribute."""
        n = rows.size
        A = np.zeros((n, 2, 2))
        b = np.zeros((n, 2))
        count = np.zeros(n, dtype=int)
        tau = self.tau[rows]
        y, obs = self.Y[rows], self.obs[rows]
        for t in range(max(3, lag + 1), self.T + 1):
            ok = ((t <= tau) & obs[:, t - 1] & obs[:, t - 2] & obs[:, t - 3]
                  & obs[:, t - lag - 1])
            z = np.where(ok, y[:, t - lag - 1], 0.0)
            dlag = np.where(ok, y[:, t - 2] - y[:, t - 3], 0.0)
            dy = np.where(ok, y[:, t - 1] - y[:, t - 2], 0.0)
            A[:, 0, 0] += z * dlag
            A[:, 0, 1] += z
            A[:, 1, 0] += dlag
            A[:, 1, 1] += ok
            b[:, 0] += z * dy
            b[:, 1] += dy
            count += ok
        keep = count > 0
        return (*_ah_solve(A[keep], b[keep]), keep)

    def model_based(self, rows, q, R, h, lag) -> Estimate:
        """``model_based_fat`` with the detrended lag-``lag`` first stage."""
        rho, psi_all, contrib = self.anderson_hsiao(rows, lag)
        eff = self.tau[rows]
        reason, run = self._window(rows, eff, q, R)
        target = eff + h
        reason[(reason == 0) & ~self.observed_at(rows, target)] = 3
        lag_ok = (self.observed_at(rows, eff - R)
                  & self.observed_at(rows, target - 1))
        reason[(reason == 0) & ~lag_ok] = 4
        texts = _reason_texts(eff, run, target, R)
        ok = reason == 0
        used = rows[ok]
        win = eff[ok, None] + np.arange(-R + 1, 1)[None, :]
        w = forecast_weights(q, R, h)
        ywin = self.values(used, win)
        xlag = self.values(used, win - 1)
        ylag_t = self.values(used, target[ok] - 1)
        res = self.values(used, target[ok]) - (rho * ylag_t
                                               + (ywin - rho * xlag) @ w)
        grad = ylag_t - xlag @ w
        psi = np.zeros(rows.size)
        psi[contrib] = psi_all
        ustar = res - psi[ok] * grad.mean()
        return Estimate(used, res, self._drop_list(rows, reason, texts),
                        plain_se(ustar))

    def validate(self, q: int, R: int) -> list:
        """Per-unit diagnostics in the order ``validate`` reports them."""
        out = []
        for i, uid in enumerate(self.ids):
            tau = int(self.tau[i])
            run = int(self.run[i, tau - 1]) if 1 <= tau <= self.T else 0
            observed = np.flatnonzero(self.obs[i]) + 1
            msgs = []
            if run == 0:
                msgs.append(f"no observation at effective treatment date {tau}")
            short = run < R
            window_gap = bool(0 < run < R and observed[0] < tau - run + 1)
            if short:
                msgs.append(f"contiguous pre-treatment run of {run} is "
                            f"shorter than R={R}")
            fatal = run < q + 1
            if fatal:
                msgs.append(f"fewer than q+1={q + 1} usable pre-treatment "
                            "periods")
            series_gaps = bool(np.any(np.diff(observed) > 1))
            out.append([uid, tau, tau, run, R, short, window_gap, series_gaps,
                        True, fatal, msgs])
        return out


def _ah_solve(A, b):
    """Pool per-unit moment blocks; return rho and influence values."""
    ZtW = A.sum(axis=0)
    beta = np.linalg.solve(ZtW, b.sum(axis=0))
    m = b - A @ beta
    psi = np.linalg.solve(ZtW / A.shape[0], m.T).T[:, 0]
    return float(beta[0]), psi


# ---------------------------------------------------------------------------
# Monte Carlo presets on balanced panels (mc_* workloads)


@dataclass(frozen=True)
class McDesign:
    """The two presets the benchmark runs, as the oracle needs them."""

    name: str
    n: int
    n_control: int
    T: int = 6
    tau: int = 5


def simulate(design: McDesign, master_seed: int, rep: int) -> np.ndarray:
    """Outcomes (units x periods) in the simulator's documented draw order.

    ``nonstationary_init``: recursive trend, rho 0.2, delta 1, mu ~ U(-1, 1),
    fixed initial value N(1, 2).  ``common_shock``: additive AR(1) with
    rho 0.2 from its stationary law, plus 2.0 added to every unit after tau.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)))
    N, T = design.n + design.n_control, design.T
    mu = rng.uniform(-1.0, 1.0, size=N)
    rho = np.full(N, 0.2)
    delta = np.full(N, 1.0)
    if design.name == "nonstationary_init":
        prev = np.full(N, 1.0) + np.full(N, math.sqrt(2.0)) * rng.standard_normal(N)
        u = rng.standard_normal((N, T))
        Y = np.empty((N, T))
        for t in range(1, T + 1):
            prev = mu + rho * prev + delta * float(t) + u[:, t - 1]
            Y[:, t - 1] = prev
        return Y
    prev = mu / (1.0 - rho) + 1.0 / np.sqrt(1.0 - rho ** 2) * rng.standard_normal(N)
    u = rng.standard_normal((N, T))
    Y = np.zeros((N, T))
    for t in range(1, T + 1):
        prev = mu + rho * prev + u[:, t - 1]
        Y[:, t - 1] += prev
    Y += 2.0 * (np.arange(1, T + 1) > design.tau).astype(float)[None, :]
    return Y


def _balanced_fat(Y, q, R, tau, h):
    res = Y[:, tau + h - 1] - Y[:, tau - R:tau] @ forecast_weights(q, R, h)
    return res, plain_se(res)


def _balanced_mb(Y, q, R, tau, h, lag, detrend):
    n = Y.shape[0]
    js = np.arange(max(2, lag), tau)          # 0-based columns t <= tau
    dy = Y[:, js] - Y[:, js - 1]
    dlag = Y[:, js - 1] - Y[:, js - 2]
    z = Y[:, js - lag]
    if detrend:
        A = np.empty((n, 2, 2))
        A[:, 0, 0] = (z * dlag).sum(axis=1)
        A[:, 0, 1] = z.sum(axis=1)
        A[:, 1, 0] = dlag.sum(axis=1)
        A[:, 1, 1] = js.size
        b = np.stack([(z * dy).sum(axis=1), dy.sum(axis=1)], axis=1)
        rho, psi = _ah_solve(A, b)
    else:
        a = (z * dlag).sum(axis=1)
        bb = (z * dy).sum(axis=1)
        rho = bb.sum() / a.sum()
        psi = (bb - a * rho) / (a.sum() / n)
    w = forecast_weights(q, R, h)
    ywin = Y[:, tau - R:tau]
    xlag = Y[:, tau - R - 1:tau - 1]
    ylag_t = Y[:, tau + h - 2]
    res = Y[:, tau + h - 1] - (rho * ylag_t + (ywin - rho * xlag) @ w)
    grad = ylag_t - xlag @ w
    return res, plain_se(res - psi * grad.mean())


def mc_cells(design: McDesign, cells, n_reps: int, master_seed: int) -> list:
    """Per-cell aggregates as ``run_monte_carlo`` reports them.

    ``cells`` holds dicts with estimator, q, R, h, instrument_lag, detrend
    and name.  Every truth is 0: neither preset adds a treatment effect.
    """
    points = [[] for _ in cells]
    ses = [[] for _ in cells]
    hits = [0] * len(cells)
    fails = [0] * len(cells)
    for r in range(n_reps):
        Y = simulate(design, master_seed, r)
        treated, controls = Y[:design.n], Y[design.n:]
        for j, c in enumerate(cells):
            q, R, h = c["q"], c["R"], c["h"]
            try:
                if c["estimator"] == "pr":
                    res, se = _balanced_fat(treated, q, R, design.tau, h)
                    point = math.fsum(res.tolist()) / res.size
                elif c["estimator"] == "dfat":
                    rt, st = _balanced_fat(treated, q, R, design.tau, h)
                    rc, sc = _balanced_fat(controls, q, R, design.tau, h)
                    point = (math.fsum(rt.tolist()) / rt.size
                             - math.fsum(rc.tolist()) / rc.size)
                    se = math.hypot(st, sc)
                else:
                    res, se = _balanced_mb(treated, q, R, design.tau, h,
                                           c["instrument_lag"], c["detrend"])
                    point = math.fsum(res.tolist()) / res.size
            except np.linalg.LinAlgError:
                fails[j] += 1
                continue
            points[j].append(point)
            ses[j].append(se)
            if point - Z95 * se <= 0.0 <= point + Z95 * se:
                hits[j] += 1
    out = []
    for j, c in enumerate(cells):
        n_ok = len(points[j])
        mean = math.fsum(points[j]) / n_ok if n_ok else math.nan
        mc_se = (math.sqrt(math.fsum((p - mean) ** 2 for p in points[j])
                           / (n_ok - 1)) if n_ok >= 2 else math.nan)
        out.append({
            "name": c["name"], "n_ok": n_ok, "n_failed": fails[j],
            "degenerate": fails[j] > n_reps // 2,
            "bias": mean if n_ok else None,
            "mc_se": mc_se if n_ok >= 2 else None,
            "coverage": hits[j] / n_ok if n_ok else None,
            "se_est_mean": math.fsum(ses[j]) / n_ok if n_ok else None,
        })
    return out
