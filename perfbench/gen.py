"""Seeded generator for the ``csv_staggered`` panel.

The panel has ``N_PERIODS`` calendar periods and four staggered adoption
cohorts.  A share of units are never-treated controls that still carry a
cohort date (``dfat`` needs one).  Every unit has at most one of three
irregularities, so each property's effect on the estimators stays
separable:

* late start: the first observation falls 0 to 4 periods before the
  unit's adoption date, so some windows are short and the unit is dropped;
* early gap: one period is missing before every estimation window (and
  before the lagged outcome the model-based estimator needs), so the
  series has an interior hole that no window touches;
* missing target: one post-adoption period (horizon 1, 2 or 3) is absent.

Gaps are kept outside every window on purpose: an interior gap inside an
integer-R window makes ``fat`` raise for the whole panel, and the CLI has
no flag for ``shrink_window``.

The same seed gives the same bytes.  The dense arrays returned with the
file feed the independent oracle in ``oracle.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

N_UNITS = 5_000
N_PERIODS = 12
COHORTS = (6, 7, 8, 9)
CONTROL_SHARE = 0.20
# Mutually exclusive kinds: regular, late start, early gap, missing target.
KIND_SHARES = (0.77, 0.10, 0.10, 0.03)
REGULAR, LATE_START, EARLY_GAP, MISSING_TARGET = range(4)
# Earliest period any command of the session reads is tau - 4 (placebo
# lag 2 with R=3); gaps are placed at periods 2..tau-5.
GAP_COHORTS = (7, 8, 9)


@dataclass(frozen=True)
class StaggeredPanel:
    """Dense view of a generated panel.

    ``Y`` is (n_units, N_PERIODS) with NaN where a period is unobserved;
    column j holds period j + 1.  ``tau`` is each unit's last untreated
    period and ``control`` marks never-treated units.
    """

    ids: tuple
    tau: np.ndarray
    control: np.ndarray
    kind: np.ndarray
    Y: np.ndarray

    @property
    def observed(self) -> np.ndarray:
        return ~np.isnan(self.Y)

    def csv_bytes(self) -> bytes:
        heads = [f"{uid}," for uid in self.ids]
        tails = [f",{t},{c}\n" for t, c in zip(self.tau.tolist(),
                                               self.control.astype(int).tolist())]
        rows, cols = np.nonzero(self.observed)
        body = "".join([heads[i] + str(j + 1) + "," + repr(y) + tails[i]
                        for i, j, y in zip(rows.tolist(), cols.tolist(),
                                           self.Y[rows, cols].tolist())])
        return ("unit,time,outcome,treated_at,control_flag\n" + body).encode("utf-8")

    def summary(self, data: bytes) -> dict:
        """Row count, digest and the measured share of each unit property."""
        n = len(self.ids)
        return {
            "units": n,
            "periods": N_PERIODS,
            "rows": int(self.observed.sum()),
            "sha256": hashlib.sha256(data).hexdigest(),
            "share_staggered": float(np.mean(self.tau != np.bincount(self.tau).argmax())),
            "share_control": float(np.mean(self.control)),
            "share_late_start": float(np.mean(self.kind == LATE_START)),
            "share_early_gap": float(np.mean(self.kind == EARLY_GAP)),
            "share_missing_target": float(np.mean(self.kind == MISSING_TARGET)),
        }


def generate(seed: int, n_units: int = N_UNITS) -> StaggeredPanel:
    rng = np.random.default_rng(seed)
    control = rng.random(n_units) < CONTROL_SHARE
    kind = rng.choice(len(KIND_SHARES), size=n_units, p=KIND_SHARES)
    tau = rng.choice(COHORTS, size=n_units)
    gap = kind == EARLY_GAP
    tau[gap] = rng.choice(GAP_COHORTS, size=int(gap.sum()))

    periods = np.arange(1, N_PERIODS + 1)
    level = rng.normal(5.0, 2.0, n_units)
    slope = rng.normal(0.2, 0.1, n_units)
    noise = rng.standard_normal((n_units, N_PERIODS))
    ar = np.empty_like(noise)
    ar[:, 0] = noise[:, 0]
    for j in range(1, N_PERIODS):
        ar[:, j] = 0.5 * ar[:, j - 1] + noise[:, j]
    Y = level[:, None] + slope[:, None] * periods[None, :] + ar
    after = periods[None, :] - tau[:, None]
    effect = np.where(after > 0, 1.0 + 0.5 * after, 0.0)
    Y += np.where(control[:, None], 0.0, effect)

    # Irregularities: draw every unit's candidate, apply it by kind.
    start = tau - rng.integers(0, 5, n_units)
    gap_at = 2 + (rng.random(n_units) * (tau - 6)).astype(int)
    miss_at = tau + rng.integers(1, 4, n_units)
    col = periods[None, :]
    hole = ((kind == LATE_START)[:, None] & (col < start[:, None])) \
        | (gap[:, None] & (col == gap_at[:, None])) \
        | ((kind == MISSING_TARGET)[:, None] & (col == miss_at[:, None]))
    Y[hole] = np.nan

    width = len(str(n_units))
    ids = tuple(f"u{i + 1:0{width}d}" for i in range(n_units))
    return StaggeredPanel(ids=ids, tau=tau, control=control, kind=kind, Y=Y)
