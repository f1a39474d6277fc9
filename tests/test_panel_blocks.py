"""Property tests: block-native ``validate`` and panel transforms against per-unit oracles.

The oracles below, and ``oracle_validate`` in ``oracles.py``, are the
per-unit forms of ``reindex_time_to_adoption``, ``apply_anticipation`` and
``validate``: they walk the panel's ``UnitSeries`` one at a time and
rebuild the result through ``PanelData(units)``.  ``validate`` runs on the
shifted panel and its oracle on the original one with the same shift.  Random staggered panels (late starts, interior
gaps, covariate holes and units without covariates, controls with and
without a date, dates outside the observed periods) are built from a few
unit templates assigned in random order, either through
``PanelData(units)`` or as shuffled blocks with shuffled rows through
``PanelData.from_blocks``.  The block-native functions must give the same
``to_dict()`` JSON, the same blocks, or the same exception type and
message.
"""

import dataclasses
import json
from typing import Mapping

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fatpanel.basis import ForecastConfig
from fatpanel.errors import ConfigError, PanelFormatError
from fatpanel.panel import (CohortBlock, PanelData, UnitSeries, apply_anticipation,
                            reindex_time_to_adoption, validate)
from oracles import oracle_validate


# ---------------------------------------------------------------------------
# the per-unit oracles


def oracle_reindex(panel):
    missing = [u.unit_id for u in panel.units if u.tau is None]
    if missing:
        raise PanelFormatError(
            f"cannot reindex: units without a treatment date: {missing}"
        )
    units = [dataclasses.replace(u, times=u.times - u.tau, tau=0) for u in panel.units]
    return PanelData(units, covariate_names=panel.covariate_names)


def oracle_anticipation(panel, delta):
    units = panel.units  # built from the blocks on each read
    shifts = delta if isinstance(delta, Mapping) else {u.unit_id: delta for u in units}
    for uid, d in shifts.items():
        if d < 0:
            name = f"delta for unit {uid!r}" if isinstance(delta, Mapping) else "delta"
            raise ConfigError(f"{name} must be an integer >= 0, got {d!r}")
    unknown = [uid for uid in shifts if uid not in {u.unit_id for u in units}]
    if unknown:
        raise ConfigError(f"delta names units not in the panel: {unknown}")
    dated = [u for u in units if u.tau is not None]
    if not any(shifts.get(u.unit_id, 0) for u in dated):
        return panel
    units = [u if u.tau is None else dataclasses.replace(u, tau=u.tau - shifts.get(u.unit_id, 0))
             for u in units]
    return PanelData(units, covariate_names=panel.covariate_names)


# ---------------------------------------------------------------------------
# comparison


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # both sides must fail the same way, whatever the type
        return type(exc), str(exc)


def layout(panel):
    """Everything that identifies a panel's blocks, exactly, in stored order."""
    if not isinstance(panel, PanelData):
        return panel
    blocks = []
    for b in panel.treated_blocks + panel.control_blocks:
        cov = None if b.covariates is None else (b.covariates.shape, b.covariates.tobytes())
        blocks.append((b.is_control, b.tau, type(b.tau), b.unit_ids.tolist(),
                       b.positions.tolist(), b.times.dtype, b.times.tobytes(),
                       b.outcomes.shape, b.outcomes.tobytes(), cov))
    return panel.covariate_names, len(panel), blocks


def report_json(report):
    return report if isinstance(report, tuple) else json.dumps(report.to_dict())


# ---------------------------------------------------------------------------
# random staggered panels


@st.composite
def panels(draw):
    T = draw(st.integers(4, 10))
    has_cov = draw(st.booleans())
    templates = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["new", "later clock", "other date"]))
        if kind != "new" and templates and templates[-1][1] is not None:
            # Cohorts that reindexing or an anticipation shift may merge.
            control, tau, times = templates[-1]
            k = draw(st.integers(1, 2))
            templates.append((control, tau + k, [t + k for t in times]) if kind == "later clock"
                             else (control, tau - k, times))
            continue
        control = draw(st.sampled_from([False, False, True]))
        tau = None if control and draw(st.booleans()) else draw(st.integers(0, T))
        start = draw(st.one_of(st.just(0), st.integers(0, T - 1)))
        holes = draw(st.lists(st.integers(start + 1, T), max_size=2))
        times = [t for t in range(start, T + 1) if t not in holes]
        templates.append((control, tau, times))
    copies = [k for k in range(len(templates)) for _ in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    units = []
    for i, k in enumerate(draw(st.permutations(copies))):
        control, tau, times = templates[k]
        cov = None
        if has_cov and draw(st.integers(0, 3)):
            cov = rng.normal(size=(len(times), 2))
            cov[rng.random(cov.shape) < 0.1] = np.nan
        units.append(UnitSeries(f"u{i}", np.array(times), rng.normal(size=len(times)),
                                tau=tau, is_control=control, covariates=cov))
    panel = PanelData(units, covariate_names=("x", "z") if has_cov else ())
    if draw(st.booleans()):
        # The same panel stored as shuffled blocks with shuffled rows.
        blocks = []
        for b in draw(st.permutations(panel.treated_blocks + panel.control_blocks)):
            rows = draw(st.permutations(range(b.unit_ids.size)))
            blocks.append(CohortBlock(
                is_control=b.is_control, tau=b.tau, times=b.times,
                outcomes=b.outcomes[rows],
                covariates=None if b.covariates is None else b.covariates[rows],
                positions=b.positions[rows], unit_ids=b.unit_ids[rows]))
        panel = PanelData.from_blocks(blocks, covariate_names=panel.covariate_names)
    return panel


shifts = st.sampled_from([0, 1, 1, 2, -1])


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(panel=panels(), q=st.integers(0, 2), R=st.sampled_from(["all", 1, 2, 3, 5]),
       delta=st.integers(0, 2), data=st.data())
def test_block_native_panel_functions_match_per_unit_oracles(panel, q, R, delta, data):
    if data.draw(st.booleans(), label="by unit"):
        # Mostly one shift per block, so shifted cohorts can merge, with
        # some units split off, some left out (shift 0) and, at times, an
        # unknown id.
        shift = {"nobody": 1} if data.draw(st.integers(0, 3)) == 0 else {}
        for b in panel.treated_blocks + panel.control_blocks:
            s = data.draw(shifts)
            for uid in b.unit_ids.tolist():
                d = data.draw(st.sampled_from([s, s, s, 0, 1, 2]))
                if d or data.draw(st.booleans()):
                    shift[uid] = d
    else:
        shift = data.draw(shifts, label="shift")
    if R != "all":
        R = max(R, q + 1)
    config = ForecastConfig(q=q, R=R)
    assert (report_json(outcome(lambda: validate(apply_anticipation(panel, delta), config)))
            == report_json(outcome(lambda: oracle_validate(panel, config, delta))))
    assert (layout(outcome(lambda: reindex_time_to_adoption(panel)))
            == layout(outcome(lambda: oracle_reindex(panel))))
    shifted = outcome(lambda: apply_anticipation(panel, shift))
    assert layout(shifted) == layout(outcome(lambda: oracle_anticipation(panel, shift)))
    if isinstance(shifted, PanelData) and shifted is not panel:
        # The result's blocks are those of its own units, regrouped.
        assert layout(shifted) == layout(PanelData(list(shifted.units),
                                                   covariate_names=shifted.covariate_names))
        assert (layout(outcome(lambda: reindex_time_to_adoption(shifted)))
                == layout(outcome(lambda: oracle_reindex(shifted))))


def test_shifted_cohorts_merge_and_split_like_the_oracles():
    rng = np.random.default_rng(6)

    def unit(uid, start, tau):
        return UnitSeries(uid, np.arange(start, start + 6), rng.normal(size=6), tau=tau)

    panel = PanelData([unit("a", 0, 4), unit("b", 0, 3), unit("c", 1, 5), unit("d", 0, 4)])
    shifted = apply_anticipation(panel, {"d": 1})
    assert [b.unit_ids.tolist() for b in shifted.treated_blocks] == [["a"], ["b", "d"], ["c"]]
    assert layout(shifted) == layout(oracle_anticipation(panel, {"d": 1}))
    event_time = reindex_time_to_adoption(shifted)
    assert [b.unit_ids.tolist() for b in event_time.treated_blocks] == [["a", "c"], ["b", "d"]]
    assert layout(event_time) == layout(oracle_reindex(shifted))
