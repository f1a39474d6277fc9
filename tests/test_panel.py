"""Tests for panel containers, text ingestion, validation, and alignment."""

import inspect
import io

import numpy as np
import pytest

from fatpanel import panel as panel_module
from fatpanel.basis import ForecastConfig
from fatpanel.errors import ConfigError, PanelFormatError
from fatpanel.estimators import MbConfig, model_based_fat
from fatpanel.panel import (
    CohortBlock,
    PanelData,
    UnitSeries,
    apply_anticipation,
    load_panel,
    panel_to_csv_text,
    reindex_time_to_adoption,
    validate,
    write_panel,
)
from fatpanel.simulate import DgpSpec, simulate_dgp


def unit(uid="a", times=(1, 2, 3, 4, 5, 6), tau=5, **kw):
    times = np.asarray(times)
    return UnitSeries(unit_id=uid, times=times,
                      outcomes=kw.pop("outcomes", np.arange(len(times), dtype=float)),
                      tau=tau, **kw)


def assert_panels_equal(a, b):
    assert a.covariate_names == b.covariate_names
    assert [u.unit_id for u in a.units] == [u.unit_id for u in b.units]
    for ua, ub in zip(a.units, b.units):
        assert np.array_equal(ua.times, ub.times)
        assert ua.outcomes.tolist() == ub.outcomes.tolist()
        assert ua.tau == ub.tau
        assert ua.is_control == ub.is_control
        if ua.covariates is None:
            assert ub.covariates is None
        else:
            assert ua.covariates.tolist() == ub.covariates.tolist()


def test_write_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    units = [
        unit("u1", outcomes=rng.normal(size=6) / 3.0),
        unit("u2", outcomes=np.array([0.1, 1 / 3, -2.5e-17, 1e300, -0.0, 7.0])),
    ]
    panel = PanelData(units)
    path = tmp_path / "p.csv"
    write_panel(panel, path)
    assert_panels_equal(load_panel(path), panel)


def test_round_trip_with_controls_and_covariates():
    rng = np.random.default_rng(6)
    units = [
        unit("t1", covariates=rng.normal(size=(6, 2))),
        unit("c1", covariates=rng.normal(size=(6, 2)), is_control=True),
        UnitSeries("c2", times=np.arange(1, 7), outcomes=rng.normal(size=6),
                   tau=None, is_control=True, covariates=rng.normal(size=(6, 2))),
    ]
    panel = PanelData(units, covariate_names=("x1", "x2"))
    text = panel_to_csv_text(panel)
    assert text.splitlines()[0] == "unit,time,outcome,treated_at,control_flag,x1,x2"
    assert_panels_equal(load_panel(io.StringIO(text)), panel)


def test_load_sorts_rows_within_unit():
    text = "unit,time,outcome,treated_at\n a,3,3.0,5\n".replace(" ", "")
    text += "a,1,1.0,5\na,2,2.0,5\n"
    p = load_panel(io.StringIO(text))
    assert p.unit("a").times.tolist() == [1, 2, 3]
    assert p.unit("a").outcomes.tolist() == [1.0, 2.0, 3.0]


def test_load_schema_mapping():
    text = "id,period,value,adopted,extra\nA,1,1.5,3,9.0\nA,2,2.5,3,9.5\nA,3,3.5,3,9.9\n"
    p = load_panel(io.StringIO(text), schema={
        "unit": "id", "time": "period", "outcome": "value", "treated_at": "adopted",
    })
    assert p.covariate_names == ("extra",)
    assert p.unit("A").covariates[:, 0].tolist() == [9.0, 9.5, 9.9]
    p2 = load_panel(io.StringIO(text), schema={
        "unit": "id", "time": "period", "outcome": "value", "treated_at": "adopted",
        "covariates": [],
    })
    assert p2.covariate_names == ()


@pytest.mark.parametrize("text,fragment", [
    ("time,outcome,treated_at\n1,1.0,3\n", "unit"),
    ("unit,time,outcome\na,1,1.0\n", "treated_at"),
    ("unit,time,outcome,treated_at\na,1,x,3\n", "not a number"),
    ("unit,time,outcome,treated_at\na,1.5,1.0,3\n", "not an integer"),
    ("unit,time,outcome,treated_at\na,1,1.0,3\na,1,2.0,3\n", "duplicate"),
    ("unit,time,outcome,treated_at\na,1,1.0,3\na,2,2.0,4\n", "inconsistent"),
    ("unit,time,outcome,treated_at\na,1,1.0,\n", "no treatment date"),
    ("unit,time,outcome,treated_at,control_flag\na,1,1.0,3,maybe\n", "control flag"),
    ("unit,time,outcome,treated_at\n", "no data rows"),
    ("", "header"),
    ("unit,time,outcome,treated_at\na,1,1.0\n", "fields"),
])
def test_load_rejects_malformed_input(text, fragment):
    with pytest.raises(PanelFormatError, match=fragment):
        load_panel(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_rejects_non_finite_outcomes(value):
    text = f"unit,time,outcome,treated_at\na,1,1.0,3\na,2,{value},3\n"
    with pytest.raises(PanelFormatError, match=r"row 3: outcome .* is not finite"):
        load_panel(io.StringIO(text))


def test_blank_covariate_is_missing():
    text = "unit,time,outcome,treated_at,x\na,1,1.0,3,0.5\na,2,2.0,3,\n"
    x = load_panel(io.StringIO(text)).unit("a").covariates[:, 0]
    assert x[0] == 0.5 and np.isnan(x[1])


def test_control_without_date_is_accepted():
    text = "unit,time,outcome,treated_at,control_flag\nc,1,1.0,,1\nc,2,2.0,,1\n"
    p = load_panel(io.StringIO(text))
    assert p.unit("c").is_control and p.unit("c").tau is None


def test_unit_series_invariants():
    with pytest.raises(PanelFormatError, match="increasing"):
        UnitSeries("a", times=np.array([2, 1]), outcomes=np.zeros(2), tau=1)
    with pytest.raises(PanelFormatError, match="treatment date"):
        UnitSeries("a", times=np.array([1, 2]), outcomes=np.zeros(2), tau=None)
    with pytest.raises(PanelFormatError, match="aligned"):
        UnitSeries("a", times=np.array([1, 2]), outcomes=np.zeros(3), tau=1)


def test_panel_duplicate_ids_rejected():
    with pytest.raises(PanelFormatError, match="duplicate unit id"):
        PanelData([unit("a"), unit("a")])


def test_cohort_blocks_group_units_in_order_of_first_appearance():
    p = PanelData([unit("a"), unit("c", is_control=True), unit("b", tau=4),
                   unit("d"), unit("e", times=(2, 3, 4, 5, 6))])
    assert [b.unit_ids.tolist() for b in p.treated_blocks] == [["a", "d"], ["b"], ["e"]]
    assert [b.positions.tolist() for b in p.treated_blocks] == [[0, 3], [2], [4]]
    assert [b.unit_ids.tolist() for b in p.control_blocks] == [["c"]]
    first = p.treated_blocks[0]
    assert first.tau == 5 and first.times.tolist() == [1, 2, 3, 4, 5, 6]
    assert first.outcomes.tolist() == [list(range(6))] * 2
    assert first.covariates is None
    assert [u.unit_id for u in p.treated_units] == ["a", "b", "d", "e"]
    assert [u.unit_id for u in p.control_units] == ["c"]


def test_as_matrix_and_structure():
    p = PanelData([unit("a"), unit("b")])
    times, Y = p.as_matrix()
    assert times.tolist() == [1, 2, 3, 4, 5, 6]
    assert Y.shape == (2, 6)
    assert p.common_tau() == 5
    assert p.is_balanced()
    ragged = PanelData([unit("a"), unit("b", times=(1, 2, 3), tau=2)])
    assert not ragged.is_balanced()
    assert ragged.common_tau() is None
    with pytest.raises(PanelFormatError):
        ragged.as_matrix()


# ---------------------------------------------------------------------------
# panels built from cohort blocks


def block(ids=("a",), times=(1, 2, 3, 4, 5, 6), tau=5, is_control=False,
          positions=None, outcomes=None, covariates=None):
    times = np.asarray(times)
    if outcomes is None:
        outcomes = np.tile(np.arange(times.size, dtype=float), (len(ids), 1))
    if positions is None:
        positions = np.arange(len(ids))
    return CohortBlock(is_control=is_control, tau=tau, times=times,
                       outcomes=outcomes, covariates=covariates,
                       positions=positions, unit_ids=list(ids))


def refusal(build) -> str:
    with pytest.raises(PanelFormatError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("per_unit, from_blocks", [
    (lambda: PanelData([unit("a"), unit("b"), unit("a", is_control=True)]),
     lambda: PanelData.from_blocks([block(("a", "b")),
                                    block(("a",), is_control=True, positions=[2])])),
    (lambda: PanelData([unit("a", times=(1, 3, 2, 4))]),
     lambda: PanelData.from_blocks([block(times=(1, 3, 2, 4))])),
    (lambda: PanelData([unit("a", outcomes=np.zeros(5))]),
     lambda: PanelData.from_blocks([block(outcomes=np.zeros((1, 5)))])),
    (lambda: PanelData([unit("a"), unit("b", tau=None)]),
     lambda: PanelData.from_blocks([block(), block(("b",), tau=None, positions=[1])])),
    (lambda: PanelData([unit("a", covariates=np.zeros((6, 2)))],
                       covariate_names=("x",)),
     lambda: PanelData.from_blocks([block(covariates=np.zeros((1, 6, 2)))],
                                   covariate_names=("x",))),
    (lambda: PanelData([unit("a", covariates=np.zeros((6, 1)))]),
     lambda: PanelData.from_blocks([block(covariates=np.zeros((1, 6, 1)))])),
], ids=["duplicate_id", "times_not_increasing", "misshapen_outcomes",
        "treated_without_tau", "covariate_width", "undeclared_covariates"])
def test_from_blocks_refuses_with_the_per_unit_message(per_unit, from_blocks):
    assert refusal(from_blocks) == refusal(per_unit)


@pytest.mark.parametrize("layout", [[[0, 2]], [[0], [0]], [[1], [2]], [[-1, 0]]])
def test_from_blocks_refuses_positions_that_are_not_a_permutation(layout):
    blocks = [block([f"u{k}_{p}" for p in positions], positions=positions)
              for k, positions in enumerate(layout)]
    with pytest.raises(PanelFormatError, match="permutation of 0..n-1"):
        PanelData.from_blocks(blocks)


def test_from_blocks_refuses_no_blocks():
    assert refusal(lambda: PanelData.from_blocks([])) == refusal(lambda: PanelData([]))


def test_a_panel_takes_no_time_unit():
    # The panel keeps no period label, and covariate names are keyword-only:
    # an old positional label is a TypeError, not a list of covariate names.
    for build in (PanelData, PanelData.from_blocks, load_panel):
        assert "time_unit" not in inspect.signature(build).parameters
    assert not hasattr(PanelData([unit("a")]), "time_unit")
    with pytest.raises(TypeError):
        PanelData([unit("a")], ("x",))
    with pytest.raises(TypeError):
        PanelData.from_blocks([block()], "period")


def block_panel():
    rng = np.random.default_rng(8)
    cov = rng.normal(size=(2, 6, 1))
    cov[1] = np.nan
    return PanelData.from_blocks([
        block(("t1", "t3"), positions=[0, 3], outcomes=rng.normal(size=(2, 6)),
              covariates=cov),
        block(("c1",), is_control=True, tau=None, positions=[1],
              outcomes=rng.normal(size=(1, 6)), covariates=np.full((1, 6, 1), 1.5)),
        block(("t2",), times=(2, 3, 4, 5), tau=4, positions=[2],
              outcomes=rng.normal(size=(1, 4)), covariates=rng.normal(size=(1, 4, 1))),
    ], covariate_names=("x",))


def assert_blocks_equal(a, b):
    assert len(a) == len(b)
    for ba, bb in zip(a, b):
        assert (ba.is_control, ba.tau) == (bb.is_control, bb.tau)
        assert ba.times.tolist() == bb.times.tolist()
        assert ba.positions.tolist() == bb.positions.tolist()
        assert ba.unit_ids.tolist() == bb.unit_ids.tolist()
        np.testing.assert_array_equal(ba.outcomes, bb.outcomes)
        if ba.covariates is None:
            assert bb.covariates is None
        else:
            np.testing.assert_array_equal(ba.covariates, bb.covariates)


def test_block_panel_units_rebuild_the_same_blocks():
    panel = block_panel()
    assert [u.unit_id for u in panel.units] == ["t1", "c1", "t2", "t3"]
    assert [u.unit_id for u in panel.treated_units] == ["t1", "t2", "t3"]
    assert [u.unit_id for u in panel.control_units] == ["c1"]
    t3 = panel.unit("t3")
    assert np.shares_memory(t3.outcomes, panel.treated_blocks[0].outcomes)
    assert t3.tau == 5 and not t3.is_control
    rebuilt = PanelData(panel.units, covariate_names=panel.covariate_names)
    assert_blocks_equal(rebuilt.treated_blocks, panel.treated_blocks)
    assert_blocks_equal(rebuilt.control_blocks, panel.control_blocks)


def test_unit_panel_keeps_the_given_objects():
    units = [unit("a"), unit("b", is_control=True), unit("c", tau=4)]
    panel = PanelData(units)
    assert all(p is u for p, u in zip(panel.units, units))
    assert panel.unit("c") is units[2]
    assert panel.control_units[0] is units[1]


def test_block_panel_structure_answers_without_units(monkeypatch):
    panel = block_panel()

    def refuse(self):
        raise AssertionError("UnitSeries built")

    monkeypatch.setattr(panel_module.UnitSeries, "__post_init__", refuse)
    assert len(panel) == panel.n_units == 4
    assert not panel.is_balanced()
    assert panel.common_tau() is None
    balanced = simulate_dgp(DgpSpec(n=3, n_control=2, T=5, tau=3), 4)
    assert balanced.is_balanced() and balanced.common_tau() == 3
    times, Y = balanced.as_matrix()
    assert times.tolist() == [1, 2, 3, 4, 5] and Y.shape == (5, 5)
    with pytest.raises(AssertionError, match="UnitSeries built"):
        balanced.units


def test_simulated_panel_round_trips_bit_exactly():
    panel = simulate_dgp(DgpSpec(n=40, n_control=25, T=7, tau=4, include_walk=True,
                                 include_trend=True, delta=(0.0, 2.0),
                                 true_att=0.7, common_shock=1.3), 11)
    text = panel_to_csv_text(panel)
    loaded = load_panel(io.StringIO(text))
    assert_blocks_equal(loaded.treated_blocks, panel.treated_blocks)
    assert_blocks_equal(loaded.control_blocks, panel.control_blocks)
    assert_panels_equal(loaded, panel)
    assert panel_to_csv_text(loaded) == text


def test_unit_without_covariates_writes_blank_fields():
    t = np.arange(8.0)
    units = [UnitSeries("a", np.arange(8), t + np.sin(t), tau=5,
                        covariates=np.sin(t)[:, None]),
             UnitSeries("b", np.arange(8), t + 1.0, tau=5),
             UnitSeries("c", np.arange(8), t - np.sin(t), tau=5,
                        covariates=np.sin(t)[:, None])]
    panel = PanelData(units, covariate_names=("x",))
    text = panel_to_csv_text(panel)
    assert text.splitlines()[9] == "b,0,1.0,5,"
    loaded = load_panel(io.StringIO(text))
    assert np.isnan(loaded.unit("b").covariates).all()
    mb = MbConfig(q=1, R=4, covariates=("x",), beta=(0.3, 1.0))
    est = model_based_fat(loaded, mb, h=1)
    assert est.unit_ids == ("a", "c")
    assert est.dropped == (("b", "incomplete covariates on the window or target"),)


def test_validate_flags_short_and_gapped_windows():
    full = unit("full")
    gap = UnitSeries("gap", times=np.array([1, 3, 4, 5, 6]),
                     outcomes=np.zeros(5), tau=5)
    short = UnitSeries("short", times=np.array([4, 5, 6]), outcomes=np.zeros(3), tau=5)
    tiny = UnitSeries("tiny", times=np.array([5, 6]), outcomes=np.zeros(2), tau=5)
    report = validate(PanelData([full, gap, short, tiny]), ForecastConfig(q=1, R=4))
    assert not report.balanced
    assert report.common_tau == 5
    d = report.unit("full")
    assert not d.short_window and not d.fatal and d.pre_treatment_run >= 4
    d = report.unit("gap")
    assert d.short_window and d.window_gap and d.series_gaps and not d.fatal
    d = report.unit("short")
    assert d.short_window and not d.window_gap and not d.fatal
    d = report.unit("tiny")
    assert d.fatal and report.fatal_units == ("tiny",)
    assert not report.ok
    as_dict = report.to_dict()
    assert as_dict["ok"] is False and len(as_dict["units"]) == 4


def test_validate_anticipation_moves_the_window():
    u = UnitSeries("a", times=np.arange(1, 7), outcomes=np.zeros(6), tau=5)
    report = validate(apply_anticipation(PanelData([u]), 2), ForecastConfig(q=0, R=3))
    assert report.unit("a").effective_tau == 3
    assert report.unit("a").pre_treatment_run == 3


def test_validate_missing_effective_date():
    u = UnitSeries("a", times=np.array([1, 2, 3, 6]), outcomes=np.zeros(4), tau=5)
    report = validate(PanelData([u]), ForecastConfig(q=0, R=2))
    assert report.unit("a").pre_treatment_run == 0
    assert report.unit("a").fatal


def test_validate_covariate_completeness():
    cov = np.ones((6, 1))
    cov[2, 0] = np.nan
    p = PanelData([unit("a", covariates=cov)], covariate_names=("x",))
    report = validate(p, ForecastConfig(q=0, R=2))
    assert not report.unit("a").covariates_complete


def test_validate_control_without_date_not_fatal():
    c = UnitSeries("c", times=np.arange(1, 7), outcomes=np.zeros(6),
                   tau=None, is_control=True)
    report = validate(PanelData([c, unit("a")]), ForecastConfig(q=0, R=2))
    assert report.unit("c").messages == ("no treatment date",)
    assert not report.unit("c").fatal and report.ok


def test_reindex_to_adoption():
    p = PanelData([unit("a", tau=5), unit("b", times=(3, 4, 5, 6, 7, 8), tau=7)])
    r = reindex_time_to_adoption(p)
    assert r.unit("a").times.tolist() == [-4, -3, -2, -1, 0, 1]
    assert r.unit("b").times.tolist() == [-4, -3, -2, -1, 0, 1]
    assert r.unit("a").tau == 0 and r.unit("b").tau == 0
    again = reindex_time_to_adoption(r)
    assert_panels_equal(again, r)


def test_reindex_requires_dates():
    c = UnitSeries("c", times=np.arange(1, 4), outcomes=np.zeros(3),
                   tau=None, is_control=True)
    with pytest.raises(PanelFormatError, match="without a treatment date"):
        reindex_time_to_adoption(PanelData([c]))


def test_apply_anticipation():
    p = PanelData([unit("a"), unit("b")])
    shifted = apply_anticipation(p, 2)
    assert shifted.unit("a").tau == 3 and shifted.unit("b").tau == 3
    per_unit = apply_anticipation(p, {"a": 1})
    assert per_unit.unit("a").tau == 4 and per_unit.unit("b").tau == 5
    # No date moves: the panel itself comes back, with no new blocks.
    assert apply_anticipation(p, 0) is p and apply_anticipation(p, {"a": 0}) is p
    with pytest.raises(ConfigError, match=r"^delta must be an integer >= 0, got -1$"):
        apply_anticipation(p, -1)
    with pytest.raises(ConfigError, match=r"^delta for unit 'b' must be an integer >= 0"):
        apply_anticipation(p, {"a": 1, "b": -1})
    # A unit left with no observation at its shifted date is kept, for the
    # estimators to drop and validate to flag; an undated control is left
    # alone.
    c = UnitSeries("c", times=np.arange(1, 4), outcomes=np.zeros(3),
                   tau=None, is_control=True)
    kept = apply_anticipation(PanelData([unit("a", times=(4, 5, 6), tau=5), c]), 2)
    assert kept.unit("a").tau == 3 and kept.unit("c").tau is None
    only_control = PanelData([c])
    assert apply_anticipation(only_control, 1) is only_control
    assert apply_anticipation(only_control, {"c": 1}) is only_control


def test_apply_anticipation_refuses_a_key_that_names_no_unit():
    p = PanelData([unit("a"), unit("b")])
    with pytest.raises(ConfigError, match=r"delta names units not in the panel: \['typo'\]"):
        apply_anticipation(p, {"a": 1, "typo": 3})


@pytest.mark.parametrize("delta", [1.5, 1.0, True, "1", {"a": 1.5}, {"b": True}])
def test_apply_anticipation_refuses_non_integer_shifts(delta):
    with pytest.raises(ConfigError, match="must be an integer"):
        apply_anticipation(PanelData([unit("a"), unit("b")]), delta)


def test_apply_anticipation_takes_numpy_integers():
    p = PanelData([unit("a"), unit("b")])
    assert apply_anticipation(p, np.int64(1)).unit("a").tau == 4
    assert apply_anticipation(p, {"b": np.int32(2)}).unit("b").tau == 3
