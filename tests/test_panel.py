"""Tests for panel containers, text ingestion, validation, and alignment."""

import inspect
import io
import warnings

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
    _run_to,
    apply_anticipation,
    load_panel,
    panel_to_csv_text,
    reindex_time_to_adoption,
    validate,
    write_panel,
)
from fatpanel.simulate import DgpSpec, simulate_dgp
from oracles import unit_of


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
    assert unit_of(p, "a").times.tolist() == [1, 2, 3]
    assert unit_of(p, "a").outcomes.tolist() == [1.0, 2.0, 3.0]


def test_load_schema_mapping():
    text = "id,period,value,adopted,extra\nA,1,1.5,3,9.0\nA,2,2.5,3,9.5\nA,3,3.5,3,9.9\n"
    p = load_panel(io.StringIO(text), schema={
        "unit": "id", "time": "period", "outcome": "value", "treated_at": "adopted",
    })
    assert p.covariate_names == ("extra",)
    assert unit_of(p, "A").covariates[:, 0].tolist() == [9.0, 9.5, 9.9]
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
    x = unit_of(load_panel(io.StringIO(text)), "a").covariates[:, 0]
    assert x[0] == 0.5 and np.isnan(x[1])


def test_control_without_date_is_accepted():
    text = "unit,time,outcome,treated_at,control_flag\nc,1,1.0,,1\nc,2,2.0,,1\n"
    p = load_panel(io.StringIO(text))
    assert unit_of(p, "c").is_control and unit_of(p, "c").tau is None


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
    assert [u.unit_id for u in p.units] == ["a", "c", "b", "d", "e"]


def test_panel_structure():
    p = PanelData([unit("a"), unit("b")])
    assert p.common_tau() == 5
    assert p.is_balanced()
    ragged = PanelData([unit("a"), unit("b", times=(1, 2, 3), tau=2)])
    assert not ragged.is_balanced()
    assert ragged.common_tau() is None


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
    (lambda: PanelData([unit("a"), unit("b", tau=2 ** 63)]),
     lambda: PanelData.from_blocks([block(), block(("b",), tau=2 ** 63, positions=[1])])),
], ids=["duplicate_id", "times_not_increasing", "misshapen_outcomes",
        "treated_without_tau", "covariate_width", "undeclared_covariates",
        "tau_outside_64_bits"])
def test_from_blocks_refuses_with_the_per_unit_message(per_unit, from_blocks):
    assert refusal(from_blocks) == refusal(per_unit)


@pytest.mark.parametrize("build, message", [
    (lambda: UnitSeries("a", [], []), "unit 'a': empty series"),
    (lambda: UnitSeries("a", [1, 2], [1.0, 2.0], tau=2, covariates=np.zeros(2)),
     "unit 'a': covariates must be (n_obs, k)"),
    (lambda: block(("a",), positions=[0, 1]),
     "cohort block: positions and unit_ids must be 1-D and aligned"),
    (lambda: block(()), "cohort block has no units"),
    (lambda: unit(tau=2 ** 63),
     "unit 'a': treatment date 9223372036854775808 is outside the 64-bit integer range"),
    (lambda: unit(tau=-2 ** 63 - 1),
     "unit 'a': treatment date -9223372036854775809 is outside the 64-bit integer range"),
    (lambda: block(("b", "c"), tau=10 ** 20),
     "unit 'b': treatment date 100000000000000000000 is outside the 64-bit integer range"),
    (lambda: apply_anticipation(PanelData([unit("a"), unit("b", tau=-2 ** 63 + 1)]), 2),
     "unit 'b': treatment date -9223372036854775809 is outside the 64-bit integer range"),
], ids=["empty_series", "covariates_not_2d", "positions_and_ids", "no_units",
        "tau_above_64_bits", "tau_below_64_bits", "block_tau_outside_64_bits",
        "shifted_tau_outside_64_bits"])
def test_series_and_blocks_refuse_with_exact_messages(build, message):
    assert refusal(build) == message


@pytest.mark.parametrize("flag", ["no", 1, 0.0, None])
def test_a_control_flag_that_is_not_a_bool_is_refused(flag):
    # bool("no") is True: a flag read by its truth would make "no" a control.
    message = f"unit 'a': control flag must be a bool, got {flag!r}"
    assert refusal(lambda: UnitSeries("a", [1, 2], [1.0, 2.0], tau=2,
                                      is_control=flag)) == message
    assert refusal(lambda: block(("a", "b"), is_control=flag)) == message


def test_a_numpy_bool_control_flag_is_kept_as_bool():
    u = UnitSeries("a", [1, 2], [1.0, 2.0], tau=2, is_control=np.bool_(True))
    b = block(is_control=np.bool_(False))
    assert u.is_control is True and b.is_control is False
    panel = PanelData([u, unit("b")])
    assert [blk.unit_ids.tolist() for blk in panel.control_blocks] == [["a"]]
    assert [v.is_control for v in panel.units] == [True, False]


@pytest.mark.parametrize("spec", [
    DgpSpec(n=3, T=400, tau=5, rho=10.0, init_mode="fixed"),
    DgpSpec(n=3, T=20, tau=5, include_trend=True, delta=1e308, trend_power=3)])
def test_a_simulated_panel_that_overflows_is_refused(spec):
    # The checks of the simulated blocks are the only check of the draws.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert refusal(lambda: simulate_dgp(spec, 1)) == "unit 't0001': outcomes must be finite"


@pytest.mark.parametrize("layout", [[[0, 2]], [[0], [0]], [[1], [2]], [[-1, 0]]])
def test_from_blocks_refuses_positions_that_are_not_a_permutation(layout):
    blocks = [block([f"u{k}_{p}" for p in positions], positions=positions)
              for k, positions in enumerate(layout)]
    with pytest.raises(PanelFormatError, match="permutation of 0..n-1"):
        PanelData.from_blocks(blocks)


def test_from_blocks_refuses_no_blocks():
    assert refusal(lambda: PanelData.from_blocks([])) == refusal(lambda: PanelData([]))


def test_a_covariate_name_appears_once():
    # write_panel would write a header that names one column twice.
    text = "unit,time,outcome,treated_at,x\na,1,1.0,5,0.5\n"
    message = "covariate name 'x' appears more than once"
    assert refusal(lambda: PanelData([unit("a", covariates=np.zeros((6, 2)))],
                                     covariate_names=("x", "x"))) == message
    assert refusal(lambda: PanelData.from_blocks([block(covariates=np.zeros((1, 6, 2)))],
                                                 covariate_names=("x", "x"))) == message
    assert refusal(lambda: load_panel(io.StringIO(text),
                                      schema={"covariates": ["x", "x"]})) == message


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_outcome_is_refused_naming_its_unit(value):
    # A panel that holds it could not be written and read back, and an
    # estimate would read past it; the loader refuses it as well.
    bad = np.arange(6, dtype=float)
    bad[1] = value
    message = "unit 'b': outcomes must be finite"
    for build in (lambda: unit("b", outcomes=bad),
                  lambda: PanelData([unit("a"), unit("b", outcomes=bad)]),
                  lambda: block(("a", "b", "c"), outcomes=np.stack(
                      [np.zeros(6), bad, np.full(6, np.nan)])),
                  lambda: PanelData.from_blocks([block(("b",), outcomes=bad[None])])):
        assert refusal(build) == message


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
    assert [u.is_control for u in panel.units] == [False, True, False, False]
    t3 = unit_of(panel, "t3")
    assert np.shares_memory(t3.outcomes, panel.treated_blocks[0].outcomes)
    assert t3.tau == 5 and not t3.is_control
    rebuilt = PanelData(panel.units, covariate_names=panel.covariate_names)
    assert_blocks_equal(rebuilt.treated_blocks, panel.treated_blocks)
    assert_blocks_equal(rebuilt.control_blocks, panel.control_blocks)


def test_block_panel_structure_answers_without_units(monkeypatch):
    panel = block_panel()

    def refuse(self):
        raise AssertionError("UnitSeries built")

    monkeypatch.setattr(panel_module.UnitSeries, "__post_init__", refuse)
    assert len(panel) == 4
    assert not panel.is_balanced()
    assert panel.common_tau() is None
    balanced = simulate_dgp(DgpSpec(n=3, n_control=2, T=5, tau=3), 4)
    assert balanced.is_balanced() and balanced.common_tau() == 3
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
    # A blank field is the format's one spelling of a missing covariate:
    # a NaN given, loaded from a blank or loaded from "nan" is written so.
    units[1] = UnitSeries("b", np.arange(8), t + 1.0, tau=5, covariates=np.full((8, 1), np.nan))
    spelled = text.replace("b,0,1.0,5,\n", "b,0,1.0,5,nan\n")
    for written in (PanelData(units, covariate_names=("x",)), loaded,
                    load_panel(io.StringIO(spelled))):
        assert panel_to_csv_text(written) == text
    assert np.isnan(unit_of(loaded, "b").covariates).all()
    mb = MbConfig(q=1, R=4, covariates=("x",), beta=(0.3, 1.0))
    est = model_based_fat(loaded, mb, h=1)
    assert est.unit_ids == ("a", "c")
    assert est.dropped == (("b", "incomplete covariates on the window or target"),)


@pytest.mark.parametrize("t, expected", [
    (5, (3, 2, True)),  # the run 4, 5; periods 1 and 2 lie before it
    (2, (1, 2, False)),
    (7, (4, 1, True)),
    (3, (2, 0, True)),  # not observed: no run
    (0, (0, 0, False)),
    (9, (5, 0, True)),
    (-2**70, (0, 0, False)),  # dates past 64 bits, as a placebo lag can make
    (2**70, (5, 0, True)),
])
def test_run_to_reads_the_run_ending_at_a_date(t, expected):
    assert _run_to(np.array([1, 2, 4, 5, 7]), t) == expected


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


def test_a_validation_report_has_no_unit_the_panel_lacks():
    report = validate(PanelData([unit("a")]), ForecastConfig(q=0, R=2))
    assert report.unit("a").unit_id == "a"
    with pytest.raises(KeyError, match="'b'"):
        report.unit("b")


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
    assert unit_of(r, "a").times.tolist() == [-4, -3, -2, -1, 0, 1]
    assert unit_of(r, "b").times.tolist() == [-4, -3, -2, -1, 0, 1]
    assert unit_of(r, "a").tau == 0 and unit_of(r, "b").tau == 0
    again = reindex_time_to_adoption(r)
    assert_panels_equal(again, r)


def test_reindex_refuses_event_times_outside_64_bits():
    # numpy would wrap t - tau; the error names the first such unit in
    # panel order, whatever the order of the blocks and of their rows.
    low = block(("a",), times=(-2, 0), tau=2 ** 63 - 1, positions=[2])
    high = block(("d", "c"), times=(1, 2), tau=-2 ** 63, positions=[3, 1])
    fine = block(("b",), times=(1, 2), tau=0, positions=[0])
    message = "cannot reindex: unit {!r} has event times outside the 64-bit integer range"
    assert refusal(lambda: reindex_time_to_adoption(
        PanelData.from_blocks([low, high, fine]))) == message.format("c")
    text = "unit,time,outcome,treated_at\na,1,1.0,{0}\na,2,2.0,{0}\n".format(-2 ** 63)
    assert refusal(lambda: reindex_time_to_adoption(
        load_panel(io.StringIO(text)))) == message.format("a")
    # Event times at the ends of the range are kept.
    edges = reindex_time_to_adoption(PanelData([unit("a", times=(-1, 0), tau=2 ** 63 - 1),
                                                unit("b", times=(-1,), tau=-2 ** 63)]))
    assert [b.times.tolist() for b in edges.treated_blocks] == [[-2 ** 63, 1 - 2 ** 63],
                                                                [2 ** 63 - 1]]


def test_reindex_requires_dates():
    c = UnitSeries("c", times=np.arange(1, 4), outcomes=np.zeros(3),
                   tau=None, is_control=True)
    with pytest.raises(PanelFormatError, match="without a treatment date"):
        reindex_time_to_adoption(PanelData([c]))


def test_apply_anticipation():
    p = PanelData([unit("a"), unit("b")])
    shifted = apply_anticipation(p, 2)
    assert unit_of(shifted, "a").tau == 3 and unit_of(shifted, "b").tau == 3
    per_unit = apply_anticipation(p, {"a": 1})
    assert unit_of(per_unit, "a").tau == 4 and unit_of(per_unit, "b").tau == 5
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
    assert unit_of(kept, "a").tau == 3 and unit_of(kept, "c").tau is None
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
    assert unit_of(apply_anticipation(p, np.int64(1)), "a").tau == 4
    assert unit_of(apply_anticipation(p, {"b": np.int32(2)}), "b").tau == 3
