"""Tests for the command-line front end.

Each run goes through ``main(argv)`` in process and is checked against
direct library calls on the same input file, so the CLI can add nothing
beyond argument plumbing and serialization.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fatpanel
from fatpanel import cli as cli_module
from fatpanel import estimators as estimators_module
from fatpanel import simulate as simulate_module
from fatpanel.basis import ForecastConfig
from fatpanel.cli import main
from fatpanel.errors import EstimationError
from fatpanel.estimators import (MbConfig, covariate_fat_heterogeneous, dfat, fat,
                                 model_based_fat, placebo_fat)
from fatpanel.panel import PanelData, UnitSeries, load_panel, write_panel
from fatpanel.simulate import DgpSpec, preset, simulate_dgp


def sim_panel_csv(tmp_path, name="panel.csv", seed=11, **spec_kw):
    kw = dict(n=36, T=10, tau=5, include_ar=True, rho=0.3, true_att=0.8)
    kw.update(spec_kw)
    panel = simulate_dgp(DgpSpec(**kw), np.random.default_rng(seed))
    path = tmp_path / name
    write_panel(panel, path)
    return str(path)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out-json", str(out)])
    return code, json.loads(out.read_text())


# -- estimate ---------------------------------------------------------------

def test_estimate_grid_two_q_five_h(tmp_path):
    path = sim_panel_csv(tmp_path)
    code, payload = run_json(
        ["estimate", "--input", path, "--q", "1", "2", "--r", "5",
         "--h", "1", "2", "3", "4", "5"], tmp_path)
    assert code == 0
    assert payload["schema"] == 1
    assert payload["kind"] == "estimates"
    results = payload["results"]
    assert len(results) == 10
    assert [(r["q"], r["horizon"]) for r in results] == [
        (q, h) for q in (1, 2) for h in (1, 2, 3, 4, 5)]
    for r in results:
        assert r["n_used"] == 36
        lo, hi = r["ci"]
        assert lo < r["point"] < hi
        assert r["se"] > 0


def test_estimate_single_cell_equals_library_call(tmp_path):
    path = sim_panel_csv(tmp_path)
    code, payload = run_json(
        ["estimate", "--input", path, "--q", "2", "--r", "4", "--h", "3",
         "--level", "0.9"], tmp_path)
    assert code == 0
    est = fat(load_panel(path), ForecastConfig(q=2, R=4), 3, level=0.9)
    (r,) = payload["results"]
    assert r["point"] == est.point
    assert r["se"] == est.se
    assert r["ci"] == [est.ci[0], est.ci[1]]
    assert r["n_used"] == est.n_used


def test_estimate_q0_constant_panel_is_zero(tmp_path):
    path = sim_panel_csv(tmp_path, name="const.csv", include_ar=False,
                         mu=0.0, true_att=0.0)
    code, payload = run_json(
        ["estimate", "--input", path, "--q", "0", "--r", "3",
         "--h", "1", "2"], tmp_path)
    assert code == 0
    for r in payload["results"]:
        assert r["point"] == 0.0


def test_r_all_uses_full_pre_period(tmp_path):
    path = sim_panel_csv(tmp_path)
    _, all_payload = run_json(
        ["estimate", "--input", path, "--q", "1", "--r", "all"], tmp_path,
        name="a.json")
    _, full_payload = run_json(
        ["estimate", "--input", path, "--q", "1", "--r", "5"], tmp_path,
        name="b.json")
    assert all_payload["results"][0]["point"] == full_payload["results"][0]["point"]
    assert all_payload["results"][0]["se"] == full_payload["results"][0]["se"]


def test_estimate_mb_equals_library_call(tmp_path):
    path = sim_panel_csv(tmp_path, name="mb.csv", n=200, T=6, tau=5,
                         include_ar=True, rho=0.5, mu=(-1.0, 1.0))
    code, payload = run_json(
        ["estimate", "--input", path, "--estimator", "mb", "--q", "1",
         "--r", "4", "--h", "1", "--instrument-lag", "3"], tmp_path)
    assert code == 0
    est = model_based_fat(load_panel(path), MbConfig(q=1, R=4), 1)
    (r,) = payload["results"]
    assert r["point"] == est.point
    assert r["se"] == est.se


def test_estimate_mb_default_window_exits_zero(tmp_path):
    # R="all" under the lagged model is the run less its first period:
    # periods 1..5 before adoption leave a 4-period window.
    path = sim_panel_csv(tmp_path, name="mb.csv", n=200, T=6, tau=5,
                         include_ar=True, rho=0.5, mu=(-1.0, 1.0))
    code, every = run_json(["estimate", "--input", path, "--estimator", "mb"],
                           tmp_path, name="all.json")
    assert code == 0
    _, fixed = run_json(["estimate", "--input", path, "--estimator", "mb",
                         "--r", "4"], tmp_path, name="four.json")
    assert every["results"][0]["point"] == fixed["results"][0]["point"]
    assert every["results"][0]["se"] == fixed["results"][0]["se"]


def test_estimate_mb_fits_one_first_stage_for_every_q_and_h(tmp_path, monkeypatch):
    path = sim_panel_csv(tmp_path, name="mb.csv", n=200, T=7, tau=5,
                         include_ar=True, rho=0.5, mu=(-1.0, 1.0))
    fits = []
    fit = estimators_module.anderson_hsiao

    def recorded(*a, **k):
        fits.append(fit(*a, **k))
        return fits[-1]

    monkeypatch.setattr(estimators_module, "anderson_hsiao", recorded)
    code, payload = run_json(["estimate", "--input", path, "--estimator", "mb",
                              "--q", "0", "1", "--h", "1", "2", "--r", "3"], tmp_path)
    assert code == 0
    assert [(f.instrument_lag, f.detrend, f.covariate_names) for f in fits] == [(3, True, ())]
    panel = load_panel(path)
    for r in payload["results"]:
        est = model_based_fat(panel, MbConfig(q=r["q"], R=3), r["horizon"])
        assert (r["point"], r["se"]) == (est.point, est.se)


@pytest.mark.parametrize("flags, spec, code, message", [
    # The good q runs first; the bad one still refuses the whole command.
    (["--q", "0", "5", "--r", "3"], {}, 1, "window length R=3 is below q+1=6"),
    # Adoption after period 3 leaves no period with its outcome 3 lags back.
    (["--q", "0", "--r", "2"], dict(T=6, tau=3), 3,
     "no unit has enough history for instrument lag 3"),
])
def test_estimate_mb_failures_keep_their_exit_code_and_message(
        tmp_path, capsys, flags, spec, code, message):
    path = sim_panel_csv(tmp_path, name="mb.csv", **spec)
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", path, "--estimator", "mb", *flags,
                 "--out-json", str(out)]) == code
    assert not out.exists()
    assert capsys.readouterr().err == f"fatpanel: error: {message}\n"


def covariate_panel_csv(tmp_path, name="cov.csv"):
    """12 units with a covariate column ``x``: one with a hole in its
    window, one whose ``x`` is constant (collinear with the intercept)."""
    rng = np.random.default_rng(5)
    times = np.arange(10)
    units = []
    for i in range(12):
        x = np.full(10, 2.0) if i == 4 else rng.normal(size=10)
        if i == 7:
            x[4] = np.nan
        y = rng.normal() + 0.3 * times + 0.8 * np.nan_to_num(x) + rng.normal(size=10)
        units.append(UnitSeries(f"u{i}", times, y, tau=6, covariates=x[:, None]))
    path = tmp_path / name
    write_panel(PanelData(units, covariate_names=("x",)), path)
    return str(path)


def test_estimate_covariate_het_equals_library_call(tmp_path):
    path = covariate_panel_csv(tmp_path)
    code, payload = run_json(
        ["estimate", "--input", path, "--estimator", "covariate_het", "--q", "1",
         "--r", "5", "--h", "1", "2"], tmp_path)
    assert code == 0
    for r in payload["results"]:
        est = covariate_fat_heterogeneous(load_panel(path), ForecastConfig(q=1, R=5),
                                          r["horizon"])
        assert (r["point"], r["se"], r["n_used"]) == (est.point, est.se, est.n_used)
        assert r["dropped_units"] == [
            {"unit": "u4", "reason": "augmented window design is rank deficient"},
            {"unit": "u7", "reason": "incomplete covariates on the window or target"}]
        assert r["n_used"] == 10


def test_estimate_covariate_het_without_covariates_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", sim_panel_csv(tmp_path), "--estimator",
                 "covariate_het", "--out-json", str(out)]) == 1
    assert capsys.readouterr().err == "fatpanel: error: no covariates selected\n"
    assert not out.exists()


def test_repeated_mb_covariate_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"mb_covariates": ["x", "x"], "estimator": "mb"}))
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", covariate_panel_csv(tmp_path), "--config",
                 str(cfg_path), "--r", "4", "--out-json", str(out)]) == 1
    assert capsys.readouterr().err == (
        "fatpanel: error: covariates ['x'] are named more than once\n")
    assert not out.exists()


def test_estimate_residual_csv(tmp_path):
    path = sim_panel_csv(tmp_path)
    out_csv = tmp_path / "resid.csv"
    code = main(["estimate", "--input", path, "--q", "1", "--r", "5",
                 "--h", "1", "2", "--out-json", str(tmp_path / "o.json"),
                 "--out-csv", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "q,R,horizon,unit,residual"
    assert len(lines) == 1 + 2 * 36
    est = fat(load_panel(path), ForecastConfig(q=1, R=5), 1)
    first = lines[1].split(",")
    assert first[:4] == ["1", "5", "1", est.unit_ids[0]]
    assert float(first[4]) == est.residuals[0]


def test_residual_and_validate_csvs_quote_ids_that_need_it(tmp_path):
    # Ids holding a comma, a quote or a line break load from quoted fields;
    # the CSVs quote them back, and only them, so each row reads back with
    # the header's width and its unit's id.
    ids = ["a,1", 'b"2', "c\n3", "d\r4", "e5"]
    rng = np.random.default_rng(5)
    lines = ["unit,time,outcome,treated_at"]
    for uid in ids:
        field = uid if uid == "e5" else '"' + uid.replace('"', '""') + '"'
        lines += [f"{field},{t},{rng.standard_normal()!r},5" for t in range(1, 8)]
    path = tmp_path / "ids.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    panel = load_panel(path)
    est = {h: fat(panel, ForecastConfig(q=0, R=3), h) for h in (1, 2)}
    assert list(est[1].unit_ids) == sorted(ids)

    def read(name):
        text = (tmp_path / name).read_bytes().decode("utf-8")
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert all(len(row) == len(header) for row in rows)
        return text, header, rows

    assert main(["estimate", "--input", str(path), "--q", "0", "--r", "3", "--h", "1", "2",
                 "--out-json", str(tmp_path / "e.json"),
                 "--out-csv", str(tmp_path / "e.csv")]) == 0
    text, header, rows = read("e.csv")
    assert header == ["q", "R", "horizon", "unit", "residual"]
    assert [(row[2], row[3], float(row[4])) for row in rows] == [
        (str(h), uid, r) for h in (1, 2) for uid, r in zip(est[h].unit_ids,
                                                          est[h].residuals.tolist())]
    assert '\n0,3,1,"a,1",' in text and '\n0,3,1,"b""2",' in text
    assert '\n0,3,1,"c\n3",' in text and '\n0,3,1,"d\r4",' in text
    assert "\n0,3,1,e5," in text

    assert main(["validate", "--input", str(path), "--q", "0", "--r", "3",
                 "--out-json", str(tmp_path / "v.json"),
                 "--out-csv", str(tmp_path / "v.csv")]) == 0
    _, header, rows = read("v.csv")
    assert header == ["unit", "fatal", "pre_treatment_run", "messages"]
    assert [row[0] for row in rows] == sorted(ids)


# -- placebo ----------------------------------------------------------------

def test_placebo_lag0_equals_estimate_h1(tmp_path):
    path = sim_panel_csv(tmp_path)
    _, pl = run_json(["placebo", "--input", path, "--q", "1", "--r", "4",
                      "--lags", "0", "1", "2", "3"], tmp_path, name="p.json")
    _, es = run_json(["estimate", "--input", path, "--q", "1", "--r", "4",
                      "--h", "1"], tmp_path, name="e.json")
    assert len(pl["results"]) == 4
    lag0 = pl["results"][0]
    assert lag0["lag"] == 0
    assert lag0["point"] == es["results"][0]["point"]
    assert lag0["se"] == es["results"][0]["se"]


def test_placebo_bad_lag_keeps_going(tmp_path):
    path = sim_panel_csv(tmp_path)
    code, payload = run_json(
        ["placebo", "--input", path, "--q", "0", "--r", "2",
         "--lags", "0", "9"], tmp_path)
    assert code == 0
    good, bad = payload["results"]
    assert "point" in good and "error" not in good
    assert bad["lag"] == 9 and "error" in bad and "point" not in bad


@pytest.mark.parametrize("flags", [["--lags", "-1", "0"], ["--level", "1.5"]])
def test_placebo_configuration_error_is_usage_error(tmp_path, capsys, flags):
    path = sim_panel_csv(tmp_path)
    out = tmp_path / "o.json"
    assert main(["placebo", "--input", path, "--q", "0", "--r", "2", *flags,
                 "--out-json", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("fatpanel: error: ")


def test_placebo_all_lags_failing_is_estimation_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    code = main(["placebo", "--input", path, "--q", "0", "--r", "2",
                 "--lags", "8", "9", "--out-json", str(tmp_path / "o.json")])
    assert code == 3


def test_placebo_matches_library_per_lag(tmp_path):
    path = sim_panel_csv(tmp_path)
    _, payload = run_json(["placebo", "--input", path, "--q", "0", "--r", "3",
                           "--lags", "2"], tmp_path)
    est = placebo_fat(load_panel(path), ForecastConfig(q=0, R=3), 2, 1)
    (r,) = payload["results"]
    assert r["point"] == est.point
    assert r["se"] == est.se


# -- dfat -------------------------------------------------------------------

def test_dfat_groups_and_library_match(tmp_path):
    path = sim_panel_csv(tmp_path, name="ctrl.csv", n=30, n_control=30,
                         common_shock=1.5)
    code, payload = run_json(
        ["dfat", "--input", path, "--q", "0", "--r", "5"], tmp_path)
    assert code == 0
    (r,) = payload["results"]
    assert r["treated"]["n_used"] == 30
    assert r["control"]["n_used"] == 30
    assert r["point"] == r["treated"]["point"] - r["control"]["point"]


def test_dfat_without_controls_is_estimation_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    code = main(["dfat", "--input", path, "--q", "0", "--r", "5",
                 "--out-json", str(tmp_path / "o.json")])
    assert code == 3


def test_dfat_reports_a_failed_pair_and_keeps_going(tmp_path, capsys):
    # On 7 periods adopting after period 5, horizon 5 has no target period.
    path = sim_panel_csv(tmp_path, n=30, n_control=30, T=7, tau=5)
    out, csv_out = tmp_path / "o.json", tmp_path / "o.csv"
    assert main(["dfat", "--input", path, "--q", "0", "--r", "2", "--h", "1", "5",
                 "--out-json", str(out), "--out-csv", str(csv_out)]) == 0
    assert capsys.readouterr().err == ""
    good, bad = json.loads(out.read_text())["results"]
    panel = load_panel(path)
    est = dfat(panel, ForecastConfig(q=0, R=2), 1)
    assert good == {"q": 0, "R": 2, **est.to_dict()}
    assert set(bad) == {"q", "R", "horizon", "error"}
    assert (bad["q"], bad["R"], bad["horizon"]) == (0, 2, 5)
    with pytest.raises(EstimationError, match=re.escape(bad["error"])):
        dfat(panel, ForecastConfig(q=0, R=2), 5)
    assert csv_out.read_text().splitlines() == ["q,R,horizon,group,unit,residual"] + [
        f"0,2,1,{group},{unit},{float(r)!r}"
        for group, part in (("treated", est.treated), ("control", est.control))
        for unit, r in zip(part.unit_ids, part.residuals)]

    # With every pair failing, the report is still written, and the first
    # failure's message ends the command.
    assert main(["dfat", "--input", path, "--q", "0", "--r", "2", "--h", "5", "6",
                 "--out-json", str(out)]) == 3
    failed = json.loads(out.read_text())["results"]
    assert [(r["horizon"], set(r)) for r in failed] == [
        (h, {"q", "R", "horizon", "error"}) for h in (5, 6)]
    assert capsys.readouterr().err == f"fatpanel: error: {failed[0]['error']}\n"


# -- simulate ---------------------------------------------------------------

def test_simulate_preset_report_files(tmp_path):
    out_csv = tmp_path / "mc.csv"
    code, payload = run_json(
        ["simulate", "--preset", "stationary", "--reps", "4", "--seed", "3",
         "--out-csv", str(out_csv)], tmp_path)
    assert code == 0
    assert payload["kind"] == "mc_report"
    assert payload["preset"] == "stationary"
    assert payload["master_seed"] == 3
    assert payload["n_reps"] == 4
    assert len(payload["cells"]) == 12
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("label,q,metric,R=")


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "master_seed must be an integer >= 0, got -1"),
    (["--reps", "1"], "n_reps must be an integer >= 2, got 1"),
])
def test_simulate_refuses_a_negative_seed_or_too_few_reps(tmp_path, capsys, flags, message):
    out = tmp_path / "o.json"
    argv = ["simulate", "--preset", "common_shock", "--reps", "2", *flags]
    assert main(argv + ["--out-json", str(out)]) == 1
    assert capsys.readouterr().err == f"fatpanel: error: {message}\n"
    assert not out.exists()


def test_estimate_on_one_usable_unit_is_estimation_error(tmp_path, capsys):
    # One unit gives no standard error, so no interval, not a zero-width one.
    path = tmp_path / "one.csv"
    path.write_text("unit,time,outcome,treated_at\n"
                    "a,1,1.0,3\na,2,2.5,3\na,3,2.0,3\na,4,6.0,3\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(path), "--q", "0", "--r", "2",
                 "--out-json", str(out)]) == 3
    assert capsys.readouterr().err == ("fatpanel: error: only one usable unit (a); "
                                       "a standard error needs at least two\n")
    # The report still records the failed pair.
    assert json.loads(out.read_text())["results"] == [
        {"q": 0, "R": 2, "horizon": 1,
         "error": "only one usable unit (a); a standard error needs at least two"}]


def test_estimate_on_residuals_whose_squares_overflow_writes_a_finite_se(tmp_path):
    # Residuals of +-1e200 square past the largest double; the report
    # carries a finite se and interval, not the non-JSON token Infinity.
    path = tmp_path / "big.csv"
    path.write_text("unit,time,outcome,treated_at\n"
                    "a,1,0,2\na,2,0,2\na,3,1e200,2\nb,1,0,2\nb,2,0,2\nb,3,-1e200,2\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(path), "--q", "0", "--r", "2",
                 "--out-json", str(out)]) == 0
    assert "Infinity" not in out.read_text()
    (result,) = json.loads(out.read_text())["results"]
    assert result["se"] == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
    assert all(math.isfinite(x) for x in result["ci"])


def test_estimate_on_residuals_whose_sum_overflows_writes_a_finite_point(tmp_path):
    # Residuals of 1.5e308 and 1e308 sum past the largest double, but their
    # mean is finite: the report carries it with a finite se and interval,
    # not the non-JSON tokens Infinity and NaN.
    path = tmp_path / "big.csv"
    path.write_text("unit,time,outcome,treated_at\n"
                    "a,1,1,2\na,2,2,2\na,3,1.5e308,2\nb,1,1,2\nb,2,3,2\nb,3,1e308,2\n")
    out = tmp_path / "o.json"
    assert main(["estimate", "--input", str(path), "--q", "0", "--r", "2",
                 "--out-json", str(out)]) == 0
    assert "Infinity" not in out.read_text() and "NaN" not in out.read_text()
    (result,) = json.loads(out.read_text())["results"]
    assert result["point"] == pytest.approx(1.25e308, rel=1e-15)
    assert result["se"] == pytest.approx(0.25e308 / math.sqrt(2), rel=1e-15)
    assert all(math.isfinite(x) for x in result["ci"])


def test_estimate_whose_residual_sum_overflows_writes_nothing_to_stderr(tmp_path):
    # The mean is remade on scaled residuals, so numpy's overflow warning
    # from the first sum must not reach the terminal.
    path = tmp_path / "big.csv"
    path.write_text("unit,time,outcome,treated_at\n"
                    "a,1,1,2\na,2,2,2\na,3,1.5e308,2\nb,1,1,2\nb,2,3,2\nb,3,1e308,2\n")
    src = Path(fatpanel.__file__).resolve().parents[1]
    code = "import sys, fatpanel.cli; sys.exit(fatpanel.cli.main(sys.argv[1:]))"
    out = subprocess.run(
        [sys.executable, "-c", code, "estimate", "--q", "0", "--r", "2",
         "--input", str(path), "--out-json", str(tmp_path / "o.json")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120)
    assert (out.returncode, out.stderr) == (0, "")


def test_estimate_reports_a_failed_pair_and_keeps_going(tmp_path, capsys):
    # On 7 periods adopting after period 5, horizon 5 has no target period.
    path = sim_panel_csv(tmp_path, T=7, tau=5)
    out, csv_out = tmp_path / "o.json", tmp_path / "o.csv"
    assert main(["estimate", "--input", path, "--q", "0", "--r", "2", "--h", "1", "5",
                 "--out-json", str(out), "--out-csv", str(csv_out)]) == 0
    assert capsys.readouterr().err == ""
    good, bad = json.loads(out.read_text())["results"]
    panel = load_panel(path)
    est = fat(panel, ForecastConfig(q=0, R=2), 1)
    assert (good["horizon"], good["point"], good["se"]) == (1, est.point, est.se)
    assert set(bad) == {"q", "R", "horizon", "error"}
    assert (bad["q"], bad["R"], bad["horizon"]) == (0, 2, 5)
    assert bad["error"].startswith("no usable units (")
    with pytest.raises(EstimationError, match=re.escape(bad["error"])):
        fat(panel, ForecastConfig(q=0, R=2), 5)
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 1 + est.n_used and all(r.startswith("0,2,1,") for r in rows[1:])


def test_simulate_unknown_preset_is_usage_error(tmp_path):
    code = main(["simulate", "--preset", "nope", "--reps", "4",
                 "--out-json", str(tmp_path / "o.json")])
    assert code == 1


def test_simulate_inline_spec_from_config_file(tmp_path):
    config = {
        "dgp": {"n": 40, "T": 6, "tau": 5, "include_ar": True, "rho": 0.2,
                "true_att": 1.0},
        "cells": [{"estimator": "pr", "q": 0, "R": 3}],
        "reps": 6,
        "seed": 9,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code, payload = run_json(["simulate", "--config", str(cfg_path)], tmp_path)
    assert code == 0
    assert payload["preset"] is None
    assert payload["spec"]["n"] == 40
    (cell,) = payload["cells"]
    assert cell["name"] == "pr_q0_R3"
    assert cell["n_ok"] == 6


@pytest.mark.parametrize("config, spec, names", [
    # An interval law is a JSON list; unset fields keep DgpSpec's defaults.
    ({"dgp": {"n": 10, "rho": [0.1, 0.5]}, "cells": [{"q": 0, "R": 3}]},
     {**DgpSpec().to_dict(), "n": 10, "rho": [0.1, 0.5]}, ["pr_q0_R3"]),
    # A preset's spec and grid, each replaced from the file on its own.
    ({"preset": "stationary", "dgp": {"n": 12, "mu": [-2.0, 2.0]}},
     {**preset("stationary")[0].to_dict(), "n": 12, "mu": [-2.0, 2.0]},
     [c.name for c in preset("stationary")[1]]),
    ({"preset": "common_shock", "cells": [{"q": 1, "R": 2}]},
     preset("common_shock")[0].to_dict(), ["pr_q1_R2"]),
])
def test_simulate_config_overrides(tmp_path, config, spec, names):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**config, "reps": 2}))
    code, payload = run_json(["simulate", "--config", str(cfg_path)], tmp_path)
    assert code == 0
    assert payload["preset"] == config.get("preset")
    assert payload["spec"] == spec
    assert [c["name"] for c in payload["cells"]] == names
    # A report's own spec is a valid ``dgp``.
    cfg_path.write_text(json.dumps({**config, "dgp": payload["spec"], "reps": 2}))
    assert run_json(["simulate", "--config", str(cfg_path)], tmp_path)[1] == payload


@pytest.mark.parametrize("dgp, message", [
    ("ab", "bad dgp spec: "),
    ({"n": 10, "rho": "ab"}, "rho law must be a number or (lo, hi), got 'ab'"),
    ({"n": 10, "rho": [-1.5, 0.5]}, "stationary initialization requires |rho| < 1"),
    ({"n": 10, "sigma": 1.0}, "bad dgp spec: "),
    # Each field is refused by name; JSON's NaN and Infinity read as floats.
    ({"n": 20.5}, "n must be an integer >= 1, got 20.5"),
    ({"T": 6.0}, "T must be an integer >= 2, got 6.0"),
    ({"tau": 5.0}, "tau must be an integer >= 1, got 5.0"),
    ({"n": True}, "n must be an integer >= 1, got True"),
    ({"include_ar": "no"}, "include_ar must be true or false, got 'no'"),
    ({"trend_power": 1.5}, "trend_power must be an integer >= 1, got 1.5"),
    ({"true_att": math.nan}, "true_att must be a finite number, got nan"),
    ({"common_shock": math.inf}, "common_shock must be a finite number, got inf"),
    ({"mu": math.nan}, "mu law must be finite, got nan"),
    ({"mu": [0.0, math.inf]}, "mu law must be finite, got [0.0, inf]"),
    ({"rho": False}, "rho law must be a number or (lo, hi), got False"),
])
@pytest.mark.parametrize("study", [{"preset": "stationary"}, {"cells": [{"q": 0, "R": 3}]}])
def test_simulate_bad_dgp_is_usage_error(tmp_path, capsys, dgp, message, study):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**study, "dgp": dgp, "reps": 2}))
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(cfg_path), "--out-json", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"fatpanel: error: {message}")


def test_simulate_cell_with_a_non_string_group_is_usage_error(tmp_path, capsys):
    config = {"dgp": {"n": 10, "T": 6, "tau": 5},
              "cells": [{"estimator": "pr", "q": 0, "R": 3, "group": 5}], "reps": 2}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out, table = tmp_path / "o.json", tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out-json", str(out),
                 "--out-csv", str(table)]) == 1
    assert not out.exists() and not table.exists()
    assert capsys.readouterr().err == "fatpanel: error: group must be a string, got 5\n"


@pytest.mark.parametrize("cell, message", [
    ({"h": 0}, "h must be an integer >= 1, got 0"),
    ({"h": 1.5}, "h must be an integer >= 1, got 1.5"),
    ({"estimator": "placebo", "lag": -1}, "lag must be an integer >= 0, got -1"),
    ({"lag": 2}, "a pr cell takes no lag: only placebo cells shift adoption"),
])
def test_simulate_cell_with_a_bad_horizon_or_lag_is_usage_error(
        tmp_path, capsys, cell, message):
    config = {"dgp": {"n": 10, "T": 6, "tau": 5},
              "cells": [{"estimator": "pr", "q": 0, "R": 3, **cell}], "reps": 2}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "o.json"
    assert main(["simulate", "--config", str(cfg_path), "--out-json", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"fatpanel: error: {message}\n"


# -- validate ---------------------------------------------------------------

def test_validate_clean_panel(tmp_path):
    path = sim_panel_csv(tmp_path)
    code, payload = run_json(
        ["validate", "--input", path, "--q", "1", "--r", "5"], tmp_path)
    assert code == 0
    assert payload["kind"] == "validation"
    assert payload["ok"] is True
    assert len(payload["units"]) == 36


def test_validate_with_delta_reports_the_recorded_dates(tmp_path):
    path = tmp_path / "staggered.csv"
    rows = ["unit,time,outcome,treated_at,control_flag"]
    rows += [f"a,{t},{t * 0.5},6,0" for t in range(10)]
    rows += [f"late,{t},{t * 0.3},6,0" for t in range(5, 10)]  # no period 4
    rows += [f"c,{t},{t * 0.1},,1" for t in range(10)]  # undated control
    path.write_text("\n".join(rows) + "\n")
    code, payload = run_json(["validate", "--input", str(path), "--q", "0", "--r", "2",
                              "--delta", "2"], tmp_path)
    assert code == 0 and payload["delta"] == 2 and payload["common_tau"] is None
    units = {u["unit_id"]: u for u in payload["units"]}
    assert [(units[k]["tau"], units[k]["effective_tau"]) for k in ("a", "late", "c")] == [
        (6, 4), (6, 4), (None, None)]
    assert units["late"]["fatal"] and units["late"]["messages"][0] == (
        "no observation at effective treatment date 4")
    rows = [r.replace(",6,0", ",6,1") if r.startswith("a,") else r for r in rows[:16]]
    path.write_text("\n".join(rows) + "\n")
    code, payload = run_json(["validate", "--input", str(path), "--q", "0", "--delta", "1"],
                             tmp_path)
    assert code == 0 and payload["common_tau"] == 6
    assert [u["effective_tau"] for u in payload["units"]] == [5, 5]


def test_validate_flagged_panel_still_exits_zero(tmp_path):
    path = tmp_path / "gap.csv"
    rows = ["unit,time,outcome,treated_at"]
    for t in (1, 2, 4, 5, 6):  # period 3 missing: window gap, not fatal
        rows.append(f"g1,{t},{float(t)},5")
    for t in range(1, 7):
        rows.append(f"g2,{t},{float(t)},5")
    for t in (1, 2, 3, 4, 6):  # period 5 missing: nothing at adoption date
        rows.append(f"g3,{t},{float(t)},5")
    path.write_text("\n".join(rows) + "\n")
    code, payload = run_json(
        ["validate", "--input", str(path), "--q", "1", "--r", "4"], tmp_path)
    assert code == 0
    assert payload["ok"] is False
    units = {u["unit_id"]: u for u in payload["units"]}
    assert units["g1"]["fatal"] is False
    assert units["g1"]["short_window"] is True
    assert units["g1"]["window_gap"] is True
    assert units["g2"]["fatal"] is False
    assert units["g2"]["messages"] == []
    assert units["g3"]["fatal"] is True


# -- config file and determinism --------------------------------------------

def test_config_file_wins_over_flags(tmp_path):
    path = sim_panel_csv(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"q": [2], "r": 4}))
    code, payload = run_json(
        ["estimate", "--input", path, "--q", "1", "--r", "5",
         "--config", str(cfg_path)], tmp_path)
    assert code == 0
    assert payload["R"] == 4
    assert [r["q"] for r in payload["results"]] == [2]


def test_config_command_mismatch_is_usage_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"command": "placebo"}))
    code = main(["estimate", "--input", path, "--config", str(cfg_path),
                 "--out-json", str(tmp_path / "o.json")])
    assert code == 1


def test_config_unknown_key_is_usage_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"window": 5}))
    code = main(["estimate", "--input", path, "--config", str(cfg_path),
                 "--out-json", str(tmp_path / "o.json")])
    assert code == 1


def test_reruns_are_byte_identical(tmp_path):
    path = sim_panel_csv(tmp_path)
    argv = ["estimate", "--input", path, "--q", "1", "2", "--r", "5",
            "--h", "1", "2", "3"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out-json", str(a)]) == 0
    assert main(argv + ["--out-json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    sim = ["simulate", "--preset", "common_shock", "--reps", "3",
           "--seed", "5"]
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    assert main(sim + ["--out-json", str(sa)]) == 0
    assert main(sim + ["--out-json", str(sb)]) == 0
    assert sa.read_bytes() == sb.read_bytes()


def test_stdout_when_no_out_json(tmp_path, capsys):
    path = sim_panel_csv(tmp_path)
    code = main(["estimate", "--input", path, "--q", "0", "--r", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1


# -- exit codes and argument errors ------------------------------------------

def test_missing_input_file_is_data_error(tmp_path):
    code = main(["estimate", "--input", str(tmp_path / "absent.csv")])
    assert code == 2


def test_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time\nu1,1\n")
    code = main(["estimate", "--input", str(bad)])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_outcome_is_data_error(tmp_path, capsys, value):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,outcome,treated_at\n"
                   f"a,1,1.0,2\na,2,{value},2\na,3,3.0,2\n")
    assert main(["estimate", "--input", str(bad), "--q", "0"]) == 2
    assert "row 3" in capsys.readouterr().err


def test_time_outside_int64_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,outcome,treated_at\n"
                   "a,1,1.0,2\na,99999999999999999999,2.0,2\na,3,3.0,2\n")
    assert main(["estimate", "--input", str(bad), "--q", "0"]) == 2
    assert capsys.readouterr().err == ("fatpanel: error: row 3: time '99999999999999999999'"
                                       " is outside the 64-bit integer range\n")


@pytest.mark.parametrize("command", ["validate", "estimate"])
def test_a_csv_reader_error_is_data_error(tmp_path, capsys, command):
    # A field longer than the reader's limit stops the ``csv`` reader itself.
    limit = csv.field_size_limit()
    bad = tmp_path / "bad.csv"
    bad.write_text("unit,time,outcome,treated_at\n"
                   f"a,1,1.0,2\n{'x' * (limit + 1)},2,2.0,2\n")
    out = tmp_path / "o.json"
    assert main([command, "--input", str(bad), "--q", "0", "--out-json", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"fatpanel: error: field larger than field limit ({limit})\n")
    assert not out.exists()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["estimate", "--badflag"]) == 1
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["placebo", "--lags", "-1"], ["placebo", "--lags", "0", "-2"],
    ["estimate", "--h", "0"],
])
def test_bad_grid_is_usage_error_before_the_input_is_read(tmp_path, argv):
    # The exit code of a bad grid must not depend on whether the file exists.
    assert main(argv + ["--input", str(tmp_path / "missing.csv")]) == 1
    assert main(argv + ["--input", sim_panel_csv(tmp_path)]) == 1


def test_importing_the_cli_loads_no_scipy():
    # scipy is a development-only dependency; one stray import would put
    # about a second back on every command's start.
    src = Path(fatpanel.__file__).resolve().parents[1]
    code = ("import sys, fatpanel.cli, fatpanel.simulate; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["estimate", "--q", "0", "1", "--r", "3", "--h", "1", "2"],
    ["placebo", "--q", "0", "1", "--r", "3", "--lags", "0", "1"],
    ["dfat", "--q", "0", "--r", "3", "--h", "1", "6"],
    ["validate", "--q", "1", "--r", "7"],
    ["simulate", "--preset", "common_shock", "--reps", "3", "--seed", "5"],
], ids=lambda argv: argv[0])
def test_every_report_has_json_dumps_indented_sorted_layout(tmp_path, capsys, argv):
    if argv[0] != "simulate":
        path = Path(sim_panel_csv(tmp_path, n=20, n_control=8, T=8))
        # Unit t0001 loses periods 1-3, so reports hold a drop and a gap.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if not re.match(r"t0001,[123],", line)))
        argv = argv + ["--input", str(path)]
    out = tmp_path / "out.json"
    assert main(argv + ["--out-json", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert main(argv) == 0
    assert capsys.readouterr().out == text


def test_modules_keep_every_name_the_benchmark_tracer_wraps():
    # perfbench/spans.py swaps these module attributes for timing wrappers,
    # so a traced run needs each one, even where the module never calls it.
    wrapped = {
        cli_module: ("main", "load_panel", "validate", "fat", "placebo_fat", "dfat",
                     "model_based_fat"),
        simulate_module: ("fat", "placebo_fat", "dfat", "model_based_fat",
                          "simulate_dgp", "run_monte_carlo"),
        estimators_module: ("forecast_weights", "anderson_hsiao"),
    }
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)


def test_missing_input_flag_is_usage_error():
    assert main(["estimate", "--q", "1"]) == 1


def test_bad_r_value_is_usage_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    assert main(["estimate", "--input", path, "--r", "half"]) == 1


@pytest.mark.parametrize("command, setting", [
    ("estimate", {"r": 2.5}), ("estimate", {"r": "3"}),
    ("estimate", {"q": [1.5]}), ("estimate", {"q": ["1"]}),
    ("estimate", {"h": [True]}), ("estimate", {"delta": 1.5}),
    ("estimate", {"delta": {"a": 1}}), ("placebo", {"lags": [0, 1.5]}),
    ("estimate", {"instrument_lag": 3.0, "estimator": "mb"}),
    ("estimate", {"level": "0.9"}), ("placebo", {"level": None}),
    ("simulate", {"preset": "stationary", "reps": 2.5}),
    ("simulate", {"preset": "stationary", "reps": 2, "seed": 1.5}),
])
def test_non_integer_config_value_is_usage_error(tmp_path, capsys, command,
                                                 setting):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(setting))
    argv = [command, "--config", str(cfg_path)]
    if command != "simulate":
        argv += ["--input", sim_panel_csv(tmp_path)]
    assert main(argv + ["--out-json", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fatpanel: error: ") and err.count("\n") == 1


def test_bad_level_is_usage_error(tmp_path):
    path = sim_panel_csv(tmp_path)
    assert main(["estimate", "--input", path, "--level", "1.5"]) == 1


@pytest.mark.parametrize("command, setting, flags, message", [
    ("estimate", {"schema": 5}, [], "schema must be a mapping, got 5"),
    ("estimate", {"schema": {"covariates": 7}}, [], "'covariates' a list of them"),
    ("estimate", {"schema": {"unit": 3}}, [], "column names must be strings"),
    ("estimate", {"mb_covariates": ["nope"], "estimator": "mb"}, ["--r", "3"],
     "unknown covariates ['nope']"),
    ("estimate", {"detrend": "yes", "estimator": "mb"}, ["--r", "3"],
     "detrend must be true, false or None, got 'yes'"),
    ("placebo", {}, ["--h", "1", "2", "--lags", "1"],
     "placebo takes one --h (config key 'horizons'), got [1, 2]"),
    ("placebo", {"h": [1, 2]}, [], "placebo takes one --h"),
    ("validate", {}, ["--q", "0", "1"],
     "validate takes one --q (config key 'q'), got [0, 1]"),
    ("validate", {"q": [0, 1]}, [], "validate takes one --q"),
    ("estimate", {}, ["--delta", "-1"], "delta must be an integer >= 0, got -1"),
    ("estimate", {"delta": -1, "estimator": "mb"}, ["--r", "3"],
     "delta must be an integer >= 0, got -1"),
    ("validate", {}, ["--delta", "-1"], "delta must be an integer >= 0, got -1"),
    ("estimate", {"detrend": "yes", "instrument_lag": 9}, ["--q", "0", "--r", "3"],
     "--estimator pr reads no instrument_lag, detrend: only mb fits a first stage"),
    ("estimate", {}, ["--instrument-lag", "3"], "--estimator pr reads no instrument_lag:"),
    ("estimate", {"detrend": False, "mb_covariates": ["x"]}, ["--estimator", "covariate_het"],
     "--estimator covariate_het reads no detrend, mb_covariates:"),
])
def test_malformed_setting_is_usage_error(tmp_path, capsys, command, setting,
                                          flags, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(setting))
    out = tmp_path / "o.json"
    assert main([command, "--input", sim_panel_csv(tmp_path), "--config",
                 str(cfg_path), *flags, "--out-json", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("fatpanel: error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command, text, message", [
    ("estimate", None, "cannot read config file {path}: "),
    ("estimate", "{not json", "config file {path} is not valid JSON: "),
    ("estimate", "[1]", "config file must contain a JSON object"),
    ("estimate", '{"estimator": "bogus"}',
     "estimator must be one of ('pr', 'mb', 'covariate_het'), got 'bogus'"),
    ("estimate", '{"q": []}', "q list must be nonempty"),
    ("simulate", '{"dgp": {}, "cells": [1]}', "each cell must be a JSON object"),
    ("simulate", '{"dgp": {}, "cells": [{"bogus": 1}]}', "bad cell {'bogus': 1}: "),
    ("simulate", '{"dgp": {}, "cells": 5}', "'int' object is not iterable"),
], ids=["missing", "not_json", "not_an_object", "unknown_estimator", "no_q",
        "cell_not_an_object", "unknown_cell_key", "cells_not_a_list"])
def test_a_bad_config_file_is_usage_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "run.json"
    if text is not None:
        path.write_text(text)
    argv = [command, "--config", str(path), "--out-json", str(tmp_path / "o.json")]
    if command != "simulate":
        argv += ["--input", sim_panel_csv(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fatpanel: error: " + message.replace("{path}", str(path)))
    assert err.count("\n") == 1 and not (tmp_path / "o.json").exists()


# -- option tables -----------------------------------------------------------

# Written out by hand, not read from the CLI, so that a change to either
# side shows up here.
OWN_FLAGS = {
    "estimate": {"--input", "--q", "--r", "--h", "--delta", "--level",
                 "--estimator", "--instrument-lag"},
    "placebo": {"--input", "--q", "--r", "--h", "--lags", "--delta", "--level"},
    "dfat": {"--input", "--q", "--r", "--h", "--delta", "--level"},
    "simulate": {"--preset", "--reps", "--seed"},
    "validate": {"--input", "--q", "--r", "--delta"},
}
SHARED_FLAGS = {"--config", "--out-json", "--out-csv"}
FLAG_VALUE = {"--input": "x.csv", "--q": "1", "--r": "3", "--h": "1",
              "--lags": "0", "--delta": "0", "--level": "0.9",
              "--estimator": "pr", "--instrument-lag": "3",
              "--preset": "stationary", "--reps": "2", "--seed": "1"}
OWN_KEYS = {
    "estimate": {"input", "q", "r", "R", "horizons", "h", "delta", "level",
                 "estimator", "instrument_lag", "schema", "detrend",
                 "mb_covariates"},
    "placebo": {"input", "q", "r", "R", "horizons", "h", "lags", "delta",
                "level", "schema"},
    "dfat": {"input", "q", "r", "R", "horizons", "h", "delta", "level",
             "schema"},
    "simulate": {"preset", "reps", "n_reps", "seed", "dgp", "cells"},
    "validate": {"input", "q", "r", "R", "delta", "schema"},
}
KEY_VALUE = {"input": "absent.csv", "q": 1, "r": 3, "R": 3, "horizons": 1,
             "h": 1, "lags": 0, "delta": 0, "level": 0.9, "estimator": "pr",
             "instrument_lag": 3, "schema": {}, "detrend": True,
             "mb_covariates": [], "preset": "nope", "reps": 2, "n_reps": 2,
             "seed": 1, "dgp": {}, "cells": []}


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in OWN_FLAGS for f in sorted(FLAG_VALUE) if f not in OWN_FLAGS[c]])
def test_foreign_flag_is_usage_error(tmp_path, capsys, command, flag):
    out = tmp_path / "o.json"
    assert main([command, flag, FLAG_VALUE[flag], "--out-json", str(out)]) == 1
    assert not out.exists()
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    (c, k) for c in OWN_KEYS for k in sorted(KEY_VALUE) if k not in OWN_KEYS[c]])
def test_foreign_config_key_is_usage_error(tmp_path, capsys, command, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: KEY_VALUE[key]}))
    out = tmp_path / "o.json"
    assert main([command, "--config", str(cfg_path), "--out-json", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"fatpanel: error: {command} takes no config key {key!r}\n")


@pytest.mark.parametrize("command, key", [
    (c, k) for c in OWN_KEYS for k in sorted(OWN_KEYS[c])])
def test_own_config_key_passes_the_key_check(tmp_path, capsys, command, key):
    # Each run then stops at once: no input file, or no complete study.
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({key: KEY_VALUE[key]}))
    argv = [command, "--config", str(cfg_path)]
    if command != "simulate":
        argv += ["--input", str(tmp_path / "absent.csv")]
    assert main(argv) == (1 if command == "simulate" else 2)
    assert "config key" not in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_lists_exactly_the_own_flags(capsys, command):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == OWN_FLAGS[command] | SHARED_FLAGS | {"--help"}


def test_help_quotes_the_defaults(capsys):
    assert main(["placebo", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for fragment in ("order(s), default 1 ", "or 'all', default all ",
                     "horizon(s), default 1 ", "lag grid, default 0 1 2 3 ",
                     "in periods, default 0 ", "level, default 0.95 ",
                     "instead of stdout --out-csv"):
        assert fragment in text
