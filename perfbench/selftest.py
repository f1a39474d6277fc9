"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The file name does not match pytest's default ``test_*.py`` pattern, so a
plain ``pytest`` run of the package never collects it.
"""

from __future__ import annotations

import copy
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def tiny_workloads() -> dict:
    return {
        "csv_staggered": wl.CsvStaggered(n_units=300),
        "mc_nonstationary": wl.MonteCarlo(
            "mc_nonstationary", "nonstationary_init", 3,
            oracle.McDesign("nonstationary_init", n=40, n_control=0),
            wl.NONSTATIONARY_CELLS, {"n": 40}),
        "mc_common_shock": wl.MonteCarlo(
            "mc_common_shock", "common_shock", 3,
            oracle.McDesign("common_shock", n=20, n_control=20),
            wl.COMMON_SHOCK_CELLS, {"n": 20, "n_control": 20}),
    }


def test_generator_is_deterministic_and_reports_shares():
    a = gen.generate(7, 2000)
    b = gen.generate(7, 2000)
    raw = a.csv_bytes()
    assert raw == b.csv_bytes()
    assert raw != gen.generate(8, 2000).csv_bytes()
    summary = a.summary(raw)
    assert summary["rows"] == raw.count(b"\n") - 1
    assert summary["share_control"] == pytest.approx(gen.CONTROL_SHARE, abs=0.03)
    for key, share in zip(("share_late_start", "share_early_gap",
                           "share_missing_target"), gen.KIND_SHARES[1:]):
        assert summary[key] == pytest.approx(share, abs=0.02)


def test_generated_gaps_lie_before_every_window():
    panel = gen.generate(3, 2000)
    gap = panel.kind == gen.EARLY_GAP
    holes = np.isnan(panel.Y[gap])
    first_missing = holes.argmax(axis=1) + 1
    assert holes.sum(axis=1).tolist() == [1] * int(gap.sum())
    assert np.all(first_missing >= 2)
    assert np.all(first_missing <= panel.tau[gap] - 5)


def test_reference_check_rejects_a_perturbed_value():
    ref = wl.frozen("mc_common_shock")["ops"]
    assert wl.compare(ref, ref, wl.RTOL_FROZEN) == []
    close = copy.deepcopy(ref)
    close["cells"][0]["bias"] *= 1 + 1e-14
    assert wl.compare(close, ref, wl.RTOL_FROZEN) == []
    far = copy.deepcopy(ref)
    far["cells"][0]["bias"] *= 1 + 1e-9
    assert wl.compare(far, ref, wl.RTOL_FROZEN) != []
    count = copy.deepcopy(ref)
    count["cells"][1]["n_ok"] -= 1
    assert wl.compare(count, ref, wl.RTOL_FROZEN) != []

    session = wl.frozen("csv_staggered")["ops"]
    reason = copy.deepcopy(session)
    reason["estimate"]["results"][0]["dropped_digest"] = wl.digest([["u1", "x"]])
    assert wl.compare(reason, session, wl.RTOL_FROZEN) != []
    code = copy.deepcopy(session)
    code["dfat"]["exit"] = 3
    assert wl.compare(code, session, wl.RTOL_FROZEN) != []


def test_oracle_matches_frozen_reference_at_default_seed(tmp_path):
    for name, workload in wl.workloads().items():
        workload.prepare(wl.DEFAULT_SEED, tmp_path)
        ref = wl.frozen(name)
        assert wl.compare(wl.without_rows(workload.expected()), ref["ops"],
                          wl.RTOL_ORACLE) == []
        if "input" in ref:
            assert workload.input_summary == ref["input"]


def test_tracer_restores_wrapped_attributes_and_nests(tmp_path):
    targets = [(importlib.import_module(m), a) for m, a, _, _ in spans.TARGETS]
    originals = [getattr(m, a) for m, a in targets]
    data = gen.generate(1, 100)
    path = tmp_path / "p.csv"
    path.write_bytes(data.csv_bytes())
    tracer = spans.Tracer()
    with tracer:
        assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
        cli = importlib.import_module("fatpanel.cli")
        assert cli.main(["estimate", "--q", "1", "--r", "4", "--input",
                         str(path), "--out-json", str(tmp_path / "o.json")]) == 0
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))
    layers = tracer.per_op()[0]
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    total = sum(layers[name]["self_s"] for name in spans.LAYERS)
    assert total == pytest.approx(main_span[2] - main_span[1], rel=1e-9)
    assert layers["panel.load_panel"]["calls"] == 1
    assert layers["panel.load_panel.rows"] == int(data.observed.sum())
    assert 0 < layers["cli.main"]["self_s"] < main_span[2] - main_span[1]


@pytest.mark.parametrize("name", sorted(wl.workloads()))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_and_checks_at_tiny_size(name, trace, tmp_path):
    workload = tiny_workloads()[name]
    job, result = bench.run_worker(workload, 5, 0.0, trace, tmp_path, tmp_path)
    problems = bench.check_ops(workload, 5, tmp_path, result["ops"])
    assert problems and not any(problems)
    if trace:
        assert [r["traced"] for r in result["ops"]] == [False, True]
        metrics = bench.layer_metrics(job, result)
        assert list(metrics) == [n for n, _, _ in bench.PER_LAYER]
        if name == "csv_staggered":
            assert metrics["panel.load_panel.calls"]["value"] == len(wl.SESSION)
            assert metrics["cli.out_bytes"]["value"] > 0
        else:
            assert metrics["simulate.simulate_dgp.calls"]["value"] == 3
            assert metrics["mc.reps_per_s"]["value"] > 0


def test_a_wrong_output_fails_the_operation(tmp_path):
    workload = tiny_workloads()["csv_staggered"]
    _, result = bench.run_worker(workload, 2, 0.0, False, tmp_path, tmp_path)
    report = tmp_path / result["ops"][0]["dir"] / "estimate.json"
    payload = json.loads(report.read_text())
    payload["results"][0]["point"] += 1e-6
    report.write_text(json.dumps(payload))
    problems = bench.check_ops(workload, 2, tmp_path, result["ops"])
    assert any("point" in p for p in problems[0])


def test_residuals_swapped_between_units_fail_both_checks(tmp_path):
    workload = tiny_workloads()["csv_staggered"]
    _, result = bench.run_worker(workload, 2, 0.0, False, tmp_path, tmp_path)
    path = tmp_path / result["ops"][0]["dir"] / "estimate.csv"
    header, *lines = path.read_text().splitlines()
    (key_a, a), (key_b, b) = (line.rsplit(",", 1) for line in lines[:2])
    assert float(a) != float(b)
    path.write_text("\n".join([header, f"{key_a},{b}", f"{key_b},{a}",
                               *lines[2:]]) + "\n")
    problems = bench.check_ops(workload, 2, tmp_path, result["ops"])
    assert any("estimate.csv.pairs[0][1]" in p for p in problems[0])

    keys = [key_a, key_b]
    swapped = wl.without_rows(wl._csv_summary(keys, [float(b), float(a)]))
    original = wl.without_rows(wl._csv_summary(keys, [float(a), float(b)]))
    assert wl.compare(swapped, original, wl.RTOL_FROZEN) != []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(bench.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.workloads())

