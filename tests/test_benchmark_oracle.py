"""The package against the benchmark's end-to-end oracle, at tiny size.

``perfbench/oracle.py`` computes the whole CLI session and the Monte
Carlo presets in exact rational arithmetic, apart from the package.  Each
test runs the benchmark's worker for one untraced operation, at the sizes
of ``perfbench/selftest.py``, and checks every output against the oracle.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run as bench  # noqa: E402
from selftest import tiny_workloads  # noqa: E402


@pytest.mark.parametrize("name", ["csv_staggered", "mc_common_shock"])
def test_a_workload_matches_the_benchmark_oracle(name, tmp_path):
    workload = tiny_workloads()[name]
    _, result = bench.run_worker(workload, 5, 0.0, False, tmp_path, tmp_path)
    problems = bench.check_ops(workload, 5, tmp_path, result["ops"])
    assert problems and not any(problems)
