"""The bytes the benchmark's CLI session writes, pinned.

The five commands of ``perfbench/workloads.SESSION`` run in process on
``gen.generate(0, n_units=300)``; every exit code, every CSV and every
JSON report, less its ``"input"`` line (a temporary path), must match
the SHA-256 digests below byte for byte.  A change that only makes the
session faster must leave them all as they are.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
from workloads import SESSION  # noqa: E402

from fatpanel.cli import main  # noqa: E402

# name: (exit code, SHA-256 of the JSON without its "input" line, of the CSV)
EXPECTED = {
    "validate": (0, "d8390b33ef35a15516ab7f4ddbef0fe91fb5e8edfdff53121125dc648e2a90a8",
                 "c88dbe4c2ff5b341ea77620e5d451c6a993494ab9be96763c30d82c9ec6fad51"),
    "estimate": (0, "b73f498c70a093e7e01e8eaf3523bd2d66a5493d0844e2691a2f556bb72c81c1",
                 "663ce99c3b8cd5ae36877eebee8afd19a29c3e631c96785b6ae136a7f9d95394"),
    "estimate_mb": (0, "f266cf76c14eb7a2dfd119878ae90a957f3746c63e076390211fdd48c11edbf1",
                    "7db98c58f70fa93a707590f880da54984b27961036240f74ba9b1e3fd5c0a355"),
    "placebo": (0, "b483738144083545c14294c5cf2cc17883aab5220a937c062f95c5b8584b361d",
                "d756f4dbdc87d89311b23dfef56589e041dc106be3884c2f3d1c90167b4bc372"),
    "dfat": (0, "44dd069deec2982bea64c7a7dbfe33c223a46636c1bd4184fa58193941fc1684",
             "ae1b5e43f5f4eae0bca6fe3ce59d05821c81084b5abdd2c1266c0d977befbe5e"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """(exit code, JSON digest, CSV digest) of each command of the session."""
    workdir = tmp_path_factory.mktemp("session")
    path = workdir / "panel.csv"
    path.write_bytes(gen.generate(0, n_units=300).csv_bytes())
    out = {}
    for c in SESSION:
        jpath, cpath = workdir / f"{c.name}.json", workdir / f"{c.name}.csv"
        code = main(c.argv() + ["--input", str(path),
                                "--out-json", str(jpath), "--out-csv", str(cpath)])
        lines = jpath.read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in lines if not line.startswith(b'  "input": '))
        assert len(kept) < sum(map(len, lines))  # the "input" line was there
        out[c.name] = (code, _sha(kept), _sha(cpath.read_bytes()))
    return out


@pytest.mark.parametrize("name", [c.name for c in SESSION])
def test_session_output_bytes(session, name):
    assert session[name] == EXPECTED[name]
