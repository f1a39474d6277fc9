"""``simulate.write_json``, the writer of every JSON report.

The standard library's ``json.dumps(obj, indent=2, sort_keys=True)`` is the
oracle: the writer must give its text plus a newline, byte for byte.
"""

import collections
import enum
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpanel.simulate import write_json


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


def written(obj) -> str:
    text = io.StringIO()
    write_json(obj, text)
    return text.getvalue()


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Quotes, backslashes, control characters and non-ASCII text are common.
TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€ 😀') | st.characters(),
               max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(2 ** 64, 2 ** 80) | st.integers(-2 ** 80, -2 ** 64)
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
           | st.floats().map(np.float64) | st.sampled_from(Level) | TEXT)


def _reordered(d: dict):
    """``d`` beside a dict with the same items inserted in another order."""
    return st.permutations(list(d)).map(lambda keys: [d, {k: d[k] for k in keys}])


def _nested(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(TEXT, children, min_size=2, max_size=4).flatmap(_reordered))


TREES = st.recursive(SCALARS, _nested, max_leaves=24)


def _deep(tree, shells: list, key: str):
    """``tree`` wrapped in ``shells``, each beside an empty container."""
    for shell in shells:
        if shell == "dict":
            tree = {key: tree, key + "~": {}, "": []}
        elif shell == "list":
            tree = [tree, [], {}]
        else:
            tree = (tree, ())
    return tree


DEEP_TREES = st.builds(_deep, TREES, st.lists(st.sampled_from(["dict", "list", "tuple"]),
                                              min_size=5, max_size=7), TEXT)


@settings(max_examples=250, deadline=None)
@given(TREES | DEEP_TREES)
def test_writes_what_json_dumps_writes(tree):
    assert written(tree) == oracle(tree)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, True, None, math.nan, -math.inf, 2 ** 100, Level.HIGH,
    np.float64(0.1), [True, 1, 1.0, False, 0], {"b": 1, "a": {"b": 2, "a": [3]}},
    [{"y": 1, "x": 2}, {"x": 3, "y": 4}, {"x": {"y": {}, "x": ()}}],
    collections.OrderedDict([("b", [1]), ("a", collections.Counter(x=2))]),
    [collections.namedtuple("Pair", "lo hi")(0.5, math.inf)],
])
def test_writes_edge_cases_as_json_dumps_does(obj):
    assert written(obj) == oracle(obj)


@pytest.mark.parametrize("obj, name", [
    ({"a": {1, 2}}, "set"),
    ([np.bool_(True)], "bool"),
    (np.int64(3), "int64"),
    ({"a": [{1: "x"}]}, "int"),
    ({("a",): 1}, "tuple"),
    ({"a": 1, 2: 3}, "int"),
    ({True: 1}, "bool"),
    ({None: 1}, "NoneType"),
])
def test_refuses_what_it_cannot_spell(obj, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        written(obj)


def _records(n: int) -> dict:
    units = [{"unit_id": f"u{i:05d}", "tau": i % 12, "effective_tau": i % 12,
              "pre_treatment_run": 9, "required_window": 4, "short_window": i % 7 == 0,
              "window_gap": False, "series_gaps": False, "covariates_complete": True,
              "fatal": False, "score": i / 7, "messages": [] if i % 3 else ["gap"]}
             for i in range(n)]
    return {"schema": 1, "kind": "validation", "units": units}


def test_streams_a_large_report(tmp_path):
    payload = _records(50_000)
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            write_json(payload, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == oracle(payload)
    # The text is about 16 MB; the writer holds a few thousand parts of it.
    assert len(text) > 15_000_000
    assert peak < 1_000_000
