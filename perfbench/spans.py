"""Spans around fatpanel's layer boundaries, installed from outside.

Callers bind names at import (``fatpanel.cli`` does ``from .panel import
load_panel``), so each span wraps the module attribute the caller looks
up, not the defining function.  ``Tracer`` is a context manager: it
installs the wrappers on entry and puts the original objects back on
exit.  Spans stay in memory; ``per_op`` reduces them to per-operation
self times (a span's duration minus the time its child spans cover) and
call counts, and ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _estimate_units(tracer, result):
    parts = (result.treated, result.control) if hasattr(result, "treated") else (result,)
    for p in parts:
        tracer.count("estimators.units_used", p.n_used)
        tracer.count("estimators.units_dropped", len(p.dropped))


def _panel_rows(tracer, panel):
    tracer.count("panel.load_panel.rows", sum(u.n_obs for u in panel.units))


def _cells_failed(tracer, report):
    tracer.count("simulate.cells_failed", sum(c.n_failed for c in report.cells))


# (module, attribute, span name, counter run on the returned value)
TARGETS = (
    ("fatpanel.cli", "main", "cli.main", None),
    ("fatpanel.cli", "load_panel", "panel.load_panel", _panel_rows),
    ("fatpanel.cli", "validate", "panel.validate", None),
    ("fatpanel.estimators", "forecast_weights", "basis.forecast_weights", None),
    ("fatpanel.estimators", "anderson_hsiao", "estimators.anderson_hsiao", None),
    ("fatpanel.cli", "fat", "estimators.fat", _estimate_units),
    ("fatpanel.cli", "placebo_fat", "estimators.placebo_fat", _estimate_units),
    ("fatpanel.cli", "dfat", "estimators.dfat", _estimate_units),
    ("fatpanel.cli", "model_based_fat", "estimators.model_based_fat", _estimate_units),
    ("fatpanel.simulate", "fat", "estimators.fat", _estimate_units),
    ("fatpanel.simulate", "placebo_fat", "estimators.placebo_fat", _estimate_units),
    ("fatpanel.simulate", "dfat", "estimators.dfat", _estimate_units),
    ("fatpanel.simulate", "model_based_fat", "estimators.model_based_fat", _estimate_units),
    ("fatpanel.simulate", "simulate_dgp", "simulate.simulate_dgp", None),
    ("fatpanel.simulate", "run_monte_carlo", "simulate.run_monte_carlo", _cells_failed),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNTS = ("panel.load_panel.rows", "estimators.units_used",
          "estimators.units_dropped", "simulate.cells_failed")


class Tracer:
    """Records one span per call of every target while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.counts = []         # [name, value, op]
        self.op = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def count(self, name: str, value) -> None:
        self.counts.append([name, value, self.op])

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, result)
            return result
        return traced

    def per_op(self) -> dict:
        """{op: {layer: {"self_s", "calls"}, count name: value}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ops = defaultdict(lambda: {
            **{layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS},
            **{c: 0 for c in COUNTS}})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            ops[op][name]["self_s"] += end - start - child[i]
            ops[op][name]["calls"] += 1
        for name, value, op in self.counts:
            ops[op][name] += value
        return dict(ops)

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra,
                       "spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                                 for s in self.spans],
                       "counts": [dict(zip(("name", "value", "op"), c))
                                  for c in self.counts]}, fh)
