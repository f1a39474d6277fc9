"""Reading the panel interchange format into checked column arrays.

``read_rows`` reads the delimited text described in ``panel`` in slices
of a fixed number of records and turns each slice into column arrays at
once: unit ids become integer codes in order of first appearance; times,
treatment dates, control flags and covariates are parsed once per
distinct string, and outcomes go through ``float``.  The checks that
relate rows to each other run on the arrays after the last slice,
followed by one stable sort by (unit, time).

Every error in the rows is a fault, (row, rank, message), kept in one
list, and the load raises the smallest: the first offending row in file
order, and within it the first check of this order: field count, time
(an integer, then within 64 bits), outcome (a number, then finite),
treatment date, control flag, agreement with the unit's first row (date,
then flag), an unseen (unit, time), covariates in column order.  That is
the error of a reader that takes one record at a time.  Reading stops
after the first slice that holds a fault, as no later row can come
first.  Only when there is no fault: a reader error from ``csv``, then a
header without rows, then the first unit with neither a date nor a
control flag.  Blank records are skipped but counted in row numbers.
"""

from __future__ import annotations

import csv
import math
from functools import partial
from itertools import islice
from typing import Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import ConfigError, PanelFormatError

_SCHEMA_KEYS = ("unit", "time", "outcome", "treated_at", "control_flag")
_TRUE_FLAGS = {"1", "true", "t", "yes"}
_FALSE_FLAGS = {"0", "false", "f", "no", ""}
_INT64 = np.iinfo(np.int64)


class SortedRows(NamedTuple):
    """The rows of a panel text, one entry per unit or per row.

    Units are in order of first appearance; rows are sorted by (unit,
    time), so unit ``k``'s rows run from ``starts[k]`` to the next start.
    """

    covariate_names: tuple[str, ...]
    unit_ids: list[str]
    taus: list[int | None]
    flags: list[bool]
    starts: np.ndarray
    times: np.ndarray
    outcomes: np.ndarray
    covariates: np.ndarray  # (n_rows, n_covariates)


# Records read and converted at a time: enough that the per-slice overhead
# is small, few enough that one slice's parsed text (some hundred kB for a
# narrow file) is all a load holds of the file besides its column arrays.
_SLICE_ROWS = 1024


def read_rows(fh: TextIO, schema: Mapping[str, object] | None) -> SortedRows:
    """The checked rows of a panel text stream, sorted by (unit, time)."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    header[:1] = [name.removeprefix("\ufeff") for name in header[:1]]  # a spreadsheet's BOM
    mapping, covariate_cols = _resolve_schema(schema, header)
    rows = _RowColumns(header, mapping, covariate_cols)
    rownum, failure = 2, None
    while True:
        records = []
        try:
            records.extend(islice(reader, _SLICE_ROWS))
        except csv.Error as exc:  # the records before it are kept
            failure = exc
        rows.add(records, np.arange(rownum, rownum + len(records)))
        rownum += len(records)
        # No row after a slice with a fault can hold a smaller one.
        if rows.faults or failure is not None or not records:
            return rows.sorted_rows(failure)


# Fault ranks: the order in which a row's checks run.  Covariate ``j``
# ranks ``_COVARIATE + j``.
(_WIDTH, _TIME, _TIME_RANGE, _OUTCOME, _NONFINITE, _DATE, _FLAG,
 _DATE_MISMATCH, _FLAG_MISMATCH, _DUPLICATE, _COVARIATE) = range(11)


class _Fault(Exception):
    """A field that breaks its rule; ``args`` is (rank, message)."""


def _convert(kind: type, value: str, what: str, rank: int):
    try:
        if "_" in value:  # ``int`` and ``float`` take digit-group underscores
            raise ValueError
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _Fault(rank, f"{what} {value!r} is not {noun}") from None


def _time(value: str) -> int:
    t = _convert(int, value, "time", _TIME)
    if not _INT64.min <= t <= _INT64.max:
        raise _Fault(_TIME_RANGE, f"time {value!r} is outside the 64-bit integer range")
    return t


_outcome = partial(_convert, float, what="outcome", rank=_OUTCOME)


def _date(value: str) -> int | None:
    return _convert(int, value, "treatment date", _DATE) if value.strip() else None


def _flag(value: str) -> bool:
    raw = value.strip().lower()
    if raw in _TRUE_FLAGS:
        return True
    if raw in _FALSE_FLAGS:
        return False
    raise _Fault(_FLAG, f"bad control flag {value!r}")


def _covariate(value: str, what: str, rank: int) -> float:
    return _convert(float, value, what, rank) if value.strip() else math.nan


class _RowColumns:
    """The rows of one load, kept as per-slice column arrays, and its faults.

    Units get integer codes in order of first appearance, which is panel
    order, and treatment dates get codes by value, with ``None`` for a
    blank date.  A fault is (row, rank, message); a field that breaks its
    rule reads as 0, which can only add faults to its own or later rows.
    """

    def __init__(self, header: list[str], mapping: dict, covariate_cols: list[str]):
        col = {name: i for i, name in enumerate(header)}
        self.width = len(header)
        self.covariate_names = tuple(covariate_cols)
        self.iu, self.it, self.iy = (col[mapping[k]] for k in ("unit", "time", "outcome"))
        self.ita = col.get(mapping["treated_at"])
        self.icf = col.get(mapping["control_flag"])
        self.icov = [col[c] for c in covariate_cols]
        self.ids: dict[str, int] = {}
        self.taus: dict[int | None, int] = {}
        self.slices: list[tuple] = []
        self.faults: list[tuple[int, int, str]] = []

    def _fault(self, row: int, rank: int, message: str) -> None:
        self.faults.append((row, rank, f"row {row}: {message}"))

    def _lookup(self, column: Sequence[str], parse, dtype, rownums: np.ndarray) -> np.ndarray:
        """``parse`` of each distinct string of ``column``, spread over its rows.

        The first row whose string breaks the rule becomes a fault.
        """
        table, broken = {}, {}
        for s in set(column):
            try:
                table[s] = parse(s)
            except _Fault as fault:
                table[s], broken[s] = 0, fault.args
        if broken:
            i = next(i for i, s in enumerate(column) if s in broken)
            self._fault(rownums[i], *broken[column[i]])
        return np.fromiter(map(table.__getitem__, column), dtype, len(column))

    def _tau_code(self, value: str) -> int:
        return self.taus.setdefault(_date(value), len(self.taus))

    def add(self, records: list, rownums: np.ndarray) -> None:
        """Append ``records`` as columns and their fields' faults."""
        width = self.width
        cols = list(zip(*records)) if set(map(len, records)) == {width} else None
        if cols is None or not all(map(str.strip, set(cols[self.iu]))):
            # Rare: blank records to skip, or records of the wrong width,
            # which are faults and are otherwise skipped too.
            kept = [i for i, r in enumerate(records) if any(map(str.strip, r))]
            for i in kept:
                if len(records[i]) != width:
                    self._fault(rownums[i], _WIDTH,
                                f"expected {width} fields, got {len(records[i])}")
            kept = [i for i in kept if len(records[i]) == width]
            records, rownums = [records[i] for i in kept], rownums[kept]
            if not records:
                return
            cols = list(zip(*records))
        n = len(records)
        times = self._lookup(cols[self.it], _time, np.int64, rownums)
        try:  # one scan of the slice's text keeps underscores from ``float``
            if "_" in "".join(cols[self.iy]):
                raise ValueError
            y = np.fromiter(map(float, cols[self.iy]), np.float64, n)
        except ValueError:
            y = self._lookup(cols[self.iy], _outcome, np.float64, rownums)
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            self._fault(rownums[bad[0]], _NONFINITE,
                        f"outcome {cols[self.iy][bad[0]]!r} is not finite")
        taus = (np.full(n, self._tau_code("")) if self.ita is None
                else self._lookup(cols[self.ita], self._tau_code, np.intp, rownums))
        flags = (np.zeros(n, bool) if self.icf is None
                 else self._lookup(cols[self.icf], _flag, bool, rownums))
        cov = np.empty((n, len(self.icov)))
        for j, (i, name) in enumerate(zip(self.icov, self.covariate_names)):
            cov[:, j] = self._lookup(cols[i], partial(
                _covariate, what=f"covariate {name!r}", rank=_COVARIATE + j),
                np.float64, rownums)
        for uid in dict.fromkeys(cols[self.iu]):
            self.ids.setdefault(uid, len(self.ids))
        codes = np.fromiter(map(self.ids.__getitem__, cols[self.iu]), np.intp, n)
        self.slices.append((codes, times, y, taus, flags, cov, rownums))

    def sorted_rows(self, failure: csv.Error | None) -> SortedRows:
        """All rows, checked and stably sorted by (unit, time).

        Adds the faults that relate rows to each other: a treatment date or
        control flag that differs from the unit's first row, and a (unit,
        time) seen before.  Raises, in this order: the smallest fault,
        ``failure``, a header without rows, the first unit with neither a
        treatment date nor a control flag.  Consumes the slices, so their
        arrays are freed before the sorted copies are made.
        """
        if self.ids:  # some row was added
            codes, times, y, taus, flags, cov, rownums = map(np.concatenate, zip(*self.slices))
            self.slices = []
            order = np.lexsort((times, codes))
            sorted_codes, sorted_times = codes[order], times[order]
            same_unit = sorted_codes[1:] == sorted_codes[:-1]
            starts = np.flatnonzero(np.r_[True, ~same_unit])
            first = np.minimum.reduceat(order, starts)
            uids = list(self.ids)
            for rank, what, values in ((_DATE_MISMATCH, "treatment dates", taus),
                                       (_FLAG_MISMATCH, "control flags", flags)):
                differs = values != values[first][codes]
                if differs.any():
                    i = int(np.argmax(differs))
                    self._fault(rownums[i], rank,
                                f"unit {uids[codes[i]]!r} has inconsistent {what}")
            repeats = order[1:][same_unit & (sorted_times[1:] == sorted_times[:-1])]
            if repeats.size:
                i = int(repeats.min())
                self._fault(rownums[i], _DUPLICATE,
                            f"duplicate observation ({uids[codes[i]]!r}, {int(times[i])})")
        if self.faults:
            raise PanelFormatError(min(self.faults)[2])
        if failure is not None:
            raise failure
        if not self.ids:
            raise PanelFormatError("input has a header but no data rows")
        tau_values = list(self.taus)
        taus = [tau_values[code] for code in taus[first].tolist()]
        flags = flags[first].tolist()
        for uid, tau, is_control in zip(uids, taus, flags):
            if tau is None and not is_control:
                raise PanelFormatError(
                    f"unit {uid!r} has no treatment date and is not flagged as control")
        return SortedRows(self.covariate_names, uids, taus, flags, starts,
                          sorted_times, y[order], cov[order])


def _resolve_schema(schema: Mapping[str, object] | None, header: list[str]):
    schema = {} if schema is None else schema
    if not isinstance(schema, Mapping):
        raise ConfigError(f"schema must be a mapping, got {schema!r}")
    unknown = set(schema) - set(_SCHEMA_KEYS) - {"covariates"}
    if unknown:
        raise ConfigError(f"unknown schema keys: {sorted(unknown)}")
    mapping = {k: schema.get(k, k) for k in _SCHEMA_KEYS}
    covariates = schema.get("covariates")
    if not (all(isinstance(v, str) for v in mapping.values())
            and (covariates is None or isinstance(covariates, (list, tuple))
                 and all(isinstance(c, str) for c in covariates))):
        raise ConfigError("schema column names must be strings and 'covariates' "
                          f"a list of them, got {dict(schema)!r}")
    for k in ("unit", "time", "outcome"):
        if mapping[k] not in header:
            raise PanelFormatError(f"missing required column {mapping[k]!r}")
    if mapping["treated_at"] not in header and mapping["control_flag"] not in header:
        raise PanelFormatError(
            f"need a {mapping['treated_at']!r} or {mapping['control_flag']!r} column"
        )
    if covariates is None:
        known = {mapping[k] for k in _SCHEMA_KEYS}
        covariates = [c for c in header if c not in known]
    else:
        for c in covariates:
            if c not in header:
                raise PanelFormatError(f"missing covariate column {c!r}")
    return mapping, list(covariates)
