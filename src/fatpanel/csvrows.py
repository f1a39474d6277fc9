"""Reading the panel interchange format into checked column arrays.

``read_rows`` reads the delimited text described in ``panel`` in slices
of a fixed number of records and turns each slice into column arrays at
once: unit ids become integer codes in order of first appearance; times,
treatment dates and control flags are parsed once per distinct string;
outcomes go through ``float``, and a blank covariate becomes NaN.  The
checks that relate rows to each other run on the arrays after the last
slice, followed by one stable sort by (unit, time).

Errors are those of a reader that takes one record at a time.  The error
names the first offending row in file order; within a row the checks run
in this order: field count, time (an integer, then within 64 bits),
outcome (a number, then finite), treatment date, control flag, agreement
with the unit's earlier rows (date, flag, an unseen time), covariates.
A reader error from ``csv`` comes after the rows before it.  Only when
every row passes: a header without rows, then the first unit with
neither a date nor a control flag.  Blank records are skipped but
counted in row numbers.
"""

from __future__ import annotations

import csv
import math
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
    mapping, covariate_cols = _resolve_schema(schema, header)
    rows = _RowColumns(header, mapping, covariate_cols)
    rownum = 2
    while True:
        records, failure = _next_slice(reader)
        if not records and failure is None:
            return rows.sorted_rows()
        rownums = np.arange(rownum, rownum + len(records))
        rownum += len(records)
        try:
            rows.add(records, rownums)
        except _Unparsable:
            # The failing record loses to any earlier row that disagrees with
            # its unit, so the records before it are added and checked first.
            i, failure, checked_after_units = rows.first_row_error(records, rownums)
            good = records[:i]
            if checked_after_units:
                good.append(rows.without_covariates(records[i]))
            rows.add(good, rownums[:len(good)])
        if failure is not None:
            rows.check()
            raise failure


def _next_slice(reader) -> tuple[list, csv.Error | None]:
    """The next records, and the reader's error if one cut the slice short."""
    records = []
    try:
        records.extend(islice(reader, _SLICE_ROWS))
    except csv.Error as exc:
        return records, exc
    return records, None


class _Unparsable(Exception):
    """Internal: a field of the slice breaks its rule; the slice is rescanned."""


def _lookup(column: Sequence[str], parse, dtype) -> np.ndarray:
    """``parse`` of each distinct string of ``column``, spread over its rows."""
    table = {s: parse(s) for s in set(column)}
    return np.fromiter(map(table.__getitem__, column), dtype, len(column))


def _flag(value: str) -> bool:
    raw = value.strip().lower()
    if raw in _TRUE_FLAGS:
        return True
    if raw in _FALSE_FLAGS:
        return False
    raise ValueError(value)


def _time(value: str) -> int:
    t = int(value)
    if not _INT64.min <= t <= _INT64.max:
        raise ValueError(value)
    return t


def _date(value: str) -> int | None:
    return int(value) if value.strip() else None


def _covariate(value: str) -> float:
    return float(value) if value.strip() else math.nan


def _fails(parse, value: str) -> bool:
    try:
        parse(value)
    except ValueError:
        return True
    return False


class _RowColumns:
    """The rows of one load, kept as per-slice column arrays.

    Units get integer codes in order of first appearance, which is panel
    order, and treatment dates get codes by value, with ``None`` for a
    blank date.
    """

    def __init__(self, header: list[str], mapping: dict, covariate_cols: list[str]):
        col = {name: i for i, name in enumerate(header)}
        self.header = header
        self.covariate_names = tuple(covariate_cols)
        self.iu, self.it, self.iy = (col[mapping[k]] for k in ("unit", "time", "outcome"))
        self.ita = col.get(mapping["treated_at"])
        self.icf = col.get(mapping["control_flag"])
        self.icov = [col[c] for c in covariate_cols]
        self.ids: dict[str, int] = {}
        self.taus: dict[int | None, int] = {}
        self.slices: list[tuple] = []
        self.n_rows = 0
        self.nonfinite = None

    def _tau_code(self, value: str) -> int:
        return self.taus.setdefault(_date(value), len(self.taus))

    def add(self, records: list, rownums: np.ndarray) -> None:
        """Append ``records`` as columns; raise ``_Unparsable`` if a field breaks its rule."""
        width = len(self.header)
        cols = list(zip(*records)) if set(map(len, records)) == {width} else None
        if cols is None or not all(map(str.strip, set(cols[self.iu]))):
            # Rare: blank records to skip, or records of the wrong width.
            kept = [i for i, r in enumerate(records) if any(map(str.strip, r))]
            records, rownums = [records[i] for i in kept], rownums[kept]
            if any(len(r) != width for r in records):
                raise _Unparsable
            if not records:
                return
            cols = list(zip(*records))
        n = len(records)
        try:
            times = _lookup(cols[self.it], _time, np.int64)
            y = np.fromiter(map(float, cols[self.iy]), np.float64, n)
            taus = (np.full(n, self._tau_code("")) if self.ita is None
                    else _lookup(cols[self.ita], self._tau_code, np.intp))
            flags = (np.zeros(n, bool) if self.icf is None
                     else _lookup(cols[self.icf], _flag, bool))
            cov = np.empty((n, len(self.icov)))
            for j, i in enumerate(self.icov):
                cov[:, j] = np.fromiter(map(_covariate, cols[i]), np.float64, n)
        except ValueError:
            raise _Unparsable from None
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size and self.nonfinite is None:
            j = bad[0]
            self.nonfinite = (self.n_rows + j, 0, f"row {rownums[j]}: outcome "
                              f"{cols[self.iy][j]!r} is not finite")
        for uid in dict.fromkeys(cols[self.iu]):
            self.ids.setdefault(uid, len(self.ids))
        codes = np.fromiter(map(self.ids.__getitem__, cols[self.iu]), np.intp, n)
        self.slices.append((codes, times, y, taus, flags, cov, rownums))
        self.n_rows += n

    def first_row_error(self, records: list, rownums: np.ndarray):
        """(index, error, after_unit_checks) of the first record failing a check of its own.

        ``after_unit_checks`` marks a covariate error, which a record
        reports only once it agrees with its unit's earlier records.
        """
        width = len(self.header)
        for i, r in enumerate(records):
            if not any(map(str.strip, r)):
                continue
            at = f"row {rownums[i]}:"
            if len(r) != width:
                return i, PanelFormatError(f"{at} expected {width} fields, got {len(r)}"), False
            t, y = r[self.it], r[self.iy]
            if _fails(int, t):
                message = f"time {t!r} is not an integer"
            elif _fails(_time, t):
                message = f"time {t!r} is outside the 64-bit integer range"
            elif _fails(float, y):
                message = f"outcome {y!r} is not a number"
            elif not math.isfinite(float(y)):
                message = f"outcome {y!r} is not finite"
            elif self.ita is not None and _fails(_date, r[self.ita]):
                message = f"treatment date {r[self.ita]!r} is not an integer"
            elif self.icf is not None and _fails(_flag, r[self.icf]):
                message = f"bad control flag {r[self.icf]!r}"
            else:
                for c in self.icov:
                    if _fails(_covariate, r[c]):
                        return i, PanelFormatError(
                            f"{at} covariate {self.header[c]!r} {r[c]!r} is not a number"), True
                continue
            return i, PanelFormatError(f"{at} {message}"), False
        raise AssertionError("a slice that failed to parse has no failing record")

    def without_covariates(self, record: list) -> list:
        record = list(record)
        for c in self.icov:
            record[c] = ""
        return record

    def check(self):
        """Rows stably sorted by (unit, time), once no row breaks a check in file order.

        Raises the first row, in file order, whose outcome is not finite,
        whose treatment date or control flag differs from its unit's first
        row, or whose (unit, time) appeared before, in that order within a
        row.  Returns None when no row was added.  Consumes the slices, so
        their arrays are freed before the sorted copies are made.
        """
        if not self.slices:
            return None
        codes, times, y, taus, flags, cov, rownums = map(np.concatenate, zip(*self.slices))
        self.slices = []
        order = np.lexsort((times, codes))
        sorted_codes, sorted_times = codes[order], times[order]
        same_unit = sorted_codes[1:] == sorted_codes[:-1]
        starts = np.flatnonzero(np.r_[True, ~same_unit])
        first = np.minimum.reduceat(order, starts)
        uids = list(self.ids)
        faults = [self.nonfinite] if self.nonfinite else []
        for rank, what, values in ((1, "treatment dates", taus), (2, "control flags", flags)):
            differs = values != values[first][codes]
            if differs.any():
                i = int(np.argmax(differs))
                faults.append((i, rank, f"row {rownums[i]}: unit {uids[codes[i]]!r} "
                                        f"has inconsistent {what}"))
        repeats = order[1:][same_unit & (sorted_times[1:] == sorted_times[:-1])]
        if repeats.size:
            i = int(repeats.min())
            faults.append((i, 3, f"row {rownums[i]}: duplicate observation "
                                 f"({uids[codes[i]]!r}, {int(times[i])})"))
        if faults:
            raise PanelFormatError(min(faults)[2])
        return (starts, sorted_times, taus[first].tolist(),
                flags[first].tolist(), y[order], cov[order])

    def sorted_rows(self) -> SortedRows:
        """All rows, checked and sorted, once no unit lacks both a date and a flag."""
        checked = self.check()
        if checked is None:
            raise PanelFormatError("input has a header but no data rows")
        starts, times, taus, flags, y, cov = checked
        uids = list(self.ids)
        tau_values = list(self.taus)
        taus = [tau_values[code] for code in taus]
        for uid, tau, is_control in zip(uids, taus, flags):
            if tau is None and not is_control:
                raise PanelFormatError(
                    f"unit {uid!r} has no treatment date and is not flagged as control")
        return SortedRows(self.covariate_names, uids, taus, flags, starts, times, y, cov)


def _resolve_schema(schema: Mapping[str, object] | None, header: list[str]):
    mapping = {k: k for k in _SCHEMA_KEYS}
    covariates = None
    if schema:
        unknown = set(schema) - set(_SCHEMA_KEYS) - {"covariates"}
        if unknown:
            raise ConfigError(f"unknown schema keys: {sorted(unknown)}")
        for k in _SCHEMA_KEYS:
            if k in schema:
                mapping[k] = str(schema[k])
        if "covariates" in schema:
            covariates = [str(c) for c in schema["covariates"]]
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
    return mapping, covariates
