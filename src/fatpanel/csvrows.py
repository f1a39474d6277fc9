"""Reading the panel interchange format into checked column arrays.

``read_rows`` reads the delimited text described in ``panel`` in slices
of ``_SLICE_ROWS`` lines.  numpy's C tokenizer, ``np.loadtxt``, reads
each slice: it splits the records with the quoting of ``csv``, parses
times as 64-bit integers and outcomes as doubles, and refuses the slice
when a record has the wrong number of fields or one of those fields does
not parse.  It alone accepts records.  The other columns are parsed a
run at a time: a unit's rows come together, so numpy's text columns hold
runs of equal strings, and each run's string is parsed once (a string
once a slice, however many runs it begins) and its value spread over the
run.  So unit ids become integer codes in order of first appearance, and
treatment dates, control flags and covariates their values.  The checks
that relate rows to each other run on the arrays after the last slice;
only rows that are not already in (unit, time) order are then sorted,
stably, by (unit, time).

A slice in which numpy finds one record a line is read once: only when
its last line holds a quote does ``csv`` look at whether that record
goes on (a quoted field may hold a line break), and if it does, the
slice grows until the record ends and numpy reads it again.  Any other
slice with a quote, or one with a line longer than ``csv``'s field
limit (which numpy lacks), is walked once by ``csv``: its records, the
line each begins at (row numbers count records) and the reader's error.
A blank record (every field blank, as in ``"",""``), which the format
skips, is one of those records or, without a quote, a line of blanks
and commas; numpy reads the slice again without them, unless all it
skipped were empty lines.  A slice that numpy still refuses, or with an
outcome that is not finite, goes to ``_RowColumns.name`` with ``csv``'s
records (walked then if need be), which runs every check of a record
only to name the fault: it never accepts a record.

Every error in the rows is a fault, (row, rank, message), kept in one
list, and the load raises the smallest: the first offending row in file
order, and within it the first check of this order: field count, time
(an integer, then within 64 bits), outcome (a number, then finite),
treatment date (an integer within 64 bits), control flag, agreement with
the unit's first row (date, then flag), an unseen (unit, time),
covariates in column order.  That is the error of a reader that takes
one record at a time.  Reading stops after the first slice that holds a
fault, as no later row can come first.  Only when there is no fault: a
reader error from ``csv`` (such as a field longer than
``csv.field_size_limit()``, a limit numpy does not have), then a header
without rows, then the first unit with neither a date nor a control
flag.  Blank records are skipped but counted in row numbers.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter, defaultdict
from functools import partial
from itertools import compress, islice
from operator import methodcaller
from typing import Iterator, Mapping, NamedTuple, Sequence, TextIO

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
    Unit ``k``'s treatment date is ``tau_values[tau_codes[k]]``.
    """

    covariate_names: tuple[str, ...]
    unit_ids: np.ndarray  # of str
    tau_codes: np.ndarray
    tau_values: list[int | None]
    flags: np.ndarray  # of bool
    starts: np.ndarray
    times: np.ndarray
    outcomes: np.ndarray
    covariates: np.ndarray  # (n_rows, n_covariates)


# Lines read and converted at a time: enough that the per-slice overhead
# is small, few enough that one slice's parsed text (some hundred kB for a
# narrow file) is all a load holds of the file besides its column arrays.
_SLICE_ROWS = 1024


def read_rows(fh: TextIO, schema: Mapping[str, object] | None) -> SortedRows:
    """The checked rows of a panel text stream, sorted by (unit, time)."""
    try:  # ``csv`` reads the header alone: a quoted name may hold a line break
        header = next(csv.reader(fh))
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    header[:1] = [name.removeprefix("\ufeff") for name in header[:1]]  # a spreadsheet's BOM
    mapping, covariate_cols = _resolve_schema(schema, header)
    rows = _RowColumns(header, mapping, covariate_cols)
    rownum, failure = 2, None
    while lines := list(islice(fh, _SLICE_ROWS)):
        failure, records = rows.read(lines, fh, rownum)
        rownum += records
        # No row after a slice with a fault can hold a smaller one.
        if rows.faults or failure is not None:
            break
    return rows.sorted_rows(failure)


def _runs(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The start, the length and the string of each run of equal strings
    of ``column``."""
    column = np.asarray(column, dtype=object)
    new = np.empty(len(column), bool)
    new[:1] = True
    np.not_equal(column[1:], column[:-1], out=new[1:])
    starts = new.nonzero()[0]
    return starts, np.append(starts[1:], len(column)) - starts, column[starts].tolist()


def _records(lines: list[str], first: int, more: Iterator[str]) -> tuple:
    """(records, the line each begins at, the error that ended the walk) of
    ``csv``'s walk over ``lines`` from ``first``, where a record begins.

    While the last record is open (a quoted field may hold a line break),
    lines move from ``more`` to the end of ``lines``.
    """
    n = len(lines)

    def feed() -> Iterator[str]:
        yield from lines[first:]
        for line in more:
            lines.append(line)
            yield line

    reader, records, starts = csv.reader(feed()), [], []
    try:
        while (k := reader.line_num) < n - first:
            starts.append(first + k)
            records.append(next(reader))
    except csv.Error as exc:
        return records, starts, exc
    return records, starts, None


_NO_COMMAS = methodcaller("replace", ",", "")


def _too_long(lines: list[str]) -> bool:
    """Whether a line is longer than ``csv``'s field limit, which numpy lacks."""
    limit = csv.field_size_limit()
    return len("".join(lines)) > limit and max(map(len, lines)) > limit


def _loadtxt(lines: list[str], dtype: np.dtype, usecols: int | None = None) -> np.ndarray | None:
    """numpy's reading of ``lines``, or None when it refuses them."""
    try:
        with warnings.catch_warnings():
            # A slice of empty lines reads as no rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                              comments=None, ndmin=1, usecols=usecols)
    except ValueError:
        return None


# Fault ranks: the order in which a row's checks run.  Covariate ``j``
# ranks ``_COVARIATE + j``.
(_WIDTH, _TIME, _TIME_RANGE, _OUTCOME, _NONFINITE, _DATE, _FLAG,
 _DATE_MISMATCH, _FLAG_MISMATCH, _DUPLICATE, _COVARIATE) = range(11)


class _Fault(Exception):
    """A field that breaks its rule; ``args`` is (rank, message)."""


def _convert(kind: type, value: str, what: str, rank: int):
    try:
        # ``int`` and ``float`` also take digit-group underscores and
        # non-ASCII digits, which the format and numpy do not.
        if "_" in value or not value.strip().isascii():
            raise ValueError
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _Fault(rank, f"{what} {value!r} is not {noun}") from None


def _int64(value: str, what: str, rank: int, range_rank: int) -> int:
    n = _convert(int, value, what, rank)
    if not _INT64.min <= n <= _INT64.max:
        raise _Fault(range_rank, f"{what} {value!r} is outside the 64-bit integer range")
    return n


_time = partial(_int64, what="time", rank=_TIME, range_rank=_TIME_RANGE)
_outcome = partial(_convert, float, what="outcome", rank=_OUTCOME)


def _date(value: str) -> int | None:
    return _int64(value, "treatment date", _DATE, _DATE) if value.strip() else None


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
        # numpy reads the time as 64-bit integers, the outcome as doubles
        # and every other column as text.  A column that the schema reads
        # twice (the time as a covariate too, say) takes the first of these
        # types, and numpy reads it once more for each other type.
        reads = [(self.it, np.dtype(np.int64)), (self.iy, np.dtype(np.float64))]
        reads += [(i, np.dtype(object)) for i in (self.iu, self.ita, self.icf, *self.icov)
                  if i is not None]
        first = dict(reversed(reads))
        self.dtype = np.dtype([(f"f{i}", first.get(i, object)) for i in range(self.width)])
        self.rereads = list(dict.fromkeys((i, t) for i, t in reads if t != first[i]))
        self.ids: dict[str, int] = defaultdict()  # a new id's code is its order
        self.ids.default_factory = self.ids.__len__
        self.taus: dict[int | None, int] = {}
        self.slices: list[tuple] = []
        self.faults: list[tuple[int, int, str]] = []

    def _fault(self, row: int, rank: int, message: str) -> None:
        self.faults.append((row, rank, f"row {row}: {message}"))

    def _lookup(self, column: Sequence[str], parse, dtype, rownums: np.ndarray) -> np.ndarray:
        """``parse`` of each run of equal strings of ``column``, spread over its rows.

        A string is parsed once however many runs begin with it.  The first
        row of the first run whose string breaks the rule becomes a fault.
        """
        starts, sizes, heads = _runs(column)
        table, broken = {}, {}
        for s in set(heads):
            try:
                table[s] = parse(s)
            except _Fault as fault:
                table[s], broken[s] = 0, fault.args
        if broken:
            k = next(k for k, s in enumerate(heads) if s in broken)
            self._fault(rownums[starts[k]], *broken[heads[k]])
        values = np.fromiter(map(table.__getitem__, heads), dtype, len(heads))
        return values.repeat(sizes)

    def _tau_code(self, value: str) -> int:
        return self.taus.setdefault(_date(value), len(self.taus))

    def read(self, lines: list[str], more: Iterator[str], rownum: int) -> tuple:
        """Add the records that begin in ``lines``, numbered from ``rownum``,
        as numpy reads them; returns (``csv``'s error, the number of records).

        When the last record is open, lines move from ``more`` to the end
        of ``lines``.  A slice that numpy refuses after its blank records
        are dropped goes to ``name`` with the records of ``csv``'s walk,
        made then if need be, and the error is that walk's.
        """
        n = len(lines)
        table = _loadtxt(lines, self.dtype)
        one_a_line = table is not None and len(table) == n
        records, starts, failure, keep = None, range(n), None, np.ones(n, bool)
        if _too_long(lines) or not one_a_line and '"' in "".join(lines):
            records, starts, failure = _records(lines, 0, more)
            keep = np.fromiter((any(map(str.strip, r)) for r in records), bool, len(records))
        elif not one_a_line:  # with no quote, a record is a line
            keep = np.fromiter(map(bool, map(str.strip, map(_NO_COMMAS, lines))), bool, n)
        elif '"' in lines[-1]:  # the last record may go on past the slice
            failure = _records(lines, n - 1, more)[2]
        if failure is None:
            body, kept = lines, np.flatnonzero(keep)
            # numpy skips an empty line and refuses other blank records: a
            # slice that grew, or whose table a blank record spoiled, is read again.
            if len(lines) > n or (len(kept) < len(keep)
                                  and (table is None or len(table) != len(kept))):
                sizes = np.diff([*starts, len(lines)])
                body = list(compress(lines, np.repeat(keep, sizes).tolist()))
                table = _loadtxt(body, self.dtype)
            if self._add(body, table, rownum + kept):
                return None, len(keep)
        if records is None:
            records, _, failure = _records(lines, 0, more)
        self.name(records, rownum)
        if not self.faults and failure is None:  # refused, though no check names a fault
            raise PanelFormatError(f"rows {rownum} to {rownum + len(records) - 1}: "
                                   "a record is not in the panel format")
        return failure, len(records)

    def _add(self, lines: list[str], table: np.ndarray | None, rownums: np.ndarray) -> bool:
        """Append numpy's ``table`` of ``lines``, one row for each of ``rownums``.

        False, adding nothing, when there is no table, the lengths differ
        or an outcome is not finite.
        """
        if table is None or len(table) != len(rownums):
            return False
        again = {use: _loadtxt(lines, use[1], usecols=use[0]) for use in self.rereads}
        if any(column is None for column in again.values()):
            return False
        field = lambda i, dtype: again.get((i, dtype), table[f"f{i}"])
        y = field(self.iy, np.dtype(np.float64))
        if not np.isfinite(y).all():
            return False
        if len(table):
            column = lambda i: field(i, np.dtype(object))
            self._keep(column(self.iu), table[f"f{self.it}"].copy(), y.copy(),
                       *self._checked(column, rownums), rownums)
        return True

    def _checked(self, column, rownums: np.ndarray) -> tuple:
        """The treatment date codes, control flags and covariates of a
        slice whose field ``i`` is ``column(i)``, after their checks."""
        n = len(rownums)
        taus = (np.full(n, self._tau_code("")) if self.ita is None
                else self._lookup(column(self.ita), self._tau_code, np.intp, rownums))
        flags = (np.zeros(n, bool) if self.icf is None
                 else self._lookup(column(self.icf), _flag, bool, rownums))
        cov = np.empty((n, len(self.icov)))
        for j, (i, name) in enumerate(zip(self.icov, self.covariate_names)):
            cov[:, j] = self._lookup(column(i), partial(
                _covariate, what=f"covariate {name!r}", rank=_COVARIATE + j),
                np.float64, rownums)
        return taus, flags, cov

    def _keep(self, uids: Sequence[str], *columns) -> None:
        """Append a slice's columns, its unit ids as codes."""
        _, sizes, heads = _runs(uids)
        codes = np.fromiter(map(self.ids.__getitem__, heads), np.intp, len(heads))
        self.slices.append((codes.repeat(sizes), *columns))

    def name(self, records: list[list[str]], rownum: int) -> None:
        """Name the fault of a slice that numpy refused, from ``csv``'s records.

        Runs every check of a record on the records that are not blank,
        numbered from ``rownum``, and keeps the full ones for the checks
        across rows.  Reads no text.
        """
        rownums = np.arange(rownum, rownum + len(records))
        kept = [i for i, r in enumerate(records) if any(map(str.strip, r))]
        for i in kept:
            if len(records[i]) != self.width:
                self._fault(rownums[i], _WIDTH, f"expected {self.width} fields, "
                                                f"got {len(records[i])}")
        full = [i for i in kept if len(records[i]) == self.width]
        if full:
            cols, at = list(zip(*(records[i] for i in full))), rownums[full]
            times = self._lookup(cols[self.it], _time, np.int64, at)
            y = self._lookup(cols[self.iy], _outcome, np.float64, at)
            bad = np.flatnonzero(~np.isfinite(y))
            if bad.size:
                self._fault(at[bad[0]], _NONFINITE,
                            f"outcome {cols[self.iy][bad[0]]!r} is not finite")
            self._keep(cols[self.iu], times, y, *self._checked(cols.__getitem__, at), at)

    def sorted_rows(self, failure: csv.Error | None) -> SortedRows:
        """All rows, checked and stably sorted by (unit, time).

        Adds the faults that relate rows to each other: a treatment date or
        control flag that differs from the unit's first row, and a (unit,
        time) seen before.  Raises, in this order: the smallest fault,
        ``failure``, a header without rows, the first unit with neither a
        treatment date nor a control flag.  Consumes the slices, so their
        arrays are freed before the sorted copies are made; rows that
        already come in (unit, time) order are not sorted.
        """
        if self.ids:  # some row was added
            codes, times, y, taus, flags, cov, rownums = map(np.concatenate, zip(*self.slices))
            self.slices = []
            uids = np.array(list(self.ids), dtype=object)
            # Codes count up in order of first appearance: a unit's first
            # row is the first with a code above every code before it.
            first = np.flatnonzero(np.r_[True, codes[1:] > np.maximum.accumulate(codes[:-1])])
            for rank, what, values in ((_DATE_MISMATCH, "treatment dates", taus),
                                       (_FLAG_MISMATCH, "control flags", flags)):
                differs = values != values[first][codes]
                if differs.any():
                    i = int(np.argmax(differs))
                    self._fault(rownums[i], rank,
                                f"unit {uids[codes[i]]!r} has inconsistent {what}")
            same_unit = codes[1:] == codes[:-1]
            if not ((codes[1:] > codes[:-1]) | same_unit & (times[1:] >= times[:-1])).all():
                order = np.lexsort((times, codes))  # stable: rows in order would stay so
                codes, times, y, cov, rownums = (a[order] for a in (codes, times, y, cov,
                                                                     rownums))
                same_unit = codes[1:] == codes[:-1]
            repeats = 1 + np.flatnonzero(same_unit & (times[1:] == times[:-1]))
            if repeats.size:
                i = repeats[np.argmin(rownums[repeats])]
                self._fault(rownums[i], _DUPLICATE,
                            f"duplicate observation ({uids[codes[i]]!r}, {int(times[i])})")
        if self.faults:
            raise PanelFormatError(min(self.faults)[2])
        if failure is not None:
            raise failure
        if not self.ids:
            raise PanelFormatError("input has a header but no data rows")
        taus, flags = taus[first], flags[first]
        orphans = ~flags & (taus == self.taus.get(None, -1))
        if orphans.any():
            raise PanelFormatError(f"unit {uids[np.argmax(orphans)]!r} has no treatment "
                                   "date and is not flagged as control")
        starts = np.flatnonzero(np.r_[True, ~same_unit])
        return SortedRows(self.covariate_names, uids, taus, list(self.taus), flags,
                          starts, times, y, cov)


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
    counts = Counter(header)
    for c in (*mapping.values(), *covariates):
        if counts[c] > 1:
            raise PanelFormatError(f"column {c!r} appears more than once in the header")
    return mapping, list(covariates)
