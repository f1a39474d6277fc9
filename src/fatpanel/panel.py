"""Panel containers, delimited-text ingestion, validation, and alignment.

A panel is an ordered collection of per-unit time series.  Each unit records
integer periods, one outcome per period, the last period before its
treatment starts (``tau``), an optional control flag, and optional covariate
columns.  Times are calendar periods until ``reindex_time_to_adoption``
re-expresses them relative to each unit's adoption date.

A panel holds only cohort blocks, dense arrays of the units that share a
control flag, ``tau`` and time grid, and every reader works a block at a
time.  One rule groups units into blocks, rows and blocks in panel order:
``_merged`` for ``PanelData(units)`` and the date transforms, array sorts
in ``load_panel``; ``PanelData.units`` rebuilds the units on each read.
One rule reads a block's pre-treatment window, ``_run_to``, for
``validate`` here and for the estimators' residual kernel.

The interchange format is a delimited text file with a header row::

    unit,time,outcome,treated_at[,control_flag][,x1,x2,...]

Times and treatment dates are integers, outcomes and covariates decimal
numbers with "." as the decimal mark, all in ASCII digits; the encoding
is UTF-8, after at most one byte-order mark.  Outcomes must be finite; a
blank covariate field means the value is missing.  ``write_panel`` emits
exactly this layout, every field spelled by ``csv_field`` or
``csv_number``, the rule of every CSV the package writes, so that a
write/load round trip reproduces the panel bit for bit.  ``csvrows``
reads the text into checked, sorted column arrays, which ``load_panel``
groups into cohort blocks.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .basis import ForecastConfig, as_count
from .csvrows import _INT64, read_rows
from .errors import ConfigError, PanelFormatError


@dataclass(frozen=True, eq=False)
class UnitSeries:
    """One unit's observed history.

    Attributes
    ----------
    unit_id : str
        Identifier, unique within a panel.
    times : ndarray of int
        Observed periods, strictly increasing (gaps allowed).
    outcomes : ndarray of float
        One finite outcome per observed period; a non-finite one raises
        ``PanelFormatError``, as ``load_panel`` refuses it.
    tau : int or None
        Last untreated period: treatment is active strictly after ``tau``.
        ``None`` only for control units without an assigned cohort date.
    is_control : bool
        Control units never receive treatment; ``tau`` then records the
        cohort date used to align them with treated units.  A flag that is
        not a bool or ``np.bool_`` raises ``PanelFormatError``.
    covariates : ndarray or None
        Optional (n_obs, n_covariates) matrix aligned with ``times``.
    """

    unit_id: str
    times: np.ndarray
    outcomes: np.ndarray
    tau: int | None = None
    is_control: bool = False
    covariates: np.ndarray | None = None

    def __post_init__(self):
        _check_series(self, self.unit_id, ())

    @property
    def n_obs(self) -> int:
        return self.times.size


def _check_series(series, uid, lead: tuple) -> None:
    """Convert and check the series fields of a ``UnitSeries`` or ``CohortBlock``.

    ``lead`` is the shape of the axes before time: ``()`` for one unit,
    ``(n,)`` for a block of n units.  A failed check raises
    ``PanelFormatError`` naming ``uid``.
    """
    times = np.asarray(series.times, dtype=int)
    outcomes = np.asarray(series.outcomes, dtype=float)
    covariates, tau = series.covariates, series.tau
    if times.ndim != 1 or outcomes.shape != lead + times.shape:
        raise PanelFormatError(f"unit {uid!r}: times and outcomes must be 1-D and aligned")
    if times.size == 0:
        raise PanelFormatError(f"unit {uid!r}: empty series")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise PanelFormatError(f"unit {uid!r}: times must be strictly increasing")
    finite = np.isfinite(outcomes).all(axis=-1)
    if not finite.all():
        bad = series.unit_ids[np.argmin(finite)] if lead else uid
        raise PanelFormatError(f"unit {bad!r}: outcomes must be finite")
    if covariates is not None:
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim != outcomes.ndim + 1 or covariates.shape[:-1] != outcomes.shape:
            raise PanelFormatError(f"unit {uid!r}: covariates must be (n_obs, k)")
    if not isinstance(series.is_control, (bool, np.bool_)):
        raise PanelFormatError(f"unit {uid!r}: control flag must be a bool, got "
                               f"{series.is_control!r}")
    if tau is None and not series.is_control:
        raise PanelFormatError(f"unit {uid!r}: treated units need a treatment date")
    if tau is not None and not _INT64.min <= int(tau) <= _INT64.max:
        raise PanelFormatError(
            f"unit {uid!r}: treatment date {int(tau)} is outside the 64-bit integer range")
    object.__setattr__(series, "is_control", bool(series.is_control))
    object.__setattr__(series, "times", times)
    object.__setattr__(series, "outcomes", outcomes)
    object.__setattr__(series, "covariates", covariates)
    object.__setattr__(series, "tau", None if tau is None else int(tau))


def _run_to(times: np.ndarray, t: int) -> tuple[int, int, bool]:
    """Where ``t`` sits in ``times``, the length of the unbroken run of
    consecutive periods ending there (0 when ``t`` is not observed), and
    whether an observed period lies before that run: the one reading of a
    pre-treatment window, shared by ``validate`` and the estimators."""
    i = int(np.searchsorted(times, t))
    run = 0
    if i < times.size and times[i] == t:
        run = 1
        while run <= i and times[i - run] == t - run:
            run += 1
    return i, run, bool(times[0] <= t - run)


@dataclass(frozen=True, eq=False)
class CohortBlock:
    """The units of a panel that share a control flag, ``tau`` and time grid.

    A unit's window, target period and forecast weights depend only on
    these three, so estimators resolve them once per block and compute
    every unit's forecast as one product over the dense outcome rows.
    Construction checks the block's shapes, its time grid, its date and its
    control flag with the same messages ``UnitSeries`` uses, naming the first
    unit, and refuses a non-finite outcome, naming its unit.  Every
    constructor but the loader's is checked: ``load_panel`` fills its blocks
    unchecked, from rows ``read_rows`` has already checked one by one.

    Attributes
    ----------
    is_control : bool
        Control flag shared by the block's units.
    tau : int or None
        Shared treatment (or cohort) date.
    times : ndarray of int
        Shared observed periods, strictly increasing.
    outcomes : ndarray
        (n_block, n_periods) outcomes, one row per unit.
    covariates : ndarray or None
        (n_block, n_periods, n_covariates) covariates, NaN for a unit that
        carries none; None when the panel declares no covariates.
    positions : ndarray of int
        The units' positions in panel order.
    unit_ids : ndarray of str
        The units' identifiers, aligned with ``positions``.
    """

    is_control: bool
    tau: int | None
    times: np.ndarray
    outcomes: np.ndarray
    covariates: np.ndarray | None
    positions: np.ndarray
    unit_ids: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=int)
        unit_ids = np.asarray(self.unit_ids, dtype=object)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "unit_ids", unit_ids)
        if unit_ids.ndim != 1 or positions.shape != unit_ids.shape:
            raise PanelFormatError(
                "cohort block: positions and unit_ids must be 1-D and aligned")
        if unit_ids.size == 0:
            raise PanelFormatError("cohort block has no units")
        _check_series(self, unit_ids[0], unit_ids.shape)


def _merged(parts: Iterable[tuple]) -> list[CohortBlock]:
    """The cohort blocks of ``parts``, in the panel order of their first units.

    A part is (is_control, tau, times, outcomes, covariates, positions,
    unit_ids) for units that share the first three.  Parts that share them
    and the covariate width (0 without covariates) make one block, its rows
    in panel order, so a unit of the wrong width meets ``_install``'s check.
    """
    groups: dict[tuple, list[tuple]] = {}
    for part in parts:
        is_control, tau, times, _, covariates, _, _ = part
        k = 0 if covariates is None else covariates.shape[-1]
        groups.setdefault((is_control, tau, times.tobytes(), k), []).append(part)
    blocks = []
    for (is_control, tau, _, k), group in groups.items():
        _, _, times, outcomes, covariates, positions, unit_ids = zip(*group)
        positions = np.concatenate(positions)
        order = np.argsort(positions)
        blocks.append(CohortBlock(
            is_control=is_control, tau=tau, times=times[0],
            outcomes=np.concatenate(outcomes)[order],
            covariates=np.concatenate(covariates)[order] if k else None,
            positions=positions[order], unit_ids=np.concatenate(unit_ids)[order]))
    blocks.sort(key=lambda b: b.positions[0])
    return blocks


class PanelData:
    """An immutable ordered collection of unit series, held as cohort blocks.

    Parameters
    ----------
    units : iterable of UnitSeries
        Unit identifiers must be unique; insertion order is preserved and
        determines every deterministic aggregation order downstream.
    covariate_names : sequence of str, keyword-only
        Names for the covariate columns carried by the units.

    The units are grouped into ``CohortBlock``s keyed by (control flag,
    ``tau``, time grid) in order of first appearance, and the panel keeps
    only the blocks.  ``from_blocks`` builds a panel from such blocks
    directly.
    """

    def __init__(self, units: Iterable[UnitSeries], *, covariate_names: Iterable[str] = ()):
        units = tuple(units)
        names = tuple(covariate_names)
        positions = np.arange(len(units))[:, None]
        ids = np.array([u.unit_id for u in units], dtype=object)[:, None]
        self._install(_merged(
            (u.is_control, u.tau, u.times, u.outcomes[None],
             u.covariates[None] if u.covariates is not None
             else np.full((1, u.n_obs, len(names)), np.nan) if names else None,
             at, uid) for u, at, uid in zip(units, positions, ids)), names)

    @classmethod
    def from_blocks(cls, blocks: Iterable[CohortBlock], *,
                    covariate_names: Iterable[str] = ()) -> PanelData:
        """A panel made of ``blocks``, with no ``UnitSeries`` built.

        The blocks' positions must together form a permutation of
        0..n-1, which fixes panel order, and their ids must be unique.
        Treated and control blocks keep the order they are given in.
        """
        panel = cls.__new__(cls)
        panel._install(tuple(blocks), tuple(covariate_names))
        return panel

    def _install(self, blocks: Sequence[CohortBlock], names: tuple[str, ...],
                 check: bool = True) -> None:
        if not blocks:
            raise PanelFormatError("panel has no units")
        for i, name in enumerate(names):
            if name in names[:i]:
                raise PanelFormatError(f"covariate name {name!r} appears more than once")
        n = sum(b.unit_ids.size for b in blocks)
        if check:  # the loader's ids and positions are unique from ``read_rows``
            positions = np.concatenate([b.positions for b in blocks])
            ids = np.concatenate([b.unit_ids for b in blocks])
            if not np.array_equal(np.sort(positions), np.arange(n)):
                raise PanelFormatError("block positions must be a permutation of 0..n-1")
            if len(set(ids.tolist())) != n:
                seen = set()
                for uid in ids[np.argsort(positions)]:
                    if uid in seen:
                        raise PanelFormatError(f"duplicate unit id {uid!r}")
                    seen.add(uid)
        for b in blocks:
            k = 0 if b.covariates is None else b.covariates.shape[2]
            if k != len(names):
                raise PanelFormatError(
                    f"unit {b.unit_ids[0]!r} carries {k} covariate "
                    f"columns but the panel declares {len(names)}"
                )
        self._n = n
        self._blocks = tuple(blocks)
        self.covariate_names = names
        #: Cohort blocks of treated and of control units, each in order of
        #: first appearance.
        self.treated_blocks = tuple(b for b in blocks if not b.is_control)
        self.control_blocks = tuple(b for b in blocks if b.is_control)

    @property
    def units(self) -> tuple[UnitSeries, ...]:
        """Every unit in panel order, built anew from the blocks on each read."""
        units = [None] * self._n
        for b in self._blocks:
            for row, (at, uid) in enumerate(zip(b.positions.tolist(), b.unit_ids)):
                units[at] = UnitSeries(
                    uid, b.times, b.outcomes[row], tau=b.tau,
                    is_control=b.is_control,
                    covariates=None if b.covariates is None else b.covariates[row])
        return tuple(units)

    def __len__(self):
        return self._n

    def is_balanced(self) -> bool:
        """True when every unit observes exactly the same periods."""
        first = self._blocks[0].times
        return all(np.array_equal(b.times, first) for b in self._blocks[1:])

    def common_tau(self) -> int | None:
        """The shared treatment date, or None when dates differ or are missing."""
        taus = {b.tau for b in self._blocks}
        if len(taus) == 1 and None not in taus:
            return taus.pop()
        return None


def load_panel(source, schema: Mapping[str, object] | None = None) -> PanelData:
    """Read a panel from a delimited text file or stream.

    Parameters
    ----------
    source : path or text file object
        Comma-delimited text with a header row.
    schema : mapping, optional
        Renames columns: keys among ``unit``, ``time``, ``outcome``,
        ``treated_at``, ``control_flag``, plus ``covariates`` (a list of
        column names).  Unnamed extra columns become covariates.

    numpy's C tokenizer (``np.loadtxt``) reads the rows, a slice of
    lines at a time, so a load never holds the text of the whole file,
    and it alone decides which records are accepted.  A slice with a
    record over several lines or a blank record costs a second read and,
    when it holds a quote, one ``csv`` walk, whose records the per-row
    checks read to name the fault of a slice numpy still refuses
    (``csvrows``).  Ids, dates and flags are kept once a run of rows that
    share all three, and covariates parsed once a run of equal strings,
    not once a row.  Each unit's rows are sorted by
    time, unless the rows already come in order, and the units grouped
    into cohort blocks by array sorts over their flags, dates and time
    grids, in order of first appearance; the panel is built from those
    blocks: no ``UnitSeries`` is made until ``units`` is read.  The blocks
    and the panel skip the checks of ``CohortBlock`` and ``from_blocks``:
    the row checks refuse every fault those would find, naming its row.
    Blank rows are skipped but counted in the row numbers of messages.

    Raises
    ------
    PanelFormatError
        On missing columns, a column the schema reads that the header
        names twice, non-numeric fields (a non-ASCII digit or a
        digit-group underscore included), a time or treatment date outside
        64 bits, an outcome that is not finite (``nan``, ``inf``), duplicate
        (unit, time) observations, inconsistent treatment dates within a
        unit, or a unit that has neither a treatment date nor a control
        flag.  The error names the first offending row in file order, and
        a row's checks run in that order: field count, time, outcome,
        treatment date, control flag, agreement with the unit's first row,
        an unseen time, covariates in column order.
    ConfigError
        When ``schema`` is not a mapping, a column name in it is not a
        string, or its ``covariates`` is not a list of strings.
    csv.Error
        The ``csv`` reader's own error, such as a field longer than
        ``csv.field_size_limit()``, when no row before it holds a fault.
    """
    if hasattr(source, "read"):
        return _load_stream(source, schema)
    with open(os.fspath(source), newline="", encoding="utf-8") as fh:
        return _load_stream(fh, schema)


def _load_stream(fh: TextIO, schema) -> PanelData:
    rows = read_rows(fh, schema)
    lengths = np.diff(rows.starts, append=rows.times.size)
    # A block's units share a length, so each length class is sorted on its
    # own: its keys are one copy of its rows, where a time grid padded to
    # the longest unit could be far larger than the file.
    by_length = np.argsort(lengths, kind="stable")
    groups = []
    for codes in np.split(by_length, 1 + np.flatnonzero(np.diff(lengths[by_length]))):
        at = rows.starts[codes][:, None] + np.arange(lengths[codes[0]])
        # One row a unit: its flag, its date and its time grid.  The sort
        # is stable, so equal rows, a block, keep panel order.
        keys = np.column_stack([rows.flags[codes], rows.tau_codes[codes], rows.times[at]])
        order = np.lexsort(keys.T)
        keys = keys[order]
        cuts = 1 + np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1))
        groups += zip(np.split(codes[order], cuts), np.split(at[order], cuts))
    groups.sort(key=lambda group: group[0][0])  # blocks in order of first appearance
    # ``read_rows`` has checked every fact the block and panel checks would
    # (finite outcomes, increasing times, 64-bit dates, unique ids, positions
    # 0..n-1), so the blocks are filled with their fields' types unchecked.
    blocks = [CohortBlock.__new__(CohortBlock) for _ in groups]
    for block, (codes, at) in zip(blocks, groups):
        vars(block).update(
            is_control=bool(rows.flags[codes[0]]), tau=rows.tau_values[rows.tau_codes[codes[0]]],
            times=rows.times[at[0]], outcomes=rows.outcomes[at],
            covariates=rows.covariates[at] if rows.covariate_names else None,
            positions=codes, unit_ids=rows.unit_ids[codes])
    panel = PanelData.__new__(PanelData)
    panel._install(blocks, rows.covariate_names, check=False)
    return panel


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def csv_field(text: str) -> str:
    """``text`` as a field of any CSV the package writes: quoted, with its
    inner quotes doubled, when it holds a comma, a quote, ``\\r`` or
    ``\\n``, and bare otherwise."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def csv_number(value: float) -> str:
    """``value`` as a CSV field: ``repr``, the shortest text that reads back
    exactly, and NaN as a blank field."""
    return "" if math.isnan(value) else repr(value)


def csv_rows(n: int, *columns) -> str:
    """``n`` CSV lines, each ending in a newline, of ``columns``: each one
    ``str`` used on every line or ``n`` fields already spelled.

    The fields and separators are slice-assigned into one token list and
    joined once: no line is built on its own.
    """
    width = 2 * len(columns)
    tokens = [","] * (n * width)
    tokens[width - 1::width] = ["\n"] * n
    for k, column in enumerate(columns):
        tokens[2 * k::width] = [column] * n if isinstance(column, str) else column
    return "".join(tokens)


def csv_text(header: Sequence[str], rows: str) -> str:
    """A CSV of ``header``, its names spelled by ``csv_field``, and ``rows``,
    lines that each end in a newline (``csv_rows``)."""
    return ",".join(map(csv_field, header)) + "\n" + rows


def write_panel(panel: PanelData, dest) -> None:
    """Write ``panel_to_csv_text(panel)`` to a path or a text stream."""
    if hasattr(dest, "write"):
        dest.write(panel_to_csv_text(panel))
    else:
        with open(os.fspath(dest), "w", newline="", encoding="utf-8") as fh:
            fh.write(panel_to_csv_text(panel))


def panel_to_csv_text(panel: PanelData) -> str:
    """A panel in the canonical delimited layout.

    Emits ``unit,time,outcome,treated_at`` plus a ``control_flag`` column
    when any unit is a control, plus one column per covariate.  Units come
    in panel order and each unit's rows in time order.  Unit ids and
    covariate names are spelled by ``csv_field``, outcomes by ``repr`` and
    covariates by ``csv_number``, so a reload reproduces the exact ids, names
    and float values; a missing (NaN) covariate is a blank field, which
    ``load_panel`` reads as missing.  One permutation puts the rows of
    every block in panel order, each period is spelled once, and
    ``csv_rows`` writes the columns.
    """
    has_controls = bool(panel.control_blocks)
    header = ["unit", "time", "outcome", "treated_at",
              *(["control_flag"] if has_controls else []), *panel.covariate_names]
    n, at = len(panel), 0
    uids, cohorts = np.empty(n, object), np.empty(n, object)
    first_row, lengths = np.empty(n, int), np.empty(n, int)
    times, outcomes, covariates = [], [], []
    for b in panel._blocks:
        k, m = b.outcomes.shape
        uids[b.positions] = b.unit_ids
        cohorts[b.positions] = (("" if b.tau is None else str(b.tau))
                                + (f",{int(b.is_control)}" if has_controls else ""))
        first_row[b.positions], lengths[b.positions] = at + m * np.arange(k), m
        at += k * m
        times.append(np.tile(b.times, k))
        outcomes.append(b.outcomes.ravel())
        if panel.covariate_names:
            covariates.append(b.covariates.reshape(k * m, -1))
    # Every row of the unit at each position, in panel order.
    order = np.arange(at) + np.repeat(first_row - np.cumsum(lengths) + lengths, lengths)
    periods, which = np.unique(np.concatenate(times)[order], return_inverse=True)
    columns = [np.repeat(np.array(list(map(csv_field, uids.tolist())), object), lengths).tolist(),
               np.array(list(map(str, periods.tolist())), object)[which].tolist(),
               map(repr, np.concatenate(outcomes)[order].tolist()),
               np.repeat(cohorts, lengths).tolist()]
    if covariates:
        columns += [map(csv_number, c) for c in np.concatenate(covariates)[order].T.tolist()]
    return csv_text(header, csv_rows(at, *columns))


@dataclass(frozen=True)
class UnitDiagnostics:
    """Validation findings for one unit."""

    unit_id: str
    tau: int | None
    effective_tau: int | None
    pre_treatment_run: int
    required_window: int | None
    short_window: bool
    window_gap: bool
    series_gaps: bool
    covariates_complete: bool
    fatal: bool
    messages: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "messages": list(self.messages)}


@dataclass(frozen=True, eq=False)
class BlockDiagnostics:
    """Validation findings for the units of one cohort block.

    The units share every ``UnitDiagnostics`` field but their ids and
    covariate completeness, aligned with their panel ``positions``; a unit
    whose covariates are incomplete adds "incomplete covariates" to the
    ``messages``.
    """

    tau: int | None
    effective_tau: int | None
    pre_treatment_run: int
    required_window: int | None
    short_window: bool
    window_gap: bool
    series_gaps: bool
    fatal: bool
    messages: tuple[str, ...]
    positions: np.ndarray
    unit_ids: np.ndarray
    covariates_complete: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics per cohort block plus panel-level structure flags."""

    blocks: tuple[BlockDiagnostics, ...]
    balanced: bool
    common_tau: int | None

    def per_unit(self, spell: Callable) -> list:
        """``spell(block)(unit_id, covariates_complete, messages)`` of every
        unit, in panel order; ``spell`` runs once a block."""
        spelled = [None] * sum(d.unit_ids.size for d in self.blocks)
        for d in self.blocks:
            unit, messages = spell(d), (d.messages + ("incomplete covariates",), d.messages)
            for at, uid, ok in zip(d.positions.tolist(), d.unit_ids.tolist(),
                                   d.covariates_complete.tolist()):
                spelled[at] = unit(uid, ok, messages[ok])
        return spelled

    @functools.cached_property
    def units(self) -> tuple[UnitDiagnostics, ...]:
        """Every unit's diagnostics in panel order, built on the first read."""
        return tuple(UnitDiagnostics(**{**u, "messages": tuple(u["messages"])})
                     for u in self.to_dict()["units"])

    @property
    def ok(self) -> bool:
        return not any(d.fatal for d in self.blocks)

    @property
    def fatal_units(self) -> tuple[str, ...]:
        return tuple(d.unit_id for d in self.units if d.fatal)

    def unit(self, unit_id: str) -> UnitDiagnostics:
        for d in self.units:
            if d.unit_id == unit_id:
                return d
        raise KeyError(unit_id)

    def to_dict(self) -> dict:
        def spell(d):  # the keys in ``UnitDiagnostics`` order, the unit's own set per unit
            shared = {k: getattr(d, k, None) for k in UnitDiagnostics.__dataclass_fields__}
            return lambda uid, ok, messages: dict(shared, unit_id=uid, covariates_complete=ok,
                                                  messages=list(messages))
        return {
            "ok": self.ok,
            "balanced": self.balanced,
            "common_tau": self.common_tau,
            "units": self.per_unit(spell),
        }


def validate(panel: PanelData, config: ForecastConfig) -> ValidationReport:
    """Check every unit against the window requirements of ``config``.

    A unit is flagged when its contiguous pre-treatment run ending at the
    effective treatment date is shorter than the requested window, and
    fatally when fewer than order + 1 periods are available at all, which
    makes the window regression underdetermined.  Reports gaps and
    incomplete covariates; never raises on content.  The findings are
    worked out once a cohort block, covariate completeness once a unit,
    and the report keeps them by block: no ``UnitDiagnostics`` is built
    until ``units`` is read.
    """
    q = config.basis.order
    required = config.R if isinstance(config.R, int) else None
    blocks = []
    for b in panel._blocks:
        dated = b.tau is not None  # only a control block may lack a date
        _, run, older = _run_to(b.times, b.tau) if dated else (0, 0, False)
        short = dated and required is not None and run < required
        fatal = dated and run < q + 1
        messages = [] if dated else ["no treatment date"]
        if dated and not run:
            messages.append(f"no observation at effective treatment date {b.tau}")
        if short:
            messages.append(f"contiguous pre-treatment run of {run} is shorter than R={required}")
        if fatal:
            messages.append(f"fewer than q+1={q + 1} usable pre-treatment periods")
        blocks.append(BlockDiagnostics(
            tau=b.tau, effective_tau=b.tau, pre_treatment_run=run, required_window=required,
            short_window=short,
            # A gap only exists when older observations lie beyond a short run.
            window_gap=0 < run < (required or q + 1) and older,
            series_gaps=bool(np.any(np.diff(b.times) > 1)), fatal=fatal,
            messages=tuple(messages), positions=b.positions, unit_ids=b.unit_ids,
            covariates_complete=(np.ones(b.unit_ids.size, bool) if b.covariates is None
                                 else ~np.isnan(b.covariates).any(axis=(1, 2)))))
    return ValidationReport(
        blocks=tuple(blocks),
        balanced=panel.is_balanced(),
        common_tau=panel.common_tau(),
    )


def reindex_time_to_adoption(panel: PanelData) -> PanelData:
    """Re-express every unit's clock relative to its own adoption date.

    Time t becomes t - tau, so the last untreated period of every unit sits
    at 0.  Applying the function twice is the same as applying it once.  An
    event time outside the 64-bit range raises, naming the first such unit.
    """
    missing = sorted((at, uid) for b in panel._blocks if b.tau is None
                     for at, uid in zip(b.positions.tolist(), b.unit_ids.tolist()))
    if missing:
        raise PanelFormatError(
            f"cannot reindex: units without a treatment date: {[uid for _, uid in missing]}"
        )
    wrapped = [(b.positions.min(), b.unit_ids[b.positions.argmin()]) for b in panel._blocks
               if int(b.times[0]) - b.tau < _INT64.min or int(b.times[-1]) - b.tau > _INT64.max]
    if wrapped:
        raise PanelFormatError(f"cannot reindex: unit {min(wrapped)[1]!r} has event times "
                               "outside the 64-bit integer range")
    return PanelData.from_blocks(_merged(
        (b.is_control, 0, b.times - b.tau, b.outcomes, b.covariates, b.positions, b.unit_ids)
        for b in panel._blocks), covariate_names=panel.covariate_names)


def apply_anticipation(panel: PanelData, delta) -> PanelData:
    """Shift treatment dates back to absorb anticipation effects.

    ``delta`` is an integer >= 0, or a mapping from unit id to one.  Each
    dated unit's date becomes tau - delta, so estimation windows end before
    any anticipatory response, and horizons count from the shifted date;
    controls without a date are left alone.  A unit left with no
    observation at its shifted date is kept, for the estimators to drop
    and ``validate`` to flag.  When no date moves, ``panel`` itself is
    returned.  A shift that is not an integer >= 0, or a mapping key that
    names no unit, raises ``ConfigError``.
    """
    shifts = None
    if isinstance(delta, Mapping):
        shifts = {uid: as_count(f"delta for unit {uid!r}", d, 0) for uid, d in delta.items()}
        ids = {uid for b in panel._blocks for uid in b.unit_ids.tolist()}
        unknown = [uid for uid in shifts if uid not in ids]
        if unknown:
            raise ConfigError(f"delta names units not in the panel: {unknown}")
    else:
        delta = as_count("delta", delta, 0)
    per_block = [np.zeros(b.unit_ids.size, int) if b.tau is None
                 else np.full(b.unit_ids.size, delta) if shifts is None
                 else np.array([shifts.get(uid, 0) for uid in b.unit_ids.tolist()])
                 for b in panel._blocks]
    if not any(per_row.any() for per_row in per_block):
        return panel
    return PanelData.from_blocks(_merged(
        (b.is_control, None if b.tau is None else b.tau - d, b.times,
         *(None if a is None else a[per_row == d]
           for a in (b.outcomes, b.covariates, b.positions, b.unit_ids)))
        for b, per_row in zip(panel._blocks, per_block) for d in np.unique(per_row).tolist()),
        covariate_names=panel.covariate_names)
