"""Property tests: the column-wise ``load_panel`` against a row-by-row oracle.

The oracle below parses the text one record at a time into per-unit lists
and sets, checks every record as it arrives, and builds one validated
``UnitSeries`` per unit, exactly as the loader is documented to behave.
Generated CSV text (quoted ids with commas, blank and whitespace-only
lines, padded integers, shuffled rows, controls with and without a date,
blank covariates, faults of every kind spread over the file) is read by
both with small slice sizes, so slice boundaries fall everywhere.  Valid
input must give bit-identical cohort blocks, faulty input the same error.
The loader fills its blocks without the checks of ``CohortBlock`` and
``PanelData.from_blocks``, so every loaded panel is also rebuilt through
them and must come back with the same fields of the same types.
"""

import csv
import io
import math
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fatpanel import csvrows
from fatpanel import panel as panel_module
from fatpanel.cli import main
from fatpanel.csvrows import _FALSE_FLAGS, _TRUE_FLAGS, _resolve_schema
from fatpanel.errors import ConfigError, PanelFormatError
from fatpanel.panel import (CohortBlock, PanelData, UnitSeries, apply_anticipation, load_panel,
                            panel_to_csv_text, reindex_time_to_adoption, write_panel)
from fatpanel.simulate import DgpSpec, simulate_dgp


# ---------------------------------------------------------------------------
# the row-by-row oracle


# The format has plain integers and decimals: no digit-group underscores
# and no non-ASCII digits, which Python's ``int`` and ``float`` would take.
def _parse_int(value: str, what: str, row: int) -> int:
    try:
        if "_" in value or not value.strip().isascii():
            raise ValueError
        return int(value)
    except ValueError:
        raise PanelFormatError(f"row {row}: {what} {value!r} is not an integer") from None


def _parse_float(value: str, what: str, row: int) -> float:
    try:
        if "_" in value or not value.strip().isascii():
            raise ValueError
        return float(value)
    except ValueError:
        raise PanelFormatError(f"row {row}: {what} {value!r} is not a number") from None


def oracle_load(text, schema=None):
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    mapping, covariate_cols = _resolve_schema(schema, header)
    col = {name: i for i, name in enumerate(header)}
    iu, it, iy = col[mapping["unit"]], col[mapping["time"]], col[mapping["outcome"]]
    ita = col.get(mapping["treated_at"])
    icf = col.get(mapping["control_flag"])
    icov = [col[c] for c in covariate_cols]

    rows_by_unit: dict[str, list] = {}
    taus: dict[str, int | None] = {}
    flags: dict[str, bool] = {}
    seen_times: dict[str, set[int]] = {}
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise PanelFormatError(
                f"row {rownum}: expected {len(header)} fields, got {len(row)}"
            )
        uid = row[iu]
        t = _parse_int(row[it], "time", rownum)
        if not -2 ** 63 <= t < 2 ** 63:
            raise PanelFormatError(
                f"row {rownum}: time {row[it]!r} is outside the 64-bit integer range")
        y = _parse_float(row[iy], "outcome", rownum)
        if not math.isfinite(y):
            raise PanelFormatError(f"row {rownum}: outcome {row[iy]!r} is not finite")

        tau = None
        if ita is not None and row[ita].strip() != "":
            tau = _parse_int(row[ita], "treatment date", rownum)
            if not -2 ** 63 <= tau < 2 ** 63:
                raise PanelFormatError(f"row {rownum}: treatment date {row[ita]!r} "
                                       "is outside the 64-bit integer range")
        ctrl = False
        if icf is not None:
            raw = row[icf].strip().lower()
            if raw in _TRUE_FLAGS:
                ctrl = True
            elif raw not in _FALSE_FLAGS:
                raise PanelFormatError(f"row {rownum}: bad control flag {row[icf]!r}")

        if uid not in rows_by_unit:
            rows_by_unit[uid] = []
            taus[uid] = tau
            flags[uid] = ctrl
            seen_times[uid] = set()
        else:
            if taus[uid] != tau:
                raise PanelFormatError(
                    f"row {rownum}: unit {uid!r} has inconsistent treatment dates"
                )
            if flags[uid] != ctrl:
                raise PanelFormatError(
                    f"row {rownum}: unit {uid!r} has inconsistent control flags"
                )
        if t in seen_times[uid]:
            raise PanelFormatError(f"row {rownum}: duplicate observation ({uid!r}, {t})")
        seen_times[uid].add(t)
        cov = None
        if icov:
            cov = [
                _parse_float(row[i], f"covariate {header[i]!r}", rownum)
                if row[i].strip() != "" else float("nan")
                for i in icov
            ]
        rows_by_unit[uid].append((t, y, cov))

    if not rows_by_unit:
        raise PanelFormatError("input has a header but no data rows")

    units = []
    for uid, rows in rows_by_unit.items():
        if taus[uid] is None and not flags[uid]:
            raise PanelFormatError(
                f"unit {uid!r} has no treatment date and is not flagged as control"
            )
        rows.sort(key=lambda r: r[0])
        times = np.array([r[0] for r in rows], dtype=int)
        outcomes = np.array([r[1] for r in rows], dtype=float)
        cov = None
        if icov:
            cov = np.array([r[2] for r in rows], dtype=float)
        units.append(
            UnitSeries(
                unit_id=uid, times=times, outcomes=outcomes, tau=taus[uid],
                is_control=flags[uid], covariates=cov,
            )
        )
    return PanelData(units, covariate_names=covariate_cols)


# ---------------------------------------------------------------------------
# comparison


def outcome(load):
    """The loaded panel, or the (type, message) of what the load raised."""
    try:
        return load()
    except Exception as exc:  # the loaders must fail the same way, whatever the type
        return type(exc), str(exc)


def assert_blocks_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.is_control, a.tau) == (b.is_control, b.tau)
        assert type(a.tau) is type(b.tau)
        assert a.unit_ids.tolist() == b.unit_ids.tolist()
        assert a.positions.tolist() == b.positions.tolist()
        for x, y in ((a.times, b.times), (a.outcomes, b.outcomes)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        if b.covariates is None:
            assert a.covariates is None
        else:
            assert a.covariates.shape == b.covariates.shape
            assert a.covariates.tobytes() == b.covariates.tobytes()


def checked_fields(block):
    """Every field of ``block`` with its type; an array's dtype and shape too."""
    return {name: (type(v), v.dtype, v.shape, v.tolist() if v.dtype == object else v.tobytes())
            if isinstance(v, np.ndarray) else (type(v), v) for name, v in vars(block).items()}


def assert_blocks_are_checked_blocks(panel):
    """The blocks of ``panel`` equal, field by field and type by type, the
    blocks the checked constructors make of the same fields."""
    again = PanelData.from_blocks([CohortBlock(**vars(b)) for b in panel._blocks],
                                  covariate_names=panel.covariate_names)
    assert (len(again), again.covariate_names) == (len(panel), panel.covariate_names)
    assert ([checked_fields(b) for b in panel._blocks]
            == [checked_fields(b) for b in again._blocks])
    for b in panel._blocks:
        assert type(b.is_control) is bool and (b.tau is None or type(b.tau) is int)
        assert (b.times.dtype, b.outcomes.dtype, b.unit_ids.dtype) == (np.int64, np.float64,
                                                                       object)


def assert_same_panel(got, want):
    """``got``, a loaded panel, has ``want``'s blocks, and the checked
    constructors would have made the same ones of its blocks' fields."""
    assert_blocks_are_checked_blocks(got)
    assert got.covariate_names == want.covariate_names
    assert len(got) == len(want)
    assert_blocks_identical(got.treated_blocks, want.treated_blocks)
    assert_blocks_identical(got.control_blocks, want.control_blocks)


def assert_loads_like_oracle(text, slice_rows):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(csvrows, "_SLICE_ROWS", slice_rows)
        got = outcome(lambda: load_panel(io.StringIO(text, newline="")))
    want = outcome(lambda: oracle_load(text))
    if isinstance(want, PanelData):
        assert isinstance(got, PanelData), got
        assert_same_panel(got, want)
    else:
        assert got == want
    return want


# ---------------------------------------------------------------------------
# generated CSV text

IDS = ["a", "b,1", 'q"x', " padded ", "7", "long id with, commas", "", "é"]
FAULTS = ("width", "time", "time_range", "outcome", "nonfinite", "date", "flag",
          "date_mismatch", "flag_mismatch", "duplicate", "covariate", "orphan")
SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def padded_int(draw, value):
    text = draw(st.sampled_from([str(value), f"+{value}" if value >= 0 else str(value),
                                 f"0{value}" if value >= 0 else str(value)]))
    return draw(SPACES) + text + draw(SPACES)


@st.composite
def number(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
    text = draw(st.sampled_from([repr(x), f"{x:.6g}", f"{x:e}"]))
    return draw(SPACES) + text + draw(SPACES)


@st.composite
def csv_cases(draw):
    """(text, slice_rows): a panel CSV with up to four faults injected."""
    has_flag = draw(st.booleans())
    n_cov = draw(st.integers(0, 2))
    header = ["unit", "time", "outcome", "treated_at"]
    if has_flag:
        header.append("control_flag")
    header += [f"x{k}" for k in range(n_cov)]
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    rows = []
    for uid in ids:
        control = has_flag and draw(st.booleans())
        tau = None if control and draw(st.booleans()) else draw(st.integers(-3, 12))
        flag = (draw(st.sampled_from(["1", "true", "T", " yes "])) if control else
                draw(st.sampled_from(["0", "false", "", "No"])))
        times = draw(st.lists(st.integers(-5, 15), min_size=1, max_size=8, unique=True))
        for t in times:
            row = [uid, draw(padded_int(t)), draw(number()),
                   "" if tau is None else draw(padded_int(tau))]
            if has_flag:
                row.append(flag)
            row += [draw(st.sampled_from(["", " ", "nan"])) if draw(st.booleans())
                    else draw(number()) for _ in range(n_cov)]
            rows.append(row)
    rows = draw(st.permutations(rows))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=4))
    # Width faults go last: every other fault indexes a full-width row.
    for kind in sorted(faults, key=lambda kind: kind == "width"):
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i] = list(rows[i])
        if kind == "width":
            rows[i] = row[:-1] if draw(st.booleans()) else row + ["1"]
        elif kind == "time":
            row[1] = draw(st.sampled_from(["1.5", "x", "", " ", "1_0"]))
        elif kind == "time_range":
            row[1] = draw(st.sampled_from(["99999999999999999999", " 9223372036854775808",
                                           "-9223372036854775809"]))
        elif kind == "outcome":
            row[2] = draw(st.sampled_from(["abc", "", "1,5", "1_0.5"]))
        elif kind == "nonfinite":
            row[2] = draw(st.sampled_from(["nan", " inf", "-Infinity", "1e999"]))
        elif kind == "date":
            row[3] = draw(st.sampled_from(["5.0", "z", "1e3", "2_0"]))
        elif kind == "flag" and has_flag:
            row[4] = draw(st.sampled_from(["maybe", "2", "-"]))
        elif kind == "date_mismatch":
            row[3] = draw(st.sampled_from(["", "13", "-4"]))
        elif kind == "flag_mismatch" and has_flag:
            row[4] = "0" if row[4].strip().lower() in _TRUE_FLAGS else "yes"
        elif kind == "duplicate":
            j = draw(st.integers(0, len(rows)))
            rows.insert(j, row[:1] + [row[1].strip()] + ["0.5"] + row[3:])
        elif kind == "covariate" and n_cov:
            row[draw(st.integers(-n_cov, -1))] = draw(st.sampled_from(["q", "1..2", "1_0"]))
        elif kind == "orphan":
            rows.append([draw(st.sampled_from(["orphan", "a"])), "1", "1.0", ""]
                        + (["0"] if has_flag else []) + [""] * n_cov)
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        blank = draw(st.sampled_from([None, None, None, "\n", "   \n", " , ,\n",
                                      ", " * (len(header) - 1) + "\n"]))
        if blank is not None:
            out.write(blank)
        writer.writerow(row)
    slice_rows = draw(st.sampled_from([1, 2, 3, 5, 8, 1024]))
    return out.getvalue(), slice_rows


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=csv_cases())
def test_load_matches_row_oracle(case):
    text, slice_rows = case
    assert_loads_like_oracle(text, slice_rows)


# ---------------------------------------------------------------------------
# the loader's blocks skip the checks that ``read_rows`` has made


def test_a_loaded_file_with_covariate_holes_and_undated_controls_has_checked_blocks():
    text = ('unit,time,outcome,treated_at,control_flag,x1,x2\n'
            + "".join(f'"u,{k}",{t},{k + t / 4},{"" if k % 3 == 0 else 3 + k % 2},'
                      f'{int(k % 3 == 0)},{"" if (k + t) % 5 == 0 else t},{k}\n'
                      for k in range(12) for t in range(k % 2, 6)))
    panel = load_panel(io.StringIO(text, newline=""))
    assert len(panel.control_blocks) == 2 and None in {b.tau for b in panel.control_blocks}
    assert np.isnan(panel._blocks[0].covariates).any()
    assert_blocks_are_checked_blocks(panel)


@pytest.mark.parametrize("slice_rows", [1, 4, 1024])
@pytest.mark.parametrize("bad_row, message", [
    ("u11,5,nan,2,0,", "row 36: outcome 'nan' is not finite"),
    ("u11,5,inf,2,0,", "row 36: outcome 'inf' is not finite"),
    ("u11,5,-inf,2,0,", "row 36: outcome '-inf' is not finite"),
    ("u11,3,9.0,2,0,", "row 38: duplicate observation ('u11', 3)"),
    ("u11,5,1.0,99999999999999999999,0,",
     "row 36: treatment date '99999999999999999999' is outside the 64-bit integer range"),
    ("w,5,1.0,-9223372036854775809,0,",
     "row 36: treatment date '-9223372036854775809' is outside the 64-bit integer range"),
])
def test_the_loader_refuses_what_the_block_checks_would_naming_the_row(
        bad_row, message, slice_rows):
    # The loader's blocks are not checked again: these rows' own checks are
    # the only ones that refuse them.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(csvrows, "_SLICE_ROWS", slice_rows)
        assert outcome(lambda: load_panel(io.StringIO(fault_text(bad_row)))) == (
            PanelFormatError, message)


# One bad row per fault kind, then rows that break two checks at once.
BAD_ROWS = {
    "width": "u11,5,1.0,2,0", "time": "u11,x,1.0,2,0,",
    "time_range": "u11,99999999999999999999,1.0,2,0,", "outcome": "u11,5,abc,2,0,",
    "nonfinite": "u11,5,nan,2,0,", "date": "u11,5,1.0,2.5,0,",
    "flag": "u11,5,1.0,2,maybe,", "date_mismatch": "u11,5,1.0,3,0,",
    "flag_mismatch": "u11,5,1.0,2,1,", "duplicate": "u11,3,9.0,2,0,",
    "covariate": "u11,5,1.0,2,0,q", "orphan": "w,1,1.0,,0,",
    "time_and_outcome": "u11,x,abc,2,0,",
    "time_range_and_date_mismatch": "u11,-9223372036854775809,1.0,3,0,", "nonfinite_and_date": "u11,5,inf,2.5,0,",
    "nonfinite_and_covariate": "u11,5,nan,2,0,q", "date_and_flag_mismatch": "u11,5,1.0,3,1,",
    "date_mismatch_and_covariate": "u11,5,1.0,3,0,q", "duplicate_and_covariate": "u11,3,1.0,2,0,q",
    "two_nonfinite": "u11,5,nan,2,0,\nu10,5,-inf,2,0,",
    "two_orphans": "w,1,1.0,,0,\nv,1,1.0,,0,", "early_date_mismatch": "u11,0,1.0,3,0,",
    "blank_then_date_mismatch": " , , , , , \nu11,5,1.0,3,0,",
    "time_underscore": "u11,1_0,1.0,2,0,", "outcome_underscore": "u11,5,1_0.5,2,0,",
    "date_underscore": "u11,5,1.0,2_0,0,", "covariate_underscore": "u11,5,1.0,2,0,1_0",
    "time_non_ascii": "u11,\u0663,1.0,2,0,", "outcome_non_ascii": "u11,5,\u0663,2,0,",
    "date_non_ascii": "u11,5,1.0,\u0662,0,", "covariate_non_ascii": "u11,5,1.0,2,0,\u0663",
    "date_range": "u11,5,1.0,99999999999999999999,0,",
    "date_range_and_flag": "u11,5,1.0,-9223372036854775809,maybe,",
}


def fault_text(bad_row):
    """A valid 12-unit panel with ``bad_row`` near its end."""
    lines = ["unit,time,outcome,treated_at,control_flag,x"]
    for k in range(12):
        for t in range(1, 4):
            lines.append(f"u{k},{t},{k + t / 8},{'' if k % 4 == 0 else 2},"
                         f"{int(k % 4 == 0)},{'' if t == 2 else t}")
    lines.insert(len(lines) - 2, bad_row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("slice_rows", [1, 4, 1024])
@pytest.mark.parametrize("kind", BAD_ROWS)
def test_every_fault_kind_is_refused_like_the_oracle(kind, slice_rows):
    want = assert_loads_like_oracle(fault_text(BAD_ROWS[kind]), slice_rows)
    assert want[0] is PanelFormatError


@pytest.mark.parametrize("slice_rows", [1, 1024])
@pytest.mark.parametrize("row, message", [
    ("u,1_0,1.0,2,1", "time '1_0' is not an integer"),
    ("u,2,1_0.5,2,1", "outcome '1_0.5' is not a number"),
    ("u,2,1.0,2_0,1", "treatment date '2_0' is not an integer"),
    ("u,2,1.0,2,1_0", "covariate 'x' '1_0' is not a number"),
    ("u,1_0,1_0.5,2_0,1_0", "time '1_0' is not an integer"),
    ("u,2,1_0.5,2_0,1_0", "outcome '1_0.5' is not a number"),
])
def test_digit_group_underscores_are_refused(row, message, slice_rows):
    # Python's int and float read "1_0" as 10; the format does not.
    text = f"unit,time,outcome,treated_at,x\nu,1,1.0,2,1\n{row}\n"
    want = assert_loads_like_oracle(text, slice_rows)
    assert want == (PanelFormatError, f"row 3: {message}")


@pytest.mark.parametrize("slice_rows", [1, 1024])
@pytest.mark.parametrize("row, message", [
    ("u,\u0663,1.0,2,1", "time '\u0663' is not an integer"),
    ("u,2,\u0663,2,1", "outcome '\u0663' is not a number"),
    ("u,2,\u0661.5,2,1", "outcome '\u0661.5' is not a number"),
    ("u,2,1.0,\u0662,1", "treatment date '\u0662' is not an integer"),
    ("u,2,1.0,2,\u0663", "covariate 'x' '\u0663' is not a number"),
])
def test_non_ascii_digits_are_refused(row, message, slice_rows):
    # Python's int and float read the Arabic-Indic digit three as 3; the
    # format, like numpy's parser, takes ASCII digits only.
    text = f"unit,time,outcome,treated_at,x\nu,1,1.0,2,1\n{row}\n"
    want = assert_loads_like_oracle(text, slice_rows)
    assert want == (PanelFormatError, f"row 3: {message}")


@pytest.mark.parametrize("slice_rows", [1, 1024])
@pytest.mark.parametrize("date", ["99999999999999999999", " 9223372036854775808",
                                  "-9223372036854775809"])
def test_a_treatment_date_outside_64_bits_is_refused(date, slice_rows):
    # Event times t - tau could not be held; the extremes themselves load.
    text = "unit,time,outcome,treated_at\nu,1,1.0,{}\nu,2,2.0,{}\n"
    assert assert_loads_like_oracle(text.format(2, date), slice_rows) == (
        PanelFormatError, f"row 3: treatment date {date!r} is outside the 64-bit integer range")
    for edge in (2 ** 63 - 1, -2 ** 63):
        panel = assert_loads_like_oracle(text.format(edge, edge), slice_rows)
        assert panel.treated_blocks[0].tau == edge


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_unicode_whitespace_around_a_number_is_allowed(slice_rows):
    text = ("unit,time,outcome,treated_at,x\n"
            "u,\u20031\u2003,\xa01.5\u3000,\u20092\u2009,\u20023\n"
            "u,2,2.5,2,\n")
    panel = assert_loads_like_oracle(text, slice_rows)
    (block,) = panel.treated_blocks
    assert block.outcomes.tolist() == [[1.5, 2.5]] and block.tau == 2


@pytest.mark.parametrize("slice_rows", [1, 1024])
def test_covariate_faults_rank_in_column_order(slice_rows):
    text = "unit,time,outcome,treated_at,z,a\nu,1,1.0,2,1,1\nu,2,1.0,2,q,r\n"
    want = assert_loads_like_oracle(text, slice_rows)
    assert want == (PanelFormatError, "row 3: covariate 'z' 'q' is not a number")


@pytest.mark.parametrize("source", ["path", "stream"])
def test_a_byte_order_mark_before_the_header_is_not_part_of_it(source, tmp_path):
    # Spreadsheets' "CSV UTF-8" starts the text with U+FEFF; its header
    # still names the unit column, by path or by stream.  Only one mark
    # goes: a second is part of the first column's name.
    text = "unit,time,outcome,treated_at\na,1,1.0,2\na,2,2.0,2\nb,1,3.0,2\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    got = load_panel(path if source == "path" else io.StringIO("\ufeff" + text, newline=""))
    assert_same_panel(got, oracle_load(text))
    with pytest.raises(PanelFormatError, match="^missing required column 'unit'$"):
        load_panel(io.StringIO("\ufeff\ufeff" + text))


@pytest.mark.parametrize("schema", [5, ["unit"], {"unit": 3}, {"time": None},
                                    {"covariates": 7}, {"covariates": "x"},
                                    {"covariates": ["x", 1]}])
def test_a_malformed_schema_is_a_config_error(schema):
    text = "unit,time,outcome,treated_at,x\na,1,1.0,2,\n"
    with pytest.raises(ConfigError, match="schema"):
        load_panel(io.StringIO(text), schema=schema)


@pytest.mark.parametrize("schema, error, message", [
    ({"units": "id"}, ConfigError, "unknown schema keys: ['units']"),
    ({"covariates": ["z"]}, PanelFormatError, "missing covariate column 'z'"),
])
def test_a_schema_naming_what_is_not_there_is_refused(schema, error, message):
    text = "unit,time,outcome,treated_at,x\na,1,1.0,2,\n"
    assert outcome(lambda: load_panel(io.StringIO(text), schema=schema)) == (error, message)


@pytest.mark.parametrize("header, schema, repeated", [
    ("unit,time,outcome,treated_at,x,x", None, "x"),
    ("unit,time,outcome,treated_at,time", None, "time"),
    ("unit,time,outcome,treated_at,x,x", {"covariates": ["x"]}, "x"),
    ("id,time,outcome,treated_at,x,x", {"unit": "x", "covariates": []}, "x"),
    ("unit,time,outcome,treated_at,x,x", {"covariates": []}, None),
])
def test_a_column_the_schema_reads_appears_once_in_the_header(header, schema, repeated):
    # Each name the schema reads names one column; repeats it does not
    # read are left alone.
    text = f"{header}\na,1,1.0,3,20,21\na,2,2.0,3,20,21\n"
    got = outcome(lambda: load_panel(io.StringIO(text), schema=schema))
    if repeated is None:
        assert got.covariate_names == ()
    else:
        assert got == (PanelFormatError,
                       f"column {repeated!r} appears more than once in the header")


def test_the_rows_before_a_parse_failure_are_checked_first():
    # An inconsistent date in the first slice beats a bad time in the second.
    n = csvrows._SLICE_ROWS
    lines = ["unit,time,outcome,treated_at"]
    lines += [f"u{i // 4},{i % 4},1.0,5" for i in range(n + 20)]
    lines[11] = "u2,2,1.0,6"
    lines[n + 6] = "u999,x,1.0,5"
    text = "\n".join(lines) + "\n"
    with pytest.raises(PanelFormatError) as info:
        load_panel(io.StringIO(text))
    assert str(info.value) == "row 12: unit 'u2' has inconsistent treatment dates"
    assert outcome(lambda: oracle_load(text)) == (PanelFormatError, str(info.value))


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_a_duplicate_names_its_second_occurrence(slice_rows):
    text = ("unit,time,outcome,treated_at\n"
            "a,1,1.0,3\na,2,2.0,3\nb,1,1.0,3\na,1,9.0,3\nb,2,1.0,3\na,1,8.0,3\n")
    want = assert_loads_like_oracle(text, slice_rows)
    assert want == (PanelFormatError, "row 5: duplicate observation ('a', 1)")


def test_a_reader_error_comes_after_the_rows_before_it():
    text = ("unit,time,outcome,treated_at\na,1,1.0,3\na,2,2.0,4\n"
            "a,3," + "9" * (csv.field_size_limit() + 1) + ",3\n")
    for slice_rows in (1, 1024):
        assert assert_loads_like_oracle(text, slice_rows) == (
            PanelFormatError, "row 3: unit 'a' has inconsistent treatment dates")
    text = text.replace("a,2,2.0,4", "a,2,2.0,3")
    got = assert_loads_like_oracle(text, 1024)
    assert got[0] is csv.Error


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_a_record_longer_than_the_csv_field_limit_is_read_by_numpy(slice_rows):
    # csv's limit is on a field, not a record: a long record of short
    # fields loads, and a field past the limit is csv's error, also when a
    # quoted line break splits it into lines shorter than the limit.
    text = "unit,time,outcome,treated_at\na,1,1.000000000000001,3\na,2,2.0,3\n"
    limit = csv.field_size_limit(20)
    try:
        assert isinstance(assert_loads_like_oracle(text, slice_rows), PanelData)
        got = [assert_loads_like_oracle(text + last, slice_rows)
               for last in ("a,3,1.0000000000000000001,3\n", 'a,3,1.0,"33333333\n333333333333"\n')]
    finally:
        csv.field_size_limit(limit)
    assert got == [(csv.Error, "field larger than field limit (20)")] * 2


def test_a_load_larger_than_one_slice_matches_the_oracle():
    panel = simulate_dgp(DgpSpec(n=300, n_control=120, T=6, tau=3), 4)
    rows = panel_to_csv_text(panel).splitlines()
    rng = np.random.default_rng(0)
    body = [rows[i] for i in rng.permutation(np.arange(1, len(rows)))]
    assert len(body) > csvrows._SLICE_ROWS
    text = "\n".join([rows[0]] + body) + "\n"
    assert_loads_like_oracle(text, csvrows._SLICE_ROWS)


# ---------------------------------------------------------------------------
# the slices numpy reads: record boundaries, blank records, line endings


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(['"', '""', ",", "a", " ", "\n", "\r\n", "\r"]),
                     max_size=30).map("".join),
       slice_rows=st.sampled_from([1, 2, 3, 1024]))
def test_record_starts_are_where_csv_begins_a_record(text, slice_rows):
    # Each slice grows to end with a record, so a quoted line break never
    # splits one, and its starts are the lines where ``csv`` begins a record.
    reader = csv.reader(io.StringIO(text, newline=""))
    ends = [0]
    try:
        for _ in reader:
            ends.append(reader.line_num)
    except csv.Error:
        return
    fh, got, offset = io.StringIO(text, newline=""), [], 0
    while lines := list(islice(fh, slice_rows)):
        got += [offset + i for i in csvrows._records(lines, 0, fh)[1]]
        offset += len(lines)
    assert got == ends[:-1]


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
@pytest.mark.parametrize("bad", ["", "b,x,1.0,3\n"])
def test_a_quoted_line_break_across_a_slice_boundary(bad, slice_rows):
    # Records 3 and 4 each span two lines; row numbers count records.
    text = ('unit,time,outcome,treated_at\na,1,1.0,3\n"b\nc",1,2.0,3\n'
            '"b\r\nc",2,2.5,3\na,2,1.5,3\n' + bad)
    want = assert_loads_like_oracle(text, slice_rows)
    if bad:
        assert want == (PanelFormatError, "row 6: time 'x' is not an integer")
    else:
        ids = [uid for b in want.treated_blocks for uid in b.unit_ids.tolist()]
        assert ids == ["a", "b\nc", "b\r\nc"]


@pytest.mark.parametrize("slice_rows", [1, 2, 3, 1024])
def test_a_quoted_line_break_in_the_last_field_across_a_slice_boundary(slice_rows):
    # numpy reads a slice that ends inside a quote as if the quote closed
    # there: x would be blank, so that slice must grow to the record's end.
    text = ('unit,time,outcome,treated_at,x\na,1,1.0,3,"\n1"\n'
            'a,2,2.0,3,2\nb,1,1.0,3,"\n"\nb,2,2.0,3,"4\n"\n')
    want = assert_loads_like_oracle(text, slice_rows)
    np.testing.assert_array_equal(want.treated_blocks[0].covariates[:, :, 0],
                                  [[1.0, 2.0], [math.nan, 4.0]])


BLANKS = ["\n", "\r\n", "   \n", "\t\n", " , ,\n", ",,,\n", " , , , \n", '""\n', '" ",,,\n']


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_blank_records_count_in_the_row_number_of_a_date_mismatch(slice_rows):
    # numpy skips an empty line and refuses the other blank records, which
    # the load drops before numpy reads the slice again.
    head = "unit,time,outcome,treated_at\na,1,1.0,3\n"
    assert_loads_like_oracle(head + "".join(BLANKS) + "a,2,1.0,3\n", slice_rows)
    want = assert_loads_like_oracle(head + "".join(BLANKS) + "a,2,1.0,4\n", slice_rows)
    assert want == (PanelFormatError,
                    f"row {3 + len(BLANKS)}: unit 'a' has inconsistent treatment dates")


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_carriage_return_line_endings(slice_rows):
    text = "unit,time,outcome,treated_at\ra,1,1.0,3\r\ra,2,2.0,3\rb,1,3.0,3\r"
    assert isinstance(assert_loads_like_oracle(text, slice_rows), PanelData)
    want = assert_loads_like_oracle(text + "b,1,4.0,3\r", slice_rows)
    assert want == (PanelFormatError, "row 6: duplicate observation ('b', 1)")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
@pytest.mark.parametrize("after", ["", "\n", "\r\n\r\n\n"])
def test_a_header_without_rows_is_refused_without_a_warning(after, slice_rows):
    # numpy warns of a slice of empty lines; the warning stays inside.
    want = assert_loads_like_oracle("unit,time,outcome,treated_at\n" + after, slice_rows)
    assert want == (PanelFormatError, "input has a header but no data rows")


def test_what_numpy_refuses_is_never_accepted(monkeypatch):
    # The checks that name faults never accept a record: a slice that
    # numpy refuses though no check finds its fault still fails the load.
    monkeypatch.setattr(csvrows, "_loadtxt", lambda *args, **kwargs: None)
    with pytest.raises(PanelFormatError,
                       match="^rows 2 to 3: a record is not in the panel format$"):
        load_panel(io.StringIO("unit,time,outcome,treated_at\na,1,1.0,3\na,2,2.0,3\n"))


@pytest.mark.parametrize("blank", ["", '"",""\n'])
@pytest.mark.parametrize("bad", ["", "x"])
def test_a_refused_quoted_slice_is_walked_by_csv_once(bad, blank, monkeypatch):
    # One csv walk finds the records, the blank one that numpy refuses
    # and any fault; numpy reads the slice again only without a blank one.
    text = f'unit,time,outcome,treated_at\n"a",1,1.0,3\n{blank}"b\nc",1{bad},2.0,3\n'
    readers, reads = [], []
    reader, loadtxt = csv.reader, csvrows._loadtxt

    def reader_spy(*args, **kwargs):
        readers.append(sys._getframe(1).f_code.co_name)
        return reader(*args, **kwargs)

    def loadtxt_spy(*args, **kwargs):
        reads.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader_spy)
    monkeypatch.setattr(csvrows, "_loadtxt", loadtxt_spy)
    got = outcome(lambda: load_panel(io.StringIO(text, newline="")))
    monkeypatch.undo()
    assert readers == ["read_rows", "_records"] and len(reads) == 1 + bool(blank)
    if bad:
        assert got == (PanelFormatError, f"row {3 + bool(blank)}: time '1x' is not an integer")
    else:
        assert [b.unit_ids.tolist() for b in got.treated_blocks] == [["a", "b\nc"]]


@pytest.mark.parametrize("schema", [{"unit": "time"}, {"outcome": "time"},
                                    {"treated_at": "outcome"}, {"control_flag": "time"},
                                    {"covariates": ["time", "outcome"]}])
@pytest.mark.parametrize("last", ["", "b,1,2.5,4\n", "b,1e0,2.5,4\n", "b,2,inf,4\n"])
def test_a_time_or_outcome_column_read_as_another_field_too(schema, last):
    # numpy reads the column once more for each other type it is read as.
    text = "unit,time,outcome,treated_at\na,1,1.0,3\na,2,3.25,3\n" + last
    got = outcome(lambda: load_panel(io.StringIO(text, newline=""), schema=schema))
    want = outcome(lambda: oracle_load(text, schema))
    if isinstance(want, PanelData):
        assert isinstance(got, PanelData), got
        assert_same_panel(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# runs of equal values: parsed once a run, sorted only when out of order


def _sorted_rows_sorts(text, slice_rows, monkeypatch):
    """(what the load gives, as ``outcome``, whether ``sorted_rows`` sorted)."""
    callers, lexsort = [], np.lexsort

    def spy(keys, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", spy)
    monkeypatch.setattr(csvrows, "_SLICE_ROWS", slice_rows)
    got = outcome(lambda: load_panel(io.StringIO(text, newline="")))
    monkeypatch.undo()
    return got, "sorted_rows" in callers


@pytest.mark.parametrize("slice_rows", [1, 2, 3, 1024])
@pytest.mark.parametrize("field, bad, message", [
    (3, "2.5", "treatment date '2.5' is not an integer"),
    (4, "maybe", "bad control flag 'maybe'"),
])
def test_a_bad_value_repeated_across_slice_boundaries_names_its_first_row(
        field, bad, message, slice_rows):
    # Unit b's rows 5 to 8 hold the same bad string, a run that crosses a
    # slice boundary at every slice size below 4; unit d holds it again.
    rows = [[uid, str(t), "1.0", "2", "0"] for uid, n in (("a", 3), ("b", 4), ("c", 2), ("d", 2))
            for t in range(1, n + 1)]
    for row in rows:
        if row[0] in "bd":
            row[field] = bad
    text = "unit,time,outcome,treated_at,control_flag\n" + "".join(
        ",".join(row) + "\n" for row in rows)
    assert assert_loads_like_oracle(text, slice_rows) == (PanelFormatError, f"row 5: {message}")


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_a_unit_whose_rows_come_in_two_runs(slice_rows, monkeypatch):
    # a's date is spelled two ways, one a run; its rows are sorted together.
    text = ("unit,time,outcome,treated_at\n"
            "a,3,1.0,3\na,1,2.0,3\nb,1,3.0,3\nb,2,4.0,3\na,2,5.0, 03\na,4,6.0, 03\n")
    want = assert_loads_like_oracle(text, slice_rows)
    assert [b.unit_ids.tolist() for b in want.treated_blocks] == [["a"], ["b"]]
    np.testing.assert_array_equal(want.treated_blocks[0].outcomes, [[2.0, 5.0, 1.0, 6.0]])
    assert _sorted_rows_sorts(text, slice_rows, monkeypatch)[1]
    text = text.replace(" 03", " 04")
    assert assert_loads_like_oracle(text, slice_rows) == (
        PanelFormatError, "row 6: unit 'a' has inconsistent treatment dates")


@pytest.mark.parametrize("slice_rows", [1, 3, 1024])
def test_rows_are_sorted_only_when_out_of_order(slice_rows, monkeypatch):
    rows = [f"u{k},{t},{k + t / 4},3" for k in range(4) for t in range(1, 6)]
    text = "unit,time,outcome,treated_at\n" + "\n".join(rows) + "\n"
    got, sorted_ = _sorted_rows_sorts(text, slice_rows, monkeypatch)
    assert_same_panel(got, oracle_load(text))
    assert not sorted_
    rows[12], rows[13] = rows[13], rows[12]  # u2's times 3 and 4
    text = "unit,time,outcome,treated_at\n" + "\n".join(rows) + "\n"
    got, sorted_ = _sorted_rows_sorts(text, slice_rows, monkeypatch)
    assert_same_panel(got, assert_loads_like_oracle(text, slice_rows))
    assert sorted_


@pytest.mark.parametrize("slice_rows", [1, 2, 1024])
def test_an_adjacent_duplicate_in_rows_that_are_in_order(slice_rows, monkeypatch):
    text = "unit,time,outcome,treated_at\na,1,1.0,3\na,2,2.0,3\na,2,2.5,3\nb,1,1.0,3\n"
    want = assert_loads_like_oracle(text, slice_rows)
    assert want == (PanelFormatError, "row 4: duplicate observation ('a', 2)")
    assert _sorted_rows_sorts(text, slice_rows, monkeypatch) == (want, False)


# ---------------------------------------------------------------------------
# write_panel -> load_panel round trip


@st.composite
def random_panels(draw):
    # Ids and covariate names hold every character a CSV field quotes for.
    n_cov = draw(st.integers(0, 2))
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    units = []
    for k in range(draw(st.integers(1, 8))):
        control = draw(st.booleans())
        tau = None if control and draw(st.booleans()) else draw(st.integers(-20, 20))
        times = sorted(draw(st.lists(st.integers(-10, 30), min_size=1, max_size=9,
                                     unique=True)))
        n = len(times)
        cov = None
        if n_cov and draw(st.integers(0, 3)):
            cov = np.array(draw(st.lists(st.one_of(floats, st.just(math.nan)),
                                         min_size=n * n_cov, max_size=n * n_cov)))
            cov = cov.reshape(n, n_cov)
        units.append(UnitSeries(
            draw(st.sampled_from(["u", "v,w", 'x"y', "z z", "a\rb", "c\nd", '",\r\n'])) + str(k),
            np.array(times), np.array(draw(st.lists(floats, min_size=n, max_size=n))),
            tau=tau, is_control=control, covariates=cov))
    odd = st.sampled_from(["", ",", '"', "\r", "\n", ' "a,\r\nb"'])
    return PanelData(draw(st.permutations(units)),
                     covariate_names=[f"x{j}" + draw(odd) for j in range(n_cov)])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(panel=random_panels(), slice_rows=st.sampled_from([1, 3, 1024]))
def test_write_load_round_trip_is_bit_exact(panel, slice_rows, tmp_path_factory):
    path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
    write_panel(panel, path)
    stream = io.StringIO(newline="")
    write_panel(panel, stream)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.read() == stream.getvalue()
    stream.seek(0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(csvrows, "_SLICE_ROWS", slice_rows)
        loaded = load_panel(path)
        assert_same_panel(load_panel(stream), panel)
    assert_same_panel(loaded, panel)
    for got, want in zip(loaded.units, panel.units):
        assert got.unit_id == want.unit_id and got.tau == want.tau
        assert got.outcomes.tobytes() == want.outcomes.tobytes()


# ---------------------------------------------------------------------------
# the CLI commands and the panel transforms never build UnitSeries on a loaded panel


def test_cli_estimators_run_on_a_loaded_panel_without_unit_series(tmp_path, monkeypatch):
    panel = simulate_dgp(DgpSpec(n=60, n_control=30, T=9, tau=5, include_ar=True,
                                 rho=0.3, true_att=0.5), 3)
    simulated = panel_to_csv_text(panel)
    text = simulated.splitlines()
    # A second, later cohort and a late starter make the panel staggered.
    text += [f"s{i},{t},{0.1 * i + t},6,0" for i in range(12) for t in range(1, 10)]
    text += [f"late,{t},{t / 3},6,0" for t in range(5, 10)]
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")

    def refuse(self):
        raise AssertionError("UnitSeries built")

    monkeypatch.setattr(panel_module.UnitSeries, "__post_init__", refuse)
    loaded = load_panel(path)
    assert len(loaded) == 103 and len(loaded.treated_blocks) == 3
    for argv in (["estimate", "--q", "1", "--r", "3", "--h", "1", "2"],
                 ["estimate", "--estimator", "mb", "--q", "1", "--r", "3"],
                 ["placebo", "--q", "0", "1", "--r", "3", "--lags", "0", "1", "2"],
                 ["dfat", "--q", "1", "--r", "3", "--h", "1", "2"],
                 ["validate", "--q", "1", "--r", "4", "--delta", "1"]):
        out = tmp_path / "out.json"
        assert main(argv + ["--input", str(path), "--out-json", str(out),
                            "--out-csv", str(tmp_path / "out.csv")]) == 0
        assert out.stat().st_size > 0
    # Both writers work from the blocks: the loaded panel writes back the
    # file it was read from, and a simulated panel writes as it did above.
    for written, want in ((loaded, path.read_text(encoding="utf-8")),
                          (panel, simulated)):
        assert panel_to_csv_text(written) == want
        write_panel(written, tmp_path / "written.csv")
        assert (tmp_path / "written.csv").read_text(encoding="utf-8") == want
    # s3's shifted date joins it to the simulated cohort.
    shifted = apply_anticipation(loaded, {"s3": 1, "late": 1})
    assert [b.unit_ids.size for b in shifted.treated_blocks] == [61, 11, 1]
    event_time = reindex_time_to_adoption(shifted)
    assert [b.times[0] for b in event_time.treated_blocks] == [-4, -5, 0]
