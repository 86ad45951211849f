"""Command-line interface: parsing, commands, formats, exit codes."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import pathlib
import pickle
import random
import shutil
import subprocess
import sys
import threading
import tracemalloc
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import engineers_case as case
from fnnmadm import (
    DecisionMatrix,
    DegenerateCloseness,
    FnnnGenConfig,
    MembershipOutOfRange,
    ParseError,
    PipelineConfig,
    cli,
    gen_fnnn,
    gen_weights,
    lambda_sweep,
    normalize,
    pipeline,
    rank,
    run_pipeline,
)
from fnnmadm.cli import (
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_problem,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E5_FIRST = "E5 >= E2 >= E4 >= E3 >= E1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# problem parsing


def test_parse_problem_engineers(engineers_csv_path):
    dm = parse_problem(engineers_csv_path)
    assert dm.alternatives == case.ALTERNATIVES
    assert dm.attributes == case.ATTRIBUTES
    assert dm.weights == pytest.approx(case.WEIGHTS)
    assert dm.n_alternatives == 5 and dm.n_attributes == 4
    cell = dm.cells[0][0]
    assert (cell.eta, cell.xi, cell.t, cell.i, cell.f) == (0.85, 0.5, 0.88, 0.8, 0.8)


def test_parse_problem_json_roundtrip(engineers_csv_path, tmp_path):
    dm = parse_problem(engineers_csv_path)
    doc = {
        "alternatives": list(dm.alternatives),
        "attributes": list(dm.attributes),
        "weights": list(dm.weights),
        "cells": [
            {"eta": c.eta, "xi": c.xi, "t": c.t, "i": c.i, "f": c.f}
            for row in dm.cells
            for c in row
        ],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    dm2 = parse_problem(str(path))
    assert dm2 == dm


def test_parse_problem_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert "empty" in err


def test_parse_problem_bad_cell_arity(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("alt,x\nE1,0.5;0.5;0.5\nweights,1\n")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert "5" in err


def test_parse_problem_cubic_sum_violation(tmp_path, capsys):
    path = tmp_path / "cubic.csv"
    path.write_text("alt,x\nE1,0.5;0.5;0.95;0.95;0.95\nweights,1\n")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert "exceeds" in err


@pytest.mark.parametrize(
    "field, value",
    [("weights", ["abc"]), ("weights", 5), ("weights", [None]), ("weights", "1"),
     ("alternatives", "AB"), ("cells", 5)],
)
def test_malformed_json_fields_are_data_errors(tmp_path, capsys, field, value):
    cell = {"eta": 1, "xi": 1, "t": 0.5, "i": 0.5, "f": 0.5}
    doc = {"alternatives": ["A", "B"], "attributes": ["x"], "weights": [1], "cells": [cell] * 2}
    doc[field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert field in err


def _one_cell_json(eta="1", weight="1"):
    return ('{"alternatives": ["A"], "attributes": ["x"], "weights": [%s], "cells": '
            '[{"eta": %s, "xi": 1, "t": 0.5, "i": 0.5, "f": 0.5}]}' % (weight, eta))


@pytest.mark.parametrize(
    "weights, validate_code",
    [("0", EXIT_DATA), ("false", EXIT_DATA), ('""', EXIT_DATA), ("[]", EXIT_DATA),
     ("null", EXIT_OK)],
)
def test_only_null_json_weights_mean_no_weights(tmp_path, capsys, weights, validate_code):
    path = tmp_path / "problem.json"
    path.write_text(_one_cell_json().replace('"weights": [1]', f'"weights": {weights}'))
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert ("no weights" in err) == (weights == "null")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == validate_code
    if weights == "[]":
        assert "invalid weights" in out


def test_empty_problem_is_a_data_error_for_validate_as_for_rank(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"alternatives": [], "attributes": ["x"], "cells": [], "weights": [1]}')
    for command in ("rank", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_DATA, command
        assert err == "error: need at least one alternative and one attribute\n"
        assert out == ""


HUGE_INT = "1" + "0" * 400  # too large for a float
LONG_INT = "1" * 5000  # over int's 4300-digit conversion limit


@pytest.mark.parametrize(
    "text",
    [_one_cell_json(eta=HUGE_INT), _one_cell_json(weight=HUGE_INT),
     _one_cell_json(eta=LONG_INT), "[" * 100_000],
    ids=["huge-int-cell", "huge-int-weight", "5000-digit-int", "deep-nesting"],
)
def test_unconvertible_json_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    with pytest.raises(ParseError):
        parse_problem(str(path))
    for command in ("rank", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_DATA
        assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize(
    "text, where",
    [(_one_cell_json(eta="true"), "cell object 0 ('A', 'x'): "),
     (_one_cell_json(weight="true"), "weights"), (_one_cell_json(weight="false"), "weights")],
    ids=["true-cell", "true-weight", "false-weight"],
)
def test_a_json_boolean_cell_field_or_weight_is_a_data_error(tmp_path, capsys, text, where):
    # float read true as 1.0, and rank exited 0
    path = tmp_path / "problem.json"
    path.write_text(text)
    for command in ("rank", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (EXIT_DATA, ""), command
        assert where in err and "true and false are no numbers" in err, command


@pytest.mark.parametrize(
    "text",
    [
        "alt,x\nA,1;1;0.5;0.5;0.5\nA,1;1;0.5;0.5;0.5\nweights,1\n",
        "alt,x,x\nA,1;1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\nweights,0.5,0.5\n",
    ],
)
def test_duplicate_labels_are_data_errors(tmp_path, capsys, text):
    path = tmp_path / "dup.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert "twice" in err
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_DATA
    assert "twice" in out


@pytest.mark.parametrize(
    "content",
    [b"alt,x\n\xff\xfe,1;1;0.5;0.5;0.5\nweights,1\n",  # not UTF-8
     b"alt,x\nA," + b"1" * 200_000 + b";1;0.5;0.5;0.5\nweights,1\n"],  # over csv's field limit
    ids=["not-utf8", "field-too-large"],
)
def test_unreadable_csv_is_data_error(tmp_path, capsys, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert str(path) in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "rank", "/nonexistent/problem.csv")
    assert code == EXIT_DATA


ONE_CELL = "1;1;0.5;0.5;0.5"


@pytest.mark.parametrize(
    "name, text, place",
    [
        ("header.csv", f"alt\nA,{ONE_CELL}\n", "(row 1)"),
        ("weights.csv", f"alt,x\nA,{ONE_CELL}\nweights,0.5,0.5\n", "(row 3)"),
        ("no-rows.csv", "alt,x\nweights,1\n", "no alternative rows found"),
        ("ragged.csv", f"alt,x,y\nA,{ONE_CELL}\nweights,0.5,0.5\n", "(row 2)"),
        ("cells.json", '{"alternatives": ["A"], "attributes": ["x", "y"], "cells": []}',
         "expected 2 cells (row-major), got 0"),
        ("fields.json", '{"alternatives": ["A"], "attributes": ["x", "y"], "cells": '
         '[{"eta": 1, "xi": 1, "t": 0.5, "i": 0.5, "f": 0.5}, {"eta": 1}]}',
         "error: cell object 1 ('A', 'y'): 'xi'\n"),  # by its index and labels: no row or column
        ("label.json", '{"alternatives": ["A, x)\\n"], "attributes": ["\\u001b[2J"], "cells": '
         '[{"eta": 1}]}', "error: cell object 0 ('A, x)\\n', '\\x1b[2J'): 'xi'\n"),  # escaped
    ],
)
def test_reader_errors_name_their_place(tmp_path, capsys, name, text, place):
    path = tmp_path / name
    path.write_text(text)
    for command in ("rank", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_DATA and out == "", command
        assert err.startswith("error: ") and place in err, command


# ---------------------------------------------------------------------------
# building the matrix: one check of a file, on the reader's rows as they are

READ_FILES = ["demos/engineers.csv", "tests/golden/seeded_12x6.csv",
              "tests/golden/quoted_crlf.csv", "tests/golden/awkward_labels.json"]


def _count_calls(monkeypatch, module, name, calls):
    made = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return made(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv, code", [
    (["rank", "demos/engineers.csv", "--format", "json"], EXIT_OK),
    (["sweep", "tests/golden/seeded_12x6.csv", "--lambda-range", "1..3"], EXIT_OK),
    (["rank", "demos/engineers.csv", "--weights", "1,1,1,1"], EXIT_USAGE),
    (["rank", "tests/golden/several_problems.csv"], EXIT_DATA),
    (["rank", "<weights off by 0.1>"], EXIT_DATA),
])
def test_the_cli_checks_a_file_once_and_reads_no_number_again(
        argv, code, tmp_path, capsys, monkeypatch):
    if argv[1].startswith("<"):
        argv[1] = str(tmp_path / "off.csv")
        pathlib.Path(argv[1]).write_text(f"alt,x,y\nA,{ONE_CELL},{ONE_CELL}\nweights,0.5,0.4\n")
    monkeypatch.chdir(ROOT)
    calls = []
    _count_calls(monkeypatch, pipeline, "_read_rows", calls)
    for module in (pipeline, cli):  # the constructor's name and the CLI's
        _count_calls(monkeypatch, module, "_problems", calls)
    assert run_cli(capsys, *argv)[0] == code
    assert calls == ["_problems"]


@pytest.mark.parametrize("path", READ_FILES)
def test_the_cli_builds_the_matrix_the_constructor_makes(path):
    raw = cli._read_raw(str(ROOT / path))
    built, made = cli._build_matrix(raw), DecisionMatrix(*raw)
    assert type(built) is type(made) is DecisionMatrix
    assert built == made and hash(built) == hash(made)
    assert vars(built) == vars(made) and pickle.dumps(built) == pickle.dumps(made)
    assert built.normalized is made.normalized is False
    assert repr(normalize(built).rows) == repr(normalize(made).rows)  # bit for bit
    assert normalize(built) is normalize(built)  # the raw matrix keeps its copy


@pytest.mark.parametrize("path", [*READ_FILES, "<a JSON field written as 1>"])
def test_both_readers_give_only_exact_floats(path, tmp_path):
    if path.startswith("<"):
        path = tmp_path / "ints.json"
        path.write_text('{"alternatives": ["A"], "attributes": ["x"], "weights": [1], '
                        '"cells": [{"eta": 1, "xi": 2, "t": 0, "i": 1, "f": 0}]}')
    raw = cli._read_raw(str(ROOT / path))
    assert type(raw.rows) is tuple and {*map(type, raw.rows)} == {tuple}
    channels = [*chain.from_iterable(raw.rows)]
    assert {*map(type, channels)} == {tuple}
    assert {*map(type, chain.from_iterable(channels))} == {*map(type, raw.weights)} == {float}


TWICE = "alternative label 'A' appears twice"


@pytest.mark.parametrize("text, flags, first", [
    # a cell fault comes before a fault of --weights
    (f"alt,x,y\nA,{ONE_CELL},1;1;1.5;.5;.5\nweights,.5,.5\n", ["--weights", "1,2,3"],
     "invalid cell at (A, y): t = 1.5 is outside [0, 1]"),
    # a cell fault, or a repeated label, comes before a weight that underflows when rescaled
    (f"alt,x,y\nA,0;1;.5;.5;.5,{ONE_CELL}\nweights,1e-300,1e300\n", ["--renormalize-weights"],
     "invalid cell at (A, x): eta = 0.0 must be > 0 for normalization"),
    (f"alt,x,y\nA,{ONE_CELL},{ONE_CELL}\nA,{ONE_CELL},{ONE_CELL}\n",
     ["--weights", "1e-300,1e300", "--renormalize-weights"], TWICE),
    # a repeated label comes before a missing weights row
    (f"alt,x\nA,{ONE_CELL}\nA,{ONE_CELL}\n", [], TWICE),
])
def test_rank_reports_the_first_fault_in_the_order_validate_lists(
        tmp_path, capsys, text, flags, first):
    path = tmp_path / "problem.csv"
    path.write_text(text)
    assert run_cli(capsys, "rank", str(path), *flags) == (EXIT_DATA, "", f"error: {first}\n")
    _, listed, _ = run_cli(capsys, "validate", str(path))
    assert listed.splitlines()[0].endswith(first.removeprefix("invalid cell at "))


# ---------------------------------------------------------------------------
# the CSV row reader: one split and one float pass per data row, the
# per-cell reader for a row that pass cannot take

FIELD = st.one_of(
    st.floats().map(repr),
    st.floats(0.0, 1.0).map(lambda v: f"{v:.3e}"),
    st.sampled_from(["1", "+0.5", "-0", "1E3", "nan", "-inf", "1_000", ".5", "5."]),
).flatmap(lambda text: st.sampled_from([text, f" {text}", f"{text}\t ", f"  {text}  "]))
GOOD_CELL = st.lists(FIELD, min_size=5, max_size=5).map(";".join)
# 4 and 6 fields, an empty field, a literal "|", padded faults and non-numbers
BAD_CELL = st.sampled_from([
    "1;1;0.5;0.5", "1;1;0.5;0.5;0.5;0.5", "", "|", "1;;0.5;0.5;0.5", "1;|;0.5;0.5;0.5",
    "1;1; ;0.5;0.5", " x ;1;0.5;0.5;0.5", "1;1;0.5;0.5; abc ", "1 1;1;0.5;0.5;0.5", "1;1;0.5;0.5;0x1",
])


def write_rows(path, rows):
    """A problem file of the given rows of cell texts, without weights."""
    header = "alt," + ",".join(f"C{j}" for j in range(len(rows[0])))
    path.write_text("\n".join([header] + [f"A{k}," + ",".join(cells) for k, cells in enumerate(rows)]))


def hexes(rows):
    return [[[v.hex() for v in column] for column in row] for row in rows]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(GOOD_CELL, min_size=m, max_size=m), min_size=1, max_size=3)))
def test_the_row_reader_reads_each_field_as_the_cell_reader_does(tmp_path, rows):
    write_rows(tmp_path / "rows.csv", rows)
    raw = cli._read_csv_problem(str(tmp_path / "rows.csv"))
    cells = [[cli._parse_cell(cell, r, c) for c, cell in enumerate(row, start=2)]
             for r, row in enumerate(rows, start=2)]
    assert hexes(raw.rows) == hexes([tuple(zip(*row)) for row in cells])


def first_fault(cells, r):
    for c, cell in enumerate(cells, start=2):
        try:
            cli._parse_cell(cell, r, c)
        except ParseError as e:
            return e
    raise AssertionError(f"no faulty cell in {cells!r}")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# a cell of 4 fields and one of 6 hold the 10 fields of two cells between them
@example(cells=["1;1;0.5;0.5", "1;1;0.5;0.5;0.5;0.5"], at=0, bad="1;1;0.5;0.5")
@example(cells=["1;1;0.5;0.5;0.5", "1;1;0.5;0.5;0.5;0.5"], at=2, bad="1;1;0.5;0.5")
@given(cells=st.lists(GOOD_CELL | BAD_CELL, max_size=3), at=st.integers(0, 3), bad=BAD_CELL)
def test_a_faulty_row_raises_the_cell_readers_error(tmp_path, cells, at, bad):
    cells = cells[:at] + [bad] + cells[at:]
    write_rows(tmp_path / "rows.csv", [[ONE_CELL] * len(cells), cells])
    expected = first_fault(cells, 3)
    with pytest.raises(ParseError) as caught:
        cli._read_csv_problem(str(tmp_path / "rows.csv"))
    e = caught.value
    assert (str(e), e.reason, e.row, e.col) == (str(expected), expected.reason, 3, expected.col)


# files with two faults each, or one at a row that blank rows do not count: the
# fault reported is the first in file order, a weights row's met at the end
TWO_FAULTS = {
    "row-then-weights": (f"alt,x\nA,{ONE_CELL},{ONE_CELL}\nB,{ONE_CELL}\nweights,0.5,0.5\n",
                         "row has 2 cells, expected 1 (row 2)"),
    "row-then-weights-number": ("alt,x\nA,1;1\nweights,abc\n",
                                "cell '1;1' must have 5 ';'-separated fields eta;xi;t;i;f "
                                "(row 2, column 2)"),
    "header-then-weights": (f"alt\nA,{ONE_CELL}\nweights,1,2\n",
                            "header must be 'alt,<attr1>,...,<attrm>' (row 1)"),
    "two-rows": (f"alt,x\nA,{ONE_CELL};1\nB,x;1;0.5;0.5;0.5\nweights,1\n",
                 f"cell '{ONE_CELL};1' must have 5 ';'-separated fields eta;xi;t;i;f (row 2, column 2)"),
    "last-row-after-blank-rows": (f"alt,x\n\nA,{ONE_CELL}\n  ,  \nB,{ONE_CELL},{ONE_CELL}\n",
                                  "row has 2 cells, expected 1 (row 3)"),
    # text is decoded in blocks as it is read, so a byte near the start is met first
    "header-then-undecodable": (f"alt\nA,{ONE_CELL}\nB,\udcff\n",
                                "<path>: 'utf-8' codec can't decode byte 0xff in position 24: "
                                "invalid start byte"),
    "row-then-undecodable": ("alt,x\nA,1;1\nB,\udcff\n",
                             "<path>: 'utf-8' codec can't decode byte 0xff in position 14: "
                             "invalid start byte"),
    # and one more than 1 MiB on is never decoded
    "row-then-far-undecodable": ("alt,x\nA,1;1\n" + f"B,{ONE_CELL}\n" * 60_000 + "C,\udcff\n",
                                 "cell '1;1' must have 5 ';'-separated fields eta;xi;t;i;f "
                                 "(row 2, column 2)"),
}


@pytest.mark.parametrize("name", sorted(TWO_FAULTS))
def test_the_csv_reader_reports_the_first_fault_in_file_order(tmp_path, name):
    text, expected = TWO_FAULTS[name]
    path = tmp_path / "two-faults.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as caught:
        cli._read_raw(str(path))
    assert str(caught.value).replace(str(path), "<path>") == expected


def test_the_csv_reader_reads_no_row_after_a_faulty_data_row(tmp_path, monkeypatch):
    # a faulty row 2 of a 5000 x 20 file was raised once the whole file was read
    path = tmp_path / "long.csv"
    write_seeded_csv(path, 1000, 3)
    lines = path.read_text().splitlines()
    lines[2] = "A1,1;1,1;1,1;1"  # data row 3
    path.write_text("\n".join(lines) + "\n")
    csv_rows, read = cli._csv_rows, []

    def counted(fh):
        for row in csv_rows(fh):
            read.append(row)
            yield row

    monkeypatch.setattr(cli, "_csv_rows", counted)
    with pytest.raises(ParseError, match=r"^cell '1;1' .* \(row 3, column 2\)$"):
        cli._read_csv_problem(str(path))
    assert len(read) == 4  # the header, rows 2 and 3, and row 4, which row 3 was held back for


def write_seeded_csv(path, n, m, seed=7):
    """An n x m problem file of seeded values and weights."""
    values = gen_fnnn(FnnnGenConfig(seed=seed), n * m)
    lines = ["alt," + ",".join(f"C{j}" for j in range(m))]
    for k in range(n):
        cells = values[k * m:(k + 1) * m]
        lines.append(f"A{k}," + ",".join(";".join(map(repr, (v.eta, v.xi, v.t, v.i, v.f)))
                                          for v in cells))
    lines.append("weights," + ",".join(map(repr, gen_weights(random.Random(seed), m))))
    path.write_text("\n".join(lines) + "\n")


def test_the_csv_reader_holds_no_row_lists_beside_what_it_returns(tmp_path):
    # every csv.reader row was kept until the last was read: on 500 x 20 the
    # peak was 1.9 times what the returned problem holds
    path = tmp_path / "500x20.csv"
    write_seeded_csv(path, 500, 20)
    gc.collect()
    tracemalloc.start()
    try:
        raw = cli._read_raw(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(raw.rows) == 500 and len(raw.weights) == 20
    assert peak <= 1.25 * held, (peak, held)


# the characters special to csv, one its default dialect reads as text (";"), and
# "\x0b", "\x85" and "\u2028", which split str.splitlines but not a file's lines
CSV_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "\0", ";", " ", "a", "1",
                                    "\x0b", "\x85", "\u2028", "é"]), max_size=40)


def csv_outcome(read, text):
    """The rows ``read`` yields from ``text``, or the message of its csv.Error."""
    try:
        return list(read(io.StringIO(text, newline="")))
    except csv.Error as e:
        return f"csv.Error: {e}"


@settings(max_examples=500, deadline=None)
@example(text="\n", limit=None)
@example(text="a\0b,c\n", limit=None)  # csv rejects a NUL before 3.11 and keeps it after
@example(text="a,b\r\nc", limit=None)
@example(text='a,b\n"c\nd",e\n', limit=None)  # a quoted field over two lines after a plain line
@example(text="a,b\nc", limit=None)  # the last line has no "\n"
@example(text="abcd\n", limit=4)  # longer than the limit, its field is not
@example(text="abcde\n", limit=4)
@given(text=CSV_TEXT, limit=st.none() | st.integers(1, 8))
def test_csv_rows_are_the_rows_csv_reader_yields(text, limit):
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        assert csv_outcome(cli._csv_rows, text) == csv_outcome(csv.reader, text)
    finally:
        csv.field_size_limit(default)


PLAIN_LABELS = ("A", "B", "C")


def read_or_fault(path):
    """The problem in ``path`` with its floats as hex, or its ParseError's message, row and column."""
    try:
        raw = cli._read_raw(str(path))
    except ParseError as e:
        return str(e), e.row, e.col
    return raw._replace(rows=hexes(raw.rows), weights=[w.hex() for w in raw.weights])


@pytest.mark.parametrize("fault", [False, True], ids=["valid", "faulty"])
@pytest.mark.parametrize("alternatives", [PLAIN_LABELS, ("A", "Smith, J.", 'B"q')],
                         ids=["plain-labels", "quoted-labels"])
def test_a_problem_reads_the_same_whatever_its_line_ends_and_quoting(tmp_path, alternatives, fault):
    # "\n" and plain labels: every line is split on ","; "\n" and quoted labels: csv.reader
    # reads from the first quoted row on; "\r\n": csv.reader reads every line
    cells = [";".join(map(repr, (v.eta, v.xi, v.t, v.i, v.f)))
             for v in gen_fnnn(FnnnGenConfig(seed=3), 6)]
    rows = [["alt", "x", "y"], [alternatives[0], *cells[0:2]], [],
            [alternatives[1], *cells[2:4]], [alternatives[2], *cells[4:6]],
            ["weights", "0.25", "0.75"]]
    if fault:  # at row 4, as the blank row is not counted
        rows[4][2] = "1;1;0.5;0.5"
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    for path, ends in ((lf, "\n"), (crlf, "\r\n")):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator=ends).writerows(rows)
    text = lf.read_text(encoding="utf-8")
    assert ('"' in text) == (alternatives != PLAIN_LABELS) and "\r" not in text
    got = read_or_fault(lf)
    assert got == read_or_fault(crlf)
    if fault:
        assert got == ("cell '1;1;0.5;0.5' must have 5 ';'-separated fields eta;xi;t;i;f "
                       "(row 4, column 3)", 4, 3)
    else:
        assert got.alternatives == alternatives and len(got.rows) == 3


def test_the_quoted_crlf_fixture_is_the_engineers_problem_relabelled(engineers_csv_path):
    path = ROOT / "tests" / "golden" / "quoted_crlf.csv"
    assert path.read_bytes().count(b"\r\n") == 8  # no checkout rewrote its line ends
    quoted, plain = (cli._read_raw(str(p)) for p in (path, engineers_csv_path))
    assert quoted.alternatives == ("Smith, J.", 'B"q', "E3", "E4", "E5")
    assert quoted._replace(alternatives=plain.alternatives) == plain


# ---------------------------------------------------------------------------
# rank


def test_rank_table_output(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path,
                           "--operator", "fnnwa", "--metric", "hamming",
                           "--lambda", "1")
    assert code == EXIT_OK
    assert f"Ranking: {E5_FIRST}" in out
    for value in ("0.4704", "0.5260", "0.5180", "0.5224", "0.5651"):
        assert value in out


def test_rank_json_roundtrip(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path, "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["ordering_labels"] == ["E5", "E2", "E4", "E3", "E1"]
    # re-ranking the emitted full-precision closeness reproduces the ordering
    assert rank(report["closeness"]) == report["ordering"]
    assert report["closeness"] == pytest.approx(case.CLOSENESS, abs=1e-3)


def test_rank_gfnnwa_reduces_to_fnnwa(engineers_csv_path, capsys):
    _, out_a, _ = run_cli(capsys, "rank", engineers_csv_path,
                          "--operator", "fnnwa", "--format", "json")
    _, out_g, _ = run_cli(capsys, "rank", engineers_csv_path,
                          "--operator", "gfnnwa", "--lambda", "1",
                          "--format", "json")
    rep_a, rep_g = json.loads(out_a), json.loads(out_g)
    assert rep_g["ordering"] == rep_a["ordering"]
    assert rep_g["closeness"] == pytest.approx(rep_a["closeness"], abs=1e-12)


def test_rank_weights_flag_overrides(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path,
                           "--weights", "0.35,0.27,0.23,0.15", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["weights"] == pytest.approx(case.WEIGHTS)


def test_rank_weights_arity_is_usage_error(engineers_csv_path, capsys):
    code, _, err = run_cli(capsys, "rank", engineers_csv_path,
                           "--weights", "0.5,0.5,0.5")
    assert code == EXIT_USAGE
    assert "expected 4" in err


def test_rank_weights_renormalize(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path,
                           "--weights", "35,27,23,15", "--renormalize-weights",
                           "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["weights"] == pytest.approx(case.WEIGHTS)
    assert report["ordering_labels"][0] == "E5"


def test_rank_renormalizes_weights_whose_sum_overflows(engineers_csv_path, capsys):
    code, huge, err = run_cli(capsys, "rank", engineers_csv_path, "--weights",
                              "1e308,1e308,1e308,1e308", "--renormalize-weights")
    assert (code, err) == (EXIT_OK, "")
    assert huge == run_cli(capsys, "rank", engineers_csv_path, "--weights", "1,1,1,1",
                           "--renormalize-weights")[1]


def test_renormalized_weights_that_underflow_keep_their_exit_codes(tmp_path, capsys):
    # a rescaled weight of 0 is a data error in the file and a usage error in --weights
    path = tmp_path / "tiny_weight.csv"
    path.write_text("alt,x,y\nA,1;1;0.5;0.5;0.5,2;1;0.5;0.5;0.5\n"
                    "B,2;1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\nweights,1e-300,1e300\n")
    assert run_cli(capsys, "rank", str(path), "--renormalize-weights") == (
        EXIT_DATA, "", "error: weight 1 of 2 underflows to 0 when rescaled\n")
    assert run_cli(capsys, "rank", str(path), "--weights", "1e-300,1e300",
                   "--renormalize-weights") == (
        EXIT_USAGE, "", "error: --weights: weight 1 of 2 underflows to 0 when rescaled\n")


@pytest.mark.parametrize("path, lam", [(ROOT / "demos" / "engineers.csv", "10000"),
                                       (ROOT / "tests" / "golden" / "seeded_12x6.csv", "300")])
def test_rank_gfnnwa_where_every_power_of_the_spreads_underflows(capsys, path, lam):
    # sum(w * xi**lam) underflows to 0 in float64 for some alternatives' normalized spreads
    code, out, err = run_cli(capsys, "rank", str(path), "--operator", "gfnnwa",
                             "--lambda", lam, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert all(a["xi"] > 0.0 for a in json.loads(out)["aggregates"])


@pytest.mark.parametrize("path, operator, lam", [
    (ROOT / "demos" / "engineers.csv", "gfnnwa", "1e160"),  # 3 * lam**2 is inf
    (ROOT / "demos" / "engineers.csv", "gfnnwg", "1e160"),
    (ROOT / "tests" / "golden" / "seeded_12x6.csv", "gfnnwa", "1000"),  # xi**lam of xi > 1
    # the nested channel's 3 * lam * log v overflows, and from about 6e307 so does 3 * lam
    *[(ROOT / "demos" / "engineers.csv", operator, lam)
      for operator in ("gfnnwa", "gfnnwg") for lam in ("5e307", "1e308", "1.7e308")],
])
def test_rank_where_a_power_overflows(capsys, path, operator, lam):
    code, _, err = run_cli(capsys, "rank", str(path), "--operator", operator, "--lambda", lam)
    assert (code, err) == (EXIT_OK, "")


def test_rank_euclidean_where_a_cube_overflows(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text("alt,x,y\nA,1;1e104;.5;.5;.5,1;1;.5;.5;.5\n"
                    "B,1;1;.5;.5;.5,1;1;.5;.5;.5\nweights,.5,.5\n")
    for metric in ("hamming", "euclidean"):
        code, out, err = run_cli(capsys, "rank", str(path), "--metric", metric, "--format", "csv")
        assert (code, err) == (EXIT_OK, ""), metric
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(0.0 <= float(r["closeness"]) <= 1.0 for r in rows), metric


def test_parse_problem_raises_the_cells_own_error(tmp_path):
    path = tmp_path / "problem.csv"
    path.write_text("alt,x\nA,1;1;1.5;0.5;0.5\nweights,1\n")
    with pytest.raises(MembershipOutOfRange) as raised:
        parse_problem(str(path))
    assert str(raised.value) == "invalid cell at (A, x): t = 1.5 is outside [0, 1]"


@pytest.mark.parametrize("rows", [
    ["A,0;1;.5;.5;.5", "B,1;1;.5;.5;.5"],  # a location of 0
    ["A,1;1;.5;.5;.5", "A,1;1;.5;.5;.5"],  # a repeated label
    ["A,1;1;nan;.5;.5", "B,1;1;.5;.5;.5"],
])
def test_rank_reports_what_validate_reports_first_before_missing_weights(tmp_path, capsys, rows):
    path = tmp_path / "problem.csv"
    path.write_text("\n".join(["alt,x", *rows]) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    first = out.splitlines()[0].replace("invalid cell (", "invalid cell at (")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA
    assert err == f"error: {first.removeprefix('invalid labels: ')}\n"


def test_a_path_holding_a_nul_byte_is_a_usage_error(capsys):
    # open() raises ValueError for it, which main maps to exit 1
    code, out, err = run_cli(capsys, "rank", "problem\0.csv")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: embedded null byte\n"


@pytest.mark.parametrize("kind", ["alternative", "attribute"])
@pytest.mark.parametrize("argv", [
    ("rank", "--format", "table"),
    ("rank", "--format", "csv"),
    ("rank", "--format", "json"),
    ("sweep", "--lambda-range", "1..3"),
    ("validate",),
], ids=["rank-table", "rank-csv", "rank-json", "sweep", "validate"])
def test_a_label_holding_a_lone_surrogate_is_a_data_error(tmp_path, capsys, argv, kind):
    # only a JSON escape gives one; UTF-8 cannot encode it, so it is rejected
    # when the file is read, before any ranking
    labels = {"alternatives": ["A", "B"], "attributes": ["x"]}
    labels[f"{kind}s"][0] = "\ud800"
    cells = [{"eta": 1, "xi": 1, "t": t, "i": 0.5, "f": 0.5} for t in (0.5, 0.4)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**labels, "cells": cells, "weights": [1]}))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"error: {path}: {kind} label '\\ud800' holds a lone surrogate\n"


def _two_label_json(path, at, label):
    """A valid 2x1 JSON problem, its first label in ``at`` replaced by ``label``."""
    labels = {"alternatives": ["A", "B"], "attributes": ["x"]}
    labels[at][0] = label
    cells = [{"eta": 1, "xi": 1, "t": t, "i": 0.5, "f": 0.5} for t in (0.5, 0.4)]
    path.write_text(json.dumps({**labels, "cells": cells, "weights": [1]}))


@pytest.mark.parametrize("label, kind", [(None, "NoneType"), (["a"], "list"), ({"k": 1}, "dict"),
                                         (True, "bool")], ids=["null", "array", "object", "true"])
@pytest.mark.parametrize("at", ["alternatives", "attributes"])
@pytest.mark.parametrize("command", ["rank", "validate"])
def test_a_json_label_that_is_no_text_or_number_is_a_data_error(tmp_path, capsys, command, at,
                                                                 label, kind):
    # str() read them as the labels 'None', "['a']", "{'k': 1}" and 'True', and rank exited 0
    path = tmp_path / "problem.json"
    _two_label_json(path, at, label)
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (EXIT_DATA, "")
    assert err == f"error: {at} must be labels of text or numbers, not {kind}\n"


def test_a_json_label_that_is_a_number_is_its_text(tmp_path, capsys):
    path = tmp_path / "problem.json"
    _two_label_json(path, "alternatives", 2.5)
    code, out, _ = run_cli(capsys, "rank", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["ordering_labels"] == ["2.5", "B"]


@pytest.mark.parametrize("command", ["rank", "sweep", "validate"])
def test_every_command_explains_its_file_arguments(capsys, monkeypatch, command):
    # validate declared --input-format without its help text
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal's width
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == EXIT_OK
    assert "problem file (CSV or JSON)" in out
    assert "problem file format (default: by extension)" in out


def test_rank_bad_operator_is_usage_error(engineers_csv_path, capsys):
    code, _, _ = run_cli(capsys, "rank", engineers_csv_path, "--operator", "wavg")
    assert code == EXIT_USAGE


def test_rank_lambda_below_one_is_usage_error(engineers_csv_path, capsys):
    code, _, err = run_cli(capsys, "rank", engineers_csv_path, "--lambda", "0.5")
    assert code == EXIT_USAGE


def test_rank_precision_env(engineers_csv_path, capsys, monkeypatch):
    from fnnmadm import run_pipeline

    monkeypatch.setenv("FNN_MADM_PRECISION", "6")
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path)
    assert code == EXIT_OK
    first_closeness = run_pipeline(parse_problem(engineers_csv_path)).closeness[0]
    assert f"{first_closeness:.6f}" in out
    assert f"{first_closeness:.4f}" not in out.replace(f"{first_closeness:.6f}", "")
    monkeypatch.setenv("FNN_MADM_PRECISION", "not-a-number")
    code, _, err = run_cli(capsys, "rank", engineers_csv_path)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["-1", "18", "9" * 5000], ids=["-1", "18", "5000-digits"])
def test_rank_precision_out_of_range_names_the_variable(engineers_csv_path, capsys,
                                                        monkeypatch, value):
    # 18 stands for any larger value: 1e9 digits per number would exhaust memory
    monkeypatch.setenv("FNN_MADM_PRECISION", value)
    code, out, err = run_cli(capsys, "rank", engineers_csv_path)
    assert code == EXIT_USAGE and out == ""
    assert "FNN_MADM_PRECISION" in err
    monkeypatch.setenv("FNN_MADM_PRECISION", "17")
    assert run_cli(capsys, "rank", engineers_csv_path)[0] == EXIT_OK


@pytest.mark.parametrize("argv", [
    ("rank", "--format", "json"),
    ("rank", "--format", "csv"),
    ("sweep", "--lambdas", "1,13", "--format", "json"),
    ("sweep", "--lambdas", "1,13", "--format", "csv"),
])
def test_only_a_table_reads_the_precision_variable(engineers_csv_path, capsys, monkeypatch,
                                                   argv):
    # a bad value failed JSON and CSV output, which do not round, once the ranking had run
    command, *flags = argv
    monkeypatch.delenv("FNN_MADM_PRECISION", raising=False)
    unset = run_cli(capsys, command, engineers_csv_path, *flags)
    assert unset[0] == EXIT_OK and unset[1]
    monkeypatch.setenv("FNN_MADM_PRECISION", "x")
    assert run_cli(capsys, command, engineers_csv_path, *flags) == unset
    code, out, err = run_cli(capsys, command, engineers_csv_path, *flags[:-2])  # a table
    assert code == EXIT_USAGE and out == ""
    assert "FNN_MADM_PRECISION" in err


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_rank_non_finite_lambda_is_usage_error(engineers_csv_path, capsys, lam):
    code, out, err = run_cli(capsys, "rank", engineers_csv_path, "--lambda", lam)
    assert code == EXIT_USAGE
    assert "lam" in err and out == ""


def test_rank_non_finite_weights_flag_is_usage_error(engineers_csv_path, capsys):
    code, _, _ = run_cli(capsys, "rank", engineers_csv_path,
                         "--weights", "inf,1,1,1", "--renormalize-weights")
    assert code == EXIT_USAGE


WEIGHT_MESSAGE = "--weights: weight 1 of 2 must be a finite number > 0"
LAMBDA_MESSAGE = "lam = -1.0 must be a finite real >= 1"


@pytest.mark.parametrize("argv, full, message", [
    (["rank", "--weights", "-0.5,1.5"], "--weights", WEIGHT_MESSAGE),
    (["rank", "--weig", "-0.5,1.5"], "--weights", WEIGHT_MESSAGE),
    (["sweep", "--lambdas", "-1,2"], "--lambdas", LAMBDA_MESSAGE),
    (["sweep", "--lambda-range", "-1..2"], "--lambda-range", LAMBDA_MESSAGE),
    (["sweep", "--lambda-r", "-1..2"], "--lambda-range", LAMBDA_MESSAGE),
], ids=["rank-weights", "rank-weights-abbreviated", "sweep-lambdas", "sweep-lambda-range",
        "sweep-lambda-range-abbreviated"])
def test_a_negative_value_after_its_option_is_that_options_value(tmp_path, capsys,
                                                                  argv, full, message):
    path = tmp_path / "two.csv"
    path.write_text(f"alt,x,y\nA,{ONE_CELL},{ONE_CELL}\nweights,0.5,0.5\n")
    command, option, value = argv
    joined = run_cli(capsys, command, str(path), f"{full}={value}")
    assert run_cli(capsys, command, str(path), option, value) == joined
    assert joined == (EXIT_USAGE, "", f"error: {message}\n")


def test_a_positional_that_starts_with_a_negative_number_is_a_path(engineers_csv_path,
                                                                   tmp_path, monkeypatch,
                                                                   capsys):
    shutil.copy(engineers_csv_path, tmp_path / "-1.csv")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "validate", "-1.csv")
    assert (code, err) == (EXIT_OK, "")
    assert out == "20 cells valid\n"


def test_an_option_after_an_option_that_takes_a_value_stays_an_option(engineers_csv_path,
                                                                       capsys):
    code, out, err = run_cli(capsys, "rank", engineers_csv_path, "--weights", "--format", "json")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("error: argument --weights: expected one argument\n")


def test_rank_csv_prints_plain_floats(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "rank", engineers_csv_path, "--format", "csv")
    _, out_json, _ = run_cli(capsys, "rank", engineers_csv_path, "--format", "json")
    assert code == EXIT_OK
    assert "np." not in out
    rows = list(csv.DictReader(io.StringIO(out)))
    report = json.loads(out_json)
    assert [r["alternative"] for r in rows] == list(case.ALTERNATIVES)
    for key in ("d_plus", "d_minus", "closeness"):
        assert [float(r[key]) for r in rows] == report[key]
    assert [int(r["rank"]) for r in rows] == [
        report["ordering"].index(k) + 1 for k in range(len(rows))
    ]


def test_rank_deterministic_output(engineers_csv_path, capsys):
    _, out1, _ = run_cli(capsys, "rank", engineers_csv_path, "--format", "json")
    _, out2, _ = run_cli(capsys, "rank", engineers_csv_path, "--format", "json")
    assert out1 == out2


@pytest.fixture
def awkward_labels_json(tmp_path):
    """A seeded 4x3 problem whose labels need JSON escaping."""
    rng = random.Random(7)
    alternatives = ["Ä%r", 'B"q', "C\\d", "D%%s\t"]
    attributes = ["größe", "%", '"']
    cells = [
        dict(zip(("eta", "xi", "t", "i", "f"),
                 (rng.uniform(0.1, 1), rng.uniform(0.05, 1),
                  *(rng.uniform(0.1, 0.8) for _ in range(3)))))
        for _ in range(len(alternatives) * len(attributes))
    ]
    path = tmp_path / "awkward.json"
    path.write_text(json.dumps({"alternatives": alternatives, "attributes": attributes,
                                "weights": [0.5, 0.25, 0.25], "cells": cells}))
    return str(path)


@pytest.mark.parametrize("problem", ["engineers_csv_path", "awkward_labels_json"])
def test_json_output_is_the_standard_library_rendering(problem, capsys, request):
    # floats round-trip through repr, so re-rendering what was parsed
    # reproduces the output only if the CLI renders as json.dumps does
    path = request.getfixturevalue(problem)
    runs = [["rank", path, "--operator", op, "--metric", metric, "--format", "json"]
            for op in ("fnnwa", "fnnwg", "gfnnwa", "gfnnwg")
            for metric in ("hamming", "euclidean")]
    runs.append(["sweep", path, "--lambda-range", "1..34", "--format", "json"])
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK, argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


class Pieces(io.StringIO):
    """A stdout that keeps the length of each piece written to it."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_json_commands_write_the_rendered_document_piece_by_piece(engineers_csv_path):
    dm = parse_problem(engineers_csv_path)
    config = PipelineConfig("gfnnwa", "euclidean", 3.0)
    rank_argv = ["rank", engineers_csv_path, "--operator", "gfnnwa", "--metric", "euclidean",
                 "--lambda", "3", "--format", "json"]
    sweep_argv = ["sweep", engineers_csv_path, "--operator", "gfnnwa", "--metric", "euclidean",
                  "--lambdas", "1,3,34", "--format", "json"]
    expected = [
        (rank_argv, cli.report_to_dict(run_pipeline(dm, config))),
        (sweep_argv, cli.sweep_to_dict(lambda_sweep(dm, config, [1.0, 3.0, 34.0]), dm, config)),
    ]
    for argv, doc in expected:
        out = Pieces()
        with contextlib.redirect_stdout(out):
            assert main(argv) == EXIT_OK
        text = out.getvalue()
        assert text == cli._dump_json(doc) + "\n", argv
        assert max(out.sizes) < len(text) / 4, argv  # no piece holds the whole document


# ---------------------------------------------------------------------------
# sweep


def test_sweep_full_range_row_count_and_lam13(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", engineers_csv_path,
                           "--lambda-range", "1..34", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["rows"]) == 34
    row13 = next(r for r in doc["rows"] if r["lambda"] == 13)
    assert row13["ordering_labels"] == ["E5", "E4", "E3", "E2", "E1"]


def test_sweep_single_lambda_equals_rank(engineers_csv_path, capsys):
    _, out_s, _ = run_cli(capsys, "sweep", engineers_csv_path,
                          "--lambda-range", "5..5", "--format", "json")
    _, out_r, _ = run_cli(capsys, "rank", engineers_csv_path,
                          "--lambda", "5", "--format", "json")
    sweep_doc, rank_doc = json.loads(out_s), json.loads(out_r)
    assert len(sweep_doc["rows"]) == 1
    assert sweep_doc["rows"][0]["closeness"] == rank_doc["closeness"]
    assert sweep_doc["rows"][0]["ordering"] == rank_doc["ordering"]


def test_sweep_requires_lambda_grid(engineers_csv_path, capsys):
    code, _, err = run_cli(capsys, "sweep", engineers_csv_path)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "sweep", engineers_csv_path,
                         "--lambda-range", "0.5..3")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "sweep", engineers_csv_path,
                         "--lambda-range", "7..3")
    assert code == EXIT_USAGE
    code, out, err = run_cli(capsys, "sweep", engineers_csv_path,
                             "--lambdas", "1,2", "--lambda-range", "1..34")
    assert (code, out) == (EXIT_USAGE, "") and "not allowed with" in err


@pytest.mark.parametrize("flag, value", [("--lambdas", "1,inf"), ("--lambdas", "2,1"),
                                         ("--lambda-range", "nan..3")])
def test_sweep_bad_grid_is_usage_error(engineers_csv_path, capsys, flag, value):
    code, out, _ = run_cli(capsys, "sweep", engineers_csv_path, flag, value)
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["rank", "--weights", "1,x"], "--weights: could not convert string to float: 'x'"),
    (["sweep", "--lambdas", "1,x"], "--lambdas: could not convert string to float: 'x'"),
    (["sweep", "--lambda-range", "1..x"], "--lambda-range: must look like 'a..b', got '1..x'"),
    (["sweep", "--lambda-range", "1"], "--lambda-range: must look like 'a..b', got '1'"),
])
def test_a_flag_value_that_does_not_parse_is_named_by_argparse(engineers_csv_path, capsys,
                                                               argv, message):
    command, *flag = argv
    code, out, err = run_cli(capsys, command, engineers_csv_path, *flag)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(f": error: argument {message}\n")


def test_a_range_float64_cannot_step_by_1_is_a_usage_error(engineers_csv_path, capsys):
    # from 2**53 on, v + 1.0 rounds back to v: the grid held 2**53 three times, and a
    # range typed in increasing order was rejected as not strictly increasing
    grid = "9007199254740992..9007199254740994"
    code, out, err = run_cli(capsys, "sweep", engineers_csv_path, "--lambda-range", grid)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith(
        f"argument --lambda-range: must step by 1, which float64 cannot from 2**53 on, "
        f"got {grid!r}\n"
    )
    assert cli._lambda_range("9007199254740991..9007199254740992") == [2.0**53 - 1, 2.0**53]


def run_capped(*argv):
    """Run the CLI in a child whose address space is capped at 256 MiB and
    whose run time is capped at 60 s, so a grid that was built before it
    was sized fails the test instead of exhausting memory."""
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)); "
        "from fnnmadm.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60, env=env)


@pytest.mark.parametrize("grid", ["1..inf", "1..1e12"])
def test_sweep_range_is_sized_before_it_is_built(engineers_csv_path, grid):
    done = run_capped("sweep", engineers_csv_path, "--lambda-range", grid)
    assert done.returncode == EXIT_USAGE, done.stderr
    assert "--lambda-range" in done.stderr and "Traceback" not in done.stderr


def test_cli_sweep_loads_no_numpy(engineers_csv_path):
    code = (
        "import sys; from fnnmadm.cli import main; "
        "code = main(sys.argv[1:]); "
        "assert 'numpy' not in sys.modules, 'numpy was imported'; "
        "sys.exit(code)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, "sweep", engineers_csv_path, "--lambda-range", "1..34",
         "--format", "json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert len(json.loads(done.stdout)["rows"]) == 34


def test_sweep_plot_csv_recomputation(engineers_csv_path, capsys, tmp_path):
    plot = tmp_path / "plot.csv"
    code, _, _ = run_cli(capsys, "sweep", engineers_csv_path,
                         "--lambda-range", "2..34", "--plot-out", str(plot))
    assert code == EXIT_OK
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "lambda,D1,D2,D3,D4,D5"
    assert len(lines) == 34  # header + 33 grid rows
    orderings, lams = [], []
    for line in lines[1:]:
        fields = [float(v) for v in line.split(",")]
        lams.append(fields[0])
        orderings.append(tuple(rank(fields[1:])))
    transitions = [
        lams[k + 1] for k in range(len(orderings) - 1) if orderings[k + 1] != orderings[k]
    ]
    assert transitions == [12.0, 34.0]


def test_sweep_explicit_lambdas_spot_grid(engineers_csv_path, capsys, tmp_path):
    plot = tmp_path / "spot.csv"
    code, out, _ = run_cli(capsys, "sweep", engineers_csv_path,
                           "--lambdas", "2,10,13,34", "--format", "json",
                           "--plot-out", str(plot))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [t["lambda"] for t in doc["transitions"]] == [13.0, 34.0]
    lines = plot.read_text().strip().splitlines()
    assert len(lines) == 5


def test_sweep_csv_format(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", engineers_csv_path,
                           "--lambda-range", "1..3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,D1,D2,D3,D4,D5,ordering"
    assert len(lines) == 4
    assert lines[1].endswith(E5_FIRST)


def test_sweep_csv_is_plot_csv_plus_ordering(engineers_csv_path, capsys, tmp_path):
    plot = tmp_path / "plot.csv"
    code, out, _ = run_cli(capsys, "sweep", engineers_csv_path, "--lambda-range", "1..34",
                           "--format", "csv", "--plot-out", str(plot))
    assert code == EXIT_OK
    rows = out.strip().splitlines()
    assert [r.rsplit(",", 1)[0] for r in rows] == plot.read_text().strip().splitlines()


def test_csv_output_is_csv_whatever_the_labels(tmp_path, capsys):
    labels = ["Smith, J.", 'B"q', "plain", "Ä%r"]
    path = tmp_path / "labels.csv"
    rng = random.Random(5)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alt", "x", "y"])
        for label in labels:
            writer.writerow([label] + [f"{rng.uniform(0.2, 1)};{rng.uniform(0.1, 1)};0.5;0.4;0.3"
                                       for _ in range(2)])
        writer.writerow(["weights", 0.6, 0.4])
    code, out, _ = run_cli(capsys, "rank", str(path), "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {5}
    assert [row[0] for row in rows[1:]] == labels
    code, out, _ = run_cli(capsys, "sweep", str(path), "--lambdas", "1,2,3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {len(labels) + 2}
    assert all(sorted(row[-1].split(" >= ")) == sorted(labels) for row in rows[1:])


# ---------------------------------------------------------------------------
# validate


def test_validate_engineers(engineers_csv_path, capsys):
    code, out, _ = run_cli(capsys, "validate", engineers_csv_path)
    assert code == EXIT_OK
    assert "20 cells valid" in out


def test_validate_flags_zero_spread(tmp_path, capsys):
    path = tmp_path / "badspread.csv"
    path.write_text(
        "alt,x,y\n"
        "E1,0.5;0.0;0.5;0.5;0.5,0.5;0.5;0.5;0.5;0.5\n"
        "weights,0.5,0.5\n"
    )
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_DATA
    assert "xi" in out and "(E1, x)" in out
    assert "1 of 2 cells valid" in out


def test_validate_boundary_cubic_sum(tmp_path, capsys):
    path = tmp_path / "boundary.csv"
    path.write_text("alt,x\nE1,1;1;1;1;0\nweights,1\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "1 cells valid" in out


def test_validate_flags_bad_embedded_weights(tmp_path, capsys):
    path = tmp_path / "badweights.csv"
    path.write_text("alt,x,y\nE1,1;1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\nweights,0.9,0.7\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_DATA
    assert "invalid weights" in out


def test_validate_names_a_nan_location(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("alt,x,y\nE1,nan;1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\nweights,0.5,0.5\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_DATA
    assert "(E1, x)" in out and "eta" in out
    assert "1 of 2 cells valid" in out


@pytest.mark.parametrize("eta", ["0", "-0.5"])
def test_validate_names_each_location_rank_cannot_normalize(tmp_path, capsys, eta):
    # each column has a positive location, so only normalization rejects the file
    path = tmp_path / "zero.csv"
    path.write_text(f"alt,x,y\nE1,{eta};1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\n"
                    f"E2,1;1;0.5;0.5;0.5,{eta};1;0.5;0.5;0.5\nweights,0.5,0.5\n")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == EXIT_DATA and "(E1, x)" in err
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == EXIT_DATA
    assert f"invalid cell (E1, x): eta = {float(eta)!r}" in out
    assert f"invalid cell (E2, y): eta = {float(eta)!r}" in out
    assert "2 of 4 cells valid" in out


def test_validate_names_each_repeated_label(tmp_path, capsys):
    cell = "1;1;0.5;0.5;0.5"
    rows = "".join(f"{alt},{cell},{cell}\n" for alt in ("A", "B", "A", "B", "A"))
    path = tmp_path / "labels.csv"
    path.write_text(f"alt,x,x\n{rows}weights,0.5,0.5\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert (code, out) == (EXIT_DATA, "invalid labels: alternative label 'A' appears twice\n"
                                      "invalid labels: alternative label 'B' appears twice\n"
                                      "invalid labels: attribute label 'x' appears twice\n"
                                      "10 of 10 cells valid\n")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert (code, err) == (EXIT_DATA, "error: alternative label 'A' appears twice\n")


def test_validate_has_no_weights_option(tmp_path, capsys):
    path = tmp_path / "badweights.csv"
    path.write_text("alt,x,y\nE1,1;1;0.5;0.5;0.5,1;1;0.5;0.5;0.5\nweights,0.9,0.7\n")
    code, _, _ = run_cli(capsys, "validate", str(path), "--weights", "0.5,0.5")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# exit-code contract

NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
)
UNIT = st.floats(min_value=0.0, max_value=1.0) | NUMBER  # valid about half the time
CELL = st.tuples(NUMBER, NUMBER, UNIT, UNIT, UNIT)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(cells=[(1.0, 1e300, 0.5, 0.5, 0.5)], weight=None, operator="fnnwa",
         metric="euclidean", lam="1")
@example(cells=[(1.0, 1e300, 0.5, 0.5, 0.5)], weight=None, operator="gfnnwa",
         metric="hamming", lam="3")
@example(cells=[(1.0, 1e300, 0.5, 0.5, 0.5), (1e-300, 1.0, 0.5, 0.5, 0.5)],
         weight=None, operator="fnnwa", metric="hamming", lam="1")
@given(
    cells=st.lists(CELL, min_size=1, max_size=3),
    weight=st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    operator=st.sampled_from(["fnnwa", "fnnwg", "gfnnwa", "gfnnwg"]),
    metric=st.sampled_from(["hamming", "euclidean"]),
    lam=st.sampled_from(["1", "3", "34"]),
)
def test_exit_code_contract_on_arbitrary_cells(tmp_path, capsys, cells, weight,
                                               operator, metric, lam):
    m = len(cells)
    weights = [1.0 / m] * m if weight is None else [weight] * m
    header = "alt," + ",".join(f"C{j}" for j in range(m))
    row = "A1," + ",".join(";".join(repr(v) for v in cell) for cell in cells)
    wrow = "weights," + ",".join(repr(w) for w in weights)
    path = tmp_path / "one-row.csv"
    path.write_text(f"{header}\n{row}\n{wrow}\n")
    runs = [
        ["validate", str(path)],
        ["rank", str(path), "--operator", operator, "--metric", metric, "--lambda", lam,
         "--format", "json"],
        ["rank", str(path), "--operator", operator, "--metric", metric, "--format", "csv"],
        ["sweep", str(path), "--operator", operator, "--metric", metric,
         "--lambdas", "1,3,34", "--format", "json"],
        ["sweep", str(path), "--operator", operator, "--metric", metric,
         "--lambda-range", "1..34", "--format", "csv"],
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)  # an escaping exception fails the test
        assert code in (EXIT_OK, EXIT_DATA, EXIT_DEGENERATE), argv
        assert "nan" not in out.lower() and "np.float64" not in out


SCALE = st.sampled_from([-1.0, 1e-200, 1e200]) | NUMBER
AGREE_CELL = st.one_of(
    st.tuples(SCALE, SCALE).map(lambda normal: (*normal, 0.5, 0.5, 0.5)),
    st.tuples(SCALE, SCALE, UNIT, UNIT, UNIT),
)


@st.composite
def problems(draw):
    """Labels, cells and embedded weights of a 1-3 x 1-3 problem; the last
    alternative sometimes repeats the first one's label."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(AGREE_CELL, min_size=m, max_size=m)
    cells = draw(st.lists(row, min_size=n, max_size=n))
    weights = draw(st.just([1.0 / m] * m) | st.lists(SCALE, min_size=m, max_size=m))
    labels = [f"A{k}" for k in range(n)]
    if n > 1 and draw(st.booleans()):
        labels[-1] = labels[0]
    return labels, cells, weights


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# the spread normalizes to 1e600, to 1e-400, and locations.csv's shape
@example(problem=(["A"], [[(1e-300, 1e300, 0.5, 0.5, 0.5), (1.0, 1.0, 0.5, 0.5, 0.5)]],
                  [0.5, 0.5]))
@example(problem=(["A", "B"], [[(1.0, 1e-200, 0.5, 0.5, 0.5)], [(1.0, 1e200, 0.5, 0.5, 0.5)]],
                  [1.0]))
@example(problem=(["A1", "A2"], [[(0.0, 0.5, 0.5, 0.5, 0.5), (-0.5, 0.5, 0.5, 0.5, 0.5)],
                                 [(0.8, 0.5, 0.5, 0.5, 0.5), (0.0, 0.4, 0.5, 0.5, 0.5)]],
                  [0.5, 0.5]))
@given(problem=problems())
def test_validate_reports_what_rank_rejects(tmp_path, capsys, problem):
    labels, cells, weights = problem
    lines = ["alt," + ",".join(f"C{j}" for j in range(len(weights)))]
    for label, row in zip(labels, cells):
        lines.append(",".join([label] + [";".join(map(repr, cell)) for cell in row]))
    lines.append(",".join(["weights"] + [repr(w) for w in weights]))
    path = tmp_path / "problem.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "validate", str(path))
    rank_code, _, err = run_cli(capsys, "rank", str(path), "--lambda", "1")
    if code == EXIT_DATA:
        first = out.splitlines()[0]
        if first.startswith("invalid cell ("):
            reason = "invalid cell at (" + first.removeprefix("invalid cell (")
        else:
            reason = first.removeprefix("invalid labels: ").removeprefix("invalid weights: ")
        assert (rank_code, err) == (EXIT_DATA, f"error: {reason}\n")
    else:
        # no cell, label or weights reason: the file loads, and every spread
        # normalizes to a positive float
        assert code == EXIT_OK
        for _, xis, *_ in normalize(parse_problem(str(path))).rows:
            assert all(0.0 < xi < math.inf for xi in xis)


def test_degenerate_closeness_exits_3(engineers_csv_path, capsys, monkeypatch):
    # no known problem file makes D+ + D- vanish, so the mapping is pinned directly
    def degenerate(dm, config):
        raise DegenerateCloseness("D+ + D- is zero for alternative index 0")

    monkeypatch.setattr(cli, "run_pipeline", degenerate)
    code, out, err = run_cli(capsys, "rank", engineers_csv_path)
    assert (code, out) == (EXIT_DEGENERATE, "")
    assert err == "error: degenerate computation: D+ + D- is zero for alternative index 0\n"


JSON_FIELD = st.one_of(
    NUMBER,
    st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400]),
    st.text(max_size=4),
    st.none(),
    st.lists(NUMBER, max_size=2),
)
JSON_CELL = st.one_of(CELL, st.tuples(*[JSON_FIELD] * 5)).map(
    lambda fields: dict(zip(("eta", "xi", "t", "i", "f"), fields))
)


@st.composite
def json_problems(draw):
    """A one-row problem of arbitrary cell and weight fields, or a
    document that is not an object at all."""
    if draw(st.integers(0, 4)) == 0:
        return json.dumps(draw(st.one_of(JSON_FIELD, st.lists(JSON_FIELD, max_size=3))))
    cells = draw(st.lists(JSON_CELL, min_size=1, max_size=3))
    m = len(cells)
    weights = draw(st.one_of(st.just([1.0 / m] * m), JSON_FIELD, st.lists(JSON_FIELD, max_size=3)))
    return json.dumps({"alternatives": ["A1"], "attributes": [f"C{j}" for j in range(m)],
                       "weights": weights, "cells": cells})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(text=_one_cell_json(eta=HUGE_INT))
@example(text=_one_cell_json(weight=HUGE_INT))
@example(text=_one_cell_json(eta=LONG_INT))
@example(text="[" * 100_000)
@given(text=json_problems())
def test_exit_code_contract_on_arbitrary_json(tmp_path, capsys, text):
    path = tmp_path / "one-row.json"
    path.write_text(text)
    runs = [
        ["validate", str(path)],
        ["rank", str(path), "--operator", "gfnnwa", "--lambda", "3", "--format", "json"],
        ["sweep", str(path), "--lambdas", "1,3,34", "--format", "csv"],
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)  # an escaping exception fails the test
        assert code in (EXIT_OK, EXIT_DATA, EXIT_DEGENERATE), argv
        assert "nan" not in out.lower() and "np.float64" not in out


# ---------------------------------------------------------------------------
# the shared parser


def _golden_argvs() -> list[list[str]]:
    fixture = ROOT / "tests" / "golden" / "cli_bytes.json"
    return [entry["argv"] for entry in json.loads(fixture.read_text(encoding="utf-8"))]


def _same_namespace(shared, fresh) -> bool:
    shared, fresh = vars(shared), vars(fresh)
    return shared["func"] is fresh["func"] and shared == fresh


def test_the_shared_parser_keeps_no_state_between_parses():
    argvs = _golden_argvs()
    assert cli.build_parser() is not cli.build_parser()
    for argv in argvs + argvs[::-1]:
        assert _same_namespace(cli._parser().parse_args(argv), cli.build_parser().parse_args(argv))


def test_threads_share_the_parser():
    argvs = [
        ["rank", "p.csv", "--operator", "gfnnwa", "--lambda", "3", "--weights", "-1,2"],
        ["sweep", "p.json", "--lambdas", "-1,2", "--metric", "euclidean", "--format", "csv"],
        ["sweep", "p.csv", "--lambda-range", "1..34", "--plot-out", "plot.csv"],
        ["validate", "p.json", "--input-format", "csv"],
    ]
    expected = [cli.build_parser().parse_args(argv) for argv in argvs]
    results = [[] for _ in argvs]

    def parse(argv, out):
        for _ in range(200):
            out.append(cli._parser().parse_args(argv))

    threads = [threading.Thread(target=parse, args=pair) for pair in zip(argvs, results)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(expected, results):
        assert len(got) == 200 and all(_same_namespace(ns, want) for ns in got)


@pytest.mark.parametrize("argv, code", [
    (["rank", "{engineers}", "--format", "json"], EXIT_OK),
    (["sweep", "{engineers}", "--lambda-range", "1..34", "--format", "json"], EXIT_OK),
    (["validate", "{engineers}"], EXIT_OK),
    (["rank", "/nonexistent/problem.csv"], EXIT_DATA),
], ids=["rank", "sweep", "validate", "missing-file"])
def test_a_warm_call_leaves_no_cyclic_garbage(engineers_csv_path, argv, code):
    argv = [a.format(engineers=engineers_csv_path) for a in argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(argv) == code
        enabled = gc.isenabled()
        gc.disable()  # only the collection below may free what the call left
        try:
            gc.collect()
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


@pytest.mark.parametrize("argv", [
    ("rank", "demos/engineers.csv", "--format", "json"),
    ("rank", "demos/no-such-file.csv"),
])
def test_python_m_fnnmadm_prints_and_exits_as_main(capsys, monkeypatch, argv):
    # no test ran __main__.py, which passes main's exit code to sys.exit
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("FNN_MADM_PRECISION", raising=False)
    code, out, err = run_cli(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "fnnmadm", *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
    assert code == (EXIT_OK if len(argv) > 2 else EXIT_DATA)


def test_a_reader_that_stops_early_is_no_data_error():
    # a closed stdout is no fault of the data: nothing is printed, and the exit
    # status is 141 (128 + SIGPIPE), as a shell reports for a tool a closed pipe stopped
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "fnnmadm", "sweep",
            str(ROOT / "tests" / "golden" / "seeded_12x6.csv"), "--lambda-range", "1..3000",
            "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        assert child.stdout.read(10) == b"lambda,D1,"
        child.stdout.close()  # the rest, some 0.7 MB, is more than a pipe holds
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_a_closed_stdout_that_is_no_real_stream_is_left_as_it_is(
        engineers_csv_path, capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    stdout = Closed()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["rank", engineers_csv_path]) == 141
    assert sys.stdout is stdout and capsys.readouterr().err == ""


def test_import_builds_no_parser():
    code = "import fnnmadm.cli as cli; print(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    assert done.stdout == "0\n"
