"""Command-line interface: parsing, commands, formats, exit codes."""

import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import engineers_case as case
from fnnmadm import DegenerateCloseness, ParseError, cli, normalize, rank
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
         "'xi' (row 0, column 1)"),
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
])
def test_rank_where_a_power_overflows(capsys, path, operator, lam):
    code, _, err = run_cli(capsys, "rank", str(path), "--operator", operator, "--lambda", lam)
    assert (code, err) == (EXIT_OK, "")


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


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_rank_non_finite_lambda_is_usage_error(engineers_csv_path, capsys, lam):
    code, out, err = run_cli(capsys, "rank", engineers_csv_path, "--lambda", lam)
    assert code == EXIT_USAGE
    assert "lam" in err and out == ""


def test_rank_non_finite_weights_flag_is_usage_error(engineers_csv_path, capsys):
    code, _, _ = run_cli(capsys, "rank", engineers_csv_path,
                         "--weights", "inf,1,1,1", "--renormalize-weights")
    assert code == EXIT_USAGE


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
