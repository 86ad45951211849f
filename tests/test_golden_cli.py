"""CLI stdout, stderr, exit codes and plot files replayed against a stored fixture.

``golden/cli_bytes.json`` holds what every command in ``COMMANDS`` printed
when it was generated; the test requires the same bytes now.  To
regenerate it (only when a change of output is intended), run from the
repository root:

    PYTHONPATH=src python tests/test_golden_cli.py

It rewrites every entry, then prints to stderr the argv of each entry
that was added, removed or changed against the fixture it replaced, so
that only those need to be checked by hand.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "golden" / "cli_bytes.json"
PLOT = "<plot>"  # stands for the --plot-out path; the fixture stores the file

ENGINEERS = "demos/engineers.csv"
OPERATORS = ("fnnwa", "fnnwg", "gfnnwa", "gfnnwg")
METRICS = ("hamming", "euclidean")
NULL_LABEL = "tests/golden/null_label.json"
BOOL_NUMBER = "tests/golden/bool_number.json"


def _commands() -> list[list[str]]:
    out = [
        ["rank", ENGINEERS, "--operator", op, "--metric", metric, "--format", fmt, "--lambda", lam]
        for op in OPERATORS
        for metric in METRICS
        for fmt in ("table", "json", "csv")
        for lam in ("1", "12.5")
    ]
    out += [["sweep", ENGINEERS, "--lambda-range", "1..34", "--format", fmt] for fmt in ("json", "csv")]
    out += [
        ["sweep", ENGINEERS, "--lambda-range", "1..34", "--plot-out", PLOT],
        ["validate", ENGINEERS],
        ["rank", ENGINEERS, "--weights", "1,1,1,1", "--renormalize-weights", "--format", "json"],
        ["rank", "tests/golden/awkward_labels.json", "--format", "json"],
        ["rank", "tests/golden/seeded_12x6.csv", "--operator", "gfnnwa", "--lambda", "3", "--format", "json"],
        ["rank", "tests/golden/seeded_12x6.csv", "--operator", "fnnwg", "--metric", "euclidean",
         "--lambda", "34", "--format", "json"],
        ["sweep", "tests/golden/seeded_12x6.csv", "--operator", "gfnnwg", "--lambda-range", "1..34",
         "--format", "json"],
        ["sweep", "tests/golden/awkward_labels.json", "--lambdas", "1,2.5,34", "--format", "json"],
    ]
    # the lambda loop of the other three operators, as gfnnwg's sweep above
    out += [["sweep", "tests/golden/seeded_12x6.csv", "--operator", op, "--lambda-range", "1..34",
             "--format", "json"] for op in ("fnnwa", "fnnwg", "gfnnwa")]
    for name in ("invalid_cells", "invalid_values", "locations", "zero_location",
                 "normalized_inf", "normalized_zero", "several_problems"):
        path = f"tests/golden/{name}.csv"
        out += [["validate", path], ["rank", path, "--format", "json"]]
    # a JSON null label, which str() once read as the label 'None'
    out += [["validate", NULL_LABEL], ["rank", NULL_LABEL, "--format", "json"]]
    # a JSON true as a cell field, which float() once read as 1.0
    out += [["validate", BOOL_NUMBER], ["rank", BOOL_NUMBER, "--format", "json"]]
    return out


COMMANDS = _commands()


def run(argv: list[str], plot_path: pathlib.Path) -> dict:
    """Run one command in process, from the repository root; returns its
    exit code, stdout, stderr and, for --plot-out, the plot file."""
    from fnnmadm.cli import main

    args = [str(plot_path) if a == PLOT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    result = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if PLOT in argv:
        result["plot"] = plot_path.read_text(encoding="utf-8")
    return result


@pytest.fixture(scope="module")
def expected():
    return {tuple(r["argv"]): r for r in json.loads(FIXTURE.read_text(encoding="utf-8"))}


def test_fixture_covers_every_command(expected):
    assert sorted(expected) == sorted(map(tuple, COMMANDS))


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_bytes_match_the_fixture(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("FNN_MADM_PRECISION", raising=False)
    assert run(argv, tmp_path / "plot.csv") == expected[tuple(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("FNN_MADM_PRECISION", None)
    plot = ROOT / ".plot-golden.csv"
    try:
        records = [run(argv, plot) for argv in COMMANDS]
    finally:
        plot.unlink(missing_ok=True)
    before = {}
    if FIXTURE.exists():
        before = {tuple(r["argv"]): r for r in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    FIXTURE.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {FIXTURE.relative_to(ROOT)}", file=sys.stderr)
    after = {tuple(r["argv"]): r for r in records}
    for argv in sorted(before.keys() | after.keys()):
        if argv not in before:
            print("added:", *argv, file=sys.stderr)
        elif argv not in after:
            print("removed:", *argv, file=sys.stderr)
        elif before[argv] != after[argv]:
            print("changed:", *argv, file=sys.stderr)
