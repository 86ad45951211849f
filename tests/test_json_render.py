"""The CLI's JSON renderer against ``json.dumps(..., indent=2, sort_keys=True)``."""

import contextlib
import enum
import gc
import io
import json
import math
import random
import tempfile
import tracemalloc
from collections import OrderedDict, deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnnmadm import (
    METRICS,
    OPERATORS,
    FnnnGenConfig,
    PipelineConfig,
    cli,
    gen_fnnn,
    gen_weights,
    lambda_sweep,
    make_decision_matrix,
    normalize,
    run_pipeline,
)
from fnnmadm.cli import (
    _Cells,
    _SweepRows,
    _dump_json,
    _json_chunks,
    _sweep_doc,
    fnnn_to_dict,
    parse_problem,
    report_to_dict,
    sweep_to_dict,
)
from fnnmadm.pipeline import SweepRow

ROOT = Path(__file__).resolve().parent.parent


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, 0.1, 1e16, 1e-7]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
INTS = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 2**200, 0, -1])
# lone surrogates, control characters and non-ASCII included
TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "%", "%r", "%%s", '"', "\\", "é", "\x00", " ", "\U0001f600", "eta", "xi"]
)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT


def containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
    )


def same_keyed_dicts(values):
    """Lists of dicts that share one key set, as a report's cells do."""
    return st.lists(TEXT, min_size=1, max_size=5, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}), max_size=5)
    )


TREES = st.recursive(
    SCALARS
    | st.lists(FLOATS, max_size=6)
    | st.lists(INTS, max_size=6)
    | st.lists(TEXT, max_size=6)
    | st.dictionaries(TEXT, FLOATS, max_size=6)
    | same_keyed_dicts(FLOATS)
    | same_keyed_dicts(st.floats(allow_nan=False, allow_infinity=False)),
    containers,
    max_leaves=40,
)


class Level(enum.IntEnum):
    HIGH = 3


class Loud(float):
    def __repr__(self):
        return "loud"


class Rows(list):
    pass


class Record(dict):
    pass


class Label(str):
    pass


@settings(max_examples=200, deadline=None)
@example(doc={"eta": 0.85, "xi": 0.5, "t": 0.88, "i": 0.8, "f": 0.8})
@example(doc=[3, 0, -7, 2**70])
@example(doc=[1, 1.5, "a", None, True, False, [], {}, (), -0.0, math.nan])
@example(doc={"%": 1.0, '"%r"': 2.0, "\\": math.inf, "é": -0.0})
@example(doc={"rows": [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}], "x": {"a": 1.0, "b": 2.0}})
@example(doc=[[{"%": 1.0, "e": 2.0}, {"e": 3.0, "%": -0.0}], [{"k": 5e-324}, {"k": 1e16}]])
@example(doc=[{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0, "c": 5.0}])
@example(doc=[{"a": 1.0, "b": 2.0, "c": 5.0}, {"a": 3.0, "b": 4.0}])
@example(doc=[{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}])
@example(doc=[{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4}])
@example(doc=[{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": math.nan}])
@example(doc=[{"a": 1.0, "b": Loud(2.0)}, {"a": 3.0, "b": 4.0}])
@example(doc=[{"a": 1.0, "b": 2.0}, Record(a=3.0, b=4.0)])
@example(doc=[{"a": 1.0, Label("b"): 2.0}, {"a": 3.0, "b": 4.0}])
# one scalar of each kind as a dict's value: a plain str, int or finite float is
# rendered without json.dumps, every other kind through it
@example(doc={"k": True})
@example(doc={"k": None})
@example(doc={"k": math.nan})
@example(doc={"k": -math.inf})
@example(doc={"k": -0.0})
@example(doc={"k": 5e-324})
@example(doc={"k": 2**70})
@example(doc={"k": Level.HIGH})
@example(doc={"k": Loud(2.0)})
@example(doc={"k": Label("q")})
@example(doc={"k": ""})
@example(doc={"k": []})
@example(doc={"k": {}})
@example(doc={"k": ()})
@given(doc=TREES)
def test_renders_as_the_standard_library(doc):
    assert _dump_json(doc) == stdlib(doc)


def test_renders_subclasses_as_the_standard_library():
    np = pytest.importorskip("numpy")
    docs = [
        [np.float64(0.1), np.float64(math.nan), Loud(2.5), Level.HIGH, Label("q")],
        {"a": np.float64(0.25), "b": 1.0},
        Rows([1.0, Rows([2, 3])]),
        Record(b=1.0, a=Record(d=[], c=2.0)),
        OrderedDict(b=1.0, a=2.0),
        {Label("k"): 1.0, "j": 2.0},
        (1, (2.0, "x")),
    ]
    for doc in docs:
        assert _dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [{1: 1.0}, {None: "x"}, {"a": 1.0, 2: 2.0}, {(1,): 1.0}, {"a": {1, 2}}, [b"x"], object(),
     {"a": 1j}],
    ids=["int-key", "none-key", "mixed-keys", "tuple-key", "set", "bytes", "object", "complex"],
)
def test_rejects_what_it_does_not_render(doc):
    with pytest.raises(TypeError):
        _dump_json(doc)


def test_chunks_reach_a_writer_without_a_copy_of_the_text():
    # joining the text before writing it, as _dump_json does, peaks at about twice its length
    n, m = 200, 20
    values = gen_fnnn(FnnnGenConfig(seed=5), n * m)
    dm = make_decision_matrix([f"A{k}" for k in range(n)], [f"C{j}" for j in range(m)],
                              [values[k * m:(k + 1) * m] for k in range(n)],
                              gen_weights(random.Random(5), m))
    doc = report_to_dict(run_pipeline(dm))
    length = len(_dump_json(doc))
    gc.collect()
    tracemalloc.start()
    try:
        deque(_json_chunks(doc, "\n"), maxlen=0)  # a writer that discards what it gets
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 4, (peak, length)


# ---------------------------------------------------------------------------
# a rank report, rendered from the matrix's float rows


# labels that JSON must escape, non-ASCII and control characters included
LABELS = st.text(st.characters(codec="utf-8", exclude_categories=()), max_size=5) | st.sampled_from(
    ['"', "\\", "é", "a,b", "\n", "%r", "\x00", " x ", "\U0001f600"]
)


def problem(alternatives, attributes, seed: int, band) -> dict:
    """A valid problem file's JSON document; in the band (0.7, 0.999) of
    memberships an aggregate may pass the cubic-sum bound, which a note names."""
    n, m = len(alternatives), len(attributes)
    return {
        "alternatives": alternatives,
        "attributes": attributes,
        "cells": [fnnn_to_dict(v) for v in gen_fnnn(FnnnGenConfig(membership_range=band, seed=seed), n * m)],
        "weights": list(gen_weights(random.Random(seed), m)),
    }


@st.composite
def problems(draw):
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    return problem(draw(st.lists(LABELS, min_size=n, max_size=n, unique=True)),
                   draw(st.lists(LABELS, min_size=m, max_size=m, unique=True)),
                   draw(st.integers(0, 2**32)), draw(st.sampled_from([(0.1, 0.95), (0.7, 0.999)])))


# at lambda 2.5 with fnnwa, both notes: a fractional lambda, and an aggregate above the bound
NOTED = problem(['"a"', "b\n%r"], ["x", "é"], 22, (0.7, 0.999))


@settings(max_examples=100, deadline=None)
@example(doc=NOTED, operator="fnnwa", metric="hamming", lam=2.5)
@given(doc=problems(), operator=st.sampled_from(sorted(OPERATORS)),
       metric=st.sampled_from(sorted(METRICS)),
       lam=st.sampled_from([1.0, 2.5, 3.0, 7.25, 34.0]) | st.floats(1.0, 34.0))
def test_rank_json_prints_what_report_to_dict_holds(doc, operator, metric, lam):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["rank", path, "--operator", operator, "--metric", metric,
                             "--lambda", repr(lam), "--format", "json"])
        rep = run_pipeline(normalize(parse_problem(path)), PipelineConfig(operator, metric, lam))
    assert code == 0
    assert bool(rep.notes) >= (not lam.is_integer())
    if doc is NOTED:
        assert rep.notes[1].startswith("aggregate for b\n%r has membership cubic sum")
    assert out.getvalue() == json.dumps(report_to_dict(rep), indent=2, sort_keys=True) + "\n"


def listed(lams) -> tuple[list[str], list[float]]:
    return ["--lambdas", ",".join(map(repr, lams))], lams


# grids of one lambda, of fractional lambdas and the paper's 1..34, as argv and values
GRIDS = (st.sampled_from([[1.0], [34.0], [2.5]])
         | st.lists(st.floats(1.0, 34.0), min_size=1, max_size=4, unique=True).map(sorted)
         ).map(listed) | st.just((["--lambda-range", "1..34"], [float(v) for v in range(1, 35)]))


@settings(max_examples=100, deadline=None)
@example(doc=NOTED, operator="fnnwa", metric="hamming", grid=listed([1.0, 2.5, 34.0]))
@given(doc=problems(), operator=st.sampled_from(sorted(OPERATORS)),
       metric=st.sampled_from(sorted(METRICS)), grid=GRIDS)
def test_sweep_json_prints_what_sweep_to_dict_holds(doc, operator, metric, grid):
    argv, lams = grid
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["sweep", path, "--operator", operator, "--metric", metric, *argv,
                             "--format", "json"])
        dm, config = normalize(parse_problem(path)), PipelineConfig(operator, metric)
    result = lambda_sweep(dm, config, lams)
    assert code == 0
    assert out.getvalue() == json.dumps(sweep_to_dict(result, dm, config), indent=2,
                                        sort_keys=True) + "\n"
    # each row streams as a piece of its own, and no piece holds two
    pieces = _json_chunks(_sweep_doc(result, dm, config), "\n")
    rows = [piece.count('"closeness": [') for piece in pieces]
    assert max(rows) == 1 and sum(rows) == len(lams)


CELL_VALUES = FLOATS.filter(math.isfinite)


@settings(max_examples=200, deadline=None)
@example(columns=[(-0.0,), (1.0,), (0.5,), (0.5,), (5e-324,)])
@example(columns=[(0.5, 1.0), (1e308, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, -1e308)])
@given(columns=st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(CELL_VALUES, min_size=k, max_size=k).map(tuple),
                       min_size=5, max_size=5)))
def test_a_record_renders_as_the_dicts_it_stands_for(columns):
    # a record holds one or more finite plain floats, as every record of _report_doc does
    record = _Cells(*columns)
    doc = {"normalized": [record, record], "aggregates": record}
    assert _dump_json(doc) == stdlib(
        {"normalized": [record.dicts()] * 2, "aggregates": record.dicts()})


@pytest.mark.parametrize("rows", [(), (SweepRow(1.0, (0.25, -0.0, 1.0), (2, 0, 1)),),
                                  (SweepRow(1.5, (5e-324,), (0,)),) * 3],
                         ids=["no-rows", "one-row", "three-rows"])
def test_a_sweep_record_renders_as_the_dicts_it_stands_for(rows):
    labels = ('"a"', "%r", "é\n")[:len(rows[0].closeness) if rows else 1]
    record = _SweepRows(rows, labels)
    assert _dump_json({"rows": record, "x": [record]}) == stdlib(
        {"rows": record.dicts(), "x": [record.dicts()]})


@pytest.mark.parametrize("path", ["demos/engineers.csv", "tests/golden/seeded_12x6.csv"])
def test_report_to_dict_holds_each_value_as_a_dict(path):
    rep = run_pipeline(parse_problem(str(ROOT / path)), PipelineConfig("gfnnwg", "euclidean", 3.0))
    doc = report_to_dict(rep)
    assert doc["normalized"] == [[fnnn_to_dict(c) for c in row] for row in rep.matrix.cells]
    assert doc["aggregates"] == [fnnn_to_dict(a) for a in rep.aggregates]
    assert [list(d) for d in doc["aggregates"]] == [["eta", "xi", "t", "i", "f"]] * len(rep.aggregates)
