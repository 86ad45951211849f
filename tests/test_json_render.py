"""The CLI's JSON renderer against ``json.dumps(..., indent=2, sort_keys=True)``."""

import enum
import gc
import json
import math
import random
import tracemalloc
from collections import OrderedDict, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnnmadm import FnnnGenConfig, gen_fnnn, gen_weights, make_decision_matrix, run_pipeline
from fnnmadm.cli import _dump_json, _json_chunks, report_to_dict


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
