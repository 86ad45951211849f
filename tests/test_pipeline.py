"""Seven-step ranking pipeline and the lambda sweep."""

import dataclasses
import math
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import engineers_case as case
from fnnmadm import aggregate, core, pipeline
from fnnmadm import (
    METRICS,
    OPERATORS,
    CubicSumExceeded,
    DecisionMatrix,
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    FnnError,
    Fnnn,
    FnnnGenConfig,
    LambdaInvalid,
    LengthMismatch,
    MembershipOutOfRange,
    NormalDomainError,
    NotFinite,
    PipelineConfig,
    SpreadNonPositive,
    UnknownName,
    ValidationError,
    WeightInvalid,
    ZeroLocation,
    aggregate_rows,
    closeness,
    fnnwa,
    fold_fnnwa,
    fold_gfnnwa,
    gen_fnnn,
    gen_weights,
    gfnnwa,
    ideal_values,
    lambda_sweep,
    make_decision_matrix,
    make_fnnn,
    normalize,
    power,
    rank,
    run_pipeline,
)
from fnnmadm import cli
from fnnmadm.cli import main as cli_main
from fnnmadm.cli import report_to_dict, _dump_json


def test_matrix_shape_validation():
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(EmptyInput):
        make_decision_matrix([], [], [], [])
    with pytest.raises(LengthMismatch):
        make_decision_matrix(["A"], ["x", "y"], [[v]], (0.5, 0.5))
    with pytest.raises(LengthMismatch):
        make_decision_matrix(["A", "B"], ["x"], [[v]], (1.0,))
    neg = make_fnnn(-1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(ZeroLocation):
        make_decision_matrix(["A"], ["x"], [[neg]], (1.0,))


def test_a_matrix_built_directly_checks_itself():
    cell = ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,))
    zero = ((0.0,), *cell[1:])
    with pytest.raises(ZeroLocation):
        DecisionMatrix(("A", "B"), ("x",), (zero, cell), (1.0,))
    with pytest.raises(DuplicateLabel):
        DecisionMatrix(("A", "A"), ("x",), (cell, cell), (1.0,))
    with pytest.raises(WeightInvalid):
        DecisionMatrix(("A", "B"), ("x",), (cell, cell), (0.5,))
    weights = DecisionMatrix(("A",), ("x",), (cell,), [1]).weights
    assert weights == (1.0,) and type(weights[0]) is float


def test_a_matrix_given_none_raises_a_typed_error():
    # None weights skipped the weights check, and storing them raised a bare TypeError
    cell = ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,))
    with pytest.raises(LengthMismatch, match=r"^expected 1 weights, got 0$"):
        DecisionMatrix(("A",), ("x",), (cell,), None)
    with pytest.raises(EmptyInput):
        DecisionMatrix(None, ("x",), (cell,), (1.0,))


def test_a_matrix_given_no_rows_raises_a_typed_error():
    # None rows raised a bare TypeError; they are no rows, as None weights are no weights
    with pytest.raises(LengthMismatch, match=r"^1 alternatives but 0 cell rows$"):
        DecisionMatrix(("A",), ("x",), None, (1.0,))


# float() read each character of "1", or each byte of b"\x01", as a weight: both were
# (1.0,); tuple() of 3.0 raised a bare TypeError
@pytest.mark.parametrize("weights", [["x"], [None], [10 ** 400], "1", b"\x01", bytearray(b"\x01"),
                                     3.0])
def test_a_matrix_given_weights_that_are_no_numbers_raises_a_typed_error(weights):
    cell = ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,))
    with pytest.raises(WeightInvalid) as raised:
        DecisionMatrix(("A",), ("x",), (cell,), weights)
    if weights == 3.0:  # a single number is no vector; it was named as a number out of range
        assert str(raised.value) == "weights must be real numbers, not float"


CELL = ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,))


# each raised a bare TypeError (tuple() of a float or an int), or, for bytes channels, made
# a valid matrix of the cell (1, 1, 0, 0, 0), as each byte was read as an int
@pytest.mark.parametrize("rows, message", [
    (3.0, "rows must be an iterable of rows, not float"),
    ([5], "row 0 must be five iterables of real numbers, not int"),
    ([b"abcde"], "row 0 must be five iterables of real numbers, not bytes"),
    ([(b"\x01", bytearray(b"\x01"), b"\x00", b"\x00", b"\x00")],
     "row 0 must be five iterables of real numbers, not bytes"),
    ([CELL, ("1", *CELL[1:])], "row 1 must be five iterables of real numbers, not str"),
], ids=["float-rows", "int-row", "bytes-row", "bytes-channels", "str-channel"])
def test_rows_of_no_iterables_or_of_text_raise_a_typed_error(rows, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DecisionMatrix(("A", "B"), ("x",), rows, (1.0,))


class _Tagged(float):
    """A float subclass that shows its type, as numpy's float64 does."""

    def __repr__(self):
        return f"_Tagged({float(self)!r})"


def _plain_floats(values) -> bool:
    """Whether every number in nested tuples, lists and values is a plain float."""
    if isinstance(values, (tuple, list)):
        return all(map(_plain_floats, values))
    if isinstance(values, Fnnn):
        return _plain_floats((values.eta, values.xi, values.t, values.i, values.f))
    return type(values) is float


@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_a_matrix_of_float_subclasses_ranks_in_plain_floats(engineers_matrix, operator):
    # rows of numpy float64 gave float64 aggregates and distances, which the
    # rank CSV wrote as np.float64(...)
    tagged = [tuple(tuple(map(_Tagged, col)) for col in row) for row in engineers_matrix.rows]
    dm = DecisionMatrix(engineers_matrix.alternatives, engineers_matrix.attributes, tagged,
                        list(map(_Tagged, engineers_matrix.weights)))
    assert dm == engineers_matrix and _plain_floats(dm.rows)  # read once, when it is made
    config = PipelineConfig(operator, lam=3.0)
    rep = run_pipeline(dm, config)
    assert rep == run_pipeline(engineers_matrix, config)
    assert _plain_floats([rep.matrix.rows, rep.matrix.weights, rep.aggregates, rep.positive_ideal,
                          rep.negative_ideal, rep.d_plus, rep.d_minus, rep.closeness])
    assert _plain_floats(aggregate_rows(normalize(dm), operator, 3.0))
    assert _plain_floats([row.closeness for row in lambda_sweep(dm, config, [1, 2]).rows])
    assert "_Tagged" not in cli._render_rank_csv(rep) + _dump_json(report_to_dict(rep))


@pytest.mark.parametrize("number", [Decimal, Fraction])
def test_a_matrix_of_other_real_numbers_ranks_in_plain_floats(engineers_matrix, number):
    # Decimal memberships reached xlog, whose x - 1.0 raised a bare TypeError
    rows = [tuple(tuple(map(number, col)) for col in row) for row in engineers_matrix.rows]
    dm = DecisionMatrix(engineers_matrix.alternatives, engineers_matrix.attributes, rows,
                        engineers_matrix.weights)
    rep = run_pipeline(dm, PipelineConfig("gfnnwa", lam=3.0))
    assert _plain_floats([rep.matrix.rows, rep.aggregates, rep.d_plus, rep.closeness])
    expected = run_pipeline(engineers_matrix, PipelineConfig("gfnnwa", lam=3.0))
    assert rep.ordering == expected.ordering
    assert rep.closeness == pytest.approx(expected.closeness, rel=1e-12)


@pytest.mark.parametrize("value", ["0.5", None], ids=["str", "None"])
def test_a_matrix_of_cells_that_are_no_numbers_raises_a_typed_error(value):
    # check_cell compared a str or None with a float, which raised a bare TypeError
    rows = [((value, value),) * 5] * 2
    with pytest.raises(ValidationError) as raised:
        DecisionMatrix(("A", "B"), ("x", "y"), rows, (0.5, 0.5))
    kind = type(value).__name__
    assert str(raised.value) == (f"invalid cell at (A, x): eta, xi, t, i, f must be real numbers: "
                                 f"{kind}, {kind}, {kind}, {kind}, {kind}")


@pytest.mark.parametrize("at", [0, 1], ids=["location", "spread"])
@pytest.mark.parametrize("value, error, reason", [
    (10 ** 400, NotFinite, "eta, xi, t, i, f must be real numbers in float64's range"),
    (Decimal("sNaN"), NotFinite, "eta, xi, t, i, f must be real numbers in float64's range"),
    (Decimal("NaN"), NotFinite, "{} must be a finite number"),
], ids=["int-beyond-float64", "Decimal-sNaN", "Decimal-NaN"])
def test_a_cell_that_does_not_compare_with_floats_is_named(at, value, error, reason):
    # an int beyond float64 passed check_cell, whose comparisons are exact, and float()
    # of the extrema raised a bare OverflowError; a Decimal NaN raised a bare
    # decimal.InvalidOperation from check_cell's comparisons
    rows = [[[1.0], [0.5], [0.5], [0.5], [0.5]] for _ in range(2)]
    rows[0][at] = [value]
    with pytest.raises(error) as raised:
        DecisionMatrix(("A", "B"), ("x",), rows, (1.0,))
    assert str(raised.value) == "invalid cell at (A, x): " + reason.format(("eta", "xi")[at])


def _beside_a_valid_cell(cell):
    """A 2x1 matrix of ``cell`` at (A, x) and a valid cell at (B, x)."""
    rows = [tuple((v,) for v in cell), ((1.0,), (0.5,), (0.5,), (0.5,), (0.5,))]
    return DecisionMatrix(("A", "B"), ("x",), rows, (1.0,))


@pytest.mark.parametrize("cell", [
    (1, 0.5, Fraction(1) + Fraction(1, 10 ** 30), 0.5, 0.5),
    tuple(map(Decimal, ("1", "0.5", "1", "1", "0.000001"))),
    (1.0, 0.5, Fraction(1), Fraction(1), Fraction(1, 10 ** 6)),
], ids=["Fraction-t-above-1", "Decimal-cubic-sum-above-2", "Fraction-cubic-sum-above-2"])
def test_a_matrix_checks_a_cell_as_make_fnnn_does(cell):
    # the matrix checked the exact values, which make_fnnn reads as floats: it raised
    # MembershipOutOfRange for t = 1 + 1e-30 and CubicSumExceeded for 2 + 1e-18, and
    # on Python 3.11 formatting a Fraction in check_cell's message raised a TypeError,
    # whose fallback then accepted the last cell in floats
    value = make_fnnn(*cell)
    dm = _beside_a_valid_cell(cell)
    assert [channel[0] for channel in dm.rows[0]] == [value.eta, value.xi, value.t, value.i, value.f]
    assert _plain_floats(dm.rows)


@pytest.mark.parametrize("eta", [Fraction(1, 10 ** 400), Decimal("1e-400")], ids=["Fraction", "Decimal"])
def test_a_location_that_is_0_as_a_float_is_a_zero_location(eta):
    # the exact check passed the location, and normalization then divided by 0.0: a bare
    # ZeroDivisionError
    assert make_fnnn(eta, 0.5, 0.5, 0.5, 0.5).eta == 0.0
    with pytest.raises(ZeroLocation, match=r"^invalid cell at \(A, x\): eta = 0\.0 must be > 0 "):
        _beside_a_valid_cell((eta, 0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("labels, kind", [(3, "int"), (2.0, "float"), ("AB", "str"), (b"AB", "bytes")])
@pytest.mark.parametrize("at", ["alternatives", "attributes"])
def test_labels_that_are_no_iterable_or_text_raise_a_typed_error(at, labels, kind):
    # 3 and 2.0 raised a bare TypeError, and "AB" was read as the two labels A and B
    given = {"alternatives": ("A", "B"), "attributes": ("x",), at: labels}
    with pytest.raises(ValidationError, match=f"^{at} must be an iterable of labels, not {kind}$"):
        DecisionMatrix(given["alternatives"], given["attributes"], [CELL, CELL], (1.0,))


@pytest.mark.parametrize("label", [None, b"A", bytearray(b"A"), ["A"], {"k": 1}, True],
                         ids=["None", "bytes", "bytearray", "list", "dict", "bool"])
@pytest.mark.parametrize("at", ["alternatives", "attributes"])
def test_a_label_that_is_none_or_bytes_raises_a_typed_error(at, label):
    # str() read None as the label 'None', b"A" as "b'A'", ["A"] as "['A']",
    # {"k": 1} as "{'k': 1}" and True as 'True'
    given = {"alternatives": (label, "B"), "attributes": ("x",)}
    if at == "attributes":
        given = {"alternatives": ("A", "B"), "attributes": (label,)}
    kind = type(label).__name__
    with pytest.raises(ValidationError, match=f"^{at} must be labels of text or numbers, not {kind}$"):
        DecisionMatrix(given["alternatives"], given["attributes"], [CELL, CELL], (1.0,))


def test_a_label_that_is_a_number_is_its_text():
    dm = DecisionMatrix((1, Decimal("2.5")), (Fraction(1, 2),), [CELL, CELL], (1.0,))
    assert (dm.alternatives, dm.attributes) == (("1", "2.5"), ("1/2",))


class _Counted:
    """A real number that counts how often float() reads it."""

    def __init__(self, value):
        self.value, self.reads = value, 0

    def __float__(self):
        self.reads += 1
        return self.value


def test_a_matrix_reads_each_weight_once():
    # the weights check read each weight, and the matrix then read it again to store it
    weights = [_Counted(0.25), _Counted(0.75)]
    row = ((1.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
    dm = DecisionMatrix(("A",), ("x", "y"), (row,), weights)
    assert [w.reads for w in weights] == [1, 1]
    assert dm.weights == (0.25, 0.75) and all(type(w) is float for w in dm.weights)


def _decimal_mixed(rows):
    """The rows with every other value a Decimal of it, the rest as they are."""
    return [tuple(tuple(Decimal(v) if (i + j + k) % 2 else v for k, v in enumerate(col))
                  for j, col in enumerate(row)) for i, row in enumerate(rows)]


@pytest.mark.parametrize("spread", [1.0, 1e-160], ids=["in-range", "wide-spreads"])
def test_a_matrix_of_decimal_and_float_cells_ranks_as_its_floats(spread):
    # a Decimal next to a float reached _problems' range shortcut and the divisions
    # of normalization, which raised a bare TypeError
    rows = [((0.5,), (1.0,), (0.5,), (0.5,), (0.5,)), ((1.0,), (spread,), (0.5,), (0.5,), (0.5,))]
    floats = DecisionMatrix(("A", "B"), ("x",), rows, (1.0,))
    for mixed in (_decimal_mixed(rows), [((Decimal("0.5"),), *rows[0][1:]), rows[1]]):
        dm = DecisionMatrix(("A", "B"), ("x",), mixed, (1.0,))
        for operator in OPERATORS:
            config = PipelineConfig(operator, lam=3.0)
            assert run_pipeline(dm, config) == run_pipeline(floats, config)
            assert lambda_sweep(dm, config, [1, 3, 34]) == lambda_sweep(floats, config, [1, 3, 34])


def test_the_engineers_problem_with_decimal_and_float_cells_ranks_as_its_floats(
        engineers_matrix):
    mixed = DecisionMatrix(engineers_matrix.alternatives, engineers_matrix.attributes,
                           _decimal_mixed(engineers_matrix.rows), engineers_matrix.weights)
    for operator in OPERATORS:
        config = PipelineConfig(operator, lam=3.0)
        assert run_pipeline(mixed, config) == run_pipeline(engineers_matrix, config)


def test_a_matrix_holds_its_labels_and_rows_as_tuples():
    # a matrix made from lists kept them: it could not be hashed, and it was not
    # equal to the same matrix made from tuples; weights given as an iterator were
    # used up by the check, and the matrix held no weights
    cell = ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,))
    listed = DecisionMatrix([1], ["x"], [[list(v) for v in cell]], [1])
    tupled = DecisionMatrix(("1",), ("x",), (cell,), (1.0,))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.alternatives == ("1",) and listed.rows == (cell,)
    assert DecisionMatrix(iter("1"), iter("x"), iter([cell]), iter([1.0])) == tupled


def test_the_repr_of_a_matrix_shows_its_cells():
    dm = DecisionMatrix(["A"], ["x"], [[[2.0], [1.0], [0.5], [0.25], [0.5]]], [1])
    mu = "mu=MembershipTriple(t=0.5, i=0.25, f=0.5)"
    assert repr(dm) == (
        "DecisionMatrix(alternatives=('A',), attributes=('x',), "
        f"cells=((Fnnn(normal=NormalParams(eta=2.0, xi=1.0), {mu}),),), "
        "weights=(1.0,), normalized=False)"
    )
    assert repr(normalize(dm)) == (
        "DecisionMatrix(alternatives=('A',), attributes=('x',), "
        f"cells=((Fnnn(normal=NormalParams(eta=1.0, xi=0.5), {mu}),),), "
        "weights=(1.0,), normalized=True)"
    )


@pytest.mark.parametrize("cell, error, reason", [
    ((1.0, 1.0, 1.5, 0.5, 0.5), MembershipOutOfRange, "t = 1.5 is outside [0, 1]"),
    ((1.0, 1.0, math.nan, 0.5, 0.5), MembershipOutOfRange, "t is not a number"),
    ((1.0, 1.0, -0.2, 0.5, 0.5), MembershipOutOfRange, "t = -0.2 is outside [0, 1]"),
    ((1.0, 1.0, 1.0, 1.0, 1.0), CubicSumExceeded, "t^3 + i^3 + f^3 = 3 exceeds 2"),
    ((1.0, 0.0, 0.5, 0.5, 0.5), SpreadNonPositive, "xi = 0.0 must be > 0"),
    ((math.inf, 1.0, 0.5, 0.5, 0.5), NotFinite, "eta must be a finite number"),
    ((1.0, 1.0, None, 0.5, 0.5), ValidationError,
     "eta, xi, t, i, f must be real numbers: float, float, NoneType, float, float"),
])
def test_a_matrix_built_directly_checks_its_cells(cell, error, reason):
    # each cell is checked as make_fnnn checks it, next to a valid cell
    row = tuple(zip((1.0, 1.0, 0.5, 0.5, 0.5), cell))
    with pytest.raises(error) as raised:
        DecisionMatrix(("A",), ("x", "y"), (row,), (0.5, 0.5))
    assert str(raised.value) == f"invalid cell at (A, y): {reason}"


@pytest.mark.parametrize("row", [
    ((1.0, 1.0), (1.0,), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),  # one spread short
    ((1.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5)),  # no falsities
    ((1.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),
])
def test_a_matrix_checks_the_shape_of_each_row(row):
    with pytest.raises(LengthMismatch):
        DecisionMatrix(("A",), ("x", "y"), (row,), (0.5, 0.5))


@pytest.mark.parametrize("t", [1.5, math.nan])
def test_a_matrix_cannot_be_made_normalized(t, engineers_matrix):
    # as a constructor argument, normalized=True skipped every check: with
    # t = 1.5 run_pipeline raised a bare ValueError, with t = nan it ranked
    rows = (((1.0,), (1.0,), (t,), (0.5,), (0.5,)), ((1.0,), (1.0,), (0.5,), (0.5,), (0.5,)))
    with pytest.raises(TypeError):
        DecisionMatrix(("A", "B"), ("x",), rows, (1.0,), normalized=True)
    with pytest.raises(ValueError):
        dataclasses.replace(engineers_matrix, normalized=True)
    nm = normalize(engineers_matrix)
    assert nm.normalized and not engineers_matrix.normalized
    assert normalize(nm) is nm


def test_replace_of_a_normalized_matrix_raises(engineers_matrix):
    # it made a raw matrix of normalized rows, whose spreads run_pipeline then
    # normalized again: closeness[4] 0.5730 against 0.5651
    nm = normalize(engineers_matrix)
    with pytest.raises(ValidationError, match="made only by normalize"):
        dataclasses.replace(nm, weights=engineers_matrix.weights)
    again = dataclasses.replace(engineers_matrix, weights=engineers_matrix.weights)
    assert run_pipeline(again) == run_pipeline(engineers_matrix)
    copied = pickle.loads(pickle.dumps(nm))  # made without the constructor, as normalize does
    assert copied == nm and run_pipeline(copied) == run_pipeline(nm)


def test_make_decision_matrix_rejects_a_cell_above_the_cubic_sum_bound():
    agg = fnnwa([make_fnnn(1, 1, 1, 0, 1), make_fnnn(1, 1, 0, 1, 1)], [0.5, 0.5])
    assert not agg.is_valid()
    with pytest.raises(CubicSumExceeded, match=r"^invalid cell at \(A, x\): "):
        make_decision_matrix(["A"], ["x"], [[agg]], (1.0,))


# each raised a bare TypeError from iter(cells), before the labels were read
@pytest.mark.parametrize("cells, error, message", [
    (5, ValidationError, "rows must be an iterable of rows, not int"),
    ("ab", ValidationError, "rows must be an iterable of rows, not str"),
    (None, LengthMismatch, "1 alternatives but 0 cell rows"),
], ids=["int", "str", "None"])
def test_make_decision_matrix_reads_cells_as_a_matrix_reads_rows(cells, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make_decision_matrix(["A"], ["x"], cells, [1.0])
    with pytest.raises(error, match=f"^{message}$"):
        DecisionMatrix(["A"], ["x"], cells, [1.0])
    # the labels are read first
    with pytest.raises(ValidationError, match="^attributes must be an iterable of labels, not int$"):
        make_decision_matrix(["A"], 3, cells, [1.0])


def test_a_matrix_and_a_config_are_checked_once_per_call(monkeypatch, engineers_matrix):
    # never per cell or per lambda
    calls = []
    of_type = pipeline.of_type
    monkeypatch.setattr(pipeline, "of_type", lambda *args: calls.append(args[2]) or of_type(*args))
    lambda_sweep(engineers_matrix, PipelineConfig(), range(1, 35))
    run_pipeline(engineers_matrix)
    aggregate_rows(engineers_matrix, "fnnwg", 2)
    normalize(engineers_matrix)
    matrix, config = "dm must be a DecisionMatrix", "config must be a PipelineConfig"
    assert calls == [matrix, config] * 2 + [matrix] * 2


def _counting_check_cell(monkeypatch):
    calls = []
    check = pipeline.check_cell
    monkeypatch.setattr(pipeline, "check_cell", lambda *cell: calls.append(cell) or check(*cell))
    return calls


def test_a_matrix_of_values_checks_only_rows_above_the_cubic_sum_bound(monkeypatch):
    # values of the exact library types carry their finite location, finite positive
    # spread and memberships in [0, 1]; a row is checked cell by cell only where one
    # of its cubic sums exceeds the bound, so that the error names the cell
    values = gen_fnnn(FnnnGenConfig(seed=5), 12)
    above = fnnwa([make_fnnn(1, 1, 1, 0, 1), make_fnnn(1, 1, 0, 1, 1)], [0.5, 0.5])
    calls = _counting_check_cell(monkeypatch)
    labels = ["A", "B", "C"], ["x", "y", "z", "w"]
    dm = make_decision_matrix(*labels, [values[0:4], values[4:8], values[8:12]], [0.25] * 4)
    assert calls == [] and dm.cells == (tuple(values[0:4]), tuple(values[4:8]), tuple(values[8:12]))
    rows = [values[0:4], [*values[4:6], above, values[6]], values[8:12]]
    with pytest.raises(CubicSumExceeded, match=r"^invalid cell at \(B, z\): t\^3 \+ i\^3 \+ f\^3 = "):
        make_decision_matrix(*labels, rows, [0.25] * 4)
    assert len(calls) == 3  # B's cells up to the first above the bound
    calls.clear()
    read = tuple(map(aggregate.read_row, rows))
    problems = list(pipeline._problems(*labels, read, None, exact=True))
    assert [cell for cell, _ in problems] == [(1, 2)] and len(calls) == 4
    calls.clear()
    assert [cell for cell, _ in pipeline._problems(*labels, read, None)] == [(1, 2)]
    assert len(calls) == 12  # a matrix of numbers checks every cell


class _LooseNormal(core.NormalParams):
    def __post_init__(self):  # skips the checks of NormalParams
        pass


class _LooseTriple(core.MembershipTriple):
    def __post_init__(self):  # skips the checks of MembershipTriple
        pass


@pytest.mark.parametrize("normal, mu, error, reason", [
    (_LooseNormal(math.nan, 1.0), None, NotFinite, "eta must be a finite number"),
    (_LooseNormal(1.0, -1.0), None, SpreadNonPositive, "xi = -1.0 must be > 0"),
    (None, _LooseTriple(1.5, 0.5, 0.5), MembershipOutOfRange, "t = 1.5 is outside [0, 1]"),
    (_LooseNormal("1", 1.0), None, ValidationError,
     "eta, xi, t, i, f must be real numbers: str, float, float, float, float"),
    (_LooseNormal(2, 1.0), None, None, None),
], ids=["nan-location", "negative-spread", "truth-above-1", "text-location", "int-location"])
def test_a_matrix_of_values_checks_parts_of_other_types_in_full(normal, mu, error, reason,
                                                                 monkeypatch):
    # a part of a subclass carries none of its type's rules: its matrix keeps the checks of
    # a matrix of numbers, and names the cell as a matrix made of its components does
    ok = make_fnnn(1.0, 1.0, 0.5, 0.5, 0.5)
    odd = Fnnn(normal or ok.normal, mu or ok.mu)
    components = [(1.0, 1.0, 0.5, 0.5, 0.5), (odd.eta, odd.xi, odd.t, odd.i, odd.f)]
    calls = _counting_check_cell(monkeypatch)
    if error is None:
        dm = make_decision_matrix(["A"], ["x", "y"], [[ok, odd]], [0.5, 0.5])
        assert type(dm.rows[0][0][1]) is float and len(calls) == 2
        assert dm.rows == DecisionMatrix(["A"], ["x", "y"], [tuple(zip(*components))], [0.5, 0.5]).rows
        return
    with pytest.raises(error) as raised:
        make_decision_matrix(["A"], ["x", "y"], [[ok, odd]], [0.5, 0.5])
    assert str(raised.value) == f"invalid cell at (A, y): {reason}"
    with pytest.raises(error, match=f"^{re.escape(str(raised.value))}$"):
        DecisionMatrix(["A"], ["x", "y"], [tuple(zip(*components))], [0.5, 0.5])


class _PlainNormal(core.NormalParams):
    """A subclass that keeps the checks of NormalParams, with a __dict__ besides."""


class _PlainTriple(core.MembershipTriple):
    """A subclass that keeps the checks of MembershipTriple, with a __dict__ besides."""


def test_a_plain_subclass_of_a_slotted_part_is_checked_in_full(monkeypatch):
    # only the exact types skip the checks their values carry: a subclass, here one
    # with a __dict__ of its own, may carry other rules
    ok = make_fnnn(1.0, 1.0, 0.5, 0.5, 0.5)
    parts = _PlainNormal(2, 1.0), _PlainTriple(0.25, 0.5, 0.5)
    assert all(vars(part) == {} for part in parts)
    calls = _counting_check_cell(monkeypatch)
    row = [ok, Fnnn(parts[0], ok.mu), Fnnn(ok.normal, parts[1])]
    dm = make_decision_matrix(["A"], ["x", "y", "z"], [row], [0.25, 0.25, 0.5])
    assert len(calls) == 3 and all(type(v) is float for channel in dm.rows[0] for v in channel)
    assert dm.rows[0][0] == (1.0, 2.0, 1.0) and dm.rows[0][2] == (0.5, 0.5, 0.25)
    calls.clear()
    make_decision_matrix(["A"], ["x"], [[ok]], [1.0])
    assert calls == []  # a matrix of the exact types checks no cell in range


ANY_FLOAT = st.floats() | st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-300, 1e300])
ANY_CELL = st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT)
UNIT_CELL = st.tuples(
    st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), *[st.floats(0.0, 0.8)] * 3
)


@st.composite
def direct_matrices(draw):
    """Cells and weights of a 1-3 x 1-3 matrix; half the matrices mix cells
    of arbitrary floats into cells in range, the other half are in range."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = ANY_CELL | UNIT_CELL if draw(st.booleans()) else UNIT_CELL
    row = st.lists(cell, min_size=m, max_size=m)
    cells = draw(st.lists(row, min_size=n, max_size=n))
    weights = draw(st.just([1.0 / m] * m) | st.lists(ANY_FLOAT, min_size=m, max_size=m))
    return cells, weights


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(matrix=([[(1.0, 1.0, math.nan, 0.5, 0.5), (1.0, 1.0, 0.5, 0.5, 0.5)]], [0.5, 0.5]))
@example(matrix=([[(1.0, 1.0, 1.5, 0.5, 0.5), (1.0, 1.0, 0.5, 0.5, 0.5)]], [0.5, 0.5]))
@example(matrix=([[(1.0, 1e104, 0.5, 0.5, 0.5)], [(1.0, 1.0, 0.5, 0.5, 0.5)]], [1.0]))
@given(matrix=direct_matrices())
def test_a_directly_built_matrix_ranks_or_raises_a_typed_error(matrix):
    cells, weights = matrix
    rows = tuple(tuple(zip(*row)) for row in cells)
    labels = [f"A{k}" for k in range(len(cells))], [f"C{j}" for j in range(len(weights))]
    try:
        dm = DecisionMatrix(*labels, rows, weights)
    except FnnError:
        return
    for row in cells:
        for cell in row:
            make_fnnn(*cell)  # the matrix took only cells that make a value
    for operator in OPERATORS:
        for metric in ("hamming", "euclidean"):
            for lam in (1.0, 3.0):
                try:
                    rep = run_pipeline(dm, PipelineConfig(operator, metric, lam))
                except FnnError:
                    continue
                assert all(0.0 <= c <= 1.0 for c in rep.closeness), (operator, metric, lam)


def test_weights_are_checked_once_per_matrix(monkeypatch, engineers_matrix):
    calls = []
    check_weights = pipeline.check_weights
    monkeypatch.setattr(pipeline, "check_weights",
                        lambda *args, **kw: calls.append(1) or check_weights(*args, **kw))
    dm = dataclasses.replace(engineers_matrix)  # made again through the constructor
    assert len(calls) == 1
    aggregate_rows(normalize(dm), "gfnnwa", 2)
    run_pipeline(dm)
    lambda_sweep(dm, PipelineConfig(), [1, 2])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "alternatives, attributes", [(["A", "A"], ["x"]), (["A", "B"], ["x", "x"])]
)
def test_matrix_rejects_duplicate_labels(alternatives, attributes):
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    cells = [[v] * len(attributes)] * len(alternatives)
    weights = [1.0 / len(attributes)] * len(attributes)
    with pytest.raises(DuplicateLabel):
        make_decision_matrix(alternatives, attributes, cells, weights)


def test_normalize_matches_published_cells(engineers_matrix):
    nm = normalize(engineers_matrix)
    assert nm.normalized
    for i in range(5):
        for j in range(4):
            cell = nm.cells[i][j]
            eta_exp, xi_exp = case.NORMALIZED_NORMALS[i][j]
            assert cell.eta == pytest.approx(eta_exp, abs=1e-3)
            assert cell.xi == pytest.approx(xi_exp, abs=1e-3)
            assert cell.mu == engineers_matrix.cells[i][j].mu


def test_pipeline_values_are_plain_floats(engineers_matrix):
    # numpy scalars would leak their reprs into CSV output
    rep = run_pipeline(engineers_matrix)
    cell = rep.matrix.cells[0][0]
    assert type(cell.eta) is float and type(cell.xi) is float
    for values in (rep.d_plus, rep.d_minus, rep.closeness):
        assert all(type(v) is float for v in values)


def test_normalize_single_alternative():
    v = make_fnnn(0.8, 0.4, 0.7, 0.6, 0.5)
    dm = make_decision_matrix(["A"], ["x"], [[v]], (1.0,))
    nm = normalize(dm)
    assert nm.cells[0][0].eta == pytest.approx(1.0)
    assert nm.cells[0][0].xi == pytest.approx(0.4 / 0.8)


def test_normalize_rejects_nonpositive_location():
    # the column max is positive, but normalization cannot divide by 0,
    # so construction rejects the matrix
    zero = make_fnnn(0.0, 1, 0.5, 0.5, 0.5)
    ok = make_fnnn(0.8, 1, 0.5, 0.5, 0.5)
    with pytest.raises(ZeroLocation):
        normalize(make_decision_matrix(["A", "B"], ["x"], [[zero], [ok]], (1.0,)))


def test_normalize_rejects_a_spread_that_overflows():
    # the location normalizes to 1, the spread to (xi / max xi) * (xi / eta) = 1e600,
    # so construction rejects the matrix
    with pytest.raises(NotFinite, match="xi must be a finite number"):
        normalize(make_decision_matrix(["A"], ["x"], [[make_fnnn(1e-300, 1e300, 0.5, 0.5, 0.5)]],
                                       (1.0,)))


def one_column(normals):
    """A matrix of one attribute whose cells have the (eta, xi) ``normals``."""
    cells = [[make_fnnn(eta, xi, 0.5, 0.5, 0.5)] for eta, xi in normals]
    return make_decision_matrix([f"A{k}" for k in range(len(cells))], ["x"], cells, (1.0,))


# a spread normalizes to (xi / max xi) * (xi / eta); each case leaves float64's
# range through a different factor, while the other bounds hold
@pytest.mark.parametrize("normals", [
    [(1.0, 2e-150), (1.0, 9e149)],  # xi / max xi = 2.2e-300, times 2e-150
    [(1e300, 1e-30)],  # xi / eta = 1e-330
])
def test_matrix_rejects_a_spread_that_normalizes_to_zero(normals):
    with pytest.raises(SpreadNonPositive, match=r"at \(A0, x\): normalized xi = 0.0 must be > 0"):
        one_column(normals)


def test_matrix_takes_spreads_that_span_a_wide_range():
    # (1e-100 / 1e100) * 1e-100 = 1e-300 is still a positive float
    nm = normalize(one_column([(1.0, 1e-100), (1.0, 1e100)]))
    assert [xis for _, xis, *_ in nm.rows] == [((1e-100 / 1e100) * 1e-100,), (1e100,)]


def test_a_nan_location_does_not_hide_a_nonpositive_one():
    rows = (((math.nan, -1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),)
    problems = pipeline._problems(("A",), ("x", "y"), rows, (0.5, 0.5))
    assert [(cell, str(e)) for cell, e in problems] == [
        ((0, 0), "invalid cell at (A, x): eta must be a finite number"),
        ((0, 1), "invalid cell at (A, y): eta = -1.0 must be > 0 for normalization"),
    ]


def test_normalize_returns_a_normalized_matrix_unchanged(engineers_matrix):
    # normalizing twice used to rescale the spreads again (E1's xi 0.4525 -> 0.2205)
    nm = normalize(engineers_matrix)
    assert normalize(nm) is nm
    assert run_pipeline(nm) == run_pipeline(engineers_matrix)


def test_normalize_column_scale_invariance(engineers_matrix):
    scaled_cells = [
        [
            make_fnnn(c.eta * (3.0 if j == 1 else 1.0), c.xi * (3.0 if j == 1 else 1.0),
                      c.t, c.i, c.f)
            for j, c in enumerate(row)
        ]
        for row in engineers_matrix.cells
    ]
    scaled = make_decision_matrix(
        engineers_matrix.alternatives,
        engineers_matrix.attributes,
        scaled_cells,
        engineers_matrix.weights,
    )
    nm, nms = normalize(engineers_matrix), normalize(scaled)
    for row_a, row_b in zip(nm.cells, nms.cells):
        for a, b in zip(row_a, row_b):
            assert a.eta == pytest.approx(b.eta, abs=1e-12)
            assert a.xi == pytest.approx(b.xi, abs=1e-12)
    assert run_pipeline(nm).ordering == run_pipeline(nms).ordering


def test_aggregate_rows_golden_and_fold(engineers_matrix):
    nm = normalize(engineers_matrix)
    aggs = aggregate_rows(nm, "fnnwa", 1)
    for got, expected in zip(aggs, case.AGGREGATES_FNNWA_LAM1):
        assert (got.eta, got.xi, got.t, got.i, got.f) == pytest.approx(expected, abs=2e-3)
    for got, row in zip(aggs, nm.cells):
        ref = fold_fnnwa(row, nm.weights, 1)
        assert abs(got.t - ref.t) <= 1e-10
        assert abs(got.i - ref.i) <= 1e-10
        assert abs(got.f - ref.f) <= 1e-10


def test_aggregate_rows_identity_single_attribute():
    v = make_fnnn(0.8, 0.4, 0.7, 0.6, 0.5)
    dm = normalize(make_decision_matrix(["A"], ["x"], [[v]], (1.0,)))
    agg = aggregate_rows(dm, "fnnwa", 1)[0]
    assert agg.mu == v.mu  # memberships pass through unchanged


def test_ideal_values_golden(engineers_matrix):
    aggs = aggregate_rows(normalize(engineers_matrix), "fnnwa", 1)
    positive, negative = ideal_values(aggs)
    assert (positive.t, positive.i, positive.f) == (1.0, 1.0, 0.0)
    assert (negative.t, negative.i, negative.f) == (0.0, 0.0, 1.0)
    # exactly the extrema of the aggregates
    assert positive.eta == max(a.eta for a in aggs)
    assert positive.xi == min(a.xi for a in aggs)
    assert negative.eta == min(a.eta for a in aggs)
    assert negative.xi == max(a.xi for a in aggs)
    assert positive.eta == pytest.approx(case.POSITIVE_IDEAL_NORMAL[0], abs=1e-3)
    assert positive.xi == pytest.approx(case.POSITIVE_IDEAL_NORMAL[1], abs=1e-3)
    assert negative.eta == pytest.approx(case.NEGATIVE_IDEAL_NORMAL[0], abs=1e-3)
    assert negative.xi == pytest.approx(case.NEGATIVE_IDEAL_NORMAL[1], abs=1e-3)


def test_ideal_values_single_alternative():
    v = make_fnnn(0.8, 0.4, 0.7, 0.6, 0.5)
    positive, negative = ideal_values([v])
    assert (positive.eta, positive.xi) == (0.8, 0.4)
    assert (negative.eta, negative.xi) == (0.8, 0.4)
    with pytest.raises(EmptyInput):
        ideal_values([])


def test_closeness_values():
    assert closeness([0.1954], [0.1733])[0] == pytest.approx(0.4704, abs=1e-3)
    assert closeness([0.25], [0.25]) == [0.5]
    with pytest.raises(DegenerateCloseness):
        closeness([0.0, 0.1], [0.0, 0.2])
    with pytest.raises(LengthMismatch):
        closeness([0.1], [0.1, 0.2])
    with pytest.raises(ValidationError, match="^distances must be nonnegative$"):
        closeness([-1.0], [1.0])


def test_closeness_of_finite_distances_whose_sum_overflows():
    # D+ + D- was inf, so D- / (D+ + D-) read 0.0
    assert closeness([1e308], [1e308]) == [0.5]
    assert closeness([1.5e308, 1.0], [1e308, 1.0]) == [0.4, 0.5]


@pytest.mark.parametrize("bad", ["x", None, 10 ** 400, Decimal("sNaN")],
                         ids=["str", "None", "int-beyond-float64", "sNaN"])
def test_closeness_and_rank_type_a_value_that_float_rejects(bad):
    # float() raised a bare TypeError, ValueError or OverflowError in closeness,
    # and math.isnan one in rank
    with pytest.raises(ValidationError, match=r"^distances must be real numbers in float64's range$"):
        closeness([bad, 0.5], [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^values to rank must be real numbers in float64's"):
        rank([0.5, bad])
    assert rank(["0.25", 0.5, Decimal("0.75")]) == [2, 1, 0]  # as float() reads them


# text as a vector of numbers: float() read each character, or each byte
TEXT_VECTORS = pytest.mark.parametrize("kind", [str, bytes, bytearray])


def _text(kind, text: str):
    return text if kind is str else kind(text.encode())


@TEXT_VECTORS
def test_closeness_and_rank_take_no_text(kind):
    # rank("31") gave [0, 1], and closeness("1", "1") [0.5]
    with pytest.raises(ValidationError, match=f"^values to rank must be real numbers, not {kind.__name__}$"):
        rank(_text(kind, "31"))
    with pytest.raises(ValidationError, match=f"^distances must be real numbers, not {kind.__name__}$"):
        closeness(_text(kind, "1"), _text(kind, "1"))


def test_overflow_is_a_typed_error(tmp_path, capsys):
    big = make_fnnn(1.0, 1e300, 0.5, 0.5, 0.5)
    dm = make_decision_matrix(["A"], ["x"], [[big]], (1.0,))
    # the Euclidean distance rescales a cube that overflows (xi' ** 3 here)
    config = PipelineConfig(metric="euclidean")
    assert run_pipeline(dm, config).closeness == lambda_sweep(dm, config, [1, 2]).rows[0].closeness
    with pytest.raises(NotFinite):
        closeness([float("inf")], [1.0])
    with pytest.raises(NotFinite):
        power(2.0, make_fnnn(1e200, 1, 0.5, 0.5, 0.5))  # eta ** 2 overflows
    with pytest.raises(NotFinite):
        fold_gfnnwa([big], [1.0], 3)  # xi ** 3
    # gfnnwa's power mean rescales a power that overflows; one spread's mean is itself
    assert gfnnwa([big], [1.0], 3).xi == 1e300
    assert aggregate_rows(normalize(dm), "gfnnwa", 3)[0].xi == 1e300
    path = tmp_path / "big.csv"
    path.write_text("alt,x\nA,1.0;1e300;0.5;0.5;0.5\nweights,1\n")
    assert cli_main(["sweep", str(path), "--metric", "euclidean", "--lambdas", "1,2"]) == 0
    assert capsys.readouterr().err == ""


def test_each_aggregate_is_checked_once(engineers_matrix, monkeypatch):
    # every aggregate passes the result rule of core once, not once more as a value
    calls = []
    check = core.check_membership
    counting = lambda t, i, f: calls.append(1) or check(t, i, f)  # noqa: E731
    monkeypatch.setattr(core, "check_membership", counting)
    monkeypatch.setattr(aggregate, "check_membership", counting, raising=False)
    for operator in ("fnnwa", "fnnwg", "gfnnwa", "gfnnwg"):
        calls.clear()
        run_pipeline(engineers_matrix, PipelineConfig(operator=operator, lam=3))
        assert len(calls) == engineers_matrix.n_alternatives, operator


def test_rank_ordering_and_ties():
    assert rank(case.CLOSENESS) == list(case.ORDERING_FNNWA_LAM1)
    assert rank([0.5, 0.5, 0.5]) == [0, 1, 2]
    assert rank([0.2, 0.9, 0.9]) == [1, 2, 0]
    with pytest.raises(EmptyInput):
        rank([])


@pytest.mark.parametrize("values", [[0.5, math.nan, 0.7], [math.nan, 0.5, 0.7], [math.nan]])
def test_rank_rejects_nan(values):
    # a NaN compares false both ways, so sorting around one misordered the finite
    # values: [0.5, nan, 0.7] ranked 0.5 above 0.7
    with pytest.raises(NotFinite, match="^values to rank must be numbers; a value is NaN$"):
        rank(values)
    assert rank([0.5, math.inf, -math.inf]) == [1, 0, 2]


def test_every_entry_point_types_a_fault_the_same_way(tmp_path, capsys):
    # a weight inside the sum tolerance but above 1 overflows fnnwg's spread
    dm = make_decision_matrix(["A"], ["x"], [[make_fnnn(1, 1.797e308, 0.5, 0.5, 0.5)]],
                              (1.000001,))
    for op in ("fnnwg", "gfnnwg"):
        calls = [
            lambda: OPERATORS[op](dm.row(0), dm.weights, 1),
            lambda: aggregate_rows(normalize(dm), op, 1),
            lambda: run_pipeline(dm, PipelineConfig(op)),
            lambda: lambda_sweep(dm, PipelineConfig(op), [1]),
        ]
        for call in calls:
            with pytest.raises(NotFinite, match=r"^a value overflowed float64 at lambda = 1$"):
                call()
    path = tmp_path / "overflow.csv"
    path.write_text("alt,x\nA,1;1.797e308;0.5;0.5;0.5\nweights,1.000001\n")
    assert cli_main(["rank", str(path), "--operator", "fnnwg"]) == 2
    assert capsys.readouterr().err == "error: a value overflowed float64 at lambda = 1\n"
    # a fractional power of a negative location, in three operators' own ways
    cells = [make_fnnn(-1, 1, 0.5, 0.5, 0.5), make_fnnn(2, 1, 0.5, 0.5, 0.5)]
    messages = set()
    for op in ("fnnwg", "gfnnwa", "gfnnwg"):
        with pytest.raises(NormalDomainError) as raised:
            OPERATORS[op](cells, (0.5, 0.5), 2.5)
        messages.add(str(raised.value))
    assert messages == {"cannot raise a negative location to a fractional power"}


def test_run_pipeline_full_golden(engineers_matrix):
    rep = run_pipeline(engineers_matrix, PipelineConfig())
    assert rep.d_plus == pytest.approx(case.D_PLUS, abs=1e-3)
    assert rep.d_minus == pytest.approx(case.D_MINUS, abs=1e-3)
    assert rep.closeness == pytest.approx(case.CLOSENESS, abs=1e-3)
    assert rep.ordering == case.ORDERING_FNNWA_LAM1
    assert rep.ordered_labels() == ("E5", "E2", "E4", "E3", "E1")
    assert all(0.0 <= c <= 1.0 for c in rep.closeness)
    assert rep.notes == ()


def test_run_pipeline_fnnwg_ranking(engineers_matrix):
    rep = run_pipeline(engineers_matrix, PipelineConfig(operator="fnnwg"))
    assert rep.ordering == case.ORDERING_FNNWG_LAM1


def test_run_pipeline_euclidean_invariants(engineers_matrix):
    rep = run_pipeline(engineers_matrix, PipelineConfig(metric="euclidean"))
    assert all(d >= 0 for d in rep.d_plus + rep.d_minus)
    assert all(0.0 <= c <= 1.0 for c in rep.closeness)
    assert sorted(rep.ordering) == [0, 1, 2, 3, 4]


def test_run_pipeline_single_cell_matrix():
    v = make_fnnn(0.8, 0.4, 0.7, 0.6, 0.5)
    dm = make_decision_matrix(["A"], ["x"], [[v]], (1.0,))
    rep = run_pipeline(dm)
    assert rep.ordering == (0,)
    assert 0.0 <= rep.closeness[0] <= 1.0


def test_run_pipeline_fractional_lambda_noted(engineers_matrix):
    rep = run_pipeline(engineers_matrix, PipelineConfig(lam=1.5))
    assert any("fractional" in n for n in rep.notes)


def test_run_pipeline_notes_cubic_sum_drift():
    # valid inputs whose averaged memberships drift above the
    # construction bound are reported as diagnostics, not errors
    cells = [[make_fnnn(1, 1, 0.999, 0.2, 0.9), make_fnnn(1, 1, 0.2, 0.999, 0.9)]]
    dm = make_decision_matrix(["A"], ["x", "y"], cells, (0.5, 0.5))
    rep = run_pipeline(dm)
    agg = rep.aggregates[0]
    assert agg.mu.cubic_sum() > 2.0
    assert any("cubic sum" in n for n in rep.notes)


def test_run_pipeline_deterministic_bytes(engineers_matrix):
    rep1 = run_pipeline(engineers_matrix, PipelineConfig())
    rep2 = run_pipeline(engineers_matrix, PipelineConfig())
    assert _dump_json(report_to_dict(rep1)) == _dump_json(report_to_dict(rep2))


@pytest.mark.parametrize("lam, held", [("2.5", 2.5), (Fraction(5, 2), 2.5), (True, 1.0)])
def test_a_config_holds_its_lambda_as_a_float(engineers_matrix, lam, held):
    # the config checked lam but kept it as given: run_pipeline raised a bare
    # ValueError for "2.5" and a bare TypeError for Fraction(5, 2), and
    # report_to_dict wrote True as JSON true
    config = PipelineConfig(lam=lam)
    assert config == PipelineConfig(lam=held) and type(config.lam) is float
    rep = run_pipeline(engineers_matrix, config)
    assert rep == run_pipeline(engineers_matrix, PipelineConfig(lam=held))
    assert any("fractional" in n for n in rep.notes) == (held == 2.5)
    written = report_to_dict(rep)["config"]["lambda"]
    assert written == held and type(written) is float


def test_pipeline_config_validation():
    with pytest.raises(UnknownName, match=r"^unknown operator 'nope'; choose from \["):
        PipelineConfig(operator="nope")
    with pytest.raises(KeyError):  # an UnknownName is a KeyError too
        PipelineConfig(metric="nope")
    with pytest.raises(LambdaInvalid):
        PipelineConfig(lam=0.5)


@pytest.mark.parametrize("field, name", [("operator", []), ("metric", {}), ("operator", {"a"})])
def test_pipeline_config_types_a_name_that_does_not_hash(field, name):
    # the lookup raised a bare TypeError: unhashable type
    with pytest.raises(UnknownName, match=rf"^unknown {field} "):
        PipelineConfig(**{field: name})


# ---------------------------------------------------------------------------
# sweep


def _seeded_matrix(n=6, m=5):
    values = gen_fnnn(FnnnGenConfig(seed=11), n * m)
    cells = [values[k * m:(k + 1) * m] for k in range(n)]
    return make_decision_matrix(
        [f"A{k}" for k in range(n)], [f"C{j}" for j in range(m)], cells,
        gen_weights(random.Random(11), m),
    )


def _edge_matrix():
    # memberships of exactly 0 and 1, the kernels' v <= 0 and v >= 1 cases
    triples = [(0.0, 0.5, 0.5), (1.0, 0.0, 0.3), (0.4, 1.0, 0.0),
               (0.7, 0.2, 1.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]
    cells = [[make_fnnn(0.5 + 0.1 * k, 0.3 + 0.05 * j, *triples[(j + k) % 6]) for j in range(6)]
             for k in range(4)]
    return make_decision_matrix(list("abcd"), list("uvwxyz"), cells, [1 / 6] * 6)


@pytest.mark.parametrize("operator", ["fnnwa", "fnnwg", "gfnnwa", "gfnnwg"])
@pytest.mark.parametrize("metric", ["hamming", "euclidean"])
@pytest.mark.parametrize("matrix", ["engineers", "seeded", "edge"])
def test_sweep_single_lambda_equals_pipeline(engineers_matrix, matrix, operator, metric):
    dm = {"engineers": engineers_matrix, "seeded": _seeded_matrix(), "edge": _edge_matrix()}[matrix]
    config = PipelineConfig(operator=operator, metric=metric)
    single = lambda_sweep(dm, config, [5])
    assert single.transitions == ()
    lams = list(range(1, 35))
    sweep = lambda_sweep(dm, config, lams)
    for row, lam in zip([single.rows[0], *sweep.rows], [5, *lams]):
        rep = run_pipeline(dm, dataclasses.replace(config, lam=lam))
        assert row.lam == lam
        assert row.closeness == rep.closeness  # bit for bit, not approximately
        assert row.ordering == rep.ordering


@pytest.mark.parametrize("operator", ["fnnwa", "fnnwg", "gfnnwa", "gfnnwg"])
def test_sweep_takes_membership_logs_once_per_row(monkeypatch, operator):
    # the lam-free work of each row is done once per sweep, not once per lambda:
    # the logs of its t, i and f
    calls = []
    xlogs = aggregate.xlogs
    monkeypatch.setattr(aggregate, "xlogs", lambda values: calls.append(1) or xlogs(values))
    dm = _seeded_matrix()
    lambda_sweep(dm, PipelineConfig(operator=operator), list(range(1, 35)))
    assert len(calls) == dm.n_alternatives * 3


@pytest.mark.parametrize("operator", ["gfnnwa", "gfnnwg"])
def test_float_path_agrees_with_building_the_aggregates(engineers_matrix, operator):
    # at lambda = 1e200, 3 * lambda**2 (gfnnwa's t, gfnnwg's f) is inf; ranking on
    # plain floats gives the aggregate values that building them gives
    aggs = aggregate_rows(normalize(engineers_matrix), operator, 1e200)
    config = PipelineConfig(operator=operator, lam=1e200)
    report = run_pipeline(engineers_matrix, config)
    assert report.aggregates == aggs
    assert lambda_sweep(engineers_matrix, config, [1e200]).rows[0].closeness == report.closeness


def test_sweep_requires_increasing_lambdas(engineers_matrix):
    with pytest.raises(LambdaInvalid):
        lambda_sweep(engineers_matrix, PipelineConfig(), [2, 2])
    with pytest.raises(LambdaInvalid):
        lambda_sweep(engineers_matrix, PipelineConfig(), [3, 1])
    with pytest.raises(EmptyInput):
        lambda_sweep(engineers_matrix, PipelineConfig(), [])


@pytest.mark.parametrize("lambdas", [[0.5, 2.0], [1.0, float("inf")], [float("nan")]])
def test_sweep_checks_every_lambda(engineers_matrix, lambdas):
    with pytest.raises(LambdaInvalid):
        lambda_sweep(engineers_matrix, PipelineConfig(), lambdas)


@pytest.mark.parametrize("lambdas", [None, 3.0, 2, object()])
def test_sweep_types_a_grid_that_is_not_iterable(engineers_matrix, lambdas):
    # iterating it raised a bare TypeError: ... is not iterable
    with pytest.raises(LambdaInvalid, match=r"^lambda values must be real numbers, not "):
        lambda_sweep(engineers_matrix, PipelineConfig(), lambdas)


@TEXT_VECTORS
def test_sweep_takes_no_text_for_a_grid(engineers_matrix, kind):
    # "134" ranked at lambda 1, 3 and 4, and b"12" at 49 and 50
    with pytest.raises(LambdaInvalid, match=f"^lambda values must be real numbers, not {kind.__name__}$"):
        lambda_sweep(engineers_matrix, PipelineConfig(), _text(kind, "134"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), m=st.integers(1, 5),
       operator=st.sampled_from(sorted(OPERATORS)), metric=st.sampled_from(sorted(METRICS)),
       lam=st.sampled_from([1.0, 3.0, 34.0]),
       eta=st.floats(0.0, 1.7e308, exclude_min=True), xi=st.floats(0.0, 1.7e308, exclude_min=True))
def test_the_distance_to_the_negative_ideal_never_reads_its_location(seed, n, m, operator, metric,
                                                                      lam, eta, xi):
    # the negative ideal's memberships (0, 0, 1) give it phi = 0, so D- is the distance
    # to <(eta, xi); 0, 0, 1> for every finite positive (eta, xi), bit for bit
    cells = gen_fnnn(FnnnGenConfig(seed=seed), n * m)
    dm = make_decision_matrix([f"A{k}" for k in range(n)], [f"C{j}" for j in range(m)],
                              [cells[k * m:(k + 1) * m] for k in range(n)],
                              gen_weights(random.Random(seed), m))
    report = run_pipeline(dm, PipelineConfig(operator, metric, lam))
    elsewhere = make_fnnn(eta, xi, 0, 0, 1)
    for agg, d_minus in zip(report.aggregates, report.d_minus):
        assert METRICS[metric](agg, elsewhere) == d_minus


@pytest.mark.parametrize("value, reason", [(None, r"^lam must be a real number"),
                                           (0.5, r"^lam = 0\.5 must be a finite real >= 1")])
def test_sweep_names_a_bad_value_inside_a_grid_as_check_lambda_does(engineers_matrix, value,
                                                                     reason):
    with pytest.raises(LambdaInvalid, match=reason):
        lambda_sweep(engineers_matrix, PipelineConfig(), [1.0, value])


def test_sweep_spot_rows_match_published_table(engineers_matrix):
    sweep = lambda_sweep(engineers_matrix, PipelineConfig(), sorted(case.SWEEP_ROWS))
    for row in sweep.rows:
        assert row.closeness == pytest.approx(case.SWEEP_ROWS[int(row.lam)], abs=5e-3)


def test_sweep_full_grid_orderings_and_transitions(engineers_matrix):
    sweep = lambda_sweep(engineers_matrix, PipelineConfig(), list(range(1, 35)))
    assert len(sweep.rows) == 34
    by_lam = {row.lam: row for row in sweep.rows}
    assert by_lam[1.0].ordering == case.ORDERING_FNNWA_LAM1
    assert by_lam[2.0].ordering == case.ORDERING_FROM_LAM2
    assert by_lam[13.0].ordering == case.ORDERING_FROM_LAM12
    assert by_lam[34.0].ordering == case.ORDERING_AT_LAM34
    assert tuple(t.lam for t in sweep.transitions) == case.TRANSITIONS_FULL_GRID


def test_sweep_spot_grid_transitions(engineers_matrix):
    sweep = lambda_sweep(engineers_matrix, PipelineConfig(), case.SPOT_GRID)
    assert tuple(t.lam for t in sweep.transitions) == case.TRANSITIONS_SPOT_GRID
