"""The scalar API's contract: every call returns finite values or raises an
FnnError, whatever numbers it is given.

Every public callable has a case here, which a meta-test checks.  The
inputs mix float64's special values (signed zeros, subnormals, 1e154,
near the square root of the largest float, 1.7e308, infinities and NaN)
with values drawn log-uniformly up to 1.7e308; lambda reaches 1.7e308 too.
Every number a caller passes is also drawn from values that ``float`` may
reject: text, None, ints beyond float64 and other types; a matrix's cells
also from Decimal NaNs, which do not compare with floats.  Values and
matrices are also made of real numbers of other types (int, bool,
Fraction, Decimal, a float subclass, numpy's float64); what they hold, and
every result of them, is made of plain floats.  A matrix reads a cell of
ints, Fractions, Decimals and floats as make_fnnn does, near the edges where
the exact values and their floats fall on either side of a rule.
"""

import ast
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fnnmadm
from fnnmadm import (
    METRICS,
    OPERATORS,
    DecisionMatrix,
    FnnError,
    Fnnn,
    FnnnGenConfig,
    MembershipTriple,
    NormalParams,
    NotFinite,
    PipelineConfig,
    SpreadNonPositive,
    ValidationError,
    ZeroLocation,
    accuracy_ffn,
    aggregate_rows,
    boxplus,
    boxtimes,
    check_lambda,
    check_weights,
    closeness,
    detect_transitions,
    euclidean,
    fnnwa,
    fnnwg,
    fold_fnnwa,
    fold_fnnwg,
    fold_gfnnwa,
    fold_gfnnwg,
    gen_fnnn,
    gen_weights,
    gfnnwa,
    gfnnwg,
    hamming,
    ideal_values,
    lambda_sweep,
    make_decision_matrix,
    make_fnnn,
    membership_at,
    normal_distance,
    normalize,
    phi,
    power,
    rank,
    run_pipeline,
    scale,
    score_ffn,
)

TOP = 1.7e308
SPECIALS = [0.0, -0.0, 5e-324, 1e-310, 1e154, -1e154, TOP, -TOP, math.inf, -math.inf, math.nan]


def log_uniform(lo: float = -324.0, hi: float = math.log10(TOP)):
    """10**e for e uniform in [lo, hi]: every binade is as likely as any other."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


positives = st.one_of(st.sampled_from([5e-324, 1e-310, 1e154, TOP]), log_uniform())
reals = st.one_of(st.sampled_from(SPECIALS), log_uniform(), log_uniform().map(lambda x: -x))
units = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0]),
                  st.floats(0.0, 1.0), log_uniform(hi=0.0))
lams = st.one_of(st.sampled_from(SPECIALS + [1.0, 2.5, 34.0]), log_uniform(lo=0.0))
locations = reals.filter(math.isfinite)
raw_weights = st.lists(st.one_of(positives, reals), min_size=4, max_size=4)
edges = st.sampled_from([1.0, 1.0 + 9e-7, 1.0 - 9e-7])  # inside the weight-sum tolerance
# what float() may read or reject: text, None, ints beyond float64 and other types
not_floats = st.one_of(st.text(max_size=4), st.none(), st.integers(10 ** 300, 10 ** 400),
                       st.integers(), st.just(1j), st.just([1.0]))


@st.composite
def values(draw):
    """A value that make_fnnn accepts, of finite components drawn as above."""
    try:
        return make_fnnn(draw(locations), draw(positives),
                         draw(units), draw(units), draw(units))
    except FnnError:  # the cubic sum of the memberships exceeds its bound
        assume(False)


# a value or an object that is none: a part of one, a number, text, None
objects = st.one_of(values(), not_floats,
                    st.sampled_from([NormalParams(1.0, 0.5), MembershipTriple(0.5, 0.5, 0.5)]))


@st.composite
def weight_vectors(draw, n: int):
    """Mostly weights that check_weights accepts, some scaled to the edge of
    its sum tolerance, and some of arbitrary floats."""
    raw = draw(raw_weights)[:n]
    try:
        ws = check_weights(raw, renormalize=True)
    except FnnError:
        return raw
    top = ws.index(max(ws))
    edge = draw(edges)
    return [w * edge if k == top else w for k, w in enumerate(ws)]


def finite(out) -> bool:
    """Whether every float in a result (a float, a value, a triple or a
    sequence of them) is finite."""
    if isinstance(out, Fnnn):
        out = (out.eta, out.xi, out.t, out.i, out.f)
    elif isinstance(out, MembershipTriple):
        out = (out.t, out.i, out.f)
    if isinstance(out, (list, tuple)):
        return all(map(finite, out))
    return math.isfinite(out)


def holds(call, *args):
    """The result of ``call(*args)``, asserted finite, or None for an FnnError."""
    try:
        out = call(*args)
    except FnnError:
        return None
    assert finite(out), (call.__name__, args, out)
    return out


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.one_of(units, reals, not_floats)] * 5))
def test_make_fnnn(components):
    holds(make_fnnn, *components)


@pytest.mark.parametrize("operation", [boxplus, boxtimes])
@settings(max_examples=40, deadline=None)
@given(a=values(), b=values(), lam=lams)
def test_binary_operations(operation, a, b, lam):
    holds(operation, a, b, lam)


@pytest.mark.parametrize("operation", [scale, power])
@settings(max_examples=40, deadline=None)
@given(w=st.one_of(reals, not_floats), a=values(), lam=lams)
def test_scale_and_power(operation, w, a, lam):
    holds(operation, w, a, lam)


@settings(max_examples=40, deadline=None)
@given(a=values(), x=st.one_of(reals, not_floats))
def test_membership_at(a, x):
    holds(membership_at, a, x)


@pytest.mark.parametrize("measure", [score_ffn, accuracy_ffn])
@settings(max_examples=40, deadline=None)
@given(t=st.one_of(units, reals, not_floats), f=st.one_of(units, reals, not_floats))
def test_score_and_accuracy_ffn(measure, t, f):
    holds(measure, t, f)


@settings(max_examples=40, deadline=None)
@given(a=values(), b=values())
def test_distances(a, b):
    holds(hamming, a, b)
    holds(euclidean, a, b)
    holds(normal_distance, a.normal, b.normal)


@settings(max_examples=60, deadline=None)
@given(a=objects, b=objects, w=st.one_of(reals, not_floats), lam=lams)
@example(a="x", b="x", w=1.0, lam=1.0)  # a weight of 1 returned the object as it was given
def test_an_object_of_another_type(a, b, w, lam):
    """Each function of values, given objects that may be no value."""
    for operation in (boxplus, boxtimes):
        holds(operation, a, b, lam)
    for operation in (scale, power):
        holds(operation, w, a, lam)
    holds(membership_at, a, w)
    holds(hamming, a, b)
    holds(euclidean, a, b)
    # the parts of a value, or the object itself, which may be one part or none
    holds(normal_distance, getattr(a, "normal", a), getattr(b, "normal", b))
    holds(phi, getattr(a, "mu", a))


@pytest.mark.parametrize("name", sorted(OPERATORS))
@settings(max_examples=40, deadline=None)
@given(cells=st.lists(values(), min_size=1, max_size=4), lam=lams, data=st.data())
def test_operators(name, cells, lam, data):
    holds(OPERATORS[name], cells, data.draw(weight_vectors(len(cells))), lam)


@settings(max_examples=80, deadline=None)
@given(weights=st.lists(st.one_of(positives, reals, not_floats), max_size=5),
       renormalize=st.booleans())
def test_check_weights(weights, renormalize):
    ws = holds(check_weights, weights, None, renormalize)
    if ws is not None:  # what it returns, it accepts
        assert check_weights(ws) == ws


@settings(max_examples=40, deadline=None)
@given(operator=st.sampled_from([*OPERATORS, "owa"]), metric=st.sampled_from([*METRICS, "l2"]),
       lam=st.one_of(lams, reals, not_floats))
def test_pipeline_config(operator, metric, lam):
    try:
        config = PipelineConfig(operator, metric, lam)
    except FnnError:
        return
    assert math.isfinite(config.lam)


@settings(max_examples=40, deadline=None)
@given(dplus=st.lists(st.one_of(positives, reals, not_floats), max_size=4),
       dminus=st.lists(st.one_of(positives, reals, not_floats), max_size=4))
def test_closeness(dplus, dminus):
    close = holds(closeness, dplus, dminus)
    assert close is None or all(0.0 <= c <= 1.0 for c in close)


# each raised a bare TypeError (3 is not iterable) or AttributeError (None has no eta)
@settings(max_examples=40, deadline=None)
@given(aggs=st.one_of(st.lists(st.one_of(values(), not_floats), max_size=3), not_floats))
@example(aggs=3)
@example(aggs=[None])
@example(aggs="ab")
def test_ideal_values(aggs):
    holds(ideal_values, aggs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(reals, not_floats), max_size=6))
def test_rank(vals):
    order = holds(rank, vals)
    if order is not None:  # a permutation, best first
        assert sorted(order) == list(range(len(vals)))
        assert all(float(vals[a]) >= float(vals[b]) for a, b in zip(order, order[1:]))


@settings(max_examples=80, deadline=None)
@given(value=st.one_of(not_floats, st.sampled_from([Decimal("NaN"), Decimal("sNaN")])),
       at=st.tuples(st.integers(0, 1), st.integers(0, 4), st.integers(0, 1)))
def test_decision_matrix(value, at):
    """One component of a valid 2x2 matrix replaced by ``value``; the matrix,
    if it is made, ranks to finite closeness."""
    rows = [[[1.0, 2.0], [0.5, 0.25], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]] for _ in range(2)]
    i, k, j = at
    rows[i][k][j] = value

    def ranked():
        return run_pipeline(DecisionMatrix(("A", "B"), ("x", "y"), rows, (0.5, 0.5))).closeness

    holds(ranked)


@st.composite
def near(draw, base: int):
    """``base``, or ``base`` plus or minus 10**-k for k up to 400, as an int, a
    Fraction, a Decimal or a float; the exact value and its float may fall on
    either side of a bound at ``base``."""
    sign, k = draw(st.sampled_from([-1, 0, 1])), draw(st.integers(1, 400))
    kind = draw(st.sampled_from([int, Fraction, Decimal, float]))
    if kind is int:
        return base
    if kind is Decimal:  # from text, which is exact, where Decimal arithmetic rounds
        return Decimal(f"{base * 10 ** k + sign}e-{k}")
    return kind(base + sign * Fraction(1, 10 ** k))


exact_components = st.one_of(
    near(0), near(1), st.fractions(), st.decimals(allow_nan=True), st.floats(),
    st.sampled_from([Decimal("NaN"), Decimal("sNaN"), 10 ** 400, Fraction(10 ** 400),
                     5e-324, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]))


@settings(max_examples=150, deadline=None)
@given(cell=st.tuples(*[exact_components] * 5))
@example(cell=(1, 0.5, Fraction(1) + Fraction(1, 10 ** 30), 0.5, 0.5))  # t = 1.0 as a float
@example(cell=tuple(map(Decimal, ("1", "0.5", "1", "1", "0.000001"))))  # a cubic sum of 2.0
@example(cell=(1.0, 0.5, Fraction(1), Fraction(1), Fraction(1, 10 ** 6)))
@example(cell=(Decimal("1e-400"), 0.5, 0.5, 0.5, 0.5))  # a location of 0.0
def test_a_matrix_reads_a_cell_as_make_fnnn_does(cell):
    """Next to a valid cell, the matrix rejects ``cell`` exactly when make_fnnn
    does, with its error, and otherwise holds make_fnnn's floats.  Its own
    rules, a location > 0 that normalizes into float64's range, are apart."""
    rows = [tuple((v,) for v in cell), ((1.0,), (0.5,), (0.5,), (0.5,), (0.5,))]

    def matrix():
        return DecisionMatrix(("A", "B"), ("x",), rows, (1.0,))

    try:
        value = make_fnnn(*cell)
    except FnnError as e:
        with pytest.raises(type(e)) as raised:
            matrix()
        assert str(raised.value) == f"invalid cell at (A, x): {e}"
        return
    try:
        dm = matrix()
    except ZeroLocation:
        assert not value.eta > 0.0
        return
    except (NotFinite, SpreadNonPositive) as e:
        assert value.eta > 0.0 and "): normalized " in str(e)
        return
    assert value.eta > 0.0
    assert [channel[0] for channel in dm.rows[0]] == [value.eta, value.xi, value.t, value.i, value.f]
    assert all(type(channel[0]) is float for channel in dm.rows[0])


@pytest.mark.parametrize("name", sorted(OPERATORS))
@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.lists(values(), min_size=2, max_size=2), min_size=1, max_size=3),
       lam=lams, data=st.data())
def test_aggregate_rows(name, cells, lam, data):
    """On a raw matrix and on its normalized copy, the same aggregates."""
    weights = data.draw(weight_vectors(2))
    labels = [f"A{k}" for k in range(len(cells))]

    def matrix():
        return make_decision_matrix(labels, ["x", "y"], cells, weights)

    raw = holds(lambda: aggregate_rows(matrix(), name, lam))
    normalized = holds(lambda: aggregate_rows(normalize(matrix()), name, lam))
    assert raw == normalized


MATRIX_2X2 = DecisionMatrix(("A", "B"), ("x", "y"),
                            [[[1.0, 2.0], [0.5, 0.25], [0.8, 0.3], [0.5, 0.4], [0.2, 0.6]],
                             [[1.5, 0.5], [0.3, 0.6], [0.4, 0.9], [0.5, 0.2], [0.7, 0.1]]],
                            (0.6, 0.4))


# each raised a bare AttributeError, or, for scale and power at a weight of 1,
# returned the object it was given
@pytest.mark.parametrize("call, args, message", [
    (normalize, ([1.0],), "dm must be a DecisionMatrix, not list"),
    (run_pipeline, (None,), "dm must be a DecisionMatrix, not NoneType"),
    (run_pipeline, (MATRIX_2X2, "fnnwa"), "config must be a PipelineConfig, not str"),
    (aggregate_rows, (MATRIX_2X2.rows, "fnnwa"), "dm must be a DecisionMatrix, not tuple"),
    (lambda_sweep, ("x", PipelineConfig(), [1]), "dm must be a DecisionMatrix, not str"),
    (lambda_sweep, (MATRIX_2X2, {"operator": "fnnwa"}, [1]),
     "config must be a PipelineConfig, not dict"),
    (phi, (MATRIX_2X2.cells[0][0],), "mu must be a MembershipTriple, not Fnnn"),
    (hamming, (MATRIX_2X2.cells[0][0], MembershipTriple(0.5, 0.5, 0.5)),
     "a value must be an Fnnn, not MembershipTriple"),
    (euclidean, (None, MATRIX_2X2.cells[0][0]), "a value must be an Fnnn, not NoneType"),
    (normal_distance, (NormalParams(1.0, 1.0), MATRIX_2X2.cells[0][0]),
     "p and q must be NormalParams, not Fnnn"),
    (membership_at, ((1.0, 0.5, 0.5, 0.5, 0.5), 1.0), "a value must be an Fnnn, not tuple"),
    (boxplus, (MATRIX_2X2.cells[0][0], 1.0), "a value must be an Fnnn, not float"),
    (boxtimes, ("x", MATRIX_2X2.cells[0][0]), "a value must be an Fnnn, not str"),
    (scale, (1.0, "x"), "a value must be an Fnnn, not str"),
    (power, (1.0, None), "a value must be an Fnnn, not NoneType"),
], ids=lambda arg: getattr(arg, "__name__", None))
def test_an_object_of_another_type_is_named(call, args, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(*args)


@settings(max_examples=40, deadline=None)
@given(dm=st.one_of(st.sampled_from([MATRIX_2X2, normalize(MATRIX_2X2), MATRIX_2X2.cells]),
                    not_floats),
       config=st.one_of(st.builds(PipelineConfig, st.sampled_from(sorted(OPERATORS)),
                                  st.sampled_from(sorted(METRICS))), not_floats),
       lam=lams)
def test_a_matrix_and_a_config(dm, config, lam):
    """A matrix, raw or normalized, or an object that is none, and a config or
    an object that is none, at every entry point that takes them."""
    holds(lambda: normalize(dm).rows)
    holds(lambda: aggregate_rows(dm, "gfnnwa", lam))
    holds(lambda: run_pipeline(dm, config).closeness)
    holds(lambda: [row.closeness for row in lambda_sweep(dm, config, [1.0, 3.0]).rows])


@settings(max_examples=80, deadline=None)
@given(operator=st.sampled_from(sorted(OPERATORS)), metric=st.sampled_from(sorted(METRICS)),
       grid=st.one_of(st.lists(st.one_of(lams, not_floats), max_size=4), not_floats,
                      st.sampled_from([None, 3.0, 2, True, object()])))
def test_lambda_sweep(operator, metric, grid):
    def swept():
        return [row.closeness for row in
                lambda_sweep(MATRIX_2X2, PipelineConfig(operator, metric), grid).rows]

    holds(swept)


class _Sub(float):
    """A float subclass, as numpy's float64 is one."""


# the types other than float that a caller may pass real numbers in
KINDS = {"int": int, "bool": bool, "Fraction": Fraction, "Decimal": Decimal, "float-subclass": _Sub,
         "float64": None}  # numpy's, imported by the test that takes it


def kind_of(name: str):
    """The type named ``name``; the numpy case is skipped where numpy is absent."""
    if name == "float64":
        return pytest.importorskip("numpy").float64
    return KINDS[name]


def plain(out) -> bool:
    """Whether every number in a result (a float, a value or one of its
    parts, or a sequence of them) is a finite plain float."""
    if isinstance(out, Fnnn):
        out = (out.normal, out.mu)
    elif isinstance(out, NormalParams):
        out = (out.eta, out.xi)
    elif isinstance(out, MembershipTriple):
        out = (out.t, out.i, out.f)
    if isinstance(out, (list, tuple)):
        return all(map(plain, out))
    return type(out) is float and math.isfinite(out)


def made(call, *args):
    """The result of ``call(*args)``, asserted plain, or None for an FnnError."""
    try:
        out = call(*args)
    except FnnError:
        return None
    assert plain(out), (getattr(call, "__name__", call), args, out)
    return out


def as_kind(kind, x):
    """A drawn float in ``kind`` where that type holds it (no int holds a NaN);
    anything else as it is."""
    if type(x) is not float:
        return x
    try:
        return kind(x)
    except (ValueError, OverflowError):
        return x


# two cells that every type above holds exactly, and as valid values
EXACT = [(2.0, 1.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 1.0, 0.0)]
nowhere = st.just(-1)  # the place of no component: none is replaced by bad


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@example(cell=EXACT[0], other=EXACT[1], w=1.0, lam=3.0, bad=None, at=-1)
@given(cell=st.tuples(locations, positives, units, units, units),
       other=st.tuples(locations, positives, units, units, units),
       w=st.one_of(positives, not_floats), lam=st.one_of(lams, not_floats),
       bad=not_floats, at=st.one_of(nowhere, st.integers(0, 4)))
def test_values_of_other_real_numbers_hold_plain_floats(kind, cell, other, w, lam, bad, at):
    """A value made of parts in ``kind``, one of its components perhaps
    replaced by ``bad``, and every operation on it, hold plain floats."""
    kind = kind_of(kind)
    cell = [as_kind(kind, x) for x in cell]
    if at >= 0:
        cell[at] = bad
    normal = made(NormalParams, *cell[:2])
    mu = made(MembershipTriple, *cell[2:])
    b = made(make_fnnn, *(as_kind(kind, x) for x in other))
    if normal is None or mu is None or b is None:
        return
    a = made(Fnnn, normal, mu)
    w, lam = as_kind(kind, w), as_kind(kind, lam)
    for distance in (hamming, euclidean):
        made(distance, a, b)
    made(phi, a.mu)
    made(normal_distance, a.normal, b.normal)
    for operation in (boxplus, boxtimes):
        made(operation, a, b, lam)
    for operation in (scale, power):
        made(operation, w, a, lam)
    made(membership_at, a, w)
    for fold in (fnnwa, fnnwg, gfnnwa, gfnnwg, fold_fnnwa, fold_fnnwg, fold_gfnnwa, fold_gfnnwg):
        made(fold, [a, b], [as_kind(kind, 0.5)] * 2, lam)
        made(fold, [a], [kind(1)], lam)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@example(cells=EXACT, bad=None, at=(-1, 0))
@given(cells=st.lists(st.tuples(positives, positives, units, units, units), min_size=2, max_size=2),
       bad=not_floats, at=st.tuples(st.one_of(nowhere, st.integers(0, 1)), st.integers(0, 4)))
def test_a_matrix_of_other_real_numbers_holds_plain_floats(kind, cells, bad, at):
    """A raw 2x1 matrix of cells in ``kind``, one component perhaps replaced
    by ``bad``, holds plain floats, and so do its cells, its rows and what
    the scalar API makes of them."""
    kind = kind_of(kind)
    rows = [[[as_kind(kind, x)] for x in cell] for cell in cells]
    if at[0] >= 0:
        rows[at[0]][at[1]][0] = bad
    try:
        dm = DecisionMatrix(("A", "B"), ("x",), rows, [kind(1)])
    except FnnError:
        return
    assert plain([dm.rows, dm.weights, dm.cells, dm.row(0), dm.row(1)])
    made(hamming, dm.cells[0][0], dm.cells[1][0])
    made(fnnwa, dm.row(0), dm.weights)


@settings(max_examples=80, deadline=None)
@given(lam=st.one_of(lams, reals, not_floats))
def test_check_lambda(lam):
    checked = holds(check_lambda, lam)
    if checked is not None:  # a plain float in [1, inf), as float() reads lam
        assert type(checked) is float and 1.0 <= checked == float(lam)


# sweep rows of every operator and metric, whose orderings differ from one another
SWEPT = [row for operator in sorted(OPERATORS) for metric in sorted(METRICS)
         for row in lambda_sweep(MATRIX_2X2, PipelineConfig(operator, metric), [1, 3, 34]).rows]


@settings(max_examples=80, deadline=None)
@given(rows=st.one_of(st.lists(st.one_of(st.sampled_from(SWEPT), not_floats), max_size=5),
                      not_floats))
@example(rows=SWEPT)
def test_detect_transitions(rows):
    def transitions():
        found = detect_transitions(rows)
        changes = sum(a.ordering != b.ordering for a, b in zip(rows, rows[1:]))
        assert len(found) == changes and all(t.ordering != t.previous for t in found)
        return [t.lam for t in found]

    holds(transitions)


# a count or size is drawn small, as gen_fnnn and gen_weights draw a valid one in full
sizes = st.one_of(st.integers(-1, 4), st.text(max_size=2), st.none(), st.just(1j), reals)
ranges = st.one_of(st.tuples(*[st.one_of(units, reals, not_floats)] * 2), not_floats)
configs = st.builds(FnnnGenConfig, ranges, ranges, ranges,
                    st.one_of(st.integers(), reals, not_floats))


@settings(max_examples=80, deadline=None)
@given(cfg=st.one_of(configs, not_floats), count=sizes)
@example(cfg=FnnnGenConfig(eta_range=(-math.inf, 1.0)), count=1)  # each draw was a NaN
@example(cfg=FnnnGenConfig(membership_range=(0.8735, 1.0)), count=1)  # few triples fit
@example(cfg=FnnnGenConfig(membership_range=(-1e200, 0.5)), count=1)  # lo^3 overflowed
@example(cfg=FnnnGenConfig(seed=[1]), count=1)
def test_gen_fnnn(cfg, count):
    values = holds(gen_fnnn, cfg, count)
    if values is not None:  # count values, each of them valid
        assert len(values) == count and all(v.is_valid() for v in values)


@settings(max_examples=80, deadline=None)
@given(rng=st.one_of(st.integers().map(random.Random), not_floats), n=sizes)
def test_gen_weights(rng, n):
    ws = holds(gen_weights, rng, n)
    if ws is not None:  # n weights that check_weights takes as they are
        assert len(ws) == n and check_weights(ws) == ws


# named here, not called: the errors a call raises, and the results it returns
EXEMPT = {
    "CubicSumExceeded", "DegenerateCloseness", "DuplicateLabel", "EmptyInput", "FnnError",
    "LambdaInvalid", "LengthMismatch", "MembershipOutOfRange", "NormalDomainError", "NotFinite",
    "ParseError", "SpreadNonPositive", "UnknownName", "ValidationError", "WeightInvalid",
    "WeightNonPositive", "ZeroLocation",
    "RankingReport", "SweepResult", "SweepRow", "Transition",
}


def test_every_public_callable_has_a_case():
    """Each callable in ``fnnmadm.__all__`` but the exempt names is named
    in a test above, in its body or its decorators."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    named = {node.id for test in tree.body
             if isinstance(test, ast.FunctionDef) and test.name.startswith("test_")
             for node in ast.walk(test) if isinstance(node, ast.Name)}
    public = {name for name in fnnmadm.__all__ if callable(getattr(fnnmadm, name))}
    assert EXEMPT <= public
    assert sorted(public - EXEMPT - named) == []
