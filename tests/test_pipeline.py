"""Seven-step ranking pipeline and the lambda sweep."""

import dataclasses
import math
import random

import pytest

import engineers_case as case
from fnnmadm import aggregate, core, pipeline
from fnnmadm import (
    DecisionMatrix,
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    FnnnGenConfig,
    LambdaInvalid,
    LengthMismatch,
    NotFinite,
    NotNormalized,
    PipelineConfig,
    SpreadNonPositive,
    WeightInvalid,
    ZeroLocation,
    aggregate_rows,
    closeness,
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
from fnnmadm.cli import EXIT_DATA
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
    # min() keeps a NaN that comes first, so a "min <= 0" test would pass this row
    rows = (((math.nan, -1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)),)
    problems = pipeline._problems(("A",), ("x", "y"), rows, (0.5, 0.5))
    assert [(cell, str(e)) for cell, e in problems] == [
        ((0, 0), "invalid cell at (A, x): eta = nan must be > 0 for normalization"),
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


def test_aggregate_rows_requires_normalized(engineers_matrix):
    with pytest.raises(NotNormalized):
        aggregate_rows(engineers_matrix, "fnnwa", 1)


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


def test_overflow_is_a_typed_error(tmp_path, capsys):
    big = make_fnnn(1.0, 1e300, 0.5, 0.5, 0.5)
    dm = make_decision_matrix(["A"], ["x"], [[big]], (1.0,))
    with pytest.raises(NotFinite):
        run_pipeline(dm, PipelineConfig(metric="euclidean"))  # xi' ** 3 overflows
    with pytest.raises(NotFinite):
        lambda_sweep(dm, PipelineConfig(metric="euclidean"), [1, 2])
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
    assert cli_main(["sweep", str(path), "--metric", "euclidean", "--lambdas", "1,2"]) == EXIT_DATA
    assert "overflowed" in capsys.readouterr().err


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


def test_pipeline_config_validation():
    with pytest.raises(KeyError):
        PipelineConfig(operator="nope")
    with pytest.raises(KeyError):
        PipelineConfig(metric="nope")
    with pytest.raises(LambdaInvalid):
        PipelineConfig(lam=0.5)


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


@pytest.mark.parametrize("operator, logs_per_row",
                         [("fnnwa", 2), ("fnnwg", 2), ("gfnnwa", 3), ("gfnnwg", 3)])
def test_sweep_takes_membership_logs_once_per_row(monkeypatch, operator, logs_per_row):
    # the lam-free work of each row is done once per sweep, not once per lambda
    calls = []
    xlogs = aggregate.xlogs
    monkeypatch.setattr(aggregate, "xlogs", lambda values: calls.append(1) or xlogs(values))
    dm = _seeded_matrix()
    lambda_sweep(dm, PipelineConfig(operator=operator), list(range(1, 35)))
    assert len(calls) == dm.n_alternatives * logs_per_row


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
