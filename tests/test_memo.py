"""What a matrix keeps of itself: its normalized copy, the logs of its
memberships and each operator's lam-free row values, made on first use and
shared by every later ranking of it."""

import copy
import dataclasses
import gc
import pathlib
import pickle
import random

import pytest

from fnnmadm import aggregate, cli
from fnnmadm import (
    METRICS,
    OPERATORS,
    NotFinite,
    FnnnGenConfig,
    PipelineConfig,
    aggregate_rows,
    gen_fnnn,
    gen_weights,
    lambda_sweep,
    make_decision_matrix,
    make_fnnn,
    normalize,
    run_pipeline,
)

LAMS = (1.0, 3.0, 12.5, 34.0)
FIELDS = {"alternatives", "attributes", "rows", "weights"}
SEEDED_12X6 = pathlib.Path(__file__).parent / "golden" / "seeded_12x6.csv"


def _seeded_matrix(n=100, m=20, seed=5):
    values = gen_fnnn(FnnnGenConfig(seed=seed), n * m)
    cells = [values[k * m:(k + 1) * m] for k in range(n)]
    return make_decision_matrix([f"A{k}" for k in range(n)], [f"C{j}" for j in range(m)], cells,
                                gen_weights(random.Random(seed), m))


def _fresh(dm):
    """The same matrix, made again: it keeps nothing yet."""
    return dataclasses.replace(dm)


def _counting_xlogs(monkeypatch):
    calls = []
    xlogs = aggregate.xlogs
    monkeypatch.setattr(aggregate, "xlogs", lambda values: calls.append(1) or xlogs(values))
    return calls


def _counting_lam_free(monkeypatch):
    """Count the rows each operator's lam-free part reads, by operator."""
    calls = dict.fromkeys(OPERATORS, 0)
    for operator, (free, at) in aggregate._CLOSED_FORMS.items():
        if free is not None:
            def counted(row, ws, operator=operator, free=free):
                calls[operator] += 1
                return free(row, ws)
            monkeypatch.setitem(aggregate._CLOSED_FORMS, operator, (counted, at))
    return calls


def _rank_every_way(dm, operator):
    run_pipeline(dm, PipelineConfig(operator, lam=3.0))
    lambda_sweep(dm, PipelineConfig(operator), LAMS)
    aggregate_rows(dm, operator, 12.5)


def _calls():
    """Every ranking entry point under every operator, metric and lambda; each
    call takes the matrix it ranks (a raw or a normalized one)."""
    calls = []
    for operator in OPERATORS:
        for metric in METRICS:
            config = PipelineConfig(operator, metric)
            for lam in LAMS:
                at = dataclasses.replace(config, lam=lam)
                calls += [
                    lambda dm, at=at: run_pipeline(dm, at),
                    lambda dm, at=at: run_pipeline(normalize(dm), at),
                    lambda dm, config=config, lam=lam: lambda_sweep(dm, config, [lam]),
                    lambda dm, config=config, lam=lam: lambda_sweep(dm, config, [lam, 40.0]),
                ]
        calls += [lambda dm, op=operator, lam=lam: aggregate_rows(normalize(dm), op, lam)
                  for lam in LAMS]
        calls += [lambda dm, op=operator, lam=lam: aggregate_rows(dm, op, lam) for lam in LAMS]
    return calls


@pytest.mark.parametrize("matrix", ["engineers", "seeded"])
def test_rankings_of_one_matrix_equal_those_of_fresh_matrices(engineers_matrix, matrix):
    # whatever a matrix kept from earlier rankings, in whatever order they
    # ran, a ranking of it is the ranking of a matrix that kept nothing
    shared = _fresh(engineers_matrix) if matrix == "engineers" else _seeded_matrix()
    calls = _calls()
    random.Random(18).shuffle(calls)
    for call in calls:
        assert repr(call(shared)) == repr(call(_fresh(shared)))


def test_a_matrix_takes_each_membership_log_once(monkeypatch):
    # the first ranking takes the logs of t, i and f in every row, and later ones none
    calls = _counting_xlogs(monkeypatch)
    dm = _seeded_matrix(n=7, m=4)
    for operator in ("fnnwa", "fnnwg", "gfnnwa", "gfnnwg"):
        run_pipeline(dm, PipelineConfig(operator, lam=3.0))
    assert len(calls) == dm.n_alternatives * 3
    for operator in OPERATORS:
        lambda_sweep(dm, PipelineConfig(operator), LAMS)
    assert len(calls) == dm.n_alternatives * 3


@pytest.mark.parametrize("operator", OPERATORS)
def test_a_one_shot_ranking_takes_three_logs_per_row(monkeypatch, operator):
    # every operator takes the logs of all three memberships, though fnnwa
    # reads only those of t and i, and fnnwg only those of i and f
    calls = _counting_xlogs(monkeypatch)
    dm = _seeded_matrix(n=7, m=4)
    run_pipeline(dm, PipelineConfig(operator))
    assert len(calls) == dm.n_alternatives * 3


@pytest.mark.parametrize("matrix", ["engineers", "seeded_12x6"])
def test_aggregate_rows_gives_what_a_ranking_gives_on_either_matrix(
        monkeypatch, engineers_matrix, matrix):
    if matrix == "engineers":
        dm = _fresh(engineers_matrix)
    else:
        dm = cli._build_matrix(cli._read_raw(str(SEEDED_12X6)))
    grid = [(operator, lam) for operator in OPERATORS for lam in (1.0, 2.5, 34.0)]
    calls = _counting_xlogs(monkeypatch)
    raw = [aggregate_rows(dm, operator, lam) for operator, lam in grid]
    ranked = [run_pipeline(dm, PipelineConfig(operator, lam=lam)).aggregates
              for operator, lam in grid]
    assert len(calls) == dm.n_alternatives * 3  # the raw matrix takes its logs once
    normalized = [aggregate_rows(normalize(dm), operator, lam) for operator, lam in grid]
    assert len(calls) == dm.n_alternatives * 3 * (1 + len(grid))  # the copy takes them anew
    assert raw == normalized == ranked  # bit for bit


def test_a_raw_matrix_takes_each_operators_lam_free_part_once(monkeypatch):
    calls = _counting_lam_free(monkeypatch)
    dm = _seeded_matrix(n=7, m=4)
    for _ in range(2):
        for operator in OPERATORS:
            _rank_every_way(dm, operator)
    # gfnnwa has no lam-free part: it reads the normalized rows, and keeps nothing new
    assert calls == {"fnnwa": 7, "fnnwg": 7, "gfnnwa": 0, "gfnnwg": 7}
    assert vars(dm)["_lam_free"]["gfnnwa"] is normalize(dm).rows


def test_a_normalized_matrix_takes_the_lam_free_part_on_every_call(monkeypatch):
    calls = _counting_lam_free(monkeypatch)
    dm = _seeded_matrix(n=7, m=4)
    nm = normalize(dm)
    for operator in OPERATORS:
        _rank_every_way(nm, operator)
    assert calls == {"fnnwa": 3 * 7, "fnnwg": 3 * 7, "gfnnwa": 0, "gfnnwg": 3 * 7}
    assert set(vars(nm)) == FIELDS | {"normalized"}


def test_a_lam_free_part_that_overflows_is_not_kept():
    # a weight inside the sum tolerance but above 1 overflows fnnwg's spread,
    # which is lam-free: each call names its own first lambda
    dm = make_decision_matrix(["A"], ["x"], [[make_fnnn(1, 1.797e308, 0.5, 0.5, 0.5)]],
                              (1.000001,))
    with pytest.raises(NotFinite, match=r"^a value overflowed float64 at lambda = 1$"):
        run_pipeline(dm, PipelineConfig("fnnwg"))
    with pytest.raises(NotFinite, match=r"^a value overflowed float64 at lambda = 3$"):
        lambda_sweep(dm, PipelineConfig("fnnwg"), [3.0])
    assert "fnnwg" not in vars(dm).get("_lam_free", {})
    run_pipeline(dm, PipelineConfig("fnnwa"))  # fnnwa's location is a sum, and is kept
    assert set(vars(dm)["_lam_free"]) == {"fnnwa"}


def test_a_matrix_normalizes_once_and_a_normalized_one_keeps_no_copy(engineers_matrix):
    dm = _fresh(engineers_matrix)
    nm = normalize(dm)
    assert normalize(dm) is nm and run_pipeline(dm).matrix is nm
    assert normalize(nm) is nm
    assert "_normal_copy" not in vars(nm)  # it would refer to itself


def test_only_a_raw_matrix_keeps_logs(monkeypatch):
    # a normalized matrix, which a report holds, takes its logs anew on each
    # ranking and keeps nothing; the raw matrix takes its own set once
    calls = _counting_xlogs(monkeypatch)
    dm = _seeded_matrix(n=7, m=4)
    nm = normalize(dm)
    for _ in range(2):
        aggregate_rows(nm, "gfnnwa", 3.0)
        run_pipeline(nm, PipelineConfig("gfnnwg"))
        lambda_sweep(nm, PipelineConfig("gfnnwa"), LAMS)
    assert len(calls) == 6 * dm.n_alternatives * 3
    assert set(vars(nm)) == FIELDS | {"normalized"}
    for operator in OPERATORS:
        run_pipeline(dm, PipelineConfig(operator, lam=3.0))
    assert len(calls) == 7 * dm.n_alternatives * 3
    assert set(vars(nm)) == FIELDS | {"normalized"}


def test_a_copy_or_a_pickle_of_a_matrix_keeps_nothing(engineers_matrix):
    warm = _fresh(engineers_matrix)
    run_pipeline(warm, PipelineConfig("gfnnwa"))
    for made in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert made == warm and set(vars(made)) == FIELDS
        assert repr(run_pipeline(made, PipelineConfig("gfnnwa"))) == repr(
            run_pipeline(warm, PipelineConfig("gfnnwa")))
    nm = normalize(warm)
    made = pickle.loads(pickle.dumps(nm))
    assert made == nm and made.normalized and set(vars(made)) == FIELDS | {"normalized"}


def test_copies_pickles_and_replacements_keep_nothing_after_every_operator(engineers_matrix):
    warm = _fresh(engineers_matrix)
    for operator in OPERATORS:
        _rank_every_way(warm, operator)
    assert set(vars(warm)["_lam_free"]) == set(OPERATORS)
    for made in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm)),
                 dataclasses.replace(warm)):
        assert made == warm and set(vars(made)) == FIELDS


def test_the_memo_is_not_part_of_the_value(engineers_matrix):
    warm, cold = _fresh(engineers_matrix), _fresh(engineers_matrix)
    for operator in OPERATORS:
        run_pipeline(warm, PipelineConfig(operator))
        aggregate_rows(normalize(warm), operator)
    assert set(vars(warm)) > FIELDS and set(vars(cold)) == FIELDS
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert normalize(warm) == normalize(cold) and hash(normalize(warm)) == hash(normalize(cold))
    assert repr(normalize(warm)) == repr(normalize(cold))
    copied = dataclasses.replace(warm)
    assert copied == warm and set(vars(copied)) == FIELDS
    assert dataclasses.replace(warm, weights=(0.25,) * 4) != warm


def test_the_normalized_copy_keeps_no_logs_of_the_raw_matrix(engineers_matrix):
    # a report holds the normalized copy; the logs stay with the raw matrix
    # the caller ranked, and go with it
    dm = _fresh(engineers_matrix)
    report = run_pipeline(dm, PipelineConfig("gfnnwa"))
    lambda_sweep(dm, PipelineConfig("gfnnwg"), LAMS)
    assert set(vars(report.matrix)) == FIELDS | {"normalized"}
    assert "_logs" in vars(dm)


@pytest.mark.parametrize("normalized", [False, True], ids=["raw", "normalized"])
def test_warm_rankings_leave_no_cyclic_garbage(engineers_matrix, normalized):
    dm = _fresh(engineers_matrix)
    dm = normalize(dm) if normalized else dm

    def rank_every_way():
        for operator in OPERATORS:
            run_pipeline(dm, PipelineConfig(operator, lam=3.0))
            lambda_sweep(dm, PipelineConfig(operator), LAMS)
            aggregate_rows(normalize(dm), operator, 3.0)
        # matrices that keep what they read, and then go
        fresh = _fresh(engineers_matrix)
        run_pipeline(normalize(normalize(fresh)), PipelineConfig("gfnnwa"))
        lambda_sweep(fresh, PipelineConfig("gfnnwg"), LAMS)

    rank_every_way()
    enabled = gc.isenabled()
    gc.disable()  # only the collection below may free what the calls left
    try:
        gc.collect()
        rank_every_way()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_the_cli_ranks_the_normalized_copy(monkeypatch, engineers_csv_path, capsys):
    # rank and sweep ranked the raw matrix, which then kept the logs until the CLI
    # dropped it by hand
    ranked = []
    for name in ("run_pipeline", "lambda_sweep"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda dm, *args, real=real: ranked.append(dm) or real(dm, *args))
    assert cli.main(["rank", engineers_csv_path, "--format", "csv"]) == 0
    assert cli.main(["sweep", engineers_csv_path, "--lambdas", "1,2", "--format", "csv"]) == 0
    assert [dm.normalized for dm in ranked] == [True, True]
    assert all(set(vars(dm)) == FIELDS | {"normalized"} for dm in ranked)  # no logs kept
