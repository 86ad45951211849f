"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs each workload's requests once (the synthetic ones on 30 rows), shows
that its checks accept the program's outputs, then corrupts those outputs
one way at a time (a perturbed closeness value, a swapped ordering pair, a
wrong transition, ...) and shows that the checks reject every corruption.
Exits 1 if any corruption is accepted.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run

run.import_program()

import numpy as np  # noqa: E402

from fnnmadm import Transition, closeness, hamming, ideal_values, rank  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
import paper  # noqa: E402
from checks import CheckFailed, OpFailed  # noqa: E402

accepted = []


def rejects(what: str, fn, by: str = "") -> None:
    """``fn`` must raise; with ``by``, the message must name that check."""
    try:
        fn()
    except (CheckFailed, OpFailed) as e:
        if by in str(e):
            print(f"ok    rejects {what}: {e}")
            return
        print(f"FAIL  rejects {what}, but not by the {by!r} check: {e}")
    else:
        print(f"FAIL  accepts {what}")
    accepted.append(what)


def consistent(r: checks.Ranking, aggs, metric: str, ordering=None) -> checks.Ranking:
    """``r`` with aggregates ``aggs`` and ideals, distances, closeness and
    (unless given) ordering recomputed from them."""
    pos, neg = checks.ideals(aggs)
    dp, dn = checks.distance(aggs, pos, metric), checks.distance(aggs, neg, metric)
    close = dn / (dp + dn)
    return dataclasses.replace(
        r,
        aggregates=aggs,
        positive=pos,
        negative=neg,
        d_plus=dp,
        d_minus=dn,
        closeness=close,
        ordering=ordering or checks.stable_order(close),
    )


def first_outputs(workload) -> dict:
    return {op.key: op.digest(op.run()) for op in workload.ops()}


def edit_json(first: dict, key: str, edit) -> dict:
    doc = json.loads(first[key].text)
    edit(doc)
    return {**first, key: workloads.CliOutput(first[key].code, json.dumps(doc))}


def swap(seq, a, b):
    seq[a], seq[b] = seq[b], seq[a]


def bump(value: float, by: float = 1e-9) -> float:
    return value + by


def engineers(work: Path) -> None:
    w = workloads.Engineers()
    w.setup(0, work)
    first = first_outputs(w)
    # the one operation that fails today: numpy reprs in the rank CSV
    failed = w.check(first)
    print(f"ok    engineers outputs pass; failed operations: {sorted(failed) or 'none'}")
    key = "rank fnnwa hamming"

    def set_at(path, value):
        def edit(doc):
            node = doc
            for p in path[:-1]:
                node = node[p]
            node[path[-1]] = value(node[path[-1]])

        return edit

    for what, path in (
        ("a perturbed closeness value", ("closeness", 2)),
        ("a perturbed D+", ("d_plus", 0)),
        ("a perturbed D-", ("d_minus", 4)),
        ("a perturbed aggregate membership", ("aggregates", 1, "t")),
        ("a perturbed aggregate location", ("aggregates", 3, "eta")),
        ("a perturbed positive ideal", ("positive_ideal", "xi")),
        ("a perturbed normalized location", ("normalized", 0, 1, "eta")),
        ("a perturbed normalized spread", ("normalized", 2, 3, "xi")),
        ("a changed membership after normalize", ("normalized", 4, 0, "f")),
    ):
        rejects(f"rank: {what}", lambda p=path: w.check(edit_json(first, key, set_at(p, bump))))
    rejects(
        "rank: a swapped ordering pair",
        lambda: w.check(edit_json(first, key, lambda d: swap(d["ordering"], 1, 2))),
    )
    rejects(
        "sweep: a perturbed closeness value",
        lambda: w.check(edit_json(first, "sweep", set_at(("rows", 20, "closeness", 3), bump))),
    )
    rejects(
        "sweep: a swapped ordering pair",
        lambda: w.check(edit_json(first, "sweep", lambda d: swap(d["rows"][5]["ordering"], 0, 1))),
    )

    def move_transition(doc):
        doc["transitions"][1]["lambda"] = 13.0

    rejects("sweep: the E3/E2 transition at 13", lambda: w.check(edit_json(first, "sweep", move_transition)))
    rejects(
        "sweep: a dropped transition",
        lambda: w.check(edit_json(first, "sweep", lambda d: d["transitions"].pop())),
    )
    rejects(
        "validate: a nonzero exit",
        lambda: w.check({**first, "validate": workloads.CliOutput(2, first["validate"].text)}),
    )
    csv_text = "alternative,d_plus,d_minus,closeness,rank\n" + "\n".join(
        f"{label},np.float64(0.1),np.float64(0.2),0.5,{k + 1}"
        for k, label in enumerate(paper.ALTERNATIVES)
    )
    rejects("rank csv: numpy reprs", lambda: checks.parse_rank_csv(csv_text))
    r = checks.ranking_from_json(json.loads(first[key].text))
    good_csv = [
        (label, r.d_plus[k], r.d_minus[k], r.closeness[k], r.ordering.index(k) + 1)
        for k, label in enumerate(paper.ALTERNATIVES)
    ]
    checks.check_rank_csv(good_csv, r, paper.ALTERNATIVES)
    bad_csv = [list(row) for row in good_csv]
    bad_csv[3][1] += 1e-12
    rejects("rank csv: a perturbed D+", lambda: checks.check_rank_csv(bad_csv, r, paper.ALTERNATIVES))

    # the published figures, apart from the program's own consistency
    def published(edit):
        s = copy.deepcopy(r)
        edit(s)
        checks.check_published_ranking(s, "fnnwa", "hamming")

    rejects("paper: closeness off by 1e-4", lambda: published(lambda s: s.closeness.__setitem__(0, s.closeness[0] + 1e-4)))
    rejects("paper: aggregates off by 1e-4", lambda: published(lambda s: s.aggregates.__setitem__((2, 4), s.aggregates[2, 4] + 1e-4)))
    rejects("paper: a swapped ordering pair", lambda: published(lambda s: setattr(s, "ordering", (4, 3, 1, 2, 0))))
    sweep = checks.sweep_from_json(json.loads(first["sweep"].text))

    def published_sweep(edit):
        s = copy.deepcopy(sweep)
        edit(s)
        checks.check_published_sweep(s)

    rejects("paper: sweep row 10 off by 1e-4", lambda: published_sweep(lambda s: s.closeness.__setitem__((9, 1), s.closeness[9, 1] + 1e-4)))
    rejects("paper: sweep row 12 E3 off by 1e-4", lambda: published_sweep(lambda s: s.closeness.__setitem__((11, 2), s.closeness[11, 2] - 1e-4)))
    rejects("paper: transitions {2, 13, 34}", lambda: published_sweep(lambda s: s.transitions.__setitem__(1, (13.0,) + s.transitions[1][1:])))

    # gfnnwa must equal fnnwa at lambda = 1: a gfnnwa ranking that is
    # consistent in itself but whose aggregates differ
    aggs = r.aggregates.copy()
    aggs[0, 3] += 1e-6
    g = consistent(r, aggs, "hamming")
    checks.check_ranking(g, g.aggregates, "hamming")
    rejects(
        "rank: gfnnwa not equal to fnnwa at lambda = 1",
        lambda: checks.check_lambda_one(g.aggregates, r.aggregates, "gfnnwa against fnnwa"),
        by="at lambda=1",
    )

    # stability: of two tied alternatives the lower index ranks first
    aggs = r.aggregates.copy()
    aggs[3] = aggs[1]
    tied = consistent(r, aggs, "hamming")
    checks.check_ranking(tied, aggs, "hamming")
    order = list(tied.ordering)
    a, b = order.index(1), order.index(3)
    order[a], order[b] = 3, 1
    unstable = dataclasses.replace(tied, ordering=tuple(order))
    rejects(
        "rank: an unstable ordering of a tie",
        lambda: checks.check_ranking(unstable, aggs, "hamming"),
        by="stable",
    )

    def tied_sweep(ordering):
        return checks.Sweep([1.0, 2.0], np.array([tied.closeness] * 2), [ordering] * 2, [])

    checks.check_sweep(tied_sweep(tied.ordering), [1.0, 2.0], [aggs] * 2, "hamming")
    rejects(
        "sweep: an unstable ordering of a tie",
        lambda: checks.check_sweep(tied_sweep(unstable.ordering), [1.0, 2.0], [aggs] * 2, "hamming"),
        by="stable",
    )


class SmallSweep(workloads.SweepWorkload):
    n = 30


class SmallRank(workloads.RankWorkload):
    n = 30


def replace_row(rows, k, **changes):
    rows = list(rows)
    rows[k] = dataclasses.replace(rows[k], **changes)
    return tuple(rows)


def sweep_workload(work: Path) -> None:
    w = SmallSweep()
    w.setup(3, work)
    first = first_outputs(w)
    assert w.check(first) == set()
    print("ok    sweep outputs pass")

    key = "sweep gfnnwa hamming"
    rows, transitions = first[key]

    def with_call(new_rows=None, new_transitions=None):
        return {**first, key: (new_rows or rows, transitions if new_transitions is None else new_transitions)}

    row = rows[7]
    close = list(row.closeness)
    close[4] = bump(close[4])
    rejects("sweep: a perturbed closeness value", lambda: w.check(with_call(replace_row(rows, 7, closeness=tuple(close)))))
    order = list(row.ordering)
    swap(order, 3, 4)
    rejects("sweep: a swapped ordering pair", lambda: w.check(with_call(replace_row(rows, 7, ordering=tuple(order)))))
    rejects("sweep: a dropped row", lambda: w.check(with_call(rows[:-1])))
    # a transition added at row 5 duplicates a real one or invents one
    fake = Transition(rows[5].lam, rows[4].ordering, rows[5].ordering)
    rejects("sweep: a spurious transition", lambda: w.check(with_call(new_transitions=transitions + (fake,))))
    # the fold and normalization checks on their own
    from fnnmadm import aggregate_rows, normalize
    from fnnmadm.reference import FOLDS

    nm = normalize(w.dm)
    normalized = checks.matrix(nm.cells)
    aggs = checks.values(aggregate_rows(nm, "gfnnwg", 9.0))
    checks.check_folds(FOLDS["gfnnwg"], normalized, nm.weights, 9.0, aggs, w.fold_rows)
    aggs[w.fold_rows[1], 4] = bump(aggs[w.fold_rows[1], 4])
    rejects("folds: an aggregate off its fold", lambda: checks.check_folds(FOLDS["gfnnwg"], normalized, nm.weights, 9.0, aggs, w.fold_rows))
    halved = normalized.copy()
    halved[:, 3, 0] /= 2
    rejects("normalize: a column whose largest eta is not 1", lambda: checks.check_normalized(np.array(w.problem.cells), halved))

    rep = first["rank gfnnwa hamming"]
    close = list(rep.closeness)
    close[0] = bump(close[0])
    rejects("rank: a perturbed closeness value", lambda: w.check({**first, "rank gfnnwa hamming": dataclasses.replace(rep, closeness=tuple(close))}))
    order = list(rep.ordering)
    swap(order, 0, 1)
    rejects("rank: a swapped ordering pair", lambda: w.check({**first, "rank gfnnwa hamming": dataclasses.replace(rep, ordering=tuple(order))}))
    aggs = list(rep.aggregates)
    k = w.fold_rows[0]
    aggs[k] = dataclasses.replace(aggs[k], mu=dataclasses.replace(aggs[k].mu, i=bump(aggs[k].i)))
    # the rest of the report recomputed from the moved aggregate, so that
    # only the fold check can see it
    pos, neg = ideal_values(aggs)
    dp, dn = tuple(hamming(a, pos) for a in aggs), tuple(hamming(a, neg) for a in aggs)
    close = tuple(closeness(dp, dn))
    off_fold = dataclasses.replace(
        rep,
        aggregates=tuple(aggs),
        positive_ideal=pos,
        negative_ideal=neg,
        d_plus=dp,
        d_minus=dn,
        closeness=close,
        ordering=tuple(rank(close)),
    )
    rejects(
        "rank: an aggregate off its fold",
        lambda: w.check({**first, "rank gfnnwa hamming": off_fold}),
        by="against its fold",
    )
    dm = first["validate"]
    weights = list(dm.weights)
    swap(weights, 0, 1)
    rejects("validate: swapped weights", lambda: w.check({**first, "validate": dataclasses.replace(dm, weights=tuple(weights))}))


def rank_workload(work: Path) -> None:
    w = SmallRank()
    w.setup(4, work)
    first = first_outputs(w)
    assert w.check(first) == set()
    print("ok    rank outputs pass")
    rejects(
        "rank: a perturbed closeness value",
        lambda: w.check(edit_json(first, "rank", lambda d: d["closeness"].__setitem__(9, bump(d["closeness"][9])))),
    )
    rejects(
        "rank: a swapped ordering pair",
        lambda: w.check(edit_json(first, "rank", lambda d: swap(d["ordering"], 10, 11))),
    )
    rejects(
        "rank: a wrong weight",
        lambda: w.check(edit_json(first, "rank", lambda d: d["weights"].__setitem__(0, bump(d["weights"][0])))),
    )
    rejects(
        "sweep: a closeness row off the rank's",
        lambda: w.check(edit_json(first, "sweep", lambda d: d["rows"][0]["closeness"].__setitem__(0, bump(d["rows"][0]["closeness"][0])))),
    )
    rejects(
        "validate: an invalid cell reported",
        lambda: w.check({**first, "validate": workloads.CliOutput(2, "599 of 600 cells valid\n")}),
    )


def later_output_differs(work: Path) -> None:
    w = workloads.Engineers()
    w.setup(0, work)
    op = next(op for op in w.ops() if op.key == "rank fnnwa hamming")
    runner = run.Runner(workloads.same)
    out = op.run()
    runner.record(op, out)
    doc = json.loads(out.text)
    doc["closeness"][0] = bump(doc["closeness"][0])
    runner.record(op, workloads.CliOutput(0, json.dumps(doc)))
    if runner.errors:
        print(f"ok    rejects a later output that differs: {runner.errors[0]}")
    else:
        accepted.append("a later output that differs")
        print("FAIL  accepts a later output that differs")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-") as work:
        for case in (engineers, sweep_workload, rank_workload, later_output_differs):
            case(Path(work))
    if accepted:
        print(f"{len(accepted)} corruptions accepted: {accepted}")
        return 1
    print("every corruption rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
