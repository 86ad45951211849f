"""Correctness checks made apart from the program.

The checks recompute what they can with the benchmark's own arithmetic
(normalization, phi, the two distances, the ideals, closeness and the
stable ordering) from the program's inputs and aggregates, compare the
aggregates with the scalar folds of ``fnnmadm.reference`` on a sample of
rows, and compare the engineers problem with the figures printed in the
paper (``paper.py``).  Nothing is compared with a stored copy of the
program's own output.

A check raises ``CheckFailed`` when an output is wrong, and ``OpFailed``
when the operation gave no usable output at all (a nonzero exit code, a
field that does not parse).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from fnnmadm import make_fnnn

import paper

FIELDS = ("eta", "xi", "t", "i", "f")
# Closed forms and folds agree to 2.7e-14 on the benchmark's inputs up to
# lambda = 34; the benchmark's own arithmetic agrees with the program's to a
# few ulps.  1e-12, relative above 1, is far below any real defect.
TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OpFailed(Exception):
    """An operation produced no usable output."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def near(actual, expected, what: str, tol: float = TOL, relative: bool = True) -> None:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    require(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    scale = np.maximum(1.0, np.abs(e)) if relative else 1.0
    gap = np.abs(a - e) / scale
    require(np.all(gap <= tol), f"{what}: off by {float(np.nanmax(gap)):.3e} > {tol:g}")


def _fields(v) -> list[float]:
    if isinstance(v, dict):
        return [float(v[k]) for k in FIELDS]
    return [float(getattr(v, k)) for k in FIELDS]


def values(items) -> np.ndarray:
    """(n, 5) array of eta, xi, t, i, f from Fnnn values or their dicts."""
    return np.array([_fields(v) for v in items])


def matrix(rows) -> np.ndarray:
    """(n, m, 5) array from rows of Fnnn values or their dicts."""
    return np.array([[_fields(v) for v in row] for row in rows])


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic


def phi(v: np.ndarray) -> np.ndarray:
    t, i, f = v[..., 2], v[..., 3], v[..., 4]
    return (1.0 + t**3 + i**3 - f**3) / 3.0


def ideals(aggs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eta, xi = aggs[:, 0], aggs[:, 1]
    return (
        np.array([eta.max(), xi.min(), 1.0, 1.0, 0.0]),
        np.array([eta.min(), xi.max(), 0.0, 0.0, 1.0]),
    )


def distance(aggs: np.ndarray, ideal: np.ndarray, metric: str) -> np.ndarray:
    pa, pb = phi(aggs), phi(ideal)
    de = np.abs(pa * aggs[:, 0] - pb * ideal[0])
    dx = np.abs(pa * aggs[:, 1] - pb * ideal[1])
    if metric == "hamming":
        return (de + dx / 3.0) / 3.0
    return np.cbrt(de**3 + dx**3 / 3.0) / 3.0


def stable_order(closeness) -> tuple[int, ...]:
    c = list(closeness)
    return tuple(sorted(range(len(c)), key=lambda k: (-c[k], k)))


# ---------------------------------------------------------------------------
# views of the program's outputs


@dataclass
class Ranking:
    normalized: np.ndarray  # (n, m, 5)
    weights: np.ndarray
    aggregates: np.ndarray  # (n, 5)
    positive: np.ndarray
    negative: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    closeness: np.ndarray
    ordering: tuple[int, ...]


def ranking_from_json(doc: dict) -> Ranking:
    return Ranking(
        matrix(doc["normalized"]),
        np.array(doc["weights"], dtype=float),
        values(doc["aggregates"]),
        values([doc["positive_ideal"]])[0],
        values([doc["negative_ideal"]])[0],
        np.array(doc["d_plus"], dtype=float),
        np.array(doc["d_minus"], dtype=float),
        np.array(doc["closeness"], dtype=float),
        tuple(doc["ordering"]),
    )


def ranking_from_report(rep) -> Ranking:
    return Ranking(
        matrix(rep.matrix.cells),
        np.array(rep.matrix.weights, dtype=float),
        values(rep.aggregates),
        values([rep.positive_ideal])[0],
        values([rep.negative_ideal])[0],
        np.array(rep.d_plus, dtype=float),
        np.array(rep.d_minus, dtype=float),
        np.array(rep.closeness, dtype=float),
        tuple(rep.ordering),
    )


@dataclass
class Sweep:
    lams: list[float]
    closeness: np.ndarray  # (L, n)
    orderings: list[tuple[int, ...]]
    transitions: list[tuple[float, tuple[int, ...], tuple[int, ...]]]


def sweep_from_json(doc: dict) -> Sweep:
    rows = doc["rows"]
    return Sweep(
        [float(r["lambda"]) for r in rows],
        np.array([r["closeness"] for r in rows], dtype=float),
        [tuple(r["ordering"]) for r in rows],
        [
            (float(t["lambda"]), tuple(t["previous"]), tuple(t["ordering"]))
            for t in doc["transitions"]
        ],
    )


def sweep_from_rows(rows, transitions) -> Sweep:
    """From ``SweepResult.rows`` and ``SweepResult.transitions``."""
    return Sweep(
        [float(r.lam) for r in rows],
        np.array([r.closeness for r in rows], dtype=float),
        [tuple(r.ordering) for r in rows],
        [(float(t.lam), tuple(t.previous), tuple(t.ordering)) for t in transitions],
    )


# ---------------------------------------------------------------------------
# checks


def check_normalized(raw: np.ndarray, normalized: np.ndarray) -> None:
    """Memberships unchanged, each column's largest eta exactly 1, and the
    locations and spreads equal to eta / max eta and
    (xi / max xi) * (xi / eta)."""
    require(normalized.shape == raw.shape, "normalized matrix has the wrong shape")
    require(
        np.array_equal(normalized[..., 2:], raw[..., 2:]),
        "normalize changed a membership triple",
    )
    require(
        np.all(normalized[..., 0].max(axis=0) == 1.0),
        "a column's largest normalized eta is not 1",
    )
    eta, xi = raw[..., 0], raw[..., 1]
    near(normalized[..., 0], eta / eta.max(axis=0), "normalized eta")
    near(normalized[..., 1], (xi / xi.max(axis=0)) * (xi / eta), "normalized xi")


def check_ranking(r: Ranking, aggs: np.ndarray, metric: str) -> None:
    """Ideals, distances, closeness and ordering recomputed from the
    aggregates ``aggs``."""
    pos, neg = ideals(aggs)
    near(r.positive, pos, "positive ideal")
    near(r.negative, neg, "negative ideal")
    dp, dn = distance(aggs, pos, metric), distance(aggs, neg, metric)
    near(r.d_plus, dp, "D+")
    near(r.d_minus, dn, "D-")
    near(r.closeness, dn / (dp + dn), "closeness")
    require(r.ordering == stable_order(r.closeness), "ordering is not the stable descending sort of closeness")


def check_folds(fold, normalized: np.ndarray, weights, lam: float, aggs: np.ndarray, rows) -> None:
    """The scalar fold of the operator's definition, on the sampled rows,
    agrees with the aggregates."""
    for k in rows:
        items = [make_fnnn(*cell) for cell in normalized[k]]
        folded = values([fold(items, list(weights), lam)])[0]
        near(aggs[k], folded, f"aggregate of row {k} against its fold at lambda={lam:g}")


def check_sweep(s: Sweep, lams, aggs_by_lam, metric: str) -> None:
    """Each row recomputed from the aggregates at its lambda, orderings
    stable-sorted, transitions exactly the rows whose ordering changed."""
    require(s.lams == [float(v) for v in lams], "sweep rows are not the requested grid")
    for lam, close, order, aggs in zip(s.lams, s.closeness, s.orderings, aggs_by_lam):
        pos, neg = ideals(aggs)
        dp, dn = distance(aggs, pos, metric), distance(aggs, neg, metric)
        near(close, dn / (dp + dn), f"closeness at lambda={lam:g}")
        require(order == stable_order(close), f"ordering at lambda={lam:g} is not the stable sort")
    changed = [
        (s.lams[k], s.orderings[k - 1], s.orderings[k])
        for k in range(1, len(s.lams))
        if s.orderings[k] != s.orderings[k - 1]
    ]
    require(s.transitions == changed, "transitions are not exactly the rows whose ordering changed")


def check_lambda_one(generalized, base, what: str) -> None:
    """A generalized operator at lambda = 1 gives its base operator's
    results."""
    near(generalized, base, f"{what} at lambda=1")


def check_published_ranking(r: Ranking, operator: str, metric: str) -> None:
    """The worked example at lambda = 1: the normalized matrix, the fnnwa +
    hamming results and the fnnwg ordering."""
    tol = paper.PUBLISHED_TOL
    near(r.normalized[..., :2], paper.NORMALIZED, "normalized matrix vs paper", tol, False)
    if metric != "hamming":
        return
    if operator == "fnnwg":
        require(r.ordering == paper.ORDERING_FNNWG, "fnnwg ordering differs from the paper")
    if operator != "fnnwa":
        return
    near(r.aggregates, paper.AGGREGATES_FNNWA, "aggregates vs paper", tol, False)
    near(r.positive[:2], paper.POSITIVE_IDEAL, "positive ideal vs paper", tol, False)
    near(r.negative[:2], paper.NEGATIVE_IDEAL, "negative ideal vs paper", tol, False)
    near(r.d_plus[:1], paper.D_PLUS[:1], "D+ of E1 vs paper", paper.D_PLUS_E1_TOL, False)
    near(r.d_plus[1:], paper.D_PLUS[1:], "D+ vs paper", tol, False)
    near(r.d_minus, paper.D_MINUS, "D- vs paper", tol, False)
    near(r.closeness, paper.CLOSENESS, "closeness vs paper", tol, False)
    require(r.ordering == paper.ORDERING_FNNWA, "fnnwa ordering differs from the paper")


def check_published_sweep(s: Sweep) -> None:
    """Sensitivity rows at lambda = 2, 10, 13, 34, the E2/E3 pair at 12, and
    the grid transitions {2, 12, 34}."""
    tol = paper.PUBLISHED_TOL
    row = {lam: k for k, lam in enumerate(s.lams)}
    for lam, published in paper.SWEEP_ROWS.items():
        near(s.closeness[row[lam]], published, f"sweep row lambda={lam} vs paper", tol, False)
    for k, published in paper.SWEEP_ROW_12.items():
        near(s.closeness[row[12.0]][k], published, f"sweep row lambda=12, E{k + 1} vs paper", tol, False)
    require(s.transitions == list(paper.TRANSITIONS), "sweep transitions differ from {2, 12, 34}")


def parse_rank_csv(text: str) -> list[tuple[str, float, float, float, int]]:
    """Rows of ``rank --format csv``; OpFailed unless every numeric field
    parses as a float."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["alternative", "d_plus", "d_minus", "closeness", "rank"]:
        raise OpFailed("rank csv has no header")
    out = []
    for row in rows[1:]:
        try:
            out.append((row[0], float(row[1]), float(row[2]), float(row[3]), int(row[4])))
        except (ValueError, IndexError):
            raise OpFailed(f"rank csv row does not parse: {row}") from None
    return out


def check_rank_csv(rows, r: Ranking, alternatives) -> None:
    """The CSV agrees with the JSON ranking of the same configuration."""
    require([row[0] for row in rows] == list(alternatives), "rank csv labels")
    near([row[1] for row in rows], r.d_plus, "rank csv D+", 0.0)
    near([row[2] for row in rows], r.d_minus, "rank csv D-", 0.0)
    near([row[3] for row in rows], r.closeness, "rank csv closeness", 0.0)
    position = {k: p + 1 for p, k in enumerate(r.ordering)}
    require([row[4] for row in rows] == [position[k] for k in range(len(rows))], "rank csv ranks")
