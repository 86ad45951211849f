"""Seven-step TOPSIS-style ranking over a decision matrix of FNNN cells.

A matrix holds each alternative's cells as one row of five float tuples
(eta, xi, t, i, f), checked once when the matrix is made.  The pipeline
normalizes the matrix per attribute, aggregates each alternative's row
with one of the four weighted operators, synthesizes positive/negative
ideal values from the aggregates' extrema, measures each alternative's
distance to both ideals, and ranks by relative closeness
D- / (D+ + D-), larger is better.  A lambda sweep ranks at each value of
a grid of operator parameters and reports every ranking transition.
Both take the normalized rows and make one aggregation generator per row
(see :mod:`fnnmadm.aggregate`).  Each parameter value then takes every
generator's next aggregate and ranks on plain floats; a ranking run
wraps the values at its one parameter into a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .aggregate import GENERATORS, OPERATORS, check_weights, read_row, value_at
from .core import Fnnn, MembershipTriple, NormalParams, check_lambda, check_normal
from .core import checked_fnnn
from .distance import FORMULAS, euclidean, hamming, phi, phi_of
from .errors import (
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    LambdaInvalid,
    LengthMismatch,
    NotFinite,
    NotNormalized,
    ZeroLocation,
)

METRICS = {"hamming": hamming, "euclidean": euclidean}


@dataclass(frozen=True, repr=False)
class DecisionMatrix:
    """n alternatives x m attributes of FNNN cells plus attribute weights.

    ``rows`` holds one row per alternative: five tuples of m floats, the
    cells' eta, xi, t, i and f.  ``cells`` and ``row`` build ``Fnnn``
    values on demand.  :func:`make_decision_matrix` makes a checked one.
    """

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], ...], ...]
    weights: tuple[float, ...]
    normalized: bool = False

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def row(self, i: int) -> tuple[Fnnn, ...]:
        return tuple(map(checked_fnnn, *self.rows[i]))

    @property
    def cells(self) -> tuple[tuple[Fnnn, ...], ...]:
        return tuple(tuple(map(checked_fnnn, *row)) for row in self.rows)

    def __repr__(self) -> str:  # as a dataclass with a ``cells`` field would show it
        return (
            f"DecisionMatrix(alternatives={self.alternatives!r}, attributes={self.attributes!r}, "
            f"cells={self.cells!r}, weights={self.weights!r}, normalized={self.normalized!r})"
        )


def _check_nonempty(alternatives: Sequence[str], attributes: Sequence[str]) -> None:
    if not alternatives or not attributes:
        raise EmptyInput("need at least one alternative and one attribute")


def _check_unique(kind: str, labels: tuple[str, ...]) -> None:
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"{kind} label {label!r} appears twice")
        seen.add(label)


def make_decision_matrix(
    alternatives: Sequence[str],
    attributes: Sequence[str],
    cells: Sequence[Sequence[Fnnn]],
    weights: Sequence[float],
    renormalize: bool = False,
) -> DecisionMatrix:
    """Assemble and validate a decision matrix of ``Fnnn`` cells, which
    are read once into the matrix's float rows.

    Raises EmptyInput for a zero-sized matrix, LengthMismatch for ragged
    rows or label/weight arity problems, DuplicateLabel for a repeated
    label, ZeroLocation for an attribute without a positive location, and
    WeightInvalid for a bad weight vector (unless renormalize is set).
    """
    rows = tuple(tuple(map(tuple, read_row(row))) for row in cells)
    return _matrix_of_rows(alternatives, attributes, rows, weights, renormalize)


def _matrix_of_rows(alternatives, attributes, rows, weights, renormalize=False) -> DecisionMatrix:
    """:func:`make_decision_matrix` for rows of five float tuples that ``check_cell`` passed."""
    alternatives = tuple(str(a) for a in alternatives)
    attributes = tuple(str(a) for a in attributes)
    _check_nonempty(alternatives, attributes)
    if len(rows) != len(alternatives):
        raise LengthMismatch(f"{len(alternatives)} alternatives but {len(rows)} cell rows")
    for i, row in enumerate(rows):
        if len(row[0]) != len(attributes):
            raise LengthMismatch(f"row {i} has {len(row[0])} cells, expected {len(attributes)}")
    _check_unique("alternative", alternatives)
    _check_unique("attribute", attributes)
    for attr, eta_max in zip(attributes, map(max, zip(*(row[0] for row in rows)))):
        if eta_max <= 0.0:
            raise ZeroLocation(
                f"attribute {attr!r} has no positive location; normalization would be undefined"
            )
    ws = check_weights(weights, n=len(attributes), renormalize=renormalize)
    return DecisionMatrix(alternatives, attributes, rows, ws)


def _nonpositive_locations(etas: Sequence[Sequence[float]]) -> list[tuple[int, int, str]]:
    """(row, column, reason) for each location not > 0, which normalization cannot divide by."""
    return [
        (i, j, f"eta = {eta!r} must be > 0 for normalization")
        for i, row in enumerate(etas)
        for j, eta in enumerate(row)
        if eta <= 0.0
    ]


def normalize(dm: DecisionMatrix) -> DecisionMatrix:
    """Per-attribute normalization; membership triples are untouched.

    Locations are rescaled by the column maximum; spreads by the column
    maximum times the cell's own spread-to-location ratio.  The result
    holds float rows as ``dm`` does, and builds no ``Fnnn``.  A matrix
    that is already normalized is returned as it is.  Raises ZeroLocation
    unless every location is strictly positive, and NotFinite or
    SpreadNonPositive for a spread that leaves float64's range.
    """
    if dm.normalized:
        return dm
    etas = [row[0] for row in dm.rows]
    if min(map(min, etas)) <= 0.0:
        i, j, reason = _nonpositive_locations(etas)[0]
        raise ZeroLocation(f"invalid cell at ({dm.alternatives[i]}, {dm.attributes[j]}): {reason}")
    eta_max = list(map(max, zip(*etas)))
    xi_max = list(map(max, zip(*(row[1] for row in dm.rows))))
    rows = []
    for row_etas, row_xis, *memberships in dm.rows:
        n_etas = tuple([e / m for e, m in zip(row_etas, eta_max)])
        n_xis = tuple([(x / m) * (x / e) for x, m, e in zip(row_xis, xi_max, row_etas)])
        # one pass for the common case; check_normal finds the culprit
        if not (min(n_xis) > 0.0 and math.isfinite(sum(n_xis))):
            for eta, xi in zip(n_etas, n_xis):
                check_normal(eta, xi)
        rows.append((n_etas, n_xis, *memberships))
    return replace(dm, rows=tuple(rows), normalized=True)


def aggregate_rows(dm: DecisionMatrix, operator: str, lam: float = 1.0) -> tuple[Fnnn, ...]:
    """Reduce each alternative's row to a single value with the attribute
    weights; requires a normalized matrix."""
    if not dm.normalized:
        raise NotNormalized("normalize the decision matrix before aggregating")
    if operator not in OPERATORS:
        raise KeyError(f"unknown operator {operator!r}; choose from {sorted(OPERATORS)}")
    generator = GENERATORS[operator]
    ws = check_weights(dm.weights, n=dm.n_attributes)
    lam = check_lambda(lam)
    return tuple(value_at(generator, row, ws, lam) for row in dm.rows)


_POSITIVE_MU = MembershipTriple(1.0, 1.0, 0.0)
_NEGATIVE_MU = MembershipTriple(0.0, 0.0, 1.0)


def _ideals(etas: Sequence[float], xis: Sequence[float]):
    """(eta, xi) of the positive and of the negative ideal."""
    return (max(etas), min(xis)), (min(etas), max(xis))


def _ideal_values(positive, negative) -> tuple[Fnnn, Fnnn]:
    return Fnnn(NormalParams(*positive), _POSITIVE_MU), Fnnn(NormalParams(*negative), _NEGATIVE_MU)


def ideal_values(aggregates: Sequence[Fnnn]) -> tuple[Fnnn, Fnnn]:
    """Positive ideal <(max eta, min xi); 1, 1, 0> and negative ideal
    <(min eta, max xi); 0, 0, 1> over the aggregated alternatives."""
    aggs = tuple(aggregates)
    if not aggs:
        raise EmptyInput("cannot take ideals of zero aggregates")
    return _ideal_values(*_ideals([a.eta for a in aggs], [a.xi for a in aggs]))


def closeness(dplus: Sequence[float], dminus: Sequence[float]) -> list[float]:
    """Relative closeness D- / (D+ + D-) per alternative, each in [0, 1]."""
    dp = [float(v) for v in dplus]
    dn = [float(v) for v in dminus]
    if len(dp) != len(dn):
        raise LengthMismatch(f"distance vectors differ in length: {len(dp)} vs {len(dn)}")
    if not all(map(math.isfinite, dp + dn)):
        raise NotFinite("distances must be finite; a value overflowed float64")
    if any(v < 0 for v in dp) or any(v < 0 for v in dn):
        raise ValueError("distances must be nonnegative")
    totals = [p + n for p, n in zip(dp, dn)]
    if 0.0 in totals:
        raise DegenerateCloseness(f"D+ + D- is zero for alternative index {totals.index(0.0)}")
    return [n / total for n, total in zip(dn, totals)]


def rank(values: Sequence[float]) -> list[int]:
    """Indices sorted by descending closeness; ties break on lower index."""
    vals = list(values)
    if not vals:
        raise EmptyInput("cannot rank zero alternatives")
    return sorted(range(len(vals)), key=lambda k: (-vals[k], k))


@dataclass(frozen=True)
class PipelineConfig:
    """Operator/metric/parameter choice for one ranking run."""

    operator: str = "fnnwa"
    metric: str = "hamming"
    lam: float = 1.0

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise KeyError(
                f"unknown operator {self.operator!r}; choose from {sorted(OPERATORS)}"
            )
        if self.metric not in METRICS:
            raise KeyError(
                f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}"
            )
        check_lambda(self.lam)


@dataclass(frozen=True)
class RankingReport:
    """Everything a ranking run produced, best alternative first."""

    config: PipelineConfig
    matrix: DecisionMatrix  # normalized
    aggregates: tuple[Fnnn, ...]
    positive_ideal: Fnnn
    negative_ideal: Fnnn
    d_plus: tuple[float, ...]
    d_minus: tuple[float, ...]
    closeness: tuple[float, ...]
    ordering: tuple[int, ...]
    notes: tuple[str, ...] = ()

    def ordered_labels(self) -> tuple[str, ...]:
        return tuple(self.matrix.alternatives[k] for k in self.ordering)


class _Evaluation(NamedTuple):
    """A ranking at one lam, on plain floats."""

    lam: float
    aggregates: list[tuple[float, float, float, float, float]]
    positive: tuple[float, float]  # (eta, xi) of the positive ideal
    negative: tuple[float, float]
    d_plus: tuple[float, ...]
    d_minus: tuple[float, ...]
    closeness: tuple[float, ...]
    ordering: tuple[int, ...]


def _evaluations(dm: DecisionMatrix, operator: str, metric: str, lams: Sequence[float]):
    """Yield the ranking at each of the checked values ``lams``.

    The matrix is read and the weights are checked once, and each row
    gets one generator over ``lams``, which does its lam-free work once.
    Raises NotFinite when a value overflows float64.
    """
    generator, formula = GENERATORS[operator], FORMULAS[metric]
    phi_positive, phi_negative = phi(_POSITIVE_MU), phi(_NEGATIVE_MU)
    rows = normalize(dm).rows
    ws = check_weights(dm.weights, n=dm.n_attributes)
    values = [generator(row, ws, lams) for row in rows]
    try:
        for lam in lams:
            aggs = [next(v) for v in values]
            etas = [a[0] for a in aggs]
            xis = [a[1] for a in aggs]
            phis = [phi_of(t, i, f) for _, _, t, i, f in aggs]
            positive, negative = _ideals(etas, xis)
            dplus = tuple(
                formula(p, eta, xi, phi_positive, *positive) for p, eta, xi in zip(phis, etas, xis)
            )
            dminus = tuple(
                formula(p, eta, xi, phi_negative, *negative) for p, eta, xi in zip(phis, etas, xis)
            )
            close = tuple(closeness(dplus, dminus))
            yield _Evaluation(lam, aggs, positive, negative, dplus, dminus, close, tuple(rank(close)))
    except OverflowError:
        raise NotFinite(f"a value overflowed float64 at lambda = {lam:g}") from None


def run_pipeline(dm: DecisionMatrix, config: PipelineConfig = PipelineConfig()) -> RankingReport:
    """Execute normalization through ranking and collect the full report.

    Accepts a raw or already-normalized matrix; deterministic for
    identical inputs.  Diagnostic notes flag a fractional lambda and any
    aggregate whose membership cubic sum drifts above the construction
    bound (informational, never an error).  Raises NotFinite when a value
    overflows float64.
    """
    nm = normalize(dm)
    (ev,) = _evaluations(nm, config.operator, config.metric, [check_lambda(config.lam)])
    aggs = tuple(checked_fnnn(*a) for a in ev.aggregates)
    positive, negative = _ideal_values(ev.positive, ev.negative)
    notes = []
    if float(config.lam) != int(config.lam):
        notes.append(
            f"lambda = {config.lam:g} is fractional; integer parameters are the typical domain"
        )
    for label, agg in zip(nm.alternatives, aggs):
        if not agg.is_valid():
            notes.append(
                f"aggregate for {label} has membership cubic sum "
                f"{agg.mu.cubic_sum():.6f} above the construction bound"
            )
    return RankingReport(
        config=config,
        matrix=nm,
        aggregates=aggs,
        positive_ideal=positive,
        negative_ideal=negative,
        d_plus=ev.d_plus,
        d_minus=ev.d_minus,
        closeness=ev.closeness,
        ordering=ev.ordering,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SweepRow:
    lam: float
    closeness: tuple[float, ...]
    ordering: tuple[int, ...]


@dataclass(frozen=True)
class Transition:
    """A sweep row whose ordering differs from the previous row's."""

    lam: float
    previous: tuple[int, ...]
    ordering: tuple[int, ...]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    transitions: tuple[Transition, ...]


def detect_transitions(rows: Sequence[SweepRow]) -> tuple[Transition, ...]:
    """Transitions are exactly the rows whose ordering differs from the
    row before them."""
    out = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.ordering != prev.ordering:
            out.append(Transition(cur.lam, prev.ordering, cur.ordering))
    return tuple(out)


def lambda_sweep(
    dm: DecisionMatrix, config: PipelineConfig, lambdas: Sequence[float]
) -> SweepResult:
    """Rank at each parameter value and collect closeness rows, orderings
    and transitions; each row equals :func:`run_pipeline`'s at its value.

    The matrix's float rows are used as they are, a raw matrix's
    locations and spreads normalized once, and the weights are checked
    once; each row's
    generator does its lam-free work once, each value then evaluates only
    what depends on it, on plain floats, and builds no report.

    This is where a grid is checked: EmptyInput for no values,
    LambdaInvalid unless every value passes ``check_lambda`` and the
    values strictly increase.
    """
    lams = [check_lambda(v) for v in lambdas]
    if not lams:
        raise EmptyInput("sweep needs at least one lambda value")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise LambdaInvalid("sweep values must be strictly increasing")
    rows = tuple(
        SweepRow(ev.lam, ev.closeness, ev.ordering)
        for ev in _evaluations(dm, config.operator, config.metric, lams)
    )
    return SweepResult(rows=rows, transitions=detect_transitions(rows))
