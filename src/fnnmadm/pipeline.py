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
    SpreadNonPositive,
    WeightInvalid,
    ZeroLocation,
)

METRICS = {"hamming": hamming, "euclidean": euclidean}


@dataclass(frozen=True, repr=False)
class DecisionMatrix:
    """n alternatives x m attributes of FNNN cells plus attribute weights.

    ``rows`` holds one row per alternative: five tuples of m floats, the
    eta, xi, t, i and f of cells that passed ``core.check_cell``.  ``cells``
    and ``row`` build ``Fnnn`` values on demand.  A raw matrix raises the
    first of :func:`_problems` when made, so it always normalizes, and
    holds its weights as floats.  A normalized one, which only
    :func:`normalize` makes from a raw one, is not checked again.
    """

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], ...], ...]
    weights: tuple[float, ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.normalized:
            problems = _problems(self.alternatives, self.attributes, self.rows, self.weights)
            for _, problem in problems:
                raise problem
            object.__setattr__(self, "weights", tuple(map(float, self.weights)))

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


def make_decision_matrix(
    alternatives: Sequence[str],
    attributes: Sequence[str],
    cells: Sequence[Sequence[Fnnn]],
    weights: Sequence[float],
) -> DecisionMatrix:
    """A raw matrix of ``Fnnn`` cells, read once into its float rows; it
    checks itself (see :class:`DecisionMatrix`).  To rescale weights that
    do not sum to 1, pass ``check_weights(weights, renormalize=True)``.
    """
    rows = tuple(tuple(map(tuple, read_row(row))) for row in cells)
    alternatives, attributes = tuple(map(str, alternatives)), tuple(map(str, attributes))
    return DecisionMatrix(alternatives, attributes, rows, weights)


def _problems(alternatives, attributes, rows, weights, skip=()):
    """Yield ``(cell, error)`` for each reason the matrix cannot be ranked;
    ``cell`` is the (row, column) the error names, or None.

    In this order: ZeroLocation for each location of 0 or less; if there
    is none, check_normal's error for each spread that normalizes out of
    float64's range; DuplicateLabel for each repeated label; the error of
    ``check_weights`` unless ``weights`` is None.  The cells at positions
    in ``skip`` failed ``check_cell``: they are not read, and no spread is
    normalized.  A zero-sized or ragged matrix raises at once.
    """
    if not alternatives or not attributes:
        raise EmptyInput("need at least one alternative and one attribute")
    if len(rows) != len(alternatives):
        raise LengthMismatch(f"{len(alternatives)} alternatives but {len(rows)} cell rows")
    for i, row in enumerate(rows):
        if len(row[0]) != len(attributes):
            raise LengthMismatch(f"row {i} has {len(row[0])} cells, expected {len(attributes)}")

    def at(cls, i, j, reason):
        return (i, j), cls(f"invalid cell at ({alternatives[i]}, {attributes[j]}): {reason}")

    # "> 0", not "<= 0": min() keeps a NaN that comes first
    located = not skip and (eta_lo := min(min(row[0]) for row in rows)) > 0.0
    for i, row in enumerate(() if located else rows):
        for j, eta in enumerate(row[0]):
            if (i, j) not in skip and not eta > 0.0:
                yield at(ZeroLocation, i, j, f"eta = {eta!r} must be > 0 for normalization")
    if located:
        eta_hi = max(max(row[0]) for row in rows)
        xi_lo, xi_hi = min(min(row[1]) for row in rows), max(max(row[1]) for row in rows)
        # a spread normalizes to (xi / max xi) * (xi / eta); when the extrema keep
        # both factors in [1e-150, 1e150], every product is in range, else check each
        in_range = xi_lo / xi_hi > 1e-150 and xi_lo / eta_hi > 1e-150 and xi_hi / eta_lo < 1e150
        for i, (etas, xis) in enumerate(() if in_range else _normal_rows(rows)):
            for j, cell in enumerate(zip(etas, xis)):
                try:
                    check_normal(*cell)
                except (NotFinite, SpreadNonPositive) as e:
                    yield at(type(e), i, j, f"normalized {e}")
    for kind, labels in (("alternative", alternatives), ("attribute", attributes)):
        counts = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
            if counts[label] == 2:
                yield None, DuplicateLabel(f"{kind} label {label!r} appears twice")
    if weights is not None:
        try:
            check_weights(weights, n=len(attributes))
        except (LengthMismatch, WeightInvalid) as e:
            yield None, e


def _normal_rows(rows):
    """Each row's locations over the column maximum, and spreads over the
    column maximum times the cell's own spread-to-location ratio."""
    eta_max = list(map(max, zip(*(row[0] for row in rows))))
    xi_max = list(map(max, zip(*(row[1] for row in rows))))
    for etas, xis, *_ in rows:
        normal_etas = tuple([e / m for e, m in zip(etas, eta_max)])
        yield normal_etas, tuple([(x / m) * (x / e) for x, m, e in zip(xis, xi_max, etas)])


def normalize(dm: DecisionMatrix) -> DecisionMatrix:
    """Per-attribute normalization (see :func:`_normal_rows`) into float
    rows; membership triples are untouched and no ``Fnnn`` is built.  A
    normalized matrix is returned as it is.  Checks nothing: a raw
    :class:`DecisionMatrix` checked when it was made that it normalizes."""
    if dm.normalized:
        return dm
    rows = tuple((*normal, *row[2:]) for normal, row in zip(_normal_rows(dm.rows), dm.rows))
    return replace(dm, rows=rows, normalized=True)


def aggregate_rows(dm: DecisionMatrix, operator: str, lam: float = 1.0) -> tuple[Fnnn, ...]:
    """Reduce each alternative's row to a single value with the attribute
    weights; requires a normalized matrix, and takes PipelineConfig's rules."""
    if not dm.normalized:
        raise NotNormalized("normalize the decision matrix before aggregating")
    PipelineConfig(operator, lam=lam)
    return tuple(value_at(GENERATORS[operator], row, dm.weights, float(lam)) for row in dm.rows)


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
        for kind, name, names in (("operator", self.operator, OPERATORS),
                                  ("metric", self.metric, METRICS)):
            if name not in names:
                raise KeyError(f"unknown {kind} {name!r}; choose from {sorted(names)}")
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

    The matrix is read once, and each row gets one generator over
    ``lams``, which does its lam-free work once.  Raises NotFinite when a
    value overflows float64.
    """
    generator, formula = GENERATORS[operator], FORMULAS[metric]
    phi_positive, phi_negative = phi(_POSITIVE_MU), phi(_NEGATIVE_MU)
    values = [generator(row, dm.weights, lams) for row in normalize(dm).rows]
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

    The matrix's float rows and weights are used as they are, as the
    matrix checked them when it was made, and a raw matrix's locations
    and spreads are normalized once; each row's generator does its
    lam-free work once, each value then evaluates only what depends on
    it, on plain floats, and builds no report.

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
