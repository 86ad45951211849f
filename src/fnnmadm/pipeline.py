"""Seven-step TOPSIS-style ranking over a decision matrix of FNNN cells.

The pipeline normalizes the matrix per attribute, aggregates each
alternative's row with one of the four weighted operators, synthesizes
positive/negative ideal values from the aggregates' extrema, measures
each alternative's distance to both ideals, and ranks by relative
closeness D- / (D+ + D-), larger is better.  A lambda sweep repeats the
run over a grid of operator parameters and reports every ranking
transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .aggregate import OPERATORS, check_weights
from .core import Fnnn, MembershipTriple, NormalParams, check_lambda
from .distance import euclidean, hamming
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


@dataclass(frozen=True)
class DecisionMatrix:
    """n alternatives x m attributes of FNNN cells plus attribute weights."""

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: tuple[tuple[Fnnn, ...], ...]  # row-major, one row per alternative
    weights: tuple[float, ...]
    normalized: bool = False

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def row(self, i: int) -> tuple[Fnnn, ...]:
        return self.cells[i]


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
    """Assemble and validate a decision matrix.

    Raises EmptyInput for a zero-sized matrix, LengthMismatch for ragged
    rows or label/weight arity problems, DuplicateLabel for a repeated
    label, and WeightInvalid for a bad weight vector (unless renormalize
    is set).
    """
    alternatives = tuple(str(a) for a in alternatives)
    attributes = tuple(str(a) for a in attributes)
    rows = tuple(tuple(row) for row in cells)
    if not alternatives or not attributes:
        raise EmptyInput("need at least one alternative and one attribute")
    if len(rows) != len(alternatives):
        raise LengthMismatch(
            f"{len(alternatives)} alternatives but {len(rows)} cell rows"
        )
    for i, row in enumerate(rows):
        if len(row) != len(attributes):
            raise LengthMismatch(
                f"row {i} has {len(row)} cells, expected {len(attributes)}"
            )
    _check_unique("alternative", alternatives)
    _check_unique("attribute", attributes)
    for j, attr in enumerate(attributes):
        if max(row[j].eta for row in rows) <= 0.0:
            raise ZeroLocation(
                f"attribute {attr!r} has no positive location; normalization "
                "would be undefined"
            )
    ws = check_weights(weights, n=len(attributes), renormalize=renormalize)
    return DecisionMatrix(alternatives, attributes, rows, ws)


def normalize(dm: DecisionMatrix) -> DecisionMatrix:
    """Per-attribute normalization; membership triples are untouched.

    Locations are rescaled by the column maximum; spreads by the column
    maximum times the cell's own spread-to-location ratio.  Raises
    ZeroLocation unless every location is strictly positive.
    """
    for i, row in enumerate(dm.cells):
        for j, cell in enumerate(row):
            if cell.eta <= 0.0:
                raise ZeroLocation(
                    f"eta = {cell.eta!r} at ({dm.alternatives[i]}, {dm.attributes[j]}) "
                    "must be > 0 for normalization"
                )
    columns = tuple(zip(*dm.cells))
    eta_max = [max(c.eta for c in col) for col in columns]
    xi_max = [max(c.xi for c in col) for col in columns]
    rows = tuple(
        tuple(
            Fnnn(
                NormalParams(
                    cell.eta / eta_max[j],
                    (cell.xi / xi_max[j]) * (cell.xi / cell.eta),
                ),
                cell.mu,
            )
            for j, cell in enumerate(row)
        )
        for row in dm.cells
    )
    return replace(dm, cells=rows, normalized=True)


def aggregate_rows(dm: DecisionMatrix, operator: str, lam: float = 1.0) -> tuple[Fnnn, ...]:
    """Reduce each alternative's row to a single value with the attribute
    weights; requires a normalized matrix."""
    if not dm.normalized:
        raise NotNormalized("normalize the decision matrix before aggregating")
    if operator not in OPERATORS:
        raise KeyError(f"unknown operator {operator!r}; choose from {sorted(OPERATORS)}")
    op = OPERATORS[operator]
    return tuple(op(row, dm.weights, lam) for row in dm.cells)


def ideal_values(aggregates: Sequence[Fnnn]) -> tuple[Fnnn, Fnnn]:
    """Positive ideal <(max eta, min xi); 1, 1, 0> and negative ideal
    <(min eta, max xi); 0, 0, 1> over the aggregated alternatives."""
    aggs = tuple(aggregates)
    if not aggs:
        raise EmptyInput("cannot take ideals of zero aggregates")
    positive = Fnnn(
        NormalParams(max(a.eta for a in aggs), min(a.xi for a in aggs)),
        MembershipTriple(1.0, 1.0, 0.0),
    )
    negative = Fnnn(
        NormalParams(min(a.eta for a in aggs), max(a.xi for a in aggs)),
        MembershipTriple(0.0, 0.0, 1.0),
    )
    return positive, negative


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


def run_pipeline(dm: DecisionMatrix, config: PipelineConfig = PipelineConfig()) -> RankingReport:
    """Execute normalization through ranking and collect the full report.

    Accepts a raw or already-normalized matrix; deterministic for
    identical inputs.  Diagnostic notes flag a fractional lambda and any
    aggregate whose membership cubic sum drifts above the construction
    bound (informational, never an error).  Raises NotFinite when a value
    overflows float64.
    """
    nm = dm if dm.normalized else normalize(dm)
    metric = METRICS[config.metric]
    try:
        aggs = aggregate_rows(nm, config.operator, config.lam)
        positive, negative = ideal_values(aggs)
        dplus = tuple(metric(a, positive) for a in aggs)
        dminus = tuple(metric(a, negative) for a in aggs)
    except OverflowError:
        raise NotFinite(f"a value overflowed float64 at lambda = {config.lam:g}") from None
    close = tuple(closeness(dplus, dminus))
    ordering = tuple(rank(close))
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
        d_plus=dplus,
        d_minus=dminus,
        closeness=close,
        ordering=ordering,
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
    """Run the pipeline once per parameter value and collect closeness
    rows, orderings and transitions.

    This is where a grid is checked: EmptyInput for no values,
    LambdaInvalid unless every value passes ``check_lambda`` and the
    values strictly increase.
    """
    lams = [check_lambda(v) for v in lambdas]
    if not lams:
        raise EmptyInput("sweep needs at least one lambda value")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise LambdaInvalid("sweep values must be strictly increasing")
    nm = dm if dm.normalized else normalize(dm)
    rows = tuple(
        SweepRow(rep.config.lam, rep.closeness, rep.ordering)
        for rep in (run_pipeline(nm, replace(config, lam=lam)) for lam in lams)
    )
    return SweepResult(rows=rows, transitions=detect_transitions(rows))
