"""Seven-step TOPSIS-style ranking over a decision matrix of FNNN cells.

A matrix holds each alternative's cells as one row of five float tuples
(eta, xi, t, i, f), checked once when the matrix is made.  The pipeline
normalizes the matrix per attribute, aggregates each alternative's row
with one of the four weighted operators, synthesizes positive/negative
ideal values from the aggregates' extrema, measures each alternative's
distance to both ideals, and ranks by relative closeness
D- / (D+ + D-), larger is better.  A lambda sweep ranks at each value of
a grid of operator parameters and reports every ranking transition.
Both read the normalized rows into :func:`fnnmadm.aggregate.aggregates`,
which gives every row's aggregate at each parameter value and types the
float faults of aggregation; each value is then ranked on plain floats,
and a ranking run wraps the values at its one parameter into a report.

A raw matrix reads itself once: its normalized copy and the logs of its
memberships are made by the first ranking that needs them and kept on
the matrix for every later one, whatever its operator, metric or lambda,
and so are each operator's lam-free row values, so that a later ranking
at a new lambda does only lambda's work (see :class:`DecisionMatrix`).
A normalized matrix keeps nothing: the CLI ranks ``normalize(dm)``,
which does one ranking's work and keeps nothing.
Every entry point, :func:`aggregate_rows` too, takes a raw or a normalized
matrix and gives the same values for both.
A caller's sequences and numbers are read by :mod:`fnnmadm.core`'s ``items`` and
``reals``, a matrix's when it is made; cells may not be text, nor text be a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from numbers import Number
from operator import add, mul, truediv
from typing import NamedTuple, Sequence

from .aggregate import (OPERATORS, _values, aggregates, check_weights, lam_free, membership_logs,
                        read_row)
from .core import (CELLS, CUBIC_SUM_BOUND, Fnnn, MembershipTriple, NormalParams, check_cell,
                   check_lambda, check_normal, checked_fnnn, items, of_type, reals)
from .distance import FORMULAS, euclidean, hamming, phi_of
from .errors import (
    DegenerateCloseness,
    DuplicateLabel,
    EmptyInput,
    LambdaInvalid,
    LengthMismatch,
    NotFinite,
    SpreadNonPositive,
    UnknownName,
    ValidationError,
    WeightInvalid,
    ZeroLocation,
)

METRICS = {"hamming": hamming, "euclidean": euclidean}
# what of_type says of a matrix or a config of another type
_MATRIX, _CONFIG = "dm must be a DecisionMatrix", "config must be a PipelineConfig"


@dataclass(frozen=True, repr=False)
class DecisionMatrix:
    """n alternatives x m attributes of FNNN cells plus attribute weights.

    ``rows`` holds one row per alternative: five tuples of m plain floats,
    the eta, xi, t, i and f of its cells.  ``cells`` and ``row`` build
    ``Fnnn`` values on demand.  A matrix reads its rows once, into plain
    floats as ``make_fnnn`` reads a cell (see :func:`_read_rows`), then raises
    the first of :func:`_problems`, so each of its cells passes
    ``core.check_cell`` and it always normalizes; rows of values, from
    :func:`make_decision_matrix`, are read by :func:`_read_values`, and
    checked only for what their values do not carry.  It holds its labels, rows
    and weights as tuples (of str, of tuples, of floats), whatever iterables
    and reals it was given, so two matrices of the same cells are equal and
    hash; labels that are text or no iterable raise ValidationError, as rows
    do, and so does a label that is neither text nor a number; its weights
    are read once.  ``normalized`` is not a constructor argument: only
    :func:`normalize` sets it, on a copy of a checked matrix, whose type
    raises ValidationError if the constructor makes one, as
    ``dataclasses.replace`` would.  The CLI checks a problem file once, by
    :func:`_problems` and ``check_weights``, and makes its matrix of the
    reader's rows of plain floats as they are, through :func:`_made`, without
    the constructor; it equals the matrix the constructor makes of them.

    A raw matrix reads itself once.  Outside its fields, so that equality,
    hashing, ``repr``, ``dataclasses.replace``, copies and pickles do not
    see them, it keeps what every ranking of it reads alike, made on first
    use: its normalized copy, which holds plain floats (a new location and
    spread per cell, about 64 bytes; the membership tuples are shared), and
    the xlogs of its memberships, as
    :func:`~fnnmadm.aggregate.membership_logs` gives them (three floats per
    cell, about 96 bytes: some 1 MiB for 500 x 20 cells).  For each
    operator it has ranked under, it keeps too the lam-free values of each
    row under its own weights, as :func:`~fnnmadm.aggregate.lam_free` gives
    them: at most three floats per row (about 136 bytes: 0.65 MiB per
    operator for 5000 rows), and nothing new for gfnnwa, which has none.
    Values whose computation overflowed are not kept.  Nothing that
    depends on the metric or lambda is kept, and the matrix is immutable,
    so what it keeps stays valid.  A normalized matrix keeps nothing: a
    report holds it, so a ranking of it takes its logs and lam-free values
    anew, and what the raw matrix keeps goes when the raw matrix goes.
    """

    alternatives: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], ...], ...]
    weights: tuple[float, ...]
    normalized: bool = field(default=False, init=False)

    def __post_init__(self):
        alternatives, attributes = (_labels(self.alternatives, "alternatives"),
                                    _labels(self.attributes, "attributes"))
        rows, unread, exact = self.rows, {}, False
        if type(rows) is _Values:
            rows, exact = _read_values(rows.cells)
        if not exact:
            rows, unread = _read_rows(() if rows is None else rows)
        for _, problem in _problems(alternatives, attributes, rows, None, unread, exact):
            raise problem
        weights = check_weights(() if self.weights is None else self.weights, n=len(attributes))
        vars(self).update(alternatives=alternatives, attributes=attributes, rows=rows,
                          weights=weights)

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

    @cached_property
    def _normal_copy(self) -> DecisionMatrix:
        """This raw matrix normalized, as :func:`normalize` returns it, its memberships shared."""
        rows = tuple((*normal, *row[2:]) for normal, row in zip(_normal_rows(self.rows), self.rows))
        # the fields alone: what this matrix keeps would stay alive with the copy
        return _made(_NormalizedMatrix, self.alternatives, self.attributes, rows, self.weights)

    @cached_property
    def _logs(self) -> list[list[list[float]]]:
        """:func:`~fnnmadm.aggregate.membership_logs` of this raw matrix's
        normalized rows."""
        return membership_logs(self._normal_copy.rows)

    @cached_property
    def _lam_free(self) -> dict[str, list]:
        """Each operator's lam-free row values, as :func:`_aggregation_inputs` keeps them."""
        return {}

    def __getstate__(self):  # the fields alone: what the matrix keeps is made again on use
        return {k: v for k, v in vars(self).items() if k in self.__dataclass_fields__}


class _NormalizedMatrix(DecisionMatrix):
    """The type of :func:`normalize`'s copies, which it makes without the
    constructor.  A copy made through it would hold normalized rows but
    not the flag, and be normalized a second time; so it raises."""

    def __post_init__(self):
        raise ValidationError(
            "a normalized matrix is made only by normalize: "
            "replace fields of the raw matrix and normalize that"
        )


def _made(kind, alternatives, attributes, rows, weights) -> DecisionMatrix:
    """A matrix of type ``kind`` that holds the fields given as they are, made without
    its constructor, so only of fields that passed its checks; a raw one reads
    ``normalized`` from its class, as the constructor leaves it."""
    dm = object.__new__(kind)
    vars(dm).update(alternatives=alternatives, attributes=attributes, rows=rows, weights=weights)
    if kind is _NormalizedMatrix:
        vars(dm)["normalized"] = True
    return dm


class _Values(NamedTuple):
    """Rows of values, as :func:`make_decision_matrix` gives them to a matrix,
    which reads them after its labels, by :func:`_read_values`."""

    cells: object


def make_decision_matrix(
    alternatives: Sequence[str],
    attributes: Sequence[str],
    cells: Sequence[Sequence[Fnnn]],
    weights: Sequence[float],
) -> DecisionMatrix:
    """A raw matrix of ``Fnnn`` cells, each value's parts read once into its
    float rows.  ``cells`` is read as :class:`DecisionMatrix` reads rows, after
    the labels: None is no rows, and text or no iterable a ValidationError.

    A value whose parts are of the exact types ``NormalParams`` and
    ``MembershipTriple`` was checked when they were made, so the matrix does not
    check its finite location, finite positive spread and memberships in
    [0, 1] again.  It checks every rule a value does not carry: the cubic-sum
    bound, which an operation's result, an aggregate say, may exceed (a row
    above it is checked cell by cell, so that the error names its cell); then
    the positive locations and spreads that normalize into float64's range,
    the labels and the weights (see :func:`_problems`).  A matrix with any
    part of another type, a subclass say, is checked in full, as a matrix of
    numbers is.  A value altered with ``object.__setattr__``, or unpickled from
    foreign bytes, is outside this contract, as it is for every frozen value.
    To rescale weights that do not sum to 1, pass
    ``check_weights(weights, renormalize=True)``.
    """
    return DecisionMatrix(alternatives, attributes, _Values(cells), weights)


def _labels(labels, kind: str) -> tuple[str, ...]:
    """``labels`` as a tuple of ``str()`` of each, () for None (EmptyInput,
    as () is); ValidationError names the type of a label that is a bool, or is
    neither text nor a number, which ``str()`` would read as 'True' or 'None'."""
    if labels is None:
        return ()
    labels = items(labels, ValidationError, f"{kind} must be an iterable of labels")
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, (str, Number)):
            raise ValidationError(
                f"{kind} must be labels of text or numbers, not {type(label).__name__}")
    return tuple(map(str, labels))


def _read_values(cells):
    """The rows of values ``cells`` as a matrix holds them, each row read by
    :func:`~fnnmadm.aggregate.read_row`, and whether every part of every value
    is of the exact types NormalParams and MembershipTriple.  None is no rows;
    rows that are text or no iterable raise, as for :func:`_read_rows`."""
    kinds, what = set(), "rows must be an iterable of rows"
    rows = tuple(read_row(row, kinds) for row in items(() if cells is None else cells,
                                                       ValidationError, what))
    return rows, kinds <= {NormalParams, MembershipTriple}


def _read_rows(rows):
    """The caller's rows as tuples of channel tuples, and the error of each
    cell that cannot be read, by (row, column).  A row of plain floats, or
    of channels that differ in width, is kept as it is; any other is read
    as ``make_fnnn`` reads a cell, ``float()`` of each value.  A cell with a
    value that has no ``__float__`` (text, None) is a ValidationError that
    lists its types, one ``float()`` rejects NotFinite: it holds NaNs, which
    ``check_cell`` rejects, and :func:`_problems` reports its error in place.
    Rows, a row or a channel that is text or no iterable raises at once."""
    read, unread = [], {}
    for i, row in enumerate(items(rows, ValidationError, "rows must be an iterable of rows")):
        what = f"row {i} must be five iterables of real numbers"
        row = tuple(items(channel, ValidationError, what)
                    for channel in items(row, ValidationError, what))
        if {*map(type, chain.from_iterable(row))} - {float} and len({*map(len, row)}) == 1:
            cells = []
            for j, cell in enumerate(zip(*row)):
                try:
                    if not all(hasattr(v, "__float__") for v in cell):
                        kinds = ", ".join(type(v).__name__ for v in cell)
                        raise ValidationError(f"{CELLS}: {kinds}")
                    cells.append(reals(cell, NotFinite, CELLS))
                except ValidationError as e:
                    unread[i, j] = e
                    cells.append((math.nan,) * len(cell))
            row = tuple(zip(*cells))
        read.append(row)
    return tuple(read), unread


def _problems(alternatives, attributes, rows, weights, unread={}, exact=False):  # unread: only read
    """Yield ``(cell, error)`` for each reason the matrix of plain-float rows
    cannot be ranked; ``cell`` is the (row, column) the error names, or None.

    In this order: for each cell ``check_cell`` rejects, row by row, the
    error of :func:`_read_rows` in ``unread``, else ``check_cell``'s (with
    ``exact``, for rows read from values of the exact library types, which
    :func:`_read_values` tells, only a row with a cubic sum above the bound
    is checked, as the types carry every other rule of ``check_cell``);
    ZeroLocation for each other location of 0 or less; if there is
    neither, check_normal's error for each spread that normalizes out of
    float64's range; DuplicateLabel for each repeated label; the error of
    ``check_weights`` unless ``weights`` is None.  A zero-sized matrix, or
    one whose rows do not each hold five tuples of one value per
    attribute, raises at once.
    """
    if not alternatives or not attributes:
        raise EmptyInput("need at least one alternative and one attribute")
    if len(rows) != len(alternatives):
        raise LengthMismatch(f"{len(alternatives)} alternatives but {len(rows)} cell rows")
    m = len(attributes)
    for i, row in enumerate(rows):
        if (widths := [*map(len, row)]) != [m] * 5:
            raise LengthMismatch(f"row {i} has tuples of {widths} values, expected 5 of {m}")

    def at(cls, i, j, reason):
        return (i, j), cls(f"invalid cell at ({alternatives[i]}, {attributes[j]}): {reason}")

    faulty = set()
    for i, row in enumerate(rows):
        # check_cell's own sum, so the test is bit for bit the same
        if exact and all(t ** 3 + i ** 3 + f ** 3 <= CUBIC_SUM_BOUND
                         for t, i, f in zip(*row[2:])):
            continue
        for j, cell in enumerate(zip(*row)):
            try:
                check_cell(*cell)
            except ValidationError as e:
                faulty.add((i, j))
                e = unread.get((i, j), e)
                yield at(type(e), i, j, str(e))
    located = not faulty and (eta_lo := min(min(row[0]) for row in rows)) > 0.0
    for i, row in enumerate(() if located else rows):
        for j, eta in enumerate(row[0]):
            if (i, j) not in faulty and not eta > 0.0:
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
    column maximum times the cell's own spread-to-location ratio; plain
    floats in, as a matrix holds them, and plain floats out."""
    eta_max = [*map(max, zip(*(row[0] for row in rows)))]
    xi_max = [*map(max, zip(*(row[1] for row in rows)))]
    for etas, xis, *_ in rows:
        yield (tuple(map(truediv, etas, eta_max)),
               tuple(map(mul, map(truediv, xis, xi_max), map(truediv, xis, etas))))


def normalize(dm: DecisionMatrix) -> DecisionMatrix:
    """Per-attribute normalization (see :func:`_normal_rows`) into rows of
    plain floats; memberships keep their values and no ``Fnnn`` is built.
    A raw matrix makes its normalized copy once and keeps it, so each call
    returns the same copy; a normalized matrix is returned as it is.
    Checks only that ``dm`` is a :class:`DecisionMatrix`: a raw one checked
    when it was made that it normalizes."""
    of_type((dm,), DecisionMatrix, _MATRIX)
    return dm if dm.normalized else dm._normal_copy


def _aggregation_inputs(dm: DecisionMatrix, operator: str):
    """The rows of ``normalize(dm)``, their membership logs and their
    lam-free values under ``operator``: those a raw ``dm`` keeps; of a
    normalized one, which keeps none, the logs taken anew and None for the
    values, which :func:`~fnnmadm.aggregate.aggregates` then takes."""
    if dm.normalized:
        return dm.rows, membership_logs(dm.rows), None
    rows, kept = dm._normal_copy.rows, dm._lam_free
    if operator not in kept:
        try:
            kept[operator] = lam_free(operator, rows, dm.weights)
        except OverflowError:  # not kept: aggregates takes them again and types the fault
            pass
    return rows, dm._logs, kept.get(operator)


def aggregate_rows(dm: DecisionMatrix, operator: str, lam: float = 1.0) -> tuple[Fnnn, ...]:
    """Reduce each alternative's normalized row to a single value with the
    attribute weights, as :func:`run_pipeline` does; ``dm`` may be raw or
    normalized, and the operator and lam take PipelineConfig's rules."""
    of_type((dm,), DecisionMatrix, _MATRIX)
    lam = PipelineConfig(operator, lam=lam).lam
    (aggs,) = aggregates(operator, *_aggregation_inputs(dm, operator), dm.weights, [lam])
    return tuple(checked_fnnn(*a) for a in aggs)


def _ideals(etas: Sequence[float], xis: Sequence[float]):
    """(eta, xi) of the positive and of the negative ideal."""
    return (max(etas), min(xis)), (min(etas), max(xis))


def _ideal_values(positive, negative) -> tuple[Fnnn, Fnnn]:
    return checked_fnnn(*positive, 1.0, 1.0, 0.0), checked_fnnn(*negative, 0.0, 0.0, 1.0)


def ideal_values(aggregates: Sequence[Fnnn]) -> tuple[Fnnn, Fnnn]:
    """Positive ideal <(max eta, min xi); 1, 1, 0> and negative ideal
    <(min eta, max xi); 0, 0, 1> over the aggregates, an iterable of Fnnn."""
    aggs = _values(aggregates)
    if not aggs:
        raise EmptyInput("cannot take ideals of zero aggregates")
    return _ideal_values(*_ideals([a.eta for a in aggs], [a.xi for a in aggs]))


def closeness(dplus: Sequence[float], dminus: Sequence[float]) -> list[float]:
    """Relative closeness D- / (D+ + D-) per alternative, each in [0, 1]: the
    caller's distances are validated here, at the public boundary, and
    computed by :func:`_closeness`, the one core, which rankings call."""
    dp, dn = (reals(d, ValidationError, "distances must be real numbers") for d in (dplus, dminus))
    if len(dp) != len(dn):
        raise LengthMismatch(f"distance vectors differ in length: {len(dp)} vs {len(dn)}")
    # a distance that is not finite is the core's NotFinite, which comes first
    if any(v < 0 for v in dp + dn) and all(map(math.isfinite, dp + dn)):
        raise ValidationError("distances must be nonnegative")
    return list(_closeness(dp, dn))


def _closeness(dp: tuple[float, ...], dn: tuple[float, ...]) -> tuple[float, ...]:
    """:func:`closeness` of nonnegative plain floats of one length; raises
    NotFinite for one that overflowed, DegenerateCloseness where both vanish."""
    if not all(map(math.isfinite, dp + dn)):
        raise NotFinite("distances must be finite; a value overflowed float64")
    totals = [*map(add, dp, dn)]
    if 0.0 in totals:
        raise DegenerateCloseness(f"D+ + D- is zero for alternative index {totals.index(0.0)}")
    if math.inf in totals:  # two finite distances whose sum overflows: halve both first
        return tuple(n / t if t < math.inf else n / 2 / (p / 2 + n / 2)
                     for p, n, t in zip(dp, dn, totals))
    return tuple(map(truediv, dn, totals))


def rank(values: Sequence[float]) -> list[int]:
    """Indices sorted by descending closeness; ties break on lower index.
    The caller's values are validated here, at the public boundary
    (NotFinite for a NaN, which has no place in the order, ValidationError
    for a value :func:`~fnnmadm.core.reals` rejects), and sorted by
    :func:`_rank`, the one core, which rankings call."""
    vals = reals(values, ValidationError, "values to rank must be real numbers")
    if not vals:
        raise EmptyInput("cannot rank zero alternatives")
    if any(map(math.isnan, vals)):
        raise NotFinite("values to rank must be numbers; a value is NaN")
    return list(_rank(vals))


def _rank(vals: tuple[float, ...]) -> tuple[int, ...]:
    """:func:`rank` of plain floats, no NaN; a reversed sort is stable."""
    return tuple(sorted(range(len(vals)), key=vals.__getitem__, reverse=True))


@dataclass(frozen=True)
class PipelineConfig:
    """Operator/metric/parameter choice for one ranking run; ``lam`` is held as a checked float."""

    operator: str = "fnnwa"
    metric: str = "hamming"
    lam: float = 1.0

    def __post_init__(self):
        for kind, name, names in (("operator", self.operator, OPERATORS),
                                  ("metric", self.metric, METRICS)):
            if not (isinstance(name, str) and name in names):  # a list does not hash
                raise UnknownName(f"unknown {kind} {name!r}; choose from {sorted(names)}")
        object.__setattr__(self, "lam", check_lambda(self.lam))


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

    :func:`~fnnmadm.aggregate.aggregates` gives every row's aggregate at
    each value from what :func:`_aggregation_inputs` gives, doing only
    each value's work.  Its distances and closeness are nonnegative plain
    floats, so it calls the cores of :func:`closeness` and :func:`rank`
    directly, without their validation of a caller's values.  Raises
    NotFinite when a value overflows float64.
    """
    formula = FORMULAS[metric]
    phi_positive, phi_negative = phi_of(1.0, 1.0, 0.0), phi_of(0.0, 0.0, 1.0)
    aggs_at = aggregates(operator, *_aggregation_inputs(dm, operator), dm.weights, lams)
    for lam, aggs in zip(lams, aggs_at):
        etas, xis, ts, is_, fs = zip(*aggs)  # the aggregates' columns, each read once
        phis = [*map(phi_of, ts, is_, fs)]
        positive, negative = _ideals(etas, xis)
        dplus = tuple(map(formula, phis, etas, xis, repeat(phi_positive), *map(repeat, positive)))
        dminus = tuple(map(formula, phis, etas, xis, repeat(phi_negative), *map(repeat, negative)))
        close = _closeness(dplus, dminus)
        yield _Evaluation(lam, aggs, positive, negative, dplus, dminus, close, _rank(close))


def run_pipeline(dm: DecisionMatrix, config: PipelineConfig = PipelineConfig()) -> RankingReport:
    """Execute normalization through ranking and collect the full report.

    Accepts a raw or already-normalized matrix; deterministic for
    identical inputs.  Diagnostic notes flag a fractional lambda and any
    aggregate whose membership cubic sum drifts above the construction
    bound (informational, never an error).  Raises NotFinite when a value
    overflows float64.
    """
    nm = normalize(dm)  # which checks the type of dm
    of_type((config,), PipelineConfig, _CONFIG)
    # dm, not the copy the report holds, keeps the logs and lam-free values
    (ev,) = _evaluations(dm, config.operator, config.metric, [config.lam])
    aggs = tuple(checked_fnnn(*a) for a in ev.aggregates)
    positive, negative = _ideal_values(ev.positive, ev.negative)
    notes = []
    if not config.lam.is_integer():
        notes.append(
            f"lambda = {config.lam:g} is fractional; integer parameters are the typical domain"
        )
    for label, agg in zip(nm.alternatives, aggs):
        if not agg.is_valid():
            notes.append(
                f"aggregate for {label} has membership cubic sum "
                f"{agg.mu.cubic_sum():.6f} above the construction bound"
            )
    return RankingReport(config, nm, aggs, positive, negative, ev.d_plus, ev.d_minus,
                         ev.closeness, ev.ordering, tuple(notes))


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
    row before them.  The caller's rows are read by
    :func:`~fnnmadm.core.items` (ValidationError for text, no iterable or
    an item that is no SweepRow) and compared by :func:`_transitions`, the
    one core, which a sweep calls."""
    rows = items(rows, ValidationError, "rows must be an iterable of SweepRow")
    return _transitions(of_type(rows, SweepRow, "a row must be a SweepRow"))


def _transitions(rows: tuple[SweepRow, ...]) -> tuple[Transition, ...]:
    """:func:`detect_transitions` of a tuple of SweepRows."""
    return tuple(Transition(cur.lam, prev.ordering, cur.ordering)
                 for prev, cur in zip(rows, rows[1:]) if cur.ordering != prev.ordering)


def lambda_sweep(
    dm: DecisionMatrix, config: PipelineConfig, lambdas: Sequence[float]
) -> SweepResult:
    """Rank at each parameter value and collect closeness rows, orderings
    and transitions; each row equals :func:`run_pipeline`'s at its value.

    The matrix's float rows and weights are used as they are, as the
    matrix checked them when it was made, with the normalized copy,
    membership logs and lam-free row values the matrix keeps for every
    ranking of it; each value then evaluates only what depends on it, on
    plain floats, and builds no report.

    This is where a grid is checked: EmptyInput for no values,
    LambdaInvalid for text or a grid that is not iterable, or unless every
    value passes ``check_lambda`` and the values strictly increase.
    """
    of_type((dm,), DecisionMatrix, _MATRIX)
    of_type((config,), PipelineConfig, _CONFIG)
    grid = items(lambdas, LambdaInvalid, "lambda values must be real numbers")
    lams = [*map(check_lambda, grid)]
    if not lams:
        raise EmptyInput("sweep needs at least one lambda value")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise LambdaInvalid("sweep values must be strictly increasing")
    rows = tuple(
        SweepRow(ev.lam, ev.closeness, ev.ordering)
        for ev in _evaluations(dm, config.operator, config.metric, lams)
    )
    return SweepResult(rows=rows, transitions=_transitions(rows))
