"""Closed-form weighted aggregation operators over lists of FNNN values.

Four operators share the same contract: a nonempty list of values, a
positive weight vector summing to 1 (within ``WEIGHT_SUM_TOLERANCE``)
and a parameter ``lam >= 1``:

* ``fnnwa``  - weighted averaging (locations/spreads average);
* ``fnnwg``  - weighted geometric (locations/spreads multiply);
* ``gfnnwa`` - generalized averaging, the lam-th root of the average of
  lam-th powers; equals ``fnnwa`` at lam = 1;
* ``gfnnwg`` - generalized geometric, 1/lam times the weighted geometric
  of lam-multiples; equals ``fnnwg`` at lam = 1.

Each closed form agrees with its definitional fold of the primitive
operations (see :mod:`fnnmadm.reference`) to within float accumulation.

Each closed form is written once, as a pair over one row of values read
into five float tuples (eta, xi, t, i, f) by :func:`read_row`.  The first
part, ``free(row, ws)``, gives what does not depend on lam: for fnnwa the
location, the spread and f, for fnnwg the location, the spread and t, and
for gfnnwg fnnwg's location and spread with sum(w) - 1; gfnnwa has none.
The second, ``at(free, log_t, log_i, log_f, ws, lam)``, gives the
aggregate at one lam from those and the xlogs that :func:`membership_logs`
takes of every row's t, i and f; gfnnwg scales its location and spread by
lam**(sum w - 1), 1.0 where the weights sum to 1.  Each result is clipped
and checked by :func:`fnnmadm.core.checked_result`, the one rule for
every operation's result.  :func:`aggregates` alone runs them and types
their float faults: it takes every row's lam-free values once, unless it
is given them, then builds every row's aggregate at each lam in one list,
and holds no state per row between values.  The operators below take it
over one row at one lam, and the pipeline over every row at one lam or
each lam of a sweep, with what a raw matrix keeps.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter, mul
from typing import Sequence

from ._numeric import _TINY, left_sum, nested_prob_channel, weighted_prob_sum, xlogs
from .core import VALUE, Fnnn, check_lambda, checked_fnnn, checked_result, items, of_type, reals
from .errors import (EmptyInput, LengthMismatch, NormalDomainError, NotFinite, ValidationError,
                     WeightInvalid)

WEIGHT_SUM_TOLERANCE = 1e-6


def check_weights(
    weights: Sequence[float], n: int | None = None, renormalize: bool = False
) -> tuple[float, ...]:
    """Validate a weight vector; optionally rescale it to sum to 1.

    Raises LengthMismatch when n is given and disagrees, WeightInvalid for
    entries that are not real numbers (as ``float`` reads them), nonpositive
    or non-finite, (without renormalize) a sum off by more than
    WEIGHT_SUM_TOLERANCE, or (with it) a weight that underflows to 0 when
    rescaled.
    """
    ws = reals(weights, WeightInvalid, "weights must be real numbers")
    if n is not None and len(ws) != n:
        raise LengthMismatch(f"expected {n} weights, got {len(ws)}")
    if not ws:
        raise WeightInvalid("weight vector is empty")
    for k, w in enumerate(ws, start=1):
        if not 0.0 < w < math.inf:
            raise WeightInvalid(f"weight {k} of {len(ws)} must be a finite number > 0")
    total = left_sum(ws)
    if renormalize:
        if total == math.inf:  # finite weights whose sum overflows
            top = max(ws)
            ws = tuple(w / top for w in ws)
            total = left_sum(ws)
        rescaled = tuple(w / total for w in ws)
        if 0.0 in rescaled:
            k = rescaled.index(0.0) + 1
            raise WeightInvalid(f"weight {k} of {len(ws)} underflows to 0 when rescaled")
        return rescaled
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise WeightInvalid(f"weights sum to {total!r}, expected 1")
    return ws


def _values(values) -> tuple[Fnnn, ...]:
    """``values`` as :func:`~fnnmadm.core.items` reads it; ValidationError names the
    type of ``values`` if it is text or no iterable, or of the first item that is no Fnnn."""
    values = items(values, ValidationError, "values must be an iterable of Fnnn")
    return of_type(values, Fnnn, VALUE)


def _prepare(items, weights, lam):
    items = _values(items)
    if not items:
        raise EmptyInput("cannot aggregate zero values")
    ws = check_weights(weights, n=len(items))
    return items, ws, check_lambda(lam)


_NORMAL, _MU = attrgetter("normal"), attrgetter("mu")
_ETA, _XI, _T, _I, _F = map(attrgetter, ("eta", "xi", "t", "i", "f"))


def read_row(cells: Sequence[Fnnn], kinds: set | None = None) -> tuple[tuple[float, ...], ...]:
    """A row of values as five float tuples, eta, xi, t, i and f, each part
    of a value read once; adds the type of each part to ``kinds`` where it
    is given.  Raises ValidationError for a row that is no iterable of Fnnn."""
    cells = _values(cells)
    normals, mus = [*map(_NORMAL, cells)], [*map(_MU, cells)]
    if kinds is not None:
        kinds.update(map(type, normals), map(type, mus))
    return (tuple(map(_ETA, normals)), tuple(map(_XI, normals)),
            tuple(map(_T, mus)), tuple(map(_I, mus)), tuple(map(_F, mus)))


def _fnnwa_free(row, ws):
    eta, xi = left_sum(map(mul, ws, row[0])), left_sum(map(mul, ws, row[1]))
    return eta, xi, math.prod(map(math.pow, row[4], ws))


def _fnnwa_at(free, log_t, log_i, _, ws, lam):
    t, i = weighted_prob_sum(log_t, ws, 3.0 * lam), weighted_prob_sum(log_i, ws, lam)
    return checked_result(free[0], free[1], t, i, free[2])


def _fnnwg_free(row, ws):
    return tuple(math.prod(map(math.pow, xs, ws)) for xs in row[:3])  # eta, xi and t


def _fnnwg_at(free, _, log_i, log_f, ws, lam):
    i, f = weighted_prob_sum(log_i, ws, lam), weighted_prob_sum(log_f, ws, 3.0 * lam)
    return checked_result(*free, i, f)


def _power_mean(xs, ws, lam: float) -> float:
    """(sum_i w_i * x_i**lam)**(1/lam), gfnnwa's location and spread.

    Where the sum leaves float64's normal range (every power underflows,
    or one overflows), it is taken of x_i / max|x_i| and the mean scaled
    back by max|x_i|; a sum in the normal range is used as it is.
    """
    try:
        total = left_sum(map(mul, ws, map(math.pow, xs, repeat(lam))))
    except OverflowError:
        total = math.inf
    if not _TINY <= abs(total) < math.inf and (top := max(map(abs, xs))) > 0.0:
        scaled = [x / top for x in xs]
        return top * math.pow(left_sum(map(mul, ws, map(math.pow, scaled, repeat(lam)))), 1.0 / lam)
    return math.pow(total, 1.0 / lam)


def _gfnnwa_at(row, log_t, log_i, log_f, ws, lam):
    eta, xi = _power_mean(row[0], ws, lam), _power_mean(row[1], ws, lam)
    t, i = weighted_prob_sum(log_t, ws, 3.0 * lam * lam), weighted_prob_sum(log_i, ws, lam)
    return checked_result(eta, xi, t, i, nested_prob_channel(log_f, ws, lam))


def _gfnnwg_free(row, ws):
    eta, xi = _fnnwg_free(row[:2], ws)
    return eta, xi, math.fsum(ws) - 1.0


def _gfnnwg_at(free, log_t, log_i, log_f, ws, lam):
    scale = lam ** free[2]
    t, i = nested_prob_channel(log_t, ws, lam), weighted_prob_sum(log_i, ws, lam)
    f = weighted_prob_sum(log_f, ws, 3.0 * lam * lam)
    return checked_result(free[0] * scale, free[1] * scale, t, i, f)


# each operator's closed form over one row: its lam-free part (gfnnwa has none) and its lam part
_CLOSED_FORMS = {"fnnwa": (_fnnwa_free, _fnnwa_at), "fnnwg": (_fnnwg_free, _fnnwg_at),
                 "gfnnwa": (None, _gfnnwa_at), "gfnnwg": (_gfnnwg_free, _gfnnwg_at)}


def membership_logs(rows) -> list[list[list[float]]]:
    """The :func:`xlogs` of t, of i and of f in every row of ``rows``: one
    list per channel, of one list of logs per row."""
    return [[xlogs(row[k]) for row in rows] for k in (2, 3, 4)]


def lam_free(operator: str, rows, ws):
    """Every row's lam-free values under ``operator`` (``rows`` itself for gfnnwa,
    which has none); raises a bare OverflowError, which :func:`aggregates` types."""
    free = _CLOSED_FORMS[operator][0]
    return rows if free is None else [free(row, ws) for row in rows]


def aggregates(operator: str, rows, logs, free, ws, lams):
    """Yield, at each of the checked values ``lams``, the list of every
    row's aggregate (eta, xi, t, i, f) under ``operator``, from its
    :func:`lam_free` values ``free`` (taken here when None) and its
    :func:`membership_logs` ``logs``, both read and not written.
    Raises NotFinite when a power overflows float64, and NormalDomainError
    for a fractional power of a negative location (ValueError in math.pow)."""
    at = _CLOSED_FORMS[operator][1]
    for lam in lams:
        try:
            if free is None:
                # every row's lam-free part, before any row's first lam; a fault
                # names the first lam, as one in the lam part would.  A matrix's
                # locations are > 0, so no lam-free part of a matrix raises
                # ValueError, and doing it first changes no error.
                free = lam_free(operator, rows, ws)
            aggs = [*map(at, free, *logs, repeat(ws), repeat(lam))]
        except ValueError:
            raise NormalDomainError(
                "cannot raise a negative location to a fractional power") from None
        except OverflowError:
            raise NotFinite(f"a value overflowed float64 at lambda = {lam:g}") from None
        yield aggs


def _aggregate(operator, items, weights, lam) -> Fnnn:
    items, ws, lam = _prepare(items, weights, lam)
    rows = [read_row(items)]
    [[agg]] = aggregates(operator, rows, membership_logs(rows), None, ws, [lam])
    return checked_fnnn(*agg)


def fnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted averaging aggregation."""
    return _aggregate("fnnwa", items, weights, lam)


def fnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted geometric aggregation."""
    return _aggregate("fnnwg", items, weights, lam)


def gfnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted averaging: lam-th root of the weighted
    average of lam-th powers."""
    return _aggregate("gfnnwa", items, weights, lam)


def gfnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted geometric: 1/lam times the weighted geometric
    of lam-multiples."""
    return _aggregate("gfnnwg", items, weights, lam)


OPERATORS = {"fnnwa": fnnwa, "fnnwg": fnnwg, "gfnnwa": gfnnwa, "gfnnwg": gfnnwg}
