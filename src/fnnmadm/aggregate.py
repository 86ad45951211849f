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

Each closed form is written once, as a generator over one row of values
read into five float lists (eta, xi, t, i, f) by :func:`read_row`.  It
first computes what does not depend on lam: the xlog of each membership
it uses, and for fnnwa and fnnwg the location, the spread and one
membership.  It then yields the aggregate at each lam it is given,
clipped and checked by :func:`fnnmadm.core.checked_result`, the one rule
for every operation's result.  The operators below take its one value at
their lam; the pipeline asks each row's generator for the next value.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Sequence

from ._numeric import _TINY, nested_prob_channel, real_pow, weighted_prob_sum, xlogs
from .core import Fnnn, check_lambda, checked_fnnn, checked_result
from .errors import EmptyInput, LengthMismatch, NormalDomainError, NotFinite, WeightInvalid

WEIGHT_SUM_TOLERANCE = 1e-6


def check_weights(
    weights: Sequence[float], n: int | None = None, renormalize: bool = False
) -> tuple[float, ...]:
    """Validate a weight vector; optionally rescale it to sum to 1.

    Raises LengthMismatch when n is given and disagrees, WeightInvalid for
    nonpositive or non-finite entries or (without renormalize) a sum off
    by more than WEIGHT_SUM_TOLERANCE.
    """
    ws = tuple(float(w) for w in weights)
    if n is not None and len(ws) != n:
        raise LengthMismatch(f"expected {n} weights, got {len(ws)}")
    if not ws:
        raise WeightInvalid("weight vector is empty")
    for k, w in enumerate(ws, start=1):
        if not 0.0 < w < math.inf:
            raise WeightInvalid(f"weight {k} of {len(ws)} must be a finite number > 0")
    total = sum(ws)
    if renormalize:
        if total == math.inf:  # finite weights whose sum overflows
            top = max(ws)
            ws = tuple(w / top for w in ws)
            total = sum(ws)
        return tuple(w / total for w in ws)
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise WeightInvalid(f"weights sum to {total!r}, expected 1")
    return ws


def _prepare(items, weights, lam):
    items = tuple(items)
    if not items:
        raise EmptyInput("cannot aggregate zero values")
    ws = check_weights(weights, n=len(items))
    return items, ws, check_lambda(lam)


def read_row(cells: Sequence[Fnnn]) -> tuple[list[float], ...]:
    """A row of values as five float lists: eta, xi, t, i and f."""
    normals = [c.normal for c in cells]
    mus = [c.mu for c in cells]
    etas, xis = [n.eta for n in normals], [n.xi for n in normals]
    return etas, xis, [m.t for m in mus], [m.i for m in mus], [m.f for m in mus]


def _fnnwa(row, ws, lams):
    etas, xis, ts, i_s, fs = row
    eta = sum(w * e for w, e in zip(ws, etas))
    xi = sum(w * x for w, x in zip(ws, xis))
    f = math.prod(v ** w for w, v in zip(ws, fs))
    log_t, log_i = xlogs(ts), xlogs(i_s)
    for lam in lams:
        t = weighted_prob_sum(log_t, ws, 3.0 * lam)
        i = weighted_prob_sum(log_i, ws, lam)
        yield checked_result(eta, xi, t, i, f)


def _fnnwg(row, ws, lams):
    etas, xis, ts, i_s, fs = row
    eta = math.prod(real_pow(e, w) for w, e in zip(ws, etas))
    xi = math.prod(x ** w for w, x in zip(ws, xis))
    t = math.prod(v ** w for w, v in zip(ws, ts))
    log_i, log_f = xlogs(i_s), xlogs(fs)
    for lam in lams:
        i = weighted_prob_sum(log_i, ws, lam)
        f = weighted_prob_sum(log_f, ws, 3.0 * lam)
        yield checked_result(eta, xi, t, i, f)


def _power_mean(xs, ws, lam: float) -> float:
    """(sum_i w_i * x_i**lam)**(1/lam), gfnnwa's location and spread.

    Where the sum leaves float64's normal range (every power underflows,
    or one overflows), it is taken of x_i / max|x_i| and the mean scaled
    back by max|x_i|; a sum in the normal range is used as it is.
    """
    try:
        total = sum(map(mul, ws, map(math.pow, xs, repeat(lam))))
    except OverflowError:
        total = math.inf
    if not _TINY <= abs(total) < math.inf and (top := max(map(abs, xs))) > 0.0:
        scaled = [x / top for x in xs]
        return top * math.pow(sum(map(mul, ws, map(math.pow, scaled, repeat(lam)))), 1.0 / lam)
    return math.pow(total, 1.0 / lam)


def _gfnnwa(row, ws, lams):
    etas, xis, ts, i_s, fs = row
    log_t, log_i, log_f = xlogs(ts), xlogs(i_s), xlogs(fs)
    for lam in lams:
        eta = _power_mean(etas, ws, lam)
        xi = _power_mean(xis, ws, lam)
        t = weighted_prob_sum(log_t, ws, 3.0 * lam * lam)
        i = weighted_prob_sum(log_i, ws, lam)
        f = nested_prob_channel(log_f, ws, lam)
        yield checked_result(eta, xi, t, i, f)


def _gfnnwg(row, ws, lams):
    etas, xis, ts, i_s, fs = row
    log_t, log_i, log_f = xlogs(ts), xlogs(i_s), xlogs(fs)
    for lam in lams:
        eta = math.prod(map(math.pow, map(mul, repeat(lam), etas), ws)) / lam
        xi = math.prod(map(math.pow, map(mul, repeat(lam), xis), ws)) / lam
        t = nested_prob_channel(log_t, ws, lam)
        i = weighted_prob_sum(log_i, ws, lam)
        f = weighted_prob_sum(log_f, ws, 3.0 * lam * lam)
        yield checked_result(eta, xi, t, i, f)


# each operator's closed form over one row, by name
GENERATORS = {"fnnwa": _fnnwa, "fnnwg": _fnnwg, "gfnnwa": _gfnnwa, "gfnnwg": _gfnnwg}


def value_at(generator, row, ws, lam: float) -> Fnnn:
    """The aggregate of one row, read by :func:`read_row`, at one lam.
    Raises NotFinite when a power overflows float64, and NormalDomainError
    for a fractional power of a negative location (ValueError in math.pow)."""
    try:
        return checked_fnnn(*next(generator(row, ws, (lam,))))
    except ValueError:
        raise NormalDomainError("cannot raise a negative location to a fractional power") from None
    except OverflowError:
        raise NotFinite(f"a value overflowed float64 at lambda = {lam:g}") from None


def _aggregate(generator, items, weights, lam) -> Fnnn:
    items, ws, lam = _prepare(items, weights, lam)
    return value_at(generator, read_row(items), ws, lam)


def fnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted averaging aggregation."""
    return _aggregate(_fnnwa, items, weights, lam)


def fnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted geometric aggregation."""
    return _aggregate(_fnnwg, items, weights, lam)


def gfnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted averaging: lam-th root of the weighted
    average of lam-th powers."""
    return _aggregate(_gfnnwa, items, weights, lam)


def gfnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted geometric: 1/lam times the weighted geometric
    of lam-multiples."""
    return _aggregate(_gfnnwg, items, weights, lam)


OPERATORS = {"fnnwa": fnnwa, "fnnwg": fnnwg, "gfnnwa": gfnnwa, "gfnnwg": gfnnwg}
