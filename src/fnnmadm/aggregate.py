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
"""

from __future__ import annotations

import math
from typing import Sequence

from ._numeric import nested_prob_channel, real_pow, weighted_prob_sum
from .core import Fnnn, check_lambda, combined
from .errors import EmptyInput, LengthMismatch, WeightInvalid

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


def fnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted averaging aggregation."""
    items, ws, lam = _prepare(items, weights, lam)
    eta = sum(w * L.eta for w, L in zip(ws, items))
    xi = sum(w * L.xi for w, L in zip(ws, items))
    t = weighted_prob_sum((L.t for L in items), ws, 3.0 * lam)
    i = weighted_prob_sum((L.i for L in items), ws, lam)
    f = math.prod(L.f ** w for w, L in zip(ws, items))
    return combined(eta, xi, t, i, f)


def fnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Weighted geometric aggregation."""
    items, ws, lam = _prepare(items, weights, lam)
    eta = math.prod(real_pow(L.eta, w) for w, L in zip(ws, items))
    xi = math.prod(L.xi ** w for w, L in zip(ws, items))
    t = math.prod(L.t ** w for w, L in zip(ws, items))
    i = weighted_prob_sum((L.i for L in items), ws, lam)
    f = weighted_prob_sum((L.f for L in items), ws, 3.0 * lam)
    return combined(eta, xi, t, i, f)


def gfnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted averaging: lam-th root of the weighted
    average of lam-th powers."""
    items, ws, lam = _prepare(items, weights, lam)
    eta = real_pow(sum(w * real_pow(L.eta, lam) for w, L in zip(ws, items)), 1.0 / lam)
    xi = sum(w * L.xi ** lam for w, L in zip(ws, items)) ** (1.0 / lam)
    t = weighted_prob_sum((L.t for L in items), ws, 3.0 * lam * lam)
    i = weighted_prob_sum((L.i for L in items), ws, lam)
    f = nested_prob_channel((L.f for L in items), ws, lam)
    return combined(eta, xi, t, i, f)


def gfnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Generalized weighted geometric: 1/lam times the weighted geometric
    of lam-multiples."""
    items, ws, lam = _prepare(items, weights, lam)
    eta = math.prod(real_pow(lam * L.eta, w) for w, L in zip(ws, items)) / lam
    xi = math.prod((lam * L.xi) ** w for w, L in zip(ws, items)) / lam
    t = nested_prob_channel((L.t for L in items), ws, lam)
    i = weighted_prob_sum((L.i for L in items), ws, lam)
    f = weighted_prob_sum((L.f for L in items), ws, 3.0 * lam * lam)
    return combined(eta, xi, t, i, f)


OPERATORS = {
    "fnnwa": fnnwa,
    "fnnwg": fnnwg,
    "gfnnwa": gfnnwa,
    "gfnnwg": gfnnwg,
}
