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

The closed forms are written once, each as a :class:`Kernel` over one
row read into :class:`Channels` (a list per component, and the log of
each membership once it is needed).  The operators below read their
values into one such row.  The pipeline reads a whole matrix once and
evaluates the kernels at every lam of a sweep; the channels that do not
depend on lam (eta, xi and f for fnnwa; eta, xi and t for fnnwg) are
computed only once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from ._numeric import clip01, nested_prob_channel, real_pow, weighted_prob_sum, xlogs
from .core import Fnnn, check_lambda, check_membership, check_normal, combined
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


class Channels:
    """One row of values read per component: locations, spreads and
    memberships, as float lists.  The xlog of each membership (see
    ``xlogs``) does not depend on any operator parameter, so it is
    computed on first use and kept."""

    def __init__(self, eta, xi, t, i, f):
        self.eta, self.xi, self.t, self.i, self.f = eta, xi, t, i, f

    @cached_property
    def log_t(self) -> list[float]:
        return xlogs(self.t)

    @cached_property
    def log_i(self) -> list[float]:
        return xlogs(self.i)

    @cached_property
    def log_f(self) -> list[float]:
        return xlogs(self.f)


class Kernel(NamedTuple):
    """An operator's closed form over one channel row, split into the
    channels that do not depend on lam (``fixed``, computed once for any
    number of lam values) and the evaluation at one lam (``at``)."""

    fixed: Callable[[Channels, Sequence[float]], tuple]
    at: Callable[[Channels, Sequence[float], float, tuple], tuple]

    def floats(self, row: Channels, ws, lam: float, fixed: tuple) -> tuple:
        """The aggregate as plain floats (eta, xi, t, i, f), checked and
        clipped as :func:`combined` does."""
        eta, xi, t, i, f = self.at(row, ws, lam, fixed)
        t, i, f = clip01(t), clip01(i), clip01(f)
        check_normal(eta, xi)
        check_membership(t, i, f)  # clip01 passes a NaN through
        return eta, xi, t, i, f

    def value(self, row: Channels, ws, lam: float) -> Fnnn:
        """The aggregate of one row at one lam."""
        return combined(*self.at(row, ws, lam, self.fixed(row, ws)))


def _no_fixed(row, ws):
    return ()


def _fnnwa_fixed(row, ws):
    eta = sum(w * e for w, e in zip(ws, row.eta))
    xi = sum(w * x for w, x in zip(ws, row.xi))
    f = math.prod(v ** w for w, v in zip(ws, row.f))
    return eta, xi, f


def _fnnwa_at(row, ws, lam, fixed):
    eta, xi, f = fixed
    t = weighted_prob_sum(row.log_t, ws, 3.0 * lam)
    i = weighted_prob_sum(row.log_i, ws, lam)
    return eta, xi, t, i, f


def _fnnwg_fixed(row, ws):
    eta = math.prod(real_pow(e, w) for w, e in zip(ws, row.eta))
    xi = math.prod(x ** w for w, x in zip(ws, row.xi))
    t = math.prod(v ** w for w, v in zip(ws, row.t))
    return eta, xi, t


def _fnnwg_at(row, ws, lam, fixed):
    eta, xi, t = fixed
    i = weighted_prob_sum(row.log_i, ws, lam)
    f = weighted_prob_sum(row.log_f, ws, 3.0 * lam)
    return eta, xi, t, i, f


def _gfnnwa_at(row, ws, lam, fixed):
    eta = real_pow(sum(w * real_pow(e, lam) for w, e in zip(ws, row.eta)), 1.0 / lam)
    xi = sum(w * x ** lam for w, x in zip(ws, row.xi)) ** (1.0 / lam)
    t = weighted_prob_sum(row.log_t, ws, 3.0 * lam * lam)
    i = weighted_prob_sum(row.log_i, ws, lam)
    f = nested_prob_channel(row.log_f, ws, lam)
    return eta, xi, t, i, f


def _gfnnwg_at(row, ws, lam, fixed):
    eta = math.prod(real_pow(lam * e, w) for w, e in zip(ws, row.eta)) / lam
    xi = math.prod((lam * x) ** w for w, x in zip(ws, row.xi)) / lam
    t = nested_prob_channel(row.log_t, ws, lam)
    i = weighted_prob_sum(row.log_i, ws, lam)
    f = weighted_prob_sum(row.log_f, ws, 3.0 * lam * lam)
    return eta, xi, t, i, f


KERNELS = {
    "fnnwa": Kernel(_fnnwa_fixed, _fnnwa_at),
    "fnnwg": Kernel(_fnnwg_fixed, _fnnwg_at),
    "gfnnwa": Kernel(_no_fixed, _gfnnwa_at),
    "gfnnwg": Kernel(_no_fixed, _gfnnwg_at),
}


def _aggregate(operator: str, items, weights, lam) -> Fnnn:
    items, ws, lam = _prepare(items, weights, lam)
    row = Channels(
        [L.eta for L in items],
        [L.xi for L in items],
        [L.t for L in items],
        [L.i for L in items],
        [L.f for L in items],
    )
    return KERNELS[operator].value(row, ws, lam)


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


OPERATORS = {
    "fnnwa": fnnwa,
    "fnnwg": fnnwg,
    "gfnnwa": gfnnwa,
    "gfnnwg": gfnnwg,
}
