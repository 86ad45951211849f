"""Fold-of-primitives reference aggregations and seeded value generators.

The folds build each aggregate literally from its defining expression
using only :mod:`fnnmadm.core` primitives (left association; the algebra
is associative, so the order is immaterial up to round-off).  They exist
to cross-check the closed forms in :mod:`fnnmadm.aggregate` and the
algebraic identities, so they deliberately share no arithmetic with
them: only the primitives and the input checks of ``_prepare``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .aggregate import _prepare
from .core import CUBIC_SUM_BOUND, Fnnn, boxplus, boxtimes, make_fnnn, power, scale
from .errors import EmptyInput


def fold_fnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Left fold of boxplus over per-item weighted multiples."""
    items, ws, lam = _prepare(items, weights, lam)
    scaled = [scale(w, L, lam) for w, L in zip(ws, items)]
    return reduce(lambda acc, x: boxplus(acc, x, lam), scaled)


def fold_fnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """Left fold of boxtimes over per-item weighted powers."""
    items, ws, lam = _prepare(items, weights, lam)
    powered = [power(w, L, lam) for w, L in zip(ws, items)]
    return reduce(lambda acc, x: boxtimes(acc, x, lam), powered)


def fold_gfnnwa(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """(sum_i w_i * L_i^lam)^(1/lam), composed from the primitives."""
    items, ws, lam = _prepare(items, weights, lam)
    terms = [scale(w, power(lam, L, lam), lam) for w, L in zip(ws, items)]
    total = reduce(lambda acc, x: boxplus(acc, x, lam), terms)
    return power(1.0 / lam, total, lam)


def fold_gfnnwg(items: Sequence[Fnnn], weights: Sequence[float], lam: float = 1.0) -> Fnnn:
    """(1/lam) * prod_i (lam * L_i)^(w_i), composed from the primitives."""
    items, ws, lam = _prepare(items, weights, lam)
    factors = [power(w, scale(lam, L, lam), lam) for w, L in zip(ws, items)]
    product = reduce(lambda acc, x: boxtimes(acc, x, lam), factors)
    return scale(1.0 / lam, product, lam)


FOLDS = {
    "fnnwa": fold_fnnwa,
    "fnnwg": fold_fnnwg,
    "gfnnwa": fold_gfnnwa,
    "gfnnwg": fold_gfnnwg,
}


@dataclass(frozen=True)
class FnnnGenConfig:
    """Configuration for the seeded random-value generator.

    Locations and spreads are drawn uniformly from half-open intervals
    (lower bound excluded, so the defaults give (0, 1]).  Membership
    triples are drawn uniformly from ``membership_range`` and rejected
    until the cubic-sum bound holds.  In the default membership band
    [0.1, 0.95] the generalized operators' 3*lam^2 powers leave
    float64's normal range above about lam = 10; the channels then take
    their exact path (see :mod:`fnnmadm._numeric`), in the folds as in
    the closed forms, and the two stay comparable at tight tolerance up
    to lam = 34.
    """

    eta_range: tuple[float, float] = (0.0, 1.0)
    xi_range: tuple[float, float] = (0.0, 1.0)
    membership_range: tuple[float, float] = (0.1, 0.95)
    seed: int = 0


def _open_uniform(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        u = rng.uniform(lo, hi)
        if u > lo:
            return u


def gen_fnnn(cfg: FnnnGenConfig, count: int) -> list[Fnnn]:
    """Generate ``count`` valid values, reproducibly under ``cfg.seed``."""
    if count < 1:
        raise EmptyInput("count must be >= 1")
    rng = random.Random(cfg.seed)
    out = []
    mlo, mhi = cfg.membership_range
    for _ in range(count):
        eta = _open_uniform(rng, *cfg.eta_range)
        xi = _open_uniform(rng, *cfg.xi_range)
        while True:
            t = rng.uniform(mlo, mhi)
            i = rng.uniform(mlo, mhi)
            f = rng.uniform(mlo, mhi)
            if t ** 3 + i ** 3 + f ** 3 <= CUBIC_SUM_BOUND:
                break
        out.append(make_fnnn(eta, xi, t, i, f))
    return out


def gen_weights(rng: random.Random, n: int) -> tuple[float, ...]:
    """A random strictly positive weight vector normalized to sum 1."""
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(raw)
    ws = [w / total for w in raw]
    # push rounding residue into the largest entry so the sum is exact
    k = max(range(n), key=lambda j: ws[j])
    ws[k] += 1.0 - sum(ws)
    return tuple(ws)
