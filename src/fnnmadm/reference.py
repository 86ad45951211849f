"""Fold-of-primitives reference aggregations and seeded value generators.

The folds build each aggregate literally from its defining expression
using only :mod:`fnnmadm.core` primitives (left association; the algebra
is associative, so the order is immaterial up to round-off).  They exist
to cross-check the closed forms in :mod:`fnnmadm.aggregate` and the
algebraic identities.  They share with them the input checks of
``_prepare`` and the channel kernel ``_numeric.weighted_prob_sum``; not
the composition, step by step here, nor the linear two-term sum of
``boxplus`` and ``boxtimes``, a**p + b**p - a**p * b**p.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from numbers import Integral
from typing import Sequence

from ._numeric import left_sum
from .aggregate import _prepare
from .core import (CUBIC_SUM_BOUND, Fnnn, boxplus, boxtimes, make_fnnn, of_type, power, reals,
                   scale)
from .errors import EmptyInput, ValidationError


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


_SEEDS = (int, float, str, bytes, bytearray)  # what random.Random takes, None aside
_TRIPLE_DRAWS = 10000  # of a membership triple for one value, before its band is refused


def _open_uniform(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        u = rng.uniform(lo, hi)
        if u > lo:
            return u


def _check_size(name: str, n: int) -> None:
    """ValidationError unless n is an int, EmptyInput if it is below 1."""
    if not isinstance(n, Integral):
        raise ValidationError(f"{name} must be an int, not {type(n).__name__}")
    if n < 1:
        raise EmptyInput(f"{name} must be >= 1")


def _bounds(cfg: FnnnGenConfig, name: str) -> tuple[float, float]:
    """``cfg``'s range ``name`` as two floats, read by reals; else ValidationError."""
    bounds = reals(getattr(cfg, name), ValidationError, f"{name} must be two real numbers")
    if len(bounds) != 2:
        raise ValidationError(f"{name} must be two real numbers in float64's range")
    return bounds


def gen_fnnn(cfg: FnnnGenConfig, count: int) -> list[Fnnn]:
    """Generate ``count`` valid values, reproducibly under ``cfg.seed``.
    Raises ValidationError for a count that is no int, EmptyInput for one
    below 1, and ValidationError, before any value is drawn, for a cfg
    that is no FnnnGenConfig, a seed that ``random.Random`` does not take,
    and ranges that no value can be drawn from, a range whose width
    overflows float64 among them; ValidationError too for a
    membership band where 10000 draws give no triple within the bound."""
    _check_size("count", count)
    of_type((cfg,), FnnnGenConfig, "cfg must be an FnnnGenConfig")
    if not (cfg.seed is None or isinstance(cfg.seed, _SEEDS)):
        raise ValidationError(f"seed must be an int, a float, text or None, "
                              f"not {type(cfg.seed).__name__}")
    eta_range, xi_range = _bounds(cfg, "eta_range"), _bounds(cfg, "xi_range")
    # a draw is repeated until it fits, so a range that nothing fits would never
    # return; nor would one with a bound of -inf, from which a draw is NaN
    for name, (lo, hi) in (("eta_range", eta_range), ("xi_range", xi_range)):
        if not lo < hi:
            raise ValidationError(f"{name} = {(lo, hi)!r} needs lo < hi")
        if not (-math.inf < lo and hi < math.inf):
            raise ValidationError(f"{name} = {(lo, hi)!r} needs finite bounds")
        if hi - lo == math.inf:  # a draw, lo + (hi - lo) * u, would be inf or NaN
            raise ValidationError(f"{name} = {(lo, hi)!r} needs hi - lo in float64's range")
    mlo, mhi = _bounds(cfg, "membership_range")
    if not (0.0 <= mlo and mhi <= 1.0):
        raise ValidationError(f"membership_range = {(mlo, mhi)!r} needs 0 <= lo, hi <= 1")
    if not (mlo <= mhi and 3.0 * mlo ** 3 <= CUBIC_SUM_BOUND):
        raise ValidationError(
            f"membership_range = {(mlo, mhi)!r} needs lo <= hi, 3 * lo^3 <= {CUBIC_SUM_BOUND:g}"
        )
    rng = random.Random(cfg.seed)
    out = []
    for _ in range(count):
        eta = _open_uniform(rng, *eta_range)
        xi = _open_uniform(rng, *xi_range)
        for _ in range(_TRIPLE_DRAWS):  # a band just inside the bound holds few triples
            t = rng.uniform(mlo, mhi)
            i = rng.uniform(mlo, mhi)
            f = rng.uniform(mlo, mhi)
            if t ** 3 + i ** 3 + f ** 3 <= CUBIC_SUM_BOUND:
                break
        else:
            raise ValidationError(f"membership_range = {(mlo, mhi)!r} gave no triple with "
                                  f"t^3 + i^3 + f^3 <= {CUBIC_SUM_BOUND:g} in {_TRIPLE_DRAWS} draws")
        out.append(make_fnnn(eta, xi, t, i, f))
    return out


def gen_weights(rng: random.Random, n: int) -> tuple[float, ...]:
    """A random strictly positive weight vector normalized to sum 1;
    raises ValidationError for an n that is no int or an rng that is no
    ``random.Random``, EmptyInput for n < 1."""
    _check_size("n", n)
    of_type((rng,), random.Random, "rng must be a random.Random")
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = left_sum(raw)
    ws = [w / total for w in raw]
    # push rounding residue into the largest entry so the sum is exact
    k = max(range(n), key=lambda j: ws[j])
    ws[k] += 1.0 - left_sum(ws)
    return tuple(ws)
