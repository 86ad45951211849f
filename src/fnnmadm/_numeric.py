"""Scalar kernels for the membership algebra.

The algebra keeps producing expressions of the form 1 - (1 - v**p)**w
and 1 - prod((1 - v_i**p)**w_i).  Evaluated directly these collapse at
both ends: for v close to 1 the complement cancels, and in the
large-exponent regimes (p up to 3*lam**2) v**p underflows out of
1 - v**p entirely.  Everything is therefore composed in log space from
``log(1 - exp(z))``, which keeps full relative accuracy on whichever
side of the complement is small.
"""

from __future__ import annotations

import math

from .errors import NormalDomainError

_LOG_HALF = -0.6931471805599453
_NEG_INF = -math.inf


def clip01(x: float) -> float:
    # round-off guard; exact arithmetic keeps the algebra inside [0, 1]
    return 0.0 if x <= 0.0 else (1.0 if x >= 1.0 else x)


def prob_sum(a: float, b: float) -> float:
    """a + b - a*b, the probabilistic sum on [0, 1]."""
    return a + b - a * b


def xlog(x: float) -> float:
    """log(x) for x in (0, 1], accurate when x sits just below 1."""
    # 1 - x is exact for x in [0.5, 1], so log1p(x - 1) loses nothing
    return math.log1p(x - 1.0) if x > 0.5 else math.log(x)


def log_one_minus_exp(z: float) -> float:
    """log(1 - exp(z)) for z <= 0, stable at both ends."""
    if z == _NEG_INF:
        return 0.0
    if z >= 0.0:
        return _NEG_INF
    if z > _LOG_HALF:
        return math.log(-math.expm1(z))  # 1 - e^z is small: expm1 keeps it
    return math.log1p(-math.exp(z))  # e^z is small: log1p keeps it


def root(x: float, p: float) -> float:
    """x**(1/p) on [0, 1], exact at the endpoints."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return math.exp(xlog(x) / p)


def q_channel(v: float, w: float, p: float) -> float:
    """(1 - (1 - v**p)**w)**(1/p): one weighted probabilistic channel."""
    if v >= 1.0:
        return 1.0
    if v <= 0.0:
        return 0.0
    return math.exp(log_one_minus_exp(w * log_one_minus_exp(p * xlog(v))) / p)


def xlogs(values) -> list[float]:
    """xlog of each value in [0, 1], and -inf for a value of 0, whose
    log is undefined (math.log(0) raises)."""
    return [xlog(v) if v > 0.0 else _NEG_INF for v in values]


def weighted_prob_sum(logs, weights, p: float) -> float:
    """(1 - prod_i (1 - v_i**p)**w_i)**(1/p) over paired logs/weights,
    with logs[i] = xlog(v_i) as :func:`xlogs` gives them."""
    acc = 0.0  # log prod (1 - v^p)^w
    for lv, w in zip(logs, weights):
        if lv == 0.0:  # v == 1; xlog(v) < 0 for every v < 1
            return 1.0
        if lv != _NEG_INF:  # v == 0 contributes a neutral factor
            acc += w * log_one_minus_exp(p * lv)
    return math.exp(log_one_minus_exp(acc) / p)


def nested_prob_channel(logs, weights, lam: float) -> float:
    """(1 - (1 - prod_i d_i**w_i)**(1/lam))**(1/(3 lam)) with
    d_i = 1 - (1 - v_i**(3 lam))**lam, over logs[i] = xlog(v_i) as
    :func:`xlogs` gives them; the nested channel of the generalized
    operators."""
    p = 3.0 * lam
    log_prod = 0.0  # log prod d_i^w
    for lv, w in zip(logs, weights):
        if lv == _NEG_INF:  # v == 0
            log_prod = _NEG_INF
            continue
        log_eps = lam * log_one_minus_exp(p * lv)  # log (1 - v^p)^lam
        log_prod += w * log_one_minus_exp(log_eps)
    log_u = log_one_minus_exp(log_prod) / lam
    return math.exp(log_one_minus_exp(log_u) / p)


def real_pow(base: float, exp: float) -> float:
    """base**exp, rejecting fractional powers of negative bases."""
    if base < 0.0 and exp != math.floor(exp):
        raise NormalDomainError(
            f"cannot raise negative location {base!r} to fractional power {exp!r}"
        )
    return math.pow(base, exp)
