"""Scalar kernels for the membership algebra.

The algebra keeps producing expressions of the form 1 - (1 - v**p)**w
and 1 - prod((1 - v_i**p)**w_i).  Evaluated directly these collapse at
both ends: for v close to 1 the complement cancels, and in the
large-exponent regimes (p up to 3*lam**2) v**p underflows out of
1 - v**p entirely.  Everything is therefore composed in log space from
``log(1 - exp(z))``, which keeps full relative accuracy on whichever
side of the complement is small.

At large exponents the log-space accumulator itself can leave float64's
normal range: at lam = 34 the ``3*lam**2`` power of a membership below
about 0.8 does, and so does the ``3*lam`` power of one below about 1e-3
in the nested channel.  A kernel then takes a second, exact path.  For
z < -37, -log(1 - e**z) equals e**z to double precision, so the log of
the small quantity is a log-sum-exp of ``log w_i + p * log v_i`` (in the
nested channel, ``log lam + p * log v_i`` for each d_i), and the channel
is its p-th root (Mächler 2012, "Accurately computing
log(1 - exp(-|a|))"; Blanchard, Higham & Higham 2021, "Accurately
computing the log-sum-exp and softmax functions"); where p * log v
overflows, it returns the channel's limit.  One comparison after the
loop selects that path (the nested channel adds one per cell, inside a
branch it already takes), so every result whose accumulator stays in
the normal range is computed exactly as without it.  The hot loops and
the kernels' tails inline ``log_one_minus_exp`` in the same order of
operations, so they call no Python function per cell and none per
result on its common path.

A membership of 0 (log -inf) needs no test: its weighted term
``w * log1p(-0.0)`` is -0.0, which leaves the sum as it is, and its nested
``log d = log lam + -inf`` makes the accumulator -inf, where the channel
returns its limit.  A membership of 1 (log 0.0; every other log is below
0) is the one case tested: the weighted channel returns 1 before its loop,
and the nested loop skips its d == 1, as ``log(-expm1(0.0))`` raises.

:func:`weighted_prob_sum` is the one weighted channel: the closed forms
call it over a row, ``scale`` and ``power`` with one term, and
:func:`prob_sum_root` with two where its linear sum leaves the normal range.
"""

from __future__ import annotations

import math
from functools import reduce
from math import exp, expm1, log, log1p  # bare names for the per-cell loops
from operator import add

_LOG_HALF = -0.6931471805599453
_NEG_INF = -math.inf
_TINY = 2.2250738585072014e-308  # the smallest normal float64
_NEGLIGIBLE = -37.0  # for z below it, -log(1 - e**z) == e**z in float64


def clip01(x: float) -> float:
    # round-off guard; exact arithmetic keeps the algebra inside [0, 1]
    return 0.0 if x <= 0.0 else (1.0 if x >= 1.0 else x)


def left_sum(xs) -> float:
    """The floats ``xs`` added left to right, rounding after each step.
    Python 3.12's ``sum`` compensates its rounding, so with it results
    would depend on the interpreter's version; this gives the same bits
    as ``sum`` on 3.10 and 3.11."""
    return reduce(add, xs, 0.0)


def log_one_minus_exp(z: float) -> float:
    """log(1 - exp(z)) for z <= 0, stable at both ends."""
    if z == _NEG_INF:
        return 0.0
    if z >= 0.0:
        return _NEG_INF
    if z > _LOG_HALF:
        return math.log(-math.expm1(z))  # 1 - e^z is small: expm1 keeps it
    return math.log1p(-math.exp(z))  # e^z is small: log1p keeps it


def log_neg_log_one_minus_exp(z: float) -> float:
    """log(-log(1 - exp(z))) for z < 0, also where exp(z) underflows."""
    return z if z < _NEGLIGIBLE else math.log(-log_one_minus_exp(z))


def xlogs(values) -> list[float]:
    """log(v) of each value v in [0, 1], accurate for v just below 1, and
    -inf for v == 0, whose log is undefined (math.log(0) raises)."""
    # 1 - v is exact for v in [0.5, 1], so log1p(v - 1) loses nothing
    return [(log1p(v - 1.0) if v > 0.5 else log(v)) if v > 0.0 else _NEG_INF for v in values]


def weighted_prob_sum(logs, weights, p: float) -> float:
    """(1 - prod_i (1 - v_i**p)**w_i)**(1/p) over paired logs/weights,
    with logs[i] = log(v_i) as :func:`xlogs` gives them."""
    if 0.0 in logs:
        return 1.0
    acc = 0.0  # log prod (1 - v^p)^w
    for lv, w in zip(logs, weights):
        z = p * lv  # log_one_minus_exp(z) inline, as z < 0
        acc += w * (log(-expm1(z)) if z > _LOG_HALF else log1p(-exp(z)))
    if acc > -_TINY:  # below the normal range: 1 - prod is -acc
        top = max(logs)
        if p * top == _NEG_INF:  # p * log(max v) overflows, so does every term; p may be inf
            return exp(top)  # the channel's limit, max v: the root moves it by under 1e-300
        # log(-acc) is the log-sum-exp of the terms; their maximum is finite, as p * log(max v) is
        terms = [log(w) + log_neg_log_one_minus_exp(p * lv) for lv, w in zip(logs, weights)]
        peak = max(terms)
        return exp((peak + log(left_sum(exp(x - peak) for x in terms))) / p)
    # log_one_minus_exp(acc) inline, as acc < 0; at acc == -inf, log1p gives -0.0 for its 0.0
    return exp((log(-expm1(acc)) if acc > _LOG_HALF else log1p(-exp(acc))) / p)


def prob_sum_root(a: float, b: float, p: float) -> float:
    """(a**p + b**p - a**p * b**p)**(1/p) for a, b in [0, 1]: the
    probabilistic sum of two p-th powers under the p-th root."""
    s = a ** p + b ** p - a ** p * b ** p
    if s >= 1.0:
        return 1.0
    if s < _TINY:  # below the normal range: the channel kernel, by its exact path or limit
        return weighted_prob_sum(xlogs((a, b)), (1.0, 1.0), p)
    return math.exp(xlogs((s,))[0] / p)


def nested_prob_channel(logs, weights, lam: float) -> float:
    """(1 - (1 - prod_i d_i**w_i)**(1/lam))**(1/(3 lam)) with
    d_i = 1 - (1 - v_i**(3 lam))**lam, over logs[i] = log(v_i) as
    :func:`xlogs` gives them; the nested channel of the generalized
    operators."""
    p = 3.0 * lam
    log_lam = log(lam)
    log_prod = 0.0  # log prod d_i^w
    for lv, w in zip(logs, weights):
        if lv == 0.0:
            continue
        z = p * lv  # log_one_minus_exp inline, here and below, as z < 0 and log_eps <= 0
        log_eps = lam * (log(-expm1(z)) if z > _LOG_HALF else log1p(-exp(z)))  # log (1-v^p)^lam
        if log_eps > _LOG_HALF:  # log d; below the normal range, d is lam * v^p
            log_d = log(-expm1(log_eps)) if log_eps < -_TINY else log_lam + z
        else:
            log_d = log1p(-exp(log_eps))
        log_prod += w * log_d
    if log_prod == _NEG_INF:  # a v == 0, or p * log v overflowed: the channel's limit
        return exp(left_sum(w * lv for lv, w in zip(logs, weights)))
    if log_prod >= 0.0:  # every d == 1: log_u is -inf, and the channel 1
        return 1.0
    # log_one_minus_exp inline, here and below, as log_prod < 0 and log_u < 0
    log_u = (log(-expm1(log_prod)) if log_prod > _LOG_HALF else log1p(-exp(log_prod))) / lam
    if log_u > -_TINY:  # below the normal range: 1 - u is -log_u
        return exp((log_neg_log_one_minus_exp(log_prod) - log_lam) / p)
    return exp((log(-expm1(log_u)) if log_u > _LOG_HALF else log1p(-exp(log_u))) / p)

