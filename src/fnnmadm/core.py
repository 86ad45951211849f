"""Fermatean neutrosophic normal numbers and their parameterized arithmetic.

A value ``<(eta, xi); t, i, f>`` couples the location/spread pair of a
normal-shaped membership curve with truth, indeterminacy and falsity
degrees whose cubic sum is bounded by 2.  All operations are pure
functions over immutable values.  The real parameter ``lam >= 1``
controls the root/power structure of the membership algebra; ``lam = 1``
gives the base operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numeric import clip01, prob_sum_root, q_channel, real_pow
from .errors import (
    CubicSumExceeded,
    LambdaInvalid,
    MembershipOutOfRange,
    NotFinite,
    SpreadNonPositive,
    WeightNonPositive,
)

CUBIC_SUM_BOUND = 2.0


def _check_unit(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise MembershipOutOfRange(
            f"{name} = {v!r} is outside [0, 1]" if v == v else f"{name} is not a number"
        )


def check_membership(t: float, i: float, f: float) -> None:
    """Raise MembershipOutOfRange unless t, i and f are each in [0, 1]."""
    if not (0.0 <= t <= 1.0 and 0.0 <= i <= 1.0 and 0.0 <= f <= 1.0):
        # one test for the common case; the per-name checks find the culprit
        _check_unit("t", t)
        _check_unit("i", i)
        _check_unit("f", f)


@dataclass(frozen=True)
class MembershipTriple:
    """Truth, indeterminacy and falsity degrees, each in [0, 1]."""

    t: float
    i: float
    f: float

    def __post_init__(self):
        check_membership(self.t, self.i, self.f)

    def cubic_sum(self) -> float:
        return self.t ** 3 + self.i ** 3 + self.f ** 3


@dataclass(frozen=True)
class NormalParams:
    """Finite location and finite, strictly positive spread of a normal
    membership curve."""

    eta: float
    xi: float

    def __post_init__(self):
        check_normal(self.eta, self.xi)


def check_normal(eta: float, xi: float) -> None:
    """Raise NotFinite unless eta and xi are finite, SpreadNonPositive
    unless xi > 0."""
    if not math.isfinite(eta):
        raise NotFinite("eta must be a finite number")
    if not math.isfinite(xi):
        raise NotFinite("xi must be a finite number")
    if not xi > 0.0:
        raise SpreadNonPositive(f"xi = {xi!r} must be > 0")


@dataclass(frozen=True)
class Fnnn:
    """A Fermatean neutrosophic normal number ``<(eta, xi); t, i, f>``.

    Construction through :func:`make_fnnn` additionally enforces the
    cubic-sum bound; combining operations only guarantee componentwise
    [0, 1] memberships (see :meth:`is_valid`).
    """

    normal: NormalParams
    mu: MembershipTriple

    @property
    def eta(self) -> float:
        return self.normal.eta

    @property
    def xi(self) -> float:
        return self.normal.xi

    @property
    def t(self) -> float:
        return self.mu.t

    @property
    def i(self) -> float:
        return self.mu.i

    @property
    def f(self) -> float:
        return self.mu.f

    def is_valid(self) -> bool:
        """True when the construction-time cubic-sum bound also holds."""
        return self.mu.cubic_sum() <= CUBIC_SUM_BOUND

    def __str__(self) -> str:
        return (
            f"<({self.eta:g}, {self.xi:g}); {self.t:g}, {self.i:g}, {self.f:g}>"
        )


def checked_result(eta: float, xi: float, t: float, i: float, f: float) -> tuple[float, ...]:
    """The rule for what an operation computed: memberships are clipped to
    [0, 1] against round-off, then all is checked as a value's components
    are (a NaN passes clipping); no cubic-sum bound is applied."""
    t, i, f = clip01(t), clip01(i), clip01(f)
    check_normal(eta, xi)
    check_membership(t, i, f)
    return eta, xi, t, i, f


def combined(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """The value an operation computed, by :func:`checked_result`."""
    return checked_fnnn(*checked_result(eta, xi, t, i, f))


def check_cell(eta: float, xi: float, t: float, i: float, f: float) -> None:
    """Check a raw value's float components; raises NotFinite,
    SpreadNonPositive, MembershipOutOfRange or CubicSumExceeded, in that
    order.  The cubic-sum bound is inclusive: t^3 + i^3 + f^3 == 2 is valid."""
    check_normal(eta, xi)
    check_membership(t, i, f)
    cubic = t ** 3 + i ** 3 + f ** 3
    if cubic > CUBIC_SUM_BOUND:
        raise CubicSumExceeded(f"t^3 + i^3 + f^3 = {cubic:.6g} exceeds {CUBIC_SUM_BOUND:g}")


def checked_fnnn(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """The value of float components checked before, by :func:`check_cell`
    or as a value's components; the types' own checks are not run again."""
    new, put = object.__new__, object.__setattr__  # put sets a field as a frozen __init__ does
    normal, mu, value = new(NormalParams), new(MembershipTriple), new(Fnnn)
    put(normal, "eta", eta)
    put(normal, "xi", xi)
    put(mu, "t", t)
    put(mu, "i", i)
    put(mu, "f", f)
    put(value, "normal", normal)
    put(value, "mu", mu)
    return value


def make_fnnn(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """Validate raw components with :func:`check_cell` and build a value."""
    eta, xi, t, i, f = float(eta), float(xi), float(t), float(i), float(f)
    check_cell(eta, xi, t, i, f)
    return checked_fnnn(eta, xi, t, i, f)


def check_lambda(lam: float) -> float:
    """Validate the operation parameter; any finite real >= 1 is accepted."""
    lam = float(lam)
    if not 1.0 <= lam < math.inf:
        raise LambdaInvalid(f"lam = {lam!r} must be a finite real >= 1")
    return lam


def _check_weight(w: float) -> float:
    w = float(w)
    if not w > 0.0:
        raise WeightNonPositive(f"weight {w!r} must be > 0")
    return w


def boxplus(a: Fnnn, b: Fnnn, lam: float = 1.0) -> Fnnn:
    """Additive combination: locations and spreads add; truth and
    indeterminacy combine by the probabilistic sum in their lam-powered
    domains; falsity multiplies."""
    lam = check_lambda(lam)
    p = 3.0 * lam
    t = prob_sum_root(a.t, b.t, p)
    i = prob_sum_root(a.i, b.i, lam)
    f = a.f * b.f
    return combined(a.eta + b.eta, a.xi + b.xi, t, i, f)


def boxtimes(a: Fnnn, b: Fnnn, lam: float = 1.0) -> Fnnn:
    """Multiplicative combination: the mirror image of :func:`boxplus`
    with the roles of truth and falsity exchanged."""
    lam = check_lambda(lam)
    p = 3.0 * lam
    t = a.t * b.t
    i = prob_sum_root(a.i, b.i, lam)
    f = prob_sum_root(a.f, b.f, p)
    return combined(a.eta * b.eta, a.xi * b.xi, t, i, f)


def scale(w: float, a: Fnnn, lam: float = 1.0) -> Fnnn:
    """Weighted multiple ``w * a`` for any real weight w > 0."""
    w = _check_weight(w)
    lam = check_lambda(lam)
    if w == 1.0:
        return a
    t = q_channel(a.t, w, 3.0 * lam)
    i = q_channel(a.i, w, lam)
    f = a.f ** w
    return combined(w * a.eta, w * a.xi, t, i, f)


def power(w: float, a: Fnnn, lam: float = 1.0) -> Fnnn:
    """Weighted power ``a ** w`` for any real weight w > 0.

    Raises NormalDomainError when eta is negative and w fractional, and
    NotFinite when eta or xi overflows float64.
    """
    w = _check_weight(w)
    lam = check_lambda(lam)
    if w == 1.0:
        return a
    try:
        eta, xi = real_pow(a.eta, w), a.xi ** w
    except OverflowError:
        raise NotFinite(f"the power {w!r} of a value overflowed float64") from None
    t = a.t ** w
    i = q_channel(a.i, w, lam)
    f = q_channel(a.f, w, 3.0 * lam)
    return combined(eta, xi, t, i, f)


def membership_at(a: Fnnn, x: float) -> MembershipTriple:
    """Evaluate the normal membership curve at point x.

    The attenuation factor exp(-(|x - eta| / xi)^3) scales truth and
    indeterminacy toward 0 and falsity toward 1 away from the peak.
    """
    z = abs(float(x) - a.eta) / a.xi
    g = 0.0 if z >= 1e6 else math.exp(-(z * z * z))
    return MembershipTriple(
        clip01(a.t * g), clip01(a.i * g), clip01(1.0 - (1.0 - a.f) * g)
    )


def _check_ffn_pair(t: float, f: float) -> tuple[float, float]:
    t, f = float(t), float(f)
    _check_unit("t", t)
    _check_unit("f", f)
    cubic = t ** 3 + f ** 3
    if cubic > 1.0:
        raise CubicSumExceeded(f"t^3 + f^3 = {cubic:.6g} exceeds 1")
    return t, f


def score_ffn(t: float, f: float) -> float:
    """Score t^3 - f^3 in [-1, 1] of a truth/falsity pair with t^3 + f^3 <= 1."""
    t, f = _check_ffn_pair(t, f)
    return t ** 3 - f ** 3


def accuracy_ffn(t: float, f: float) -> float:
    """Accuracy t^3 + f^3 in [0, 1] of a truth/falsity pair."""
    t, f = _check_ffn_pair(t, f)
    return t ** 3 + f ** 3
