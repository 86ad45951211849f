"""Fermatean neutrosophic normal numbers and their parameterized arithmetic.

A value ``<(eta, xi); t, i, f>`` couples the location/spread pair of a
normal-shaped membership curve with truth, indeterminacy and falsity
degrees whose cubic sum is bounded by 2.  A value is three frozen dataclass
objects with slots and no ``__dict__``, an :class:`Fnnn` of a :class:`NormalParams`
and a :class:`MembershipTriple`; each field is stored through its slot's descriptor,
by :func:`checked_fnnn` and the types' checks.  All operations are pure
functions over immutable values.  The real parameter ``lam >= 1``
controls the root/power structure of the membership algebra; ``lam = 1``
gives the base operations.  A caller's sequences are read once, by :func:`items`,
and its numbers by :func:`reals`, into plain floats; text is never a vector.  An
object a public function takes as a value, a matrix or a config is checked once
per call, by :func:`of_type`.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat

from ._numeric import clip01, prob_sum_root, weighted_prob_sum, xlogs
from .errors import (
    CubicSumExceeded,
    LambdaInvalid,
    MembershipOutOfRange,
    NormalDomainError,
    NotFinite,
    SpreadNonPositive,
    ValidationError,
    WeightInvalid,
    WeightNonPositive,
)

CUBIC_SUM_BOUND = 2.0
CELLS = "eta, xi, t, i, f must be real numbers"  # what reals says of a value's components
_MAX = 1.7976931348623157e308  # the largest float64: 10**400 < inf, but not <= _MAX
TEXT = (str, bytes, bytearray)  # no vector of numbers, though float() reads each of its items
VALUE = "a value must be an Fnnn"  # what of_type says of an object that is no value


def items(values, error: type[Exception], what: str) -> tuple:
    """``values`` as a tuple; error(f"{what}, not <type>") for text, which is one
    value, not a vector, and for a single number or anything else that is no iterable.
    An error raised while iterating propagates as raised."""
    if not isinstance(values, TEXT):
        try:
            iter(values)
        except TypeError:
            pass
        else:  # tuple() copies a list at C speed, and returns a tuple as it is
            return tuple(values)
    raise error(f"{what}, not {type(values).__name__}")


def reals(values, error: type[Exception], what: str) -> tuple[float, ...]:
    """float() of each item :func:`items` reads, in a tuple; error(f"{what} in float64's
    range") for one that float() rejects."""
    values = items(values, error, what)
    try:
        return tuple([*map(float, values)])  # sized once; a shrunk guess parks free-list blocks
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} in float64's range") from None


def of_type(objects: tuple, kind: type, what: str) -> tuple:
    """``objects``, a tuple, if each is a ``kind``; else ValidationError(f"{what},
    not <type>") names the type of the first that is not.  A public function checks
    what it is given with it once per call, never per cell or per lambda."""
    if not all(map(isinstance, objects, repeat(kind))):
        bad = next(type(o) for o in objects if not isinstance(o, kind))
        raise ValidationError(f"{what}, not {bad.__name__}")
    return objects


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


@dataclass(frozen=True, slots=True)
class MembershipTriple:
    """Truth, indeterminacy and falsity degrees in [0, 1], as :func:`reals` reads them."""

    t: float
    i: float
    f: float

    def __post_init__(self):
        t, i, f = reals((self.t, self.i, self.f), ValidationError, "t, i, f must be real numbers")
        check_membership(t, i, f)
        _SET_T(self, t)
        _SET_I(self, i)
        _SET_F(self, f)

    def cubic_sum(self) -> float:
        return self.t ** 3 + self.i ** 3 + self.f ** 3


@dataclass(frozen=True, slots=True)
class NormalParams:
    """Finite location and finite, strictly positive spread of a normal
    membership curve, as :func:`reals` reads them."""

    eta: float
    xi: float

    def __post_init__(self):
        eta, xi = reals((self.eta, self.xi), ValidationError, "eta and xi must be real numbers")
        check_normal(eta, xi)
        _SET_ETA(self, eta)
        _SET_XI(self, xi)


def check_normal(eta: float, xi: float) -> None:
    """Raise NotFinite unless eta and xi are finite, SpreadNonPositive
    unless xi > 0."""
    if not math.isfinite(eta):
        raise NotFinite("eta must be a finite number")
    if not math.isfinite(xi):
        raise NotFinite("xi must be a finite number")
    if not xi > 0.0:
        raise SpreadNonPositive(f"xi = {xi!r} must be > 0")


@dataclass(frozen=True, slots=True)
class Fnnn:
    """A Fermatean neutrosophic normal number ``<(eta, xi); t, i, f>``, made
    of a :class:`NormalParams` and a :class:`MembershipTriple`.

    Construction through :func:`make_fnnn` additionally enforces the
    cubic-sum bound; combining operations only guarantee componentwise
    [0, 1] memberships (see :meth:`is_valid`).
    """

    normal: NormalParams
    mu: MembershipTriple

    def __post_init__(self):
        if not (isinstance(self.normal, NormalParams) and isinstance(self.mu, MembershipTriple)):
            raise ValidationError("a value is made of a NormalParams and a MembershipTriple, "
                                  f"not {type(self.normal).__name__} and {type(self.mu).__name__}")

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


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


# set once the classes are made: with slots, dataclasses' own frozen __setattr__ and
# __delattr__ raise a bare TypeError for a name that is no field on Python 3.10-3.13
for _kind in (NormalParams, MembershipTriple, Fnnn):
    _kind.__setattr__ = _kind.__delattr__ = _frozen
del _kind

# Each field's setter: its slot's member descriptor, bound once.  A value's fields are
# stored through them, not through object.__setattr__, which looks the descriptor up
# on every call; the values have no __dict__ to update.
_new = object.__new__
_SET_ETA, _SET_XI = NormalParams.eta.__set__, NormalParams.xi.__set__
_SET_T, _SET_I, _SET_F = (MembershipTriple.t.__set__, MembershipTriple.i.__set__,
                          MembershipTriple.f.__set__)
_SET_NORMAL, _SET_MU = Fnnn.normal.__set__, Fnnn.mu.__set__


def checked_result(eta: float, xi: float, t: float, i: float, f: float) -> tuple[float, ...]:
    """The rule for what an operation computed: memberships are clipped to
    [0, 1] against round-off, then all is checked as a value's components
    are (a NaN passes clipping); no cubic-sum bound is applied."""
    t = 0.0 if t <= 0.0 else (1.0 if t >= 1.0 else t)  # clip01 of each, inline
    i = 0.0 if i <= 0.0 else (1.0 if i >= 1.0 else i)
    f = 0.0 if f <= 0.0 else (1.0 if f >= 1.0 else f)
    if not (-_MAX <= eta <= _MAX and 0.0 < xi <= _MAX):  # one test, as in check_cell
        check_normal(eta, xi)
    check_membership(t, i, f)
    return eta, xi, t, i, f


def combined(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """The value an operation computed, by :func:`checked_result`."""
    return checked_fnnn(*checked_result(eta, xi, t, i, f))


def check_cell(eta: float, xi: float, t: float, i: float, f: float) -> None:
    """Check a raw value's real components, as :func:`make_fnnn` and a
    :class:`~fnnmadm.pipeline.DecisionMatrix` do; raises NotFinite,
    SpreadNonPositive, MembershipOutOfRange or CubicSumExceeded, in that
    order.  The cubic-sum bound is inclusive: t^3 + i^3 + f^3 == 2 is valid."""
    if not (-_MAX <= eta <= _MAX and 0.0 < xi <= _MAX and 0.0 <= t <= 1.0
            and 0.0 <= i <= 1.0 and 0.0 <= f <= 1.0
            and t ** 3 + i ** 3 + f ** 3 <= CUBIC_SUM_BOUND):
        # one test for the common case; the named checks find the culprit
        check_normal(eta, xi)
        check_membership(t, i, f)
        cubic = t ** 3 + i ** 3 + f ** 3
        raise CubicSumExceeded(f"t^3 + i^3 + f^3 = {cubic:.6g} exceeds {CUBIC_SUM_BOUND:g}")


def checked_fnnn(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """The value of float components checked before, by :func:`check_cell`
    or as a value's components; the types' own checks are not run again.
    Its three objects are made without ``__init__``, and each field is stored
    through its slot's bound setter, with no ``object.__setattr__`` lookup."""
    normal, mu, value = _new(NormalParams), _new(MembershipTriple), _new(Fnnn)
    _SET_ETA(normal, eta)
    _SET_XI(normal, xi)
    _SET_T(mu, t)
    _SET_I(mu, i)
    _SET_F(mu, f)
    _SET_NORMAL(value, normal)
    _SET_MU(value, mu)
    return value


def make_fnnn(eta: float, xi: float, t: float, i: float, f: float) -> Fnnn:
    """Read raw components as :func:`reals` does, check them with :func:`check_cell`."""
    try:
        eta, xi, t, i, f = float(eta), float(xi), float(t), float(i), float(f)
    except (TypeError, ValueError, ArithmeticError):  # float()'s faults, typed by reals
        eta, xi, t, i, f = reals((eta, xi, t, i, f), ValidationError, CELLS)
    check_cell(eta, xi, t, i, f)
    return checked_fnnn(eta, xi, t, i, f)


def check_lambda(lam: float) -> float:
    """Validate the operation parameter; any finite real >= 1, or a value
    ``float`` reads as one, is accepted."""
    try:
        lam = float(lam)
    except (TypeError, ValueError, ArithmeticError):  # float()'s faults, typed by reals
        (lam,) = reals((lam,), LambdaInvalid, "lam must be a real number")
    if not 1.0 <= lam < math.inf:
        raise LambdaInvalid(f"lam = {lam!r} must be a finite real >= 1")
    return lam


def _check_weight(w: float) -> float:
    (w,) = reals((w,), WeightInvalid, "a weight must be a real number")
    if not w > 0.0:
        raise WeightNonPositive(f"weight {w!r} must be > 0")
    if w == math.inf:
        raise WeightInvalid(f"weight {w!r} must be a finite number > 0")
    return w


def boxplus(a: Fnnn, b: Fnnn, lam: float = 1.0) -> Fnnn:
    """Additive combination: locations and spreads add; truth and
    indeterminacy combine by the probabilistic sum in their lam-powered
    domains; falsity multiplies."""
    of_type((a, b), Fnnn, VALUE)
    lam = check_lambda(lam)
    p = 3.0 * lam
    t = prob_sum_root(a.t, b.t, p)
    i = prob_sum_root(a.i, b.i, lam)
    f = a.f * b.f
    return combined(a.eta + b.eta, a.xi + b.xi, t, i, f)


def boxtimes(a: Fnnn, b: Fnnn, lam: float = 1.0) -> Fnnn:
    """Multiplicative combination: the mirror image of :func:`boxplus`
    with the roles of truth and falsity exchanged."""
    of_type((a, b), Fnnn, VALUE)
    lam = check_lambda(lam)
    p = 3.0 * lam
    t = a.t * b.t
    i = prob_sum_root(a.i, b.i, lam)
    f = prob_sum_root(a.f, b.f, p)
    return combined(a.eta * b.eta, a.xi * b.xi, t, i, f)


def scale(w: float, a: Fnnn, lam: float = 1.0) -> Fnnn:
    """Weighted multiple ``w * a`` for any real weight w > 0."""
    of_type((a,), Fnnn, VALUE)
    w = _check_weight(w)
    lam = check_lambda(lam)
    if w == 1.0:
        return a
    t = weighted_prob_sum(xlogs((a.t,)), (w,), 3.0 * lam)
    i = weighted_prob_sum(xlogs((a.i,)), (w,), lam)
    f = a.f ** w
    return combined(w * a.eta, w * a.xi, t, i, f)


def power(w: float, a: Fnnn, lam: float = 1.0) -> Fnnn:
    """Weighted power ``a ** w`` for any real weight w > 0.

    Raises NormalDomainError when eta is negative and w fractional, and
    NotFinite when eta or xi overflows float64.
    """
    of_type((a,), Fnnn, VALUE)
    w = _check_weight(w)
    lam = check_lambda(lam)
    if w == 1.0:
        return a
    try:
        eta, xi = math.pow(a.eta, w), a.xi ** w
    except ValueError:  # math.pow's fractional power of a negative base
        raise NormalDomainError(
            f"cannot raise negative location {a.eta!r} to fractional power {w!r}"
        ) from None
    except OverflowError:
        raise NotFinite(f"the power {w!r} of a value overflowed float64") from None
    t = a.t ** w
    i = weighted_prob_sum(xlogs((a.i,)), (w,), lam)
    f = weighted_prob_sum(xlogs((a.f,)), (w,), 3.0 * lam)
    return combined(eta, xi, t, i, f)


def membership_at(a: Fnnn, x: float) -> MembershipTriple:
    """Evaluate the normal membership curve at point x, a real number or
    +-inf, where it gives (0, 0, 1); a NaN x is a ValidationError.

    The attenuation factor exp(-(|x - eta| / xi)^3) scales truth and
    indeterminacy toward 0 and falsity toward 1 away from the peak.
    """
    of_type((a,), Fnnn, VALUE)
    (x,) = reals((x,), ValidationError, "x must be a real number")
    if x != x:  # the curve is nowhere at NaN; at +-inf it is in its tails
        raise ValidationError("x must be a number, not NaN")
    z = abs(x - a.eta) / a.xi
    g = 0.0 if z >= 1e6 else math.exp(-(z * z * z))
    return MembershipTriple(
        clip01(a.t * g), clip01(a.i * g), clip01(1.0 - (1.0 - a.f) * g)
    )


def _check_ffn_pair(t: float, f: float) -> tuple[float, float]:
    t, f = reals((t, f), ValidationError, "t and f must be real numbers")
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
