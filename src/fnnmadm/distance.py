"""Distance measures between Fermatean neutrosophic normal numbers.

Both measures see a value only through the scalar weight
``phi = (1 + t^3 + i^3 - f^3) / 3`` applied to its location and spread,
so triples with equal phi are indistinguishable to them.  Absolute
differences are taken before cubing, which keeps the Euclidean radicand
nonnegative and preserves the metric properties.

Where a difference or the mean overflows float64 but the distance does
not, as for locations of opposite sign near the largest float, the two
measures divide before they subtract; every result in range keeps the
bits of the plain formula.
"""

from __future__ import annotations

import math

from .core import VALUE, Fnnn, MembershipTriple, NormalParams, of_type
from .errors import NotFinite


def phi(mu: MembershipTriple) -> float:
    """(1 + t^3 + i^3 - f^3) / 3, in [0, 1] for any valid triple."""
    of_type((mu,), MembershipTriple, "mu must be a MembershipTriple")
    return phi_of(mu.t, mu.i, mu.f)


def phi_of(t: float, i: float, f: float) -> float:
    """:func:`phi` of the memberships t, i and f."""
    return (1.0 + t ** 3 + i ** 3 - f ** 3) / 3.0


def hamming(a: Fnnn, b: Fnnn) -> float:
    """Phi-weighted L1-style distance on the (eta, xi) plane."""
    of_type((a, b), Fnnn, VALUE)
    return hamming_of(phi_of(a.t, a.i, a.f), a.eta, a.xi, phi_of(b.t, b.i, b.f), b.eta, b.xi)


def hamming_of(pa: float, ea: float, xa: float, pb: float, eb: float, xb: float) -> float:
    """:func:`hamming` of (ea, xa) and (eb, xb) with phi values pa and pb."""
    d = (abs(pa * ea - pb * eb) + abs(pa * xa - pb * xb) / 3.0) / 3.0
    if d == math.inf:  # a step overflowed; with phi <= 1 the distance is below 1.6e308
        d = abs(pa * ea / 3.0 - pb * eb / 3.0) + abs(pa * xa / 9.0 - pb * xb / 9.0)
    return d


def euclidean(a: Fnnn, b: Fnnn) -> float:
    """Phi-weighted cubic-mean distance on the (eta, xi) plane."""
    of_type((a, b), Fnnn, VALUE)
    return euclidean_of(phi_of(a.t, a.i, a.f), a.eta, a.xi, phi_of(b.t, b.i, b.f), b.eta, b.xi)


def euclidean_of(pa: float, ea: float, xa: float, pb: float, eb: float, xb: float) -> float:
    """:func:`euclidean` of (ea, xa) and (eb, xb) with phi values pa and pb."""
    d = _cubic_mean(abs(pa * ea - pb * eb), abs(pa * xa - pb * xb)) / 3.0
    if d == math.inf:  # a step overflowed; the mean scales, so take it of thirds
        d = _cubic_mean(abs(pa * ea / 3.0 - pb * eb / 3.0), abs(pa * xa / 3.0 - pb * xb / 3.0))
    return d


# the distances on plain floats, by metric name
FORMULAS = {"hamming": hamming_of, "euclidean": euclidean_of}


def normal_distance(p: NormalParams, q: NormalParams) -> float:
    """Plain cubic-mean distance between two normal parameter pairs.
    Raises NotFinite where it exceeds the largest float64."""
    of_type((p, q), NormalParams, "p and q must be NormalParams")
    d = _cubic_mean(abs(p.eta - q.eta), abs(p.xi - q.xi))
    if d == math.inf:  # no scaling helps: the mean is at least its larger difference
        raise NotFinite(f"the distance between {p} and {q} overflows float64")
    return d


def _cubic_mean(de: float, dx: float) -> float:
    """(de^3 + dx^3 / 3)^(1/3) for de, dx >= 0.  Where a cube or the sum
    overflows float64, it is taken of de / s and dx / s and scaled back by
    s = max(de, dx); a finite sum keeps its bits."""
    try:
        r = (de ** 3 + dx ** 3 / 3.0) ** (1.0 / 3.0)
    except OverflowError:
        r = math.inf
    if r == math.inf and (s := max(de, dx)) < math.inf:
        r = s * ((de / s) ** 3 + (dx / s) ** 3 / 3.0) ** (1.0 / 3.0)
    return r
