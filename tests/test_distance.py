"""Phi weighting and the two ideal-distance measures."""

from decimal import Decimal, localcontext

import pytest

from fnnmadm import (
    Fnnn,
    FnnnGenConfig,
    MembershipTriple,
    NormalParams,
    NotFinite,
    euclidean,
    gen_fnnn,
    hamming,
    make_fnnn,
    normal_distance,
    phi,
)


def test_phi_extremes():
    assert phi(MembershipTriple(1, 1, 0)) == 1.0
    assert phi(MembershipTriple(0, 0, 1)) == 0.0


def test_phi_direct_value():
    mu = MembershipTriple(0.8375, 0.7863, 0.8524)
    expected = (1 + 0.8375**3 + 0.7863**3 - 0.8524**3) / 3
    assert phi(mu) == pytest.approx(expected, abs=1e-15)
    assert phi(mu) == pytest.approx(0.484743, abs=1e-6)


def test_phi_in_unit_interval():
    for v in gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=17), 500):
        assert 0.0 <= phi(v.mu) <= 1.0


def test_hamming_identity_and_symmetry_exact():
    vals = gen_fnnn(FnnnGenConfig(seed=23), 200)
    for a, b in zip(vals[:100], vals[100:]):
        assert hamming(a, a) == 0.0
        assert hamming(a, b) == hamming(b, a)


def test_hamming_worked_example_distances():
    agg = make_fnnn(0.8598, 0.6377, 0.8375, 0.7863, 0.8524)
    positive = make_fnnn(0.9, 0.6157, 1, 1, 0)
    negative = make_fnnn(0.7925, 0.7391, 0, 0, 1)
    assert hamming(agg, positive) == pytest.approx(0.1954, abs=1e-3)
    assert hamming(agg, negative) == pytest.approx(0.1733, abs=1e-3)


def test_hamming_triangle_inequality():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=29), 3000)
    for k in range(1000):
        a, b, c = vals[3 * k : 3 * k + 3]
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c) + 1e-12


def test_euclidean_zero_symmetry_nonnegative():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=31), 400)
    for a, b in zip(vals[:200], vals[200:]):
        assert euclidean(a, a) == 0.0
        assert euclidean(a, b) == euclidean(b, a)
        assert euclidean(a, b) >= 0.0


def test_euclidean_triangle_inequality():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=37), 1500)
    for k in range(500):
        a, b, c = vals[3 * k : 3 * k + 3]
        assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-12


def test_euclidean_direct_value():
    agg = make_fnnn(0.8598, 0.6377, 0.8375, 0.7863, 0.8524)
    positive = make_fnnn(0.9, 0.6157, 1, 1, 0)
    pa = phi(agg.mu)
    de = abs(pa * 0.8598 - 0.9)
    dx = abs(pa * 0.6377 - 0.6157)
    expected = ((de**3 + dx**3 / 3) ** (1 / 3)) / 3
    assert euclidean(agg, positive) == pytest.approx(expected, abs=1e-15)
    assert euclidean(agg, positive) == pytest.approx(0.1655, abs=2e-4)


def test_distances_depend_only_on_phi():
    # two different triples engineered to share phi = 0.5
    mu1 = MembershipTriple(0.5 ** (1 / 3), 0.5 ** (1 / 3), 0.5 ** (1 / 3))
    mu2 = MembershipTriple(0.25 ** (1 / 3), 0.5 ** (1 / 3), 0.25 ** (1 / 3))
    assert phi(mu1) == pytest.approx(phi(mu2), abs=1e-15)
    other = make_fnnn(0.4, 0.9, 0.6, 0.3, 0.7)
    a1 = Fnnn(NormalParams(0.8, 0.5), mu1)
    a2 = Fnnn(NormalParams(0.8, 0.5), mu2)
    assert hamming(a1, other) == pytest.approx(hamming(a2, other), abs=1e-15)
    assert euclidean(a1, other) == pytest.approx(euclidean(a2, other), abs=1e-15)


def test_distance_zero_iff_weighted_coordinates_coincide():
    # same phi*eta and phi*xi but different raw parameters: distance 0
    mu_full = MembershipTriple(1, 1, 0)  # phi = 1
    mu_half = MembershipTriple(0.5 ** (1 / 3), 0.5 ** (1 / 3), 0.5 ** (1 / 3))  # phi = 0.5
    a = Fnnn(NormalParams(1.0, 0.6), mu_full)
    b = Fnnn(NormalParams(2.0, 1.2), mu_half)
    assert hamming(a, b) == pytest.approx(0.0, abs=1e-15)
    assert euclidean(a, b) == pytest.approx(0.0, abs=1e-15)
    # and nonzero when they differ
    c = Fnnn(NormalParams(2.1, 1.2), mu_half)
    assert hamming(a, c) > 0.0
    assert euclidean(a, c) > 0.0


def test_full_membership_reduces_to_normal_param_distance():
    mu = MembershipTriple(1, 1, 0)
    a = Fnnn(NormalParams(0.3, 0.8), mu)
    b = Fnnn(NormalParams(1.1, 0.2), mu)
    assert hamming(a, b) == pytest.approx(
        (abs(0.3 - 1.1) + abs(0.8 - 0.2) / 3) / 3, abs=1e-15
    )
    assert 3 * euclidean(a, b) == pytest.approx(
        normal_distance(a.normal, b.normal), abs=1e-15
    )


def test_normal_distance_values():
    assert normal_distance(NormalParams(1, 2), NormalParams(1, 2)) == 0.0
    assert normal_distance(NormalParams(0, 1), NormalParams(1, 1)) == pytest.approx(1.0, abs=1e-12)
    assert normal_distance(NormalParams(1, 2), NormalParams(3, 5)) == pytest.approx(
        17 ** (1 / 3), abs=1e-12
    )
    # sign-insensitive by the absolute-value convention
    assert normal_distance(NormalParams(3, 5), NormalParams(1, 2)) == pytest.approx(
        17 ** (1 / 3), abs=1e-12
    )


def decimal_cubic_mean(de, dx) -> float:
    """``(de**3 + dx**3 / 3) ** (1/3)`` in decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float((Decimal(de) ** 3 + Decimal(dx) ** 3 / 3) ** (Decimal(1) / 3))


@pytest.mark.parametrize("a, b", [
    ((1, 1e104, 0.5, 0.5, 0.5), (1, 1, 0.5, 0.5, 0.5)),  # one cube overflows
    ((1e200, 1, 0.9, 0.5, 0.1), (1, 1e150, 0.2, 0.3, 0.8)),  # both do
    ((5.5e102, 1, 1, 1, 0), (1, 4e102, 1, 1, 0)),  # the cubes do not, their sum does
    ((1e300, 1e-300, 0.5, 0.5, 0.5), (-1e300, 1e300, 0.5, 0.5, 0.5)),
])
def test_cubic_distances_where_a_cube_overflows(a, b):
    a, b = make_fnnn(*a), make_fnnn(*b)
    pa, pb = phi(a.mu), phi(b.mu)
    expected = decimal_cubic_mean(abs(pa * a.eta - pb * b.eta), abs(pa * a.xi - pb * b.xi)) / 3
    assert euclidean(a, b) == pytest.approx(expected, rel=1e-12)
    expected = decimal_cubic_mean(abs(a.eta - b.eta), abs(a.xi - b.xi))
    assert normal_distance(a.normal, b.normal) == pytest.approx(expected, rel=1e-12)


def decimal_distances(a, b) -> tuple[float, float]:
    """:func:`hamming` and :func:`euclidean` of ``a`` and ``b`` in decimal,
    from their phi values, with no step rounded to float64."""
    with localcontext() as ctx:
        ctx.prec = 50
        pa, pb = Decimal(phi(a.mu)), Decimal(phi(b.mu))
        de = abs(pa * Decimal(a.eta) - pb * Decimal(b.eta))
        dx = abs(pa * Decimal(a.xi) - pb * Decimal(b.xi))
        return float((de + dx / 3) / 3), float((de ** 3 + dx ** 3 / 3) ** (Decimal(1) / 3) / 3)


@pytest.mark.parametrize("a, b", [
    ((1.7e308, 1, 1, 1, 0), (-1.7e308, 1, 1, 1, 0)),  # the location difference overflows
    ((1.7e308, 1.7e308, 1, 1, 0), (0.0, 1, 1, 1, 0)),  # the differences do not, the sums do
    ((1.7e308, 1, 1, 1, 0), (-1.7e308, 1.7e308, 0.9, 0.5, 0.1)),  # phi below 1 on one side
])
def test_distances_where_a_difference_overflows(a, b):
    a, b = make_fnnn(*a), make_fnnn(*b)
    expected_hamming, expected_euclidean = decimal_distances(a, b)
    assert hamming(a, b) == pytest.approx(expected_hamming, rel=1e-12, abs=0.0)
    assert euclidean(a, b) == pytest.approx(expected_euclidean, rel=1e-12, abs=0.0)
    assert hamming(b, a) == hamming(a, b) and euclidean(b, a) == euclidean(a, b)


@pytest.mark.parametrize("p, q", [
    (NormalParams(1.7e308, 1), NormalParams(-1.7e308, 1)),  # the difference overflows
    (NormalParams(1.7e308, 1.7e308), NormalParams(0.0, 1)),  # the mean does
])
def test_normal_distance_above_float64_raises(p, q):
    with pytest.raises(NotFinite):
        normal_distance(p, q)
