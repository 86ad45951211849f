"""Value construction and the parameterized primitive operations."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnnmadm import (
    CubicSumExceeded,
    FnnError,
    Fnnn,
    FnnnGenConfig,
    LambdaInvalid,
    MembershipOutOfRange,
    MembershipTriple,
    NormalDomainError,
    NormalParams,
    NotFinite,
    SpreadNonPositive,
    WeightNonPositive,
    accuracy_ffn,
    boxplus,
    boxtimes,
    check_lambda,
    gen_fnnn,
    make_fnnn,
    membership_at,
    power,
    scale,
    score_ffn,
)
from fnnmadm.core import check_cell

LAMBDAS = (1.0, 2.0, 3.0, 5.0, 10.0)


def components(v):
    return (v.eta, v.xi, v.t, v.i, v.f)


def assert_close(a, b, tol):
    assert max(abs(x - y) for x, y in zip(components(a), components(b))) <= tol


# ---------------------------------------------------------------------------
# construction


def test_make_fnnn_accepts_worked_example_cell():
    v = make_fnnn(0.85, 0.5, 0.88, 0.8, 0.8)
    assert components(v) == (0.85, 0.5, 0.88, 0.8, 0.8)
    assert v.is_valid()


def test_make_fnnn_boundary_cubic_sum_is_valid():
    v = make_fnnn(1, 1, 1, 1, 0)
    assert v.mu.cubic_sum() == 2.0


def test_make_fnnn_rejects_cubic_sum_over_bound():
    assert 3 * 0.95 ** 3 > 2  # direct evaluation of the offending sum
    with pytest.raises(CubicSumExceeded):
        make_fnnn(1, 1, 0.95, 0.95, 0.95)


@pytest.mark.parametrize("xi", [0.0, -0.5])
def test_make_fnnn_rejects_nonpositive_spread(xi):
    with pytest.raises(SpreadNonPositive):
        make_fnnn(1, xi, 0.5, 0.5, 0.5)


@pytest.mark.parametrize(
    "bad", [(-0.1, 0.5, 0.5), (0.5, 1.2, 0.5), (0.5, 0.5, 2.0), (0.5, math.nan, 0.5)]
)
def test_make_fnnn_rejects_out_of_range_memberships(bad):
    with pytest.raises(MembershipOutOfRange):
        make_fnnn(1, 1, *bad)


@pytest.mark.parametrize(
    "eta, xi",
    [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)],
)
def test_make_fnnn_rejects_non_finite_location_or_spread(eta, xi):
    with pytest.raises(NotFinite):
        make_fnnn(eta, xi, 0.5, 0.5, 0.5)


def test_make_fnnn_reports_spread_then_membership_then_cubic_sum():
    with pytest.raises(SpreadNonPositive):
        make_fnnn(1, 0, 2.0, 0.95, 0.95)
    with pytest.raises(MembershipOutOfRange):
        make_fnnn(1, 1, 2.0, 0.95, 0.95)
    with pytest.raises(CubicSumExceeded):
        make_fnnn(1, 1, 0.95, 0.95, 0.95)


def test_value_types_enforce_the_construction_rules():
    with pytest.raises(NotFinite):
        NormalParams(math.nan, 1.0)
    with pytest.raises(SpreadNonPositive):
        NormalParams(1.0, 0.0)
    with pytest.raises(MembershipOutOfRange):
        MembershipTriple(0.5, 1.5, 0.5)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.0, 1.0000000000000002, 0.9999999999999999, -1e-300, 1e308]
COMPONENT = st.floats() | st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1.0)


@st.composite
def cubic_sum_near_two(draw):
    """t, i and f in [0, 1] with f chosen so that t^3 + i^3 + f^3 is 2 up to
    rounding, on either side."""
    t, i = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    rest = 2.0 - t ** 3 - i ** 3
    f = rest ** (1.0 / 3.0) if rest >= 0.0 else draw(st.floats(0.0, 1.0))
    return t, i, min(f, 1.0)


def outcome(check, values):
    try:
        check(*values)
    except FnnError as e:
        return type(e), str(e)
    return None


@settings(max_examples=400, deadline=None)
@example(values=(1.0, 1.0, 1.0, 1.0, 0.0))  # cubic sum exactly 2
@example(values=(math.nan, 0.0, 2.0, math.nan, 0.95))  # every rule broken: location first
@example(values=(1.0, -5e-324, 1.5, 0.5, 0.5))
@example(values=(1.0, 1.0, 0.95, 0.95, 0.95))
@given(values=st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT, COMPONENT)
       | st.tuples(COMPONENT, COMPONENT).flatmap(
           lambda normal: cubic_sum_near_two().map(lambda mu: normal + mu)))
def test_float_cell_check_agrees_with_make_fnnn(values):
    expected = outcome(make_fnnn, values)
    assert outcome(check_cell, values) == expected
    eta, xi, t, i, f = values
    built = outcome(lambda: Fnnn(NormalParams(eta, xi), MembershipTriple(t, i, f)), ())
    if expected is None:
        # the component types accept it too, and make the same value
        assert built is None
        assert make_fnnn(*values) == Fnnn(NormalParams(eta, xi), MembershipTriple(t, i, f))
    elif expected[0] is not CubicSumExceeded:
        assert built == expected


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.5])
def test_check_lambda_rejects_non_finite_and_small(lam):
    with pytest.raises(LambdaInvalid):
        check_lambda(lam)


def test_negative_location_is_allowed():
    assert make_fnnn(-0.5, 1, 0.5, 0.5, 0.5).eta == -0.5


def test_lambda_below_one_rejected():
    a = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(LambdaInvalid):
        boxplus(a, a, 0.5)
    with pytest.raises(LambdaInvalid):
        scale(2.0, a, 0.0)


# ---------------------------------------------------------------------------
# boxplus / boxtimes


def test_boxplus_matches_direct_formula():
    a = make_fnnn(1, 1, 0.8, 0.7, 0.6)
    b = make_fnnn(2, 2, 0.5, 0.5, 0.5)
    out = boxplus(a, b, 1)
    assert (out.eta, out.xi) == (3, 3)
    # independent evaluation of the defining expressions
    assert out.t == pytest.approx((0.8**3 + 0.5**3 - 0.8**3 * 0.5**3) ** (1 / 3), abs=1e-12)
    assert out.t == pytest.approx(0.573 ** (1 / 3), abs=1e-12)
    assert out.i == pytest.approx(0.7 + 0.5 - 0.35, abs=1e-12)
    assert out.f == pytest.approx(0.30, abs=1e-12)


def test_boxtimes_matches_direct_formula():
    a = make_fnnn(1, 1, 0.8, 0.7, 0.6)
    b = make_fnnn(2, 2, 0.5, 0.5, 0.5)
    out = boxtimes(a, b, 1)
    assert (out.eta, out.xi) == (2, 2)
    assert out.t == pytest.approx(0.40, abs=1e-12)
    assert out.i == pytest.approx(0.85, abs=1e-12)
    assert out.f == pytest.approx((0.216 + 0.125 - 0.027) ** (1 / 3), abs=1e-12)


def test_boxplus_neutral_element_memberships():
    a = make_fnnn(0.7, 0.4, 0.8, 0.6, 0.7)
    neutral = make_fnnn(0.0, 1e-12, 0.0, 0.0, 1.0)
    for lam in LAMBDAS:
        out = boxplus(a, neutral, lam)
        assert out.t == pytest.approx(a.t, abs=1e-12)
        assert out.i == pytest.approx(a.i, abs=1e-12)
        assert out.f == pytest.approx(a.f, abs=1e-12)


def test_boxtimes_neutral_element():
    a = make_fnnn(0.7, 0.4, 0.8, 0.6, 0.7)
    one = make_fnnn(1.0, 1.0, 1.0, 0.0, 0.0)
    for lam in LAMBDAS:
        assert_close(boxtimes(a, one, lam), a, 1e-12)


def test_boxplus_output_may_exceed_cubic_bound():
    # the cubic-sum bound is a construction-time rule only; combining can
    # push intermediate values above it without error
    a = make_fnnn(1, 1, 0.999, 0.2, 0.9)
    b = make_fnnn(1, 1, 0.2, 0.999, 0.9)
    out = boxplus(a, b, 1)
    assert out.mu.cubic_sum() > 2.0
    assert not out.is_valid()
    for v in (out.t, out.i, out.f):
        assert 0.0 <= v <= 1.0


def _pairs(seed, count):
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=seed), 2 * count)
    return zip(vals[:count], vals[count:])


def test_commutativity_seeded_bulk():
    for k, (a, b) in enumerate(_pairs(101, 300)):
        lam = LAMBDAS[k % len(LAMBDAS)]
        assert_close(boxplus(a, b, lam), boxplus(b, a, lam), 1e-12)
        assert_close(boxtimes(a, b, lam), boxtimes(b, a, lam), 1e-12)


def test_associativity_seeded_bulk():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=202), 900)
    for k in range(300):
        a, b, c = vals[3 * k : 3 * k + 3]
        lam = LAMBDAS[k % len(LAMBDAS)]
        assert_close(
            boxplus(boxplus(a, b, lam), c, lam),
            boxplus(a, boxplus(b, c, lam), lam),
            1e-12,
        )
        assert_close(
            boxtimes(boxtimes(a, b, lam), c, lam),
            boxtimes(a, boxtimes(b, c, lam), lam),
            1e-12,
        )


memberships = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
lambdas = st.floats(min_value=1.0, max_value=10.0, allow_nan=False)
pos_weights = st.floats(min_value=1e-3, max_value=20.0, allow_nan=False)


@st.composite
def fnnn_values(draw):
    t = draw(memberships)
    i = draw(memberships)
    f = draw(memberships)
    if t**3 + i**3 + f**3 > 2:
        t, i, f = t * 0.7, i * 0.7, f * 0.7
    eta = draw(st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
    xi = draw(st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
    return make_fnnn(eta, xi, t, i, f)


@given(fnnn_values(), fnnn_values(), lambdas, pos_weights)
@settings(max_examples=150, deadline=None)
def test_closure_in_unit_interval(a, b, lam, w):
    for out in (boxplus(a, b, lam), boxtimes(a, b, lam), scale(w, a, lam), power(w, a, lam)):
        for v in (out.t, out.i, out.f):
            assert 0.0 <= v <= 1.0


@given(fnnn_values(), fnnn_values(), lambdas)
@settings(max_examples=100, deadline=None)
def test_commutativity_property(a, b, lam):
    assert_close(boxplus(a, b, lam), boxplus(b, a, lam), 1e-12)
    assert_close(boxtimes(a, b, lam), boxtimes(b, a, lam), 1e-12)


# ---------------------------------------------------------------------------
# scale / power


def test_scale_identity_weight_exact():
    v = make_fnnn(0.3, 0.9, 0.7, 0.2, 0.5)
    for lam in LAMBDAS:
        assert scale(1.0, v, lam) == v
        assert power(1.0, v, lam) == v


def test_scale_matches_direct_formula():
    out = scale(0.35, make_fnnn(1, 0.4525, 0.88, 0.8, 0.8), 1)
    assert out.eta == pytest.approx(0.35, abs=1e-12)
    assert out.xi == pytest.approx(0.35 * 0.4525, abs=1e-12)
    assert out.t == pytest.approx((1 - (1 - 0.88**3) ** 0.35) ** (1 / 3), abs=1e-12)
    assert out.i == pytest.approx(1 - 0.2**0.35, abs=1e-12)
    assert out.f == pytest.approx(0.8**0.35, abs=1e-12)


def test_power_matches_direct_formula():
    out = power(2, make_fnnn(2, 1, 0.8, 0.5, 0.5), 1)
    assert (out.eta, out.xi) == (4, 1)
    assert out.t == pytest.approx(0.64, abs=1e-12)
    assert out.i == pytest.approx(0.75, abs=1e-12)
    assert out.f == pytest.approx((1 - (1 - 0.125) ** 2) ** (1 / 3), abs=1e-12)


def test_scale_power_duality():
    # power channels mirror scale channels with t and f exchanged
    v = make_fnnn(0.6, 0.8, 0.75, 0.55, 0.35)
    swapped = make_fnnn(0.6, 0.8, v.f, v.i, v.t)
    for lam in LAMBDAS:
        p = power(0.4, v, lam)
        s = scale(0.4, swapped, lam)
        assert p.t == pytest.approx(s.f, abs=1e-15)
        assert p.f == pytest.approx(s.t, abs=1e-15)
        assert p.i == pytest.approx(s.i, abs=1e-15)


def test_scale_composition():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=303), 100)
    for k, v in enumerate(vals):
        lam = LAMBDAS[k % len(LAMBDAS)]
        u, w = 0.3 + 0.01 * k, 1.7
        assert_close(scale(u, scale(w, v, lam), lam), scale(u * w, v, lam), 1e-12)
        assert_close(power(u, power(w, v, lam), lam), power(u * w, v, lam), 1e-12)


@pytest.mark.parametrize("lam", [34.0, 60.0])
def test_primitives_keep_channels_whose_powers_underflow(lam):
    # 1e-4 ** (3 lam) is below float64's range; when v**p is that small,
    # (1 - (1 - v**p) ** w) ** (1/p) is v * w ** (1/p) and
    # (v**p + v**p - v**(2p)) ** (1/p) is v * 2 ** (1/p) to double precision
    v, p = make_fnnn(0.5, 0.5, 1e-4, 0.5, 1e-4), 3 * lam
    assert scale(0.3, v, lam).t == pytest.approx(1e-4 * 0.3 ** (1 / p), rel=1e-13)
    assert power(0.3, v, lam).f == pytest.approx(1e-4 * 0.3 ** (1 / p), rel=1e-13)
    assert boxplus(v, v, lam).t == pytest.approx(1e-4 * 2 ** (1 / p), rel=1e-13)
    assert boxtimes(v, v, lam).f == pytest.approx(1e-4 * 2 ** (1 / p), rel=1e-13)


def test_scale_rejects_nonpositive_weight():
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(WeightNonPositive):
        scale(0.0, v, 1)
    with pytest.raises(WeightNonPositive):
        power(-1.0, v, 1)


def test_power_fractional_of_negative_location_rejected():
    v = make_fnnn(-2.0, 1, 0.5, 0.5, 0.5)
    with pytest.raises(NormalDomainError):
        power(0.5, v, 1)
    assert power(2.0, v, 1).eta == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# membership evaluation


def test_membership_at_peak():
    v = make_fnnn(0.7, 0.3, 0.8, 0.6, 0.4)
    mu = membership_at(v, 0.7)
    assert (mu.t, mu.i, mu.f) == (0.8, 0.6, 0.4)


def test_membership_at_tails():
    v = make_fnnn(0.0, 1.0, 0.8, 0.6, 0.4)
    for x in (1e9, -1e9):
        mu = membership_at(v, x)
        assert (mu.t, mu.i, mu.f) == (0.0, 0.0, 1.0)


def test_membership_at_unit_offset():
    v = make_fnnn(0, 1, 1, 1, 0)
    mu = membership_at(v, 1.0)
    g = math.exp(-1.0)
    assert mu.t == pytest.approx(g, abs=1e-12)
    assert mu.i == pytest.approx(g, abs=1e-12)
    assert mu.f == pytest.approx(1 - g, abs=1e-12)


@given(fnnn_values(), st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_membership_at_stays_in_unit_interval(v, x):
    mu = membership_at(v, x)
    for comp in (mu.t, mu.i, mu.f):
        assert 0.0 <= comp <= 1.0


# ---------------------------------------------------------------------------
# truth/falsity score and accuracy


def test_score_accuracy_extremes():
    assert score_ffn(1, 0) == 1.0
    assert accuracy_ffn(1, 0) == 1.0
    assert score_ffn(0.6, 0.6) == 0.0


def test_score_accuracy_direct_values():
    assert score_ffn(0.8, 0.6) == pytest.approx(0.512 - 0.216, abs=1e-12)
    assert accuracy_ffn(0.8, 0.6) == pytest.approx(0.728, abs=1e-12)


def test_score_rejects_bad_pairs():
    with pytest.raises(MembershipOutOfRange):
        score_ffn(1.2, 0.0)
    with pytest.raises(CubicSumExceeded):
        accuracy_ffn(0.9, 0.9)  # 2 * 0.729 > 1
