"""Closed-form aggregation operators: goldens, algebra, and validation."""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engineers_case as case
from fnnmadm import (
    OPERATORS,
    EmptyInput,
    FnnnGenConfig,
    LengthMismatch,
    NormalDomainError,
    WeightInvalid,
    check_weights,
    fnnwa,
    fnnwg,
    fold_gfnnwa,
    gen_fnnn,
    gen_weights,
    gfnnwa,
    gfnnwg,
    make_fnnn,
    normalize,
)

LAMBDAS = (1.0, 2.0, 3.0, 5.0, 10.0)


def components(v):
    return (v.eta, v.xi, v.t, v.i, v.f)


def max_diff(a, b):
    return max(abs(x - y) for x, y in zip(components(a), components(b)))


# ---------------------------------------------------------------------------
# weight validation


def test_check_weights_happy_path():
    assert check_weights((0.35, 0.27, 0.23, 0.15)) == (0.35, 0.27, 0.23, 0.15)


def test_check_weights_rejects_bad_sum():
    with pytest.raises(WeightInvalid):
        check_weights((0.5, 0.6))


def test_check_weights_rejects_nonpositive():
    with pytest.raises(WeightInvalid):
        check_weights((1.2, -0.2))
    with pytest.raises(WeightInvalid):
        check_weights(())


@pytest.mark.parametrize("weights", [(math.inf, 1.0), (math.nan, 1.0)])
def test_check_weights_rejects_non_finite(weights):
    with pytest.raises(WeightInvalid):
        check_weights(weights, renormalize=True)


def test_check_weights_length_mismatch():
    with pytest.raises(LengthMismatch):
        check_weights((0.5, 0.5), n=3)


def test_check_weights_renormalize():
    ws = check_weights((2, 1, 1), renormalize=True)
    assert ws == pytest.approx((0.5, 0.25, 0.25))


@pytest.mark.parametrize("n", [2, 4])
def test_check_weights_renormalizes_weights_whose_sum_overflows(n):
    # the sum of finite weights can overflow to inf; dividing by it gave 0.0
    assert check_weights([1e308] * n, renormalize=True) == (1.0 / n,) * n
    ws = check_weights([1.7976931348623157e308, 1e308], renormalize=True)
    assert min(ws) > 0.0 and sum(ws) == pytest.approx(1.0)


def test_operators_reject_empty_and_mismatched_input():
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
        with pytest.raises(EmptyInput):
            op([], [], 1)
        with pytest.raises(LengthMismatch):
            op([v, v], [1.0], 1)


# ---------------------------------------------------------------------------
# worked-example golden: weighted averaging row E1


def test_fnnwa_reproduces_worked_example_row(engineers_matrix):
    nm = normalize(engineers_matrix)
    out = fnnwa(nm.row(0), case.WEIGHTS, 1)
    expected = case.AGGREGATES_FNNWA_LAM1[0]
    assert components(out) == pytest.approx(expected, abs=2e-3)


def test_fnnwg_two_item_direct_values():
    a = make_fnnn(1, 1, 0.8, 0.5, 0.5)
    b = make_fnnn(4, 1, 0.5, 0.5, 0.8)
    out = fnnwg([a, b], (0.5, 0.5), 1)
    assert out.eta == pytest.approx(2.0, abs=1e-12)
    assert out.xi == pytest.approx(1.0, abs=1e-12)
    assert out.t == pytest.approx(0.4**0.5, abs=1e-12)
    assert out.i == pytest.approx(1 - (0.5 * 0.5) ** 0.5, abs=1e-12)
    # direct evaluation of the falsity channel
    assert out.f == pytest.approx(
        (1 - ((1 - 0.5**3) * (1 - 0.8**3)) ** 0.5) ** (1 / 3), abs=1e-12
    )


def test_fnnwg_rejects_negative_location_with_fractional_weight():
    a = make_fnnn(-1, 1, 0.5, 0.5, 0.5)
    b = make_fnnn(2, 1, 0.5, 0.5, 0.5)
    with pytest.raises(NormalDomainError):
        fnnwg([a, b], (0.5, 0.5), 1)
    with pytest.raises(NormalDomainError):
        gfnnwg([a, b], (0.5, 0.5), 1)


def test_gfnnwa_over_negative_locations():
    # an integer power of a negative location is defined, a fractional one is not
    vals = [make_fnnn(-1.5, 0.5, 0.5, 0.5, 0.5), make_fnnn(0.8, 1.0, 0.6, 0.4, 0.3),
            make_fnnn(-0.3, 0.2, 0.7, 0.2, 0.4)]
    ws = (0.5, 0.3, 0.2)
    for lam in (1, 2, 4):
        assert max_diff(gfnnwa(vals, ws, lam), fold_gfnnwa(vals, ws, lam)) <= 1e-10
    for lam in (2.5, 3):  # at lam = 3 the weighted sum is negative, and its cube root fractional
        with pytest.raises(NormalDomainError):
            gfnnwa(vals, ws, lam)


@pytest.mark.parametrize("lam", [1, 3, 34])
@pytest.mark.parametrize("op, channel, cells", [
    (gfnnwa, "f", [(0.5, 0.4, 0.3, 0.5, 1.0), (0.8, 0.6, 0.6, 0.2, 1.0)]),
    (gfnnwg, "t", [(0.5, 0.4, 1.0, 0.5, 0.3), (0.8, 0.6, 1.0, 0.2, 0.6)]),
], ids=["gfnnwa-f", "gfnnwg-t"])
def test_nested_channel_of_memberships_all_one(op, channel, cells, lam):
    # the product of the nested channel is 1, and the log of 1 - 1 is -inf
    out = op([make_fnnn(*c) for c in cells], (0.6, 0.4), lam)
    assert getattr(out, channel) == 1.0


# ---------------------------------------------------------------------------
# algebraic properties


def test_idempotency_all_operators():
    rng = random.Random(41)
    vals = gen_fnnn(FnnnGenConfig(seed=41), 60)
    for k, v in enumerate(vals):
        n = 2 + k % 5
        ws = gen_weights(rng, n)
        lam = LAMBDAS[k % len(LAMBDAS)]
        for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
            assert max_diff(op([v] * n, ws, lam), v) <= 1e-10


def test_generalized_reduce_to_base_at_lambda_one():
    rng = random.Random(43)
    for k in range(100):
        n = 1 + k % 6
        vals = gen_fnnn(FnnnGenConfig(seed=500 + k), n)
        ws = gen_weights(rng, n)
        assert max_diff(gfnnwa(vals, ws, 1), fnnwa(vals, ws, 1)) <= 1e-12
        assert max_diff(gfnnwg(vals, ws, 1), fnnwg(vals, ws, 1)) <= 1e-12


def test_permutation_invariance():
    rng = random.Random(47)
    for k in range(60):
        n = 2 + k % 5
        vals = gen_fnnn(FnnnGenConfig(seed=700 + k), n)
        ws = gen_weights(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        pv = [vals[j] for j in perm]
        pw = [ws[j] for j in perm]
        lam = LAMBDAS[k % len(LAMBDAS)]
        for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
            assert max_diff(op(vals, ws, lam), op(pv, pw, lam)) <= 1e-12


def test_outputs_stay_in_unit_interval_and_fnnwa_bounds():
    rng = random.Random(53)
    for k in range(100):
        n = 1 + k % 6
        vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=900 + k), n)
        ws = gen_weights(rng, n)
        lam = LAMBDAS[k % len(LAMBDAS)]
        for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
            out = op(vals, ws, lam)
            for comp in (out.t, out.i, out.f):
                assert 0.0 <= comp <= 1.0
        out = fnnwa(vals, ws, lam)
        # averaging keeps normal parameters inside the input bounding box
        assert min(v.eta for v in vals) - 1e-12 <= out.eta <= max(v.eta for v in vals) + 1e-12
        assert min(v.xi for v in vals) - 1e-12 <= out.xi <= max(v.xi for v in vals) + 1e-12
        # each membership channel is a generalized mean of the inputs
        for chan in ("t", "i", "f"):
            lo = min(getattr(v, chan) for v in vals)
            hi = max(getattr(v, chan) for v in vals)
            assert lo - 1e-12 <= getattr(out, chan) <= hi + 1e-12


def test_single_item_weight_one_is_identity():
    v = make_fnnn(0.62, 0.41, 0.8, 0.65, 0.72)
    for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
        for lam in LAMBDAS:
            assert max_diff(op([v], (1.0,), lam), v) <= 1e-12


# ---------------------------------------------------------------------------
# large exponents against an exact decimal evaluation

# the nested channel near 1 needs (1 - v**(3 lam))**lam, about 1e-97 at v = 0.99999 and
# lam = 32, kept apart from 1; at 100 digits the oracle read 0.99999000004 there
DECIMAL_DIGITS = 250
SERIES_BELOW = Decimal("1e-30")  # where 1 - x would need more digits than that


def decimal_complement_pow(x, w):
    """``1 - (1 - x) ** w`` in decimal for x in [0, 1], to about 90
    significant digits: directly where ``1 - x`` keeps x, and where it
    does not, by three terms of the binomial series, which leave out a
    part of relative size about x**3."""
    if x < SERIES_BELOW:
        return w * x - w * (w - 1) / 2 * x * x + w * (w - 1) * (w - 2) / 6 * x ** 3
    return 1 - (1 - x) ** w


def decimal_prob_channel(vs, ws, p) -> float:
    """``(1 - prod((1 - v**p) ** w)) ** (1/p)`` in decimal."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        p = Decimal(p)
        total = Decimal(0)  # 1 - the product so far, which the sum a + b - ab extends
        for v, w in zip(vs, ws):
            y = decimal_complement_pow(Decimal(v) ** p, Decimal(w))
            total += y - total * y
        return float(total ** (1 / p))


def decimal_nested_channel(vs, ws, lam) -> float:
    """``(1 - (1 - prod(d ** w)) ** (1/lam)) ** (1/(3 lam))`` with
    ``d = 1 - (1 - v**(3 lam)) ** lam``, in decimal."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        lam = Decimal(lam)
        prod = Decimal(1)
        for v, w in zip(vs, ws):
            prod *= decimal_complement_pow(Decimal(v) ** (3 * lam), lam) ** Decimal(w)
        return float(decimal_complement_pow(prod, 1 / lam) ** (1 / (3 * lam)))


def decimal_power_mean(xs, ws, lam) -> float:
    """``(sum(w * x**lam)) ** (1/lam)`` in decimal."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        lam = Decimal(lam)
        return float(sum(Decimal(w) * Decimal(x) ** lam for x, w in zip(xs, ws)) ** (1 / lam))


def decimal_geometric(xs, ws, lam=1) -> float:
    """``prod((lam * x) ** w) / lam`` in decimal."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        lam, prod = Decimal(lam), Decimal(1)
        for x, w in zip(xs, ws):
            prod *= (lam * Decimal(x)) ** Decimal(w)
        return float(prod / lam)


# each operator's (eta, xi, t, i, f) as written in its definition, over the
# five component lists of a row
DECIMAL_FORMS = {
    "fnnwa": lambda c, ws, lam: (
        decimal_power_mean(c[0], ws, 1), decimal_power_mean(c[1], ws, 1),
        decimal_prob_channel(c[2], ws, 3 * lam), decimal_prob_channel(c[3], ws, lam),
        decimal_geometric(c[4], ws)),
    "fnnwg": lambda c, ws, lam: (
        decimal_geometric(c[0], ws), decimal_geometric(c[1], ws), decimal_geometric(c[2], ws),
        decimal_prob_channel(c[3], ws, lam), decimal_prob_channel(c[4], ws, 3 * lam)),
    "gfnnwa": lambda c, ws, lam: (
        decimal_power_mean(c[0], ws, lam), decimal_power_mean(c[1], ws, lam),
        decimal_prob_channel(c[2], ws, 3 * lam * lam), decimal_prob_channel(c[3], ws, lam),
        decimal_nested_channel(c[4], ws, lam)),
    "gfnnwg": lambda c, ws, lam: (
        decimal_geometric(c[0], ws, lam), decimal_geometric(c[1], ws, lam),
        decimal_nested_channel(c[2], ws, lam), decimal_prob_channel(c[3], ws, lam),
        decimal_prob_channel(c[4], ws, 3 * lam * lam)),
}
DECIMAL_REL = 1e-12


def assert_matches_decimal(name, cells, ws, lam):
    out = OPERATORS[name]([make_fnnn(*c) for c in cells], ws, lam)
    exact = DECIMAL_FORMS[name](list(zip(*cells)), ws, lam)
    for channel, got, want in zip(("eta", "xi", "t", "i", "f"), components(out), exact):
        assert got == pytest.approx(want, rel=DECIMAL_REL), channel


@pytest.mark.parametrize("vs, ws, p", [
    ((0.7, 0.75), (0.5, 0.5), 3 * 34 * 34),
    ((0.05, 0.3, 0.9), (0.2, 0.3, 0.5), 250),
    ((0.01, 0.02), (0.6, 0.4), 160),
    ((0.99999, 0.5), (0.25, 0.75), 3),
])
def test_decimal_oracle_matches_direct_evaluation(vs, ws, p):
    # the direct formula needs about p * max(-log10 v) digits to keep each
    # v**p apart from 1, which is affordable only for these cases
    with localcontext() as ctx:
        ctx.prec = int(p * max(-math.log10(v) for v in vs)) + 60
        prod = Decimal(1)
        for v, w in zip(vs, ws):
            prod *= (1 - Decimal(v) ** p) ** Decimal(w)
        direct = float((1 - prod) ** (1 / Decimal(p)))
    assert decimal_prob_channel(vs, ws, p) == pytest.approx(direct, rel=1e-15)


# memberships across [1e-3, 0.99999]; at lam = 34 every membership below
# about 0.8 underflows a 3*lam^2 power, and one of 1e-3 a 3*lam power
DECIMAL_ROWS = {
    "mixed": [
        (0.35, 0.8, 1e-3, 0.5, 0.99999),
        (0.9, 0.2, 0.99999, 1e-3, 0.02),
        (0.55, 0.45, 0.3, 0.99999, 1e-3),
        (0.1, 0.6, 0.05, 0.7, 0.4),
    ],
    "small": [
        (0.35, 0.8, 1e-3, 0.004, 0.02),
        (0.9, 0.2, 0.06, 1e-3, 0.001),
        (0.55, 0.45, 0.003, 0.1, 0.01),
    ],
    "large": [
        (0.35, 0.8, 0.99999, 1e-3, 0.99),
        (0.9, 0.2, 0.95, 0.5, 0.99999),
        (0.55, 0.45, 0.999, 0.3, 0.9),
    ],
    "near-one": [(1.0, 1.0, 0.1, 0.1, 0.99999)],  # gfnnwa's nested channel is 1 - 1e-97
}
DECIMAL_CASES = [(row, lam) for row in sorted(DECIMAL_ROWS) for lam in (1, 10, 34)]


@pytest.mark.parametrize("row, lam", DECIMAL_CASES + [("near-one", 32)])
@pytest.mark.parametrize("name", sorted(DECIMAL_FORMS))
def test_operators_match_decimal(name, row, lam):
    cells = DECIMAL_ROWS[row]
    ws = (0.4, 0.3, 0.2, 0.1)[: len(cells)]
    ws = [w / sum(ws) for w in ws]
    assert_matches_decimal(name, cells, ws, lam)


def test_nested_channel_keeps_small_falsities_at_lambda_34():
    # f**(3 lam) underflows float64 for both falsities; the geometric mean is 1.414e-4
    cells = [(1, 0.5, 0.3, 0.3, 1e-4), (1, 0.5, 0.3, 0.3, 2e-4)]
    out = gfnnwa([make_fnnn(*c) for c in cells], [0.5, 0.5], 34)
    assert out.f == pytest.approx(decimal_nested_channel((1e-4, 2e-4), (0.5, 0.5), 34), rel=1e-12)
    assert out.f == pytest.approx(1.414e-4, rel=1e-3)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(
    name=st.sampled_from(sorted(DECIMAL_FORMS)),
    lam=st.floats(1.0, 34.0),
    cells=st.lists(
        st.tuples(
            st.floats(0.01, 10.0), st.floats(0.01, 10.0),
            *[st.floats(-3.0, math.log10(0.99999)).map(lambda e: 10.0 ** e)] * 3,
        ).filter(lambda c: c[2] ** 3 + c[3] ** 3 + c[4] ** 3 <= 2.0),
        min_size=1, max_size=6,
    ),
    raw_weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
)
def test_operators_match_decimal_property(name, lam, cells, raw_weights):
    ws = raw_weights[: len(cells)]
    ws = [w / sum(ws) for w in ws]
    assert_matches_decimal(name, cells, ws, lam)


# every x**lam of the first two underflows float64, so sum(w * x**lam) is 0;
# 5**1000 of the third overflows
POWER_MEAN_ROWS = {300: (0.02, 0.05, 0.08), 1e3: (2.0, 3.0, 5.0), 1e4: (0.5, 0.8, 0.9)}


@pytest.mark.parametrize("lam", sorted(POWER_MEAN_ROWS))
def test_power_mean_keeps_locations_whose_powers_underflow(lam):
    # the sum is taken again of x / max x: each quotient is rounded once and
    # the root undoes the power, so the mean keeps to a few ulps
    xs, ws = POWER_MEAN_ROWS[lam], (0.5, 0.3, 0.2)
    out = gfnnwa([make_fnnn(x, x, 0.5, 0.5, 0.5) for x in xs], ws, lam)
    exact = decimal_power_mean(xs, ws, lam)
    assert out.eta == pytest.approx(exact, rel=DECIMAL_REL)
    assert out.xi == pytest.approx(exact, rel=DECIMAL_REL)


# the 3*lam^2 channel of each: gfnnwa's truth, gfnnwg's falsity
LARGE_EXPONENT_CASES = {
    "gfnnwa-t": (gfnnwa, [(1, 0.5, 0.7, 0.3, 0.3), (1, 0.5, 0.75, 0.3, 0.3)], "t"),
    "gfnnwg-f": (gfnnwg, [(1, 0.5, 0.3, 0.3, 0.7), (1, 0.5, 0.3, 0.3, 0.75)], "f"),
}


# At lam = 34 the power underflows float64 in every term
@pytest.mark.parametrize("lam", [1, 10, 20, 34])
@pytest.mark.parametrize("case", sorted(LARGE_EXPONENT_CASES))
def test_large_exponent_channel_matches_decimal(case, lam):
    op, cells, channel = LARGE_EXPONENT_CASES[case]
    out = op([make_fnnn(*c) for c in cells], [0.5, 0.5], lam)
    assert getattr(out, channel) == pytest.approx(
        decimal_prob_channel((0.7, 0.75), (0.5, 0.5), 3 * lam * lam), rel=1e-12
    )


# p * log v overflows float64 for these memberships by lam = 5e153, and p = 3 * lam**2
# itself from about 7.7e153; the channel's limit is the largest membership
HUGE_LAMBDA_CASES = {
    "gfnnwa-t": (gfnnwa, [(1, 1, 0.01, 0.5, 0.5), (1, 1, 0.02, 0.5, 0.5)], "t"),
    "gfnnwg-f": (gfnnwg, [(1, 1, 0.5, 0.5, 0.01), (1, 1, 0.5, 0.5, 0.02)], "f"),
}


@pytest.mark.parametrize("lam", [1e150, 5e153, 1e160, 1e300])
@pytest.mark.parametrize("case", sorted(HUGE_LAMBDA_CASES))
def test_large_exponent_channel_tends_to_the_largest_membership(case, lam):
    op, cells, channel = HUGE_LAMBDA_CASES[case]
    out = op([make_fnnn(*c) for c in cells], [0.5, 0.5], lam)
    assert getattr(out, channel) == pytest.approx(0.02, rel=1e-12)
