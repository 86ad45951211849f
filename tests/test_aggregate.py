"""Closed-form aggregation operators: goldens, algebra, and validation."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engineers_case as case
from fnnmadm import (
    FOLDS,
    OPERATORS,
    DecisionMatrix,
    EmptyInput,
    FnnnGenConfig,
    LengthMismatch,
    NormalDomainError,
    PipelineConfig,
    ValidationError,
    WeightInvalid,
    check_weights,
    fnnwa,
    fnnwg,
    fold_gfnnwa,
    gen_fnnn,
    gen_weights,
    gfnnwa,
    gfnnwg,
    make_decision_matrix,
    make_fnnn,
    normalize,
    run_pipeline,
)
from fnnmadm import core
from fnnmadm._numeric import (_LOG_HALF, _TINY, left_sum, log_neg_log_one_minus_exp,
                              log_one_minus_exp, nested_prob_channel, weighted_prob_sum, xlogs)

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


@pytest.mark.parametrize("weights", [("x", 0.5), (None, 0.5), (10 ** 400, 1.0), 0.5, None])
@pytest.mark.parametrize("renormalize", [False, True])
def test_check_weights_types_a_weight_that_is_no_real_number(weights, renormalize):
    # float() raised a bare ValueError for "x", a TypeError for None and an
    # OverflowError for an int beyond float64; a bare number, or None, is no vector,
    # which was named as a number out of range
    reason = " in float64's range" if isinstance(weights, tuple) else f", not {type(weights).__name__}"
    with pytest.raises(WeightInvalid, match=f"^weights must be real numbers{reason}$"):
        check_weights(weights, renormalize=renormalize)


def test_check_weights_reads_what_float_reads():
    assert check_weights(("0.25", Fraction(3, 4))) == (0.25, 0.75)


@pytest.mark.parametrize("kind", [str, bytes, bytearray])
def test_text_is_no_weight_vector(kind):
    # float() read each character of "55" (or each byte of b"55"), which
    # renormalized to (0.5, 0.5), and fnnwa took "1" as the weights (1.0,)
    reason = f"^weights must be real numbers, not {kind.__name__}$"
    with pytest.raises(WeightInvalid, match=reason):
        check_weights(kind("55") if kind is str else kind(b"55"), renormalize=True)
    with pytest.raises(WeightInvalid, match=reason):
        fnnwa([make_fnnn(1, 1, 0.5, 0.5, 0.5)], kind("1") if kind is str else kind(b"1"))


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


@pytest.mark.parametrize("weights, n", [([1e-300, 1e300], 2), ([1e-200, 1e200, 1e200], 3)])
def test_check_weights_rejects_a_weight_that_underflows_when_rescaled(weights, n):
    # rescaled, the first weight is below the smallest subnormal: it read 0.0,
    # a weight that check_weights itself rejects
    with pytest.raises(WeightInvalid, match=f"^weight 1 of {n} underflows to 0 when rescaled$"):
        check_weights(weights, renormalize=True)


def test_sums_add_left_to_right_on_every_python():
    # sum() compensates its rounding from Python 3.12, where these read
    # 0.9999999999999998 and 0.5000000000000001, and CLI output differed
    assert check_weights([1.0, 2.0 ** -53, 2.0 ** -53], renormalize=True)[0] == 1.0
    cells = [make_fnnn(eta, 0.5, 0.5, 0.5, 0.5) for eta in (1.0, 2.0 ** -52, 2.0 ** -52)]
    assert fnnwa(cells, (0.5, 0.25, 0.25)).eta == 0.5
    assert gfnnwa(cells, (0.5, 0.25, 0.25), 1.0).eta == 0.5


def test_operators_reject_empty_and_mismatched_input():
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    for op in (fnnwa, fnnwg, gfnnwa, gfnnwg):
        with pytest.raises(EmptyInput):
            op([], [], 1)
        with pytest.raises(LengthMismatch):
            op([v, v], [1.0], 1)


# each raised a bare AttributeError: 'str' object has no attribute 'normal', or a
# bare TypeError: 'int' object is not iterable
@pytest.mark.parametrize("aggregation", [*OPERATORS.values(), *FOLDS.values()],
                         ids=[*OPERATORS, *(f"fold_{name}" for name in FOLDS)])
def test_an_item_that_is_no_value_raises_a_typed_error(aggregation):
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match=r"^a value must be an Fnnn, not str$"):
        aggregation(["x"], [1])
    with pytest.raises(ValidationError, match=r"^a value must be an Fnnn, not tuple$"):
        aggregation([v, (1.0, 1.0, 0.5, 0.5, 0.5)], [0.5, 0.5])
    with pytest.raises(ValidationError, match=r"^values must be an iterable of Fnnn, not int$"):
        aggregation(3, [1])


def test_a_matrix_of_cells_that_are_no_values_raises_a_typed_error():
    v = make_fnnn(1, 1, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError, match=r"^a value must be an Fnnn, not str$"):
        make_decision_matrix(["A"], ["x"], [["x"]], [1])
    with pytest.raises(ValidationError, match=r"^a value must be an Fnnn, not NoneType$"):
        make_decision_matrix(["A", "B"], ["x"], [[v], [None]], [1])
    with pytest.raises(ValidationError, match=r"^values must be an iterable of Fnnn, not float$"):
        make_decision_matrix(["A"], ["x"], [0.5], [1])


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


# ---------------------------------------------------------------------------
# Fermatean fuzzy oracle: at lambda = 1, the truths and falsities of fnnwa and
# fnnwg are those of Senapati & Yager's Fermatean fuzzy weighted averaging and
# geometric operators (FFWA, FFWG), written here from their formulas alone


def root_of_complement(vs, ws):
    """(1 - prod (1 - v_k**3)**w_k)**(1/3), with 1 - prod taken as its equal
    -expm1(sum w_k * log1p(-v_k**3)).  Taken as written, 1 - prod cancels: at
    eight memberships of 0.1 it is off by 1.5e-13 relative (a 60-digit Decimal
    evaluation), at 0.01 by 1e-10, and near 0 by 4e-2 (1e-5); in this form it
    stays within 2e-15 of the operators from 0.001 up."""
    return (-math.expm1(math.fsum(w * math.log1p(-v ** 3) for v, w in zip(vs, ws)))) ** (1 / 3)


def ffwa(mus, nus, ws):
    """FFWA's (mu, nu): ((1 - prod (1 - mu_k**3)**w_k)**(1/3), prod nu_k**w_k)."""
    return root_of_complement(mus, ws), math.prod(nu ** w for nu, w in zip(nus, ws))


def ffwg(mus, nus, ws):
    """FFWG's (mu, nu): (prod mu_k**w_k, (1 - prod (1 - nu_k**3)**w_k)**(1/3))."""
    return math.prod(mu ** w for mu, w in zip(mus, ws)), root_of_complement(nus, ws)


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.tuples(*[st.floats(0.1, 0.95)] * 3).filter(
            lambda c: c[0] ** 3 + c[1] ** 3 + c[2] ** 3 <= 2.0),
        min_size=1, max_size=8,
    ),
    raw_weights=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
)
def test_fnnwa_and_fnnwg_at_lambda_1_are_ffwa_and_ffwg(cells, raw_weights):
    ws = check_weights(raw_weights[: len(cells)], renormalize=True)
    values = [make_fnnn(0.5, 0.2, *c) for c in cells]
    ts, fs = [c[0] for c in cells], [c[2] for c in cells]
    for operator, oracle in ((fnnwa, ffwa), (fnnwg, ffwg)):
        out = operator(values, ws, 1.0)
        mu, nu = oracle(ts, fs, ws)
        assert out.t == pytest.approx(mu, rel=1e-13, abs=0.0)
        assert out.f == pytest.approx(nu, rel=1e-13, abs=0.0)


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


# the nested channel's p * log v overflows float64 by lam = 5e307, and p = 3 * lam itself
# from about 6e307; the channel's limit is the weighted geometric mean of the memberships
NESTED_CASES = {
    "gfnnwa-f": (gfnnwa, [(1, 1, 0.5, 0.5, 0.3), (1, 1, 0.5, 0.5, 0.6)], "f"),
    "gfnnwg-t": (gfnnwg, [(1, 1, 0.3, 0.5, 0.5), (1, 1, 0.6, 0.5, 0.5)], "t"),
}


@pytest.mark.parametrize("lam", [1e300, 5e307, 1e308, 1.7e308])
@pytest.mark.parametrize("case", sorted(NESTED_CASES))
def test_nested_channel_tends_to_the_weighted_geometric_mean(case, lam):
    op, cells, channel = NESTED_CASES[case]
    out = op([make_fnnn(*c) for c in cells], [0.5, 0.5], lam)
    assert getattr(out, channel) == pytest.approx(math.sqrt(0.3 * 0.6), rel=1e-12)


@pytest.mark.parametrize("lam", [1e3, 1e300, 5e307, 1e308, 1.7e308])
def test_nested_channel_keeps_its_value_at_huge_lambda(lam):
    assert nested_prob_channel(xlogs([0.3, 0.6, 0.8]), [0.2, 0.3, 0.5], lam) == pytest.approx(
        0.6031351224746371, rel=1e-15)


@pytest.mark.parametrize("cells, lam", [
    ([(1, 1e300, 0.5, 0.5, 0.5)], 1e10),  # lam * xi overflows
    ([(1e300, 1e300, 0.5, 0.5, 0.5), (1e200, 1e250, 0.5, 0.5, 0.5)], 1e10),
    ([(1e300, 1e-300, 0.5, 0.5, 0.5), (1e-300, 1e300, 0.5, 0.5, 0.5)], 1e100),
])
def test_gfnnwg_location_and_spread_where_lam_times_a_value_overflows(cells, lam):
    ws = [1.0 / len(cells)] * len(cells)
    out = gfnnwg([make_fnnn(*c) for c in cells], ws, lam)
    etas, xis = [c[0] for c in cells], [c[1] for c in cells]
    assert out.eta == pytest.approx(decimal_geometric(etas, ws, lam), rel=1e-12)
    assert out.xi == pytest.approx(decimal_geometric(xis, ws, lam), rel=1e-12)
    if len(cells) == 1:
        assert (out.eta, out.xi) == (1.0, 1e300)


@pytest.mark.parametrize("lam", [1e308, 1.7e308])
def test_gfnnwg_where_a_weight_above_1_overflows_a_power(lam):
    # check_weights takes 1.000001 within its tolerance, and math.pow of
    # lam * 1.797 to that weight raises OverflowError rather than giving inf
    ws = [1.000001]
    out = gfnnwg([make_fnnn(1, 1.797, 0.5, 0.5, 0.5)], ws, lam)
    assert out.eta == pytest.approx(decimal_geometric([1.0], ws, lam), rel=1e-12)
    assert out.xi == pytest.approx(decimal_geometric([1.797], ws, lam), rel=1e-12)
    rows = (((1.0,), (1.797,), (0.5,), (0.5,), (0.5,)), ((1.0,), (1.0,), (0.4,), (0.5,), (0.5,)))
    dm = DecisionMatrix(("A", "B"), ("x",), rows, ws)
    assert run_pipeline(dm, PipelineConfig("gfnnwg", lam=lam)).ordering == (0, 1)


# (1/lam) prod (lam x_j)^w_j = lam^(sum w - 1) prod x_j^w_j, so where the
# weights sum to exactly 1, lam acts on gfnnwg's memberships alone
GFNNWG_LAMBDAS = (1.0, 2.5, 3.0, 12.5, 34.0, 1e10)


def assert_gfnnwg_normal_part_is_fnnwgs(values, ws):
    base = fnnwg(values, ws)
    excess = math.fsum(ws) - 1.0
    for lam in GFNNWG_LAMBDAS:
        out = gfnnwg(values, ws, lam)
        scale = lam ** excess  # exactly 1.0 where excess is 0.0: fnnwg's bits at every lam
        assert (out.eta, out.xi) == (base.eta * scale, base.xi * scale), lam


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), renormalize=st.booleans())
def test_gfnnwg_location_and_spread_are_fnnwgs_at_every_lambda(seed, n, renormalize):
    rng = random.Random(seed)
    values = gen_fnnn(FnnnGenConfig(seed=seed), n)
    if renormalize:  # about one vector in four sums to other than exactly 1 by fsum
        ws = check_weights([rng.uniform(0.01, 1.0) for _ in range(n)], renormalize=True)
    else:
        ws = gen_weights(rng, n)
    assert_gfnnwg_normal_part_is_fnnwgs(values, ws)


@pytest.mark.parametrize("row", range(len(case.RAW_CELLS)))
def test_gfnnwg_location_and_spread_are_fnnwgs_on_the_engineers(row):
    values = [make_fnnn(*c) for c in case.RAW_CELLS[row]]
    assert math.fsum(case.WEIGHTS) == 1.0
    assert_gfnnwg_normal_part_is_fnnwgs(values, case.WEIGHTS)


def test_gfnnwg_location_and_spread_scale_with_weights_off_1():
    ws = check_weights((8, 9, 9, 9), renormalize=True)
    assert math.fsum(ws) != 1.0
    for row in case.RAW_CELLS:
        assert_gfnnwg_normal_part_is_fnnwgs([make_fnnn(*c) for c in row], ws)


# ---------------------------------------------------------------------------
# the kernels' tails, which inline log_one_minus_exp, against copies that call it


def tail_reference_prob_sum(logs, weights, p):
    """weighted_prob_sum as written with its tail calling log_one_minus_exp."""
    acc = 0.0
    for lv, w in zip(logs, weights):
        if lv == 0.0:
            return 1.0
        if lv != -math.inf:
            acc += w * log_one_minus_exp(p * lv)
    if acc > -_TINY:
        top = max(logs)
        if p * top == -math.inf:
            return math.exp(top)
        terms = [math.log(w) + log_neg_log_one_minus_exp(p * lv) for lv, w in zip(logs, weights)]
        peak = max(terms)
        return math.exp((peak + math.log(left_sum(math.exp(x - peak) for x in terms))) / p)
    return math.exp(log_one_minus_exp(acc) / p)


def nested_log_prod(logs, weights, lam):
    """The accumulator log prod d_i^w of nested_prob_channel's loop."""
    log_prod = 0.0
    for lv, w in zip(logs, weights):
        if lv == -math.inf:
            log_prod = -math.inf
            continue
        if lv == 0.0:
            continue
        z = 3.0 * lam * lv
        log_eps = lam * log_one_minus_exp(z)
        if log_eps > _LOG_HALF:
            log_d = log_one_minus_exp(log_eps) if log_eps < -_TINY else math.log(lam) + z
        else:
            log_d = log_one_minus_exp(log_eps)
        log_prod += w * log_d
    return log_prod


def tail_reference_nested(logs, weights, lam):
    """nested_prob_channel as written with its tail calling log_one_minus_exp."""
    log_prod = nested_log_prod(logs, weights, lam)
    if log_prod == -math.inf:
        return math.exp(left_sum(w * lv for lv, w in zip(logs, weights)))
    log_u = log_one_minus_exp(log_prod) / lam
    if log_u > -_TINY:
        return math.exp((log_neg_log_one_minus_exp(log_prod) - math.log(lam)) / (3.0 * lam))
    return math.exp(log_one_minus_exp(log_u) / (3.0 * lam))


def straddling(accumulator, target, w0, steps=32):
    """The weights next to ``w0`` whose accumulator is nearest ``target`` from
    below and from above, and at it where one is."""
    ws = [w0]
    for _ in range(steps):
        ws = [math.nextafter(ws[0], 0.0), *ws, math.nextafter(ws[-1], math.inf)]
    accs = {w: accumulator(w) for w in ws}
    below = max((w for w in ws if accs[w] < target), key=accs.get)
    above = min((w for w in ws if accs[w] > target), key=accs.get)
    return [below, *[w for w in ws if accs[w] == target][:1], above]


def seeded_row(seed, n=4):
    """The logs of n memberships drawn in [0, 1], and n weights."""
    rng = random.Random(seed)
    return tuple(xlogs([rng.uniform(0.0, 1.0) for _ in range(n)])), gen_weights(rng, n)


def prob_sum_acc(w, lv=-1.0, p=1.0):
    return 0.0 + w * log_one_minus_exp(p * lv)


def nested_log_u(w, lam=2.0):
    return log_one_minus_exp(nested_log_prod((-1.0,), (w,), lam)) / lam


TAIL_CASES = [
    *(("prob_sum", (-1.0,), (w,), 1.0)  # acc by _LOG_HALF and by -_TINY
      for target in (_LOG_HALF, -_TINY)
      for w in straddling(prob_sum_acc, target, target / prob_sum_acc(1.0))),
    *(("nested", (-1.0,), (w,), 1.0)  # log_prod by _LOG_HALF and by -_TINY
      for target in (_LOG_HALF, -_TINY)
      for w in straddling(lambda w: nested_log_prod((-1.0,), (w,), 1.0), target,
                          target / nested_log_prod((-1.0,), (1.0,), 1.0))),
    *(("nested", (-1.0,), (w,), 2.0)  # log_u by _LOG_HALF and by -_TINY
      for target, log_prod in ((_LOG_HALF, math.log(0.75)), (-_TINY, math.log(2.0 * _TINY)))
      for w in straddling(nested_log_u, target, log_prod / nested_log_prod((-1.0,), (1.0,), 2.0))),
    ("nested", (0.0, 0.0), (0.5, 0.5), 3.0),  # every d == 1: log_prod 0.0 and log_u -inf
    # a term w * log d that underflows to -0.0; log_prod, from +0.0, stays +0.0, as
    # 0.0 + -0.0 is: no accumulator starts at or reaches -0.0
    ("nested", (-0.01,), (5e-324,), 1.0),
    ("nested", (-0.01, 0.0), (5e-324, 1.0), 1.0),
    ("prob_sum", (-1e-3,), (1.7e308,), 1.0),  # acc == -inf
    ("prob_sum", (-1.0,), (5e-324,), 1.0),  # a term that underflows to -0.0: acc stays 0.0
    *(("prob_sum", logs, (0.5, 0.5), math.inf)  # p = inf
      for logs in [(-0.5, -2.0), (0.0, -1.0), (-math.inf, -math.inf), (-math.inf, -1e-300)]),
    ("nested", (-math.inf, -0.5), (0.5, 0.5), 2.0),
    *((kernel, *seeded_row(seed), param) for seed in range(6) for kernel, param in
      [("prob_sum", 3.0), ("prob_sum", 34.0), ("prob_sum", 3.0 * 34.0 ** 2),
       ("nested", 1.0), ("nested", 2.5), ("nested", 34.0)]),
]
TAIL_KERNELS = {"prob_sum": (weighted_prob_sum, tail_reference_prob_sum),
                "nested": (nested_prob_channel, tail_reference_nested)}


@pytest.mark.parametrize("kernel, logs, weights, param", TAIL_CASES)
def test_kernel_tails_keep_the_bits_of_log_one_minus_exp(kernel, logs, weights, param):
    fast, reference = TAIL_KERNELS[kernel]
    assert fast(logs, weights, param).hex() == reference(logs, weights, param).hex()


@pytest.mark.parametrize("lam", [1.0, 34.0])
@pytest.mark.parametrize("operation", [core.scale, core.power])
def test_a_weight_of_1e300_keeps_the_bits_of_log_one_minus_exp(operation, lam, monkeypatch):
    values = [make_fnnn(1.0, 1.0, *mu) for mu in ((0.5, 0.5, 0.5), (0.999, 1e-3, 0.9),
                                                  (1e-3, 0.999, 0.2))]

    def bits():
        return [[x.hex() for x in components(operation(1e300, a, lam))] for a in values]

    fast = bits()
    monkeypatch.setattr(core, "weighted_prob_sum", tail_reference_prob_sum)
    assert bits() == fast


@pytest.mark.parametrize("kernel, param", [("prob_sum", 1.0), ("prob_sum", 3.0), ("nested", 1.0),
                                           ("nested", 1.5), ("nested", 2.0)])
def test_kernel_tails_keep_the_bits_on_both_sides_of_each_branch(kernel, param):
    # one term drawn at random: accumulators on both sides of each branch point, where
    # log(-expm1(z)) and log1p(-exp(z)) may round the channel to different last bits
    fast, reference = TAIL_KERNELS[kernel]
    rng = random.Random(30)
    for _ in range(4000):
        args = (-rng.uniform(0.01, 3.0),), (rng.uniform(0.001, 1.0),), param
        assert fast(*args).hex() == reference(*args).hex(), args
