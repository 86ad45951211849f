"""Closed-form aggregation operators: goldens, algebra, and validation."""

import math
import random

import pytest

import engineers_case as case
from fnnmadm import (
    EmptyInput,
    FnnnGenConfig,
    LengthMismatch,
    NormalDomainError,
    WeightInvalid,
    check_weights,
    fnnwa,
    fnnwg,
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
