"""Fold-of-primitives references and the seeded generator."""

import random

import pytest

import engineers_case as case
from fnnmadm import (
    CUBIC_SUM_BOUND,
    FOLDS,
    OPERATORS,
    EmptyInput,
    FnnnGenConfig,
    fold_fnnwa,
    fold_fnnwg,
    fold_gfnnwa,
    fold_gfnnwg,
    gen_fnnn,
    gen_weights,
    make_fnnn,
    normalize,
)

LAMBDAS = (1.0, 2.0, 3.0, 5.0, 10.0)


def components(v):
    return (v.eta, v.xi, v.t, v.i, v.f)


def max_diff(a, b):
    return max(abs(x - y) for x, y in zip(components(a), components(b)))


# ---------------------------------------------------------------------------
# generator


def test_generator_is_deterministic():
    cfg = FnnnGenConfig(seed=99)
    assert gen_fnnn(cfg, 50) == gen_fnnn(cfg, 50)
    assert gen_fnnn(FnnnGenConfig(seed=100), 50) != gen_fnnn(cfg, 50)


def test_generator_outputs_are_valid():
    vals = gen_fnnn(FnnnGenConfig(membership_range=(0.0, 1.0), seed=7), 10000)
    worst = max(v.mu.cubic_sum() for v in vals)
    assert worst <= CUBIC_SUM_BOUND
    for v in vals[:200]:
        make_fnnn(v.eta, v.xi, v.t, v.i, v.f)  # re-validates every field
    assert all(v.xi > 0 for v in vals)
    assert all(v.eta > 0 for v in vals)


def test_generator_rejects_zero_count():
    with pytest.raises(EmptyInput):
        gen_fnnn(FnnnGenConfig(), 0)


# ---------------------------------------------------------------------------
# folds


def test_fold_single_item_is_identity():
    v = make_fnnn(0.45, 0.81, 0.66, 0.52, 0.71)
    for fold in (fold_fnnwa, fold_fnnwg, fold_gfnnwa, fold_gfnnwg):
        for lam in LAMBDAS:
            assert max_diff(fold([v], (1.0,), lam), v) <= 1e-12


def test_fold_fnnwa_reproduces_worked_example_row(engineers_matrix):
    nm = normalize(engineers_matrix)
    out = fold_fnnwa(nm.row(0), case.WEIGHTS, 1)
    assert components(out) == pytest.approx(case.AGGREGATES_FNNWA_LAM1[0], abs=2e-3)


def test_fold_fnnwg_matches_two_item_example():
    a = make_fnnn(1, 1, 0.8, 0.5, 0.5)
    b = make_fnnn(4, 1, 0.5, 0.5, 0.8)
    out = fold_fnnwg([a, b], (0.5, 0.5), 1)
    assert out.t == pytest.approx(0.4**0.5, abs=1e-12)
    assert out.f == pytest.approx(
        (1 - ((1 - 0.5**3) * (1 - 0.8**3)) ** 0.5) ** (1 / 3), abs=1e-12
    )


def test_generalized_folds_reduce_at_lambda_one():
    rng = random.Random(61)
    for k in range(50):
        n = 1 + k % 6
        vals = gen_fnnn(FnnnGenConfig(seed=1100 + k), n)
        ws = gen_weights(rng, n)
        assert max_diff(fold_gfnnwa(vals, ws, 1), fold_fnnwa(vals, ws, 1)) <= 1e-12
        assert max_diff(fold_gfnnwg(vals, ws, 1), fold_fnnwg(vals, ws, 1)) <= 1e-12


def test_fold_idempotency():
    rng = random.Random(67)
    vals = gen_fnnn(FnnnGenConfig(seed=67), 40)
    for k, v in enumerate(vals):
        n = 2 + k % 5
        ws = gen_weights(rng, n)
        lam = LAMBDAS[k % len(LAMBDAS)]
        for fold in FOLDS.values():
            assert max_diff(fold([v] * n, ws, lam), v) <= 1e-10


def test_closed_forms_match_folds():
    # a slice of the acceptance-scale comparison, here for fast feedback
    rng = random.Random(71)
    for k in range(100):
        n = 1 + k % 6
        vals = gen_fnnn(FnnnGenConfig(seed=1300 + k), n)
        ws = gen_weights(rng, n)
        lam = LAMBDAS[k % len(LAMBDAS)]
        for name in OPERATORS:
            assert max_diff(OPERATORS[name](vals, ws, lam), FOLDS[name](vals, ws, lam)) <= 1e-10


@pytest.mark.parametrize("band", [(1e-4, 1e-2), (1e-3, 0.8), (0.1, 0.95)])
def test_closed_forms_match_folds_at_lambda_34(band):
    # at lam = 34 the 3*lam^2 powers below about 0.8, and the 3*lam powers
    # below about 1e-3, underflow float64.  Near 1 the folds cannot serve:
    # power(34, v) of an indeterminacy above about 0.99 rounds to 1.0, which
    # then absorbs the fold, and tests/test_aggregate.py checks that band
    # against decimal instead.
    rng = random.Random(73)
    for k in range(20):
        n = 1 + k % 6
        vals = gen_fnnn(FnnnGenConfig(membership_range=band, seed=1500 + k), n)
        ws = gen_weights(rng, n)
        for name in OPERATORS:
            assert max_diff(OPERATORS[name](vals, ws, 34.0), FOLDS[name](vals, ws, 34.0)) <= 1e-10
