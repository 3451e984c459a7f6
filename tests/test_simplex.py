"""Minimax-on-simplex solver against hand oracles and scipy's LP."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from semicascade import simplex
from semicascade.errors import InputError
from semicascade.simplex import PIVOT_BUDGET, solve_minimax_signed


def _scipy_minimax(w):
    """Reference solve of min_b max_s |(W^T b)_s| as a plain LP."""
    n_rows, n_grid = w.shape
    ## variables: b (n_rows), t; minimize t with +-(W^T b) <= t
    c = np.zeros(n_rows + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n_grid, n_rows + 1))
    a_ub[:n_grid, :n_rows] = w.T
    a_ub[n_grid:, :n_rows] = -w.T
    a_ub[:, -1] = -1.0
    a_eq = np.zeros((1, n_rows + 1))
    a_eq[0, :n_rows] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * n_grid), A_eq=a_eq,
                  b_eq=[1.0], bounds=[(0, None)] * n_rows + [(None, None)],
                  method="highs")
    assert res.status == 0
    return res.fun


def _all_plus_solve(w, pivot_budget=PIVOT_BUDGET):
    """The plain minimax solve: the all-plus sign pattern alone."""
    return solve_minimax_signed(w, np.ones((1, np.shape(w)[0])), pivot_budget)[0]


def test_hand_oracles():
    ## opposing rows cancel completely
    res = _all_plus_solve(np.array([[1.0], [-1.0]]))
    assert res.value <= 1e-12
    assert res.weights == pytest.approx([0.5, 0.5])
    assert res.status == "optimal" and not res.suboptimal
    ## orthogonal rows: best split halves both coordinates
    res = _all_plus_solve(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert res.value == pytest.approx(0.5)
    assert res.weights == pytest.approx([0.5, 0.5])
    ## identical rows: no cancellation available
    res = _all_plus_solve(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert res.value == pytest.approx(1.0)
    ## single row: the simplex is a point
    res = _all_plus_solve(np.array([[2.0]]))
    assert res.value == pytest.approx(2.0)
    assert res.weights == pytest.approx([1.0])


def test_zero_matrix():
    ## any simplex point is optimal; the contract is value 0 with a
    ## certifying weight vector, not a particular optimizer
    res = _all_plus_solve(np.zeros((3, 5)))
    assert res.value == 0.0
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.status == "optimal"


def test_duplicate_columns_degenerate():
    ## repeated grid columns create degenerate ties; result must still match
    w = np.array([[1.0, 1.0, 1.0, -2.0], [-1.0, -1.0, -1.0, 1.0]])
    res = _all_plus_solve(w)
    oracle = _scipy_minimax(w)
    assert res.value == pytest.approx(oracle, abs=1e-10)
    assert res.status == "optimal"


@pytest.mark.parametrize("seed", range(60))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 7))
    n_grid = int(rng.integers(1, 40))
    w = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=(n_rows, n_grid))
    res = _all_plus_solve(w)
    oracle = _scipy_minimax(w)
    scale = max(1.0, np.max(np.abs(w)))
    assert res.status == "optimal"
    assert res.value <= oracle + 1e-8 * scale  # never worse than the optimum
    assert res.value >= oracle - 1e-8 * scale  # never claims the impossible
    ## returned weights must certify the returned value exactly
    assert res.value == pytest.approx(np.max(np.abs(w.T.dot(res.weights))))
    assert res.weights.min() >= 0.0
    assert res.weights.sum() == pytest.approx(1.0)


def test_pivot_budget_degrades_gracefully():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5, 30))
    res = _all_plus_solve(w, pivot_budget=1)
    assert res.suboptimal is True
    assert res.status == "pivot_budget_exhausted"
    assert res.weights.sum() == pytest.approx(1.0)
    assert res.weights.min() >= 0.0
    ## the certified value is still honest: achieved by the weights, and at
    ## least the true optimum
    assert res.value == pytest.approx(np.max(np.abs(w.T.dot(res.weights))))
    assert res.value >= _scipy_minimax(w) - 1e-10


def test_input_validation():
    with pytest.raises(InputError):
        _all_plus_solve(np.ones(4))
    with pytest.raises(InputError):
        _all_plus_solve(np.zeros((0, 3)))
    bad = np.ones((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(InputError):
        _all_plus_solve(bad)


# ---------------------------------------------------------------------------
# lock-step sign-pattern stacks


@st.composite
def stacks(draw):
    """(values, signs): one shared (K, S) matrix and P rows of +-1 signs.

    The matrix is generic, rank deficient, full of exact ties or zero.
    """
    n_probs = draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 6))
    n_grid = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=(n_rows, n_grid))
    kind = draw(st.sampled_from(["generic", "rank_deficient", "tied", "zero"]))
    if kind == "rank_deficient":
        values[-1] = -0.5 * values[0]
    elif kind == "tied":
        values[:] = rng.integers(-2, 3, values.shape)
    elif kind == "zero":
        values[:] = 0.0
    signs = rng.choice([-1.0, 1.0], size=(n_probs, n_rows))
    return values, signs


def _bits(res):
    return (np.array([res.value, res.objective]).tobytes(), res.weights.tobytes(),
            res.iterations, res.status, res.suboptimal)


def _check_stack(values, signs, results, budget=PIVOT_BUDGET):
    """Each result against HiGHS, its own weights and the same pattern alone."""
    assert len(results) == len(signs)
    for sign, res in zip(signs, results):
        w = sign[:, None] * values
        oracle = _scipy_minimax(w)
        scale = max(1.0, float(np.max(np.abs(w))))
        ## the value is certified by the weights, so it never beats the optimum
        assert res.value >= oracle - 1e-12 * scale
        if res.status == "optimal":
            assert res.value <= oracle + 1e-9 * scale
        assert res.value == np.max(np.abs(w.T.dot(res.weights)))
        assert res.weights.min() >= 0.0
        assert res.weights.sum() == pytest.approx(1.0)
        assert res.iterations <= budget
        alone = solve_minimax_signed(values, sign[None], pivot_budget=budget)[0]
        assert _bits(res) == _bits(alone)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(stacks(), st.integers(0, 40))
def test_batch_equals_batch_of_one(stack, budget):
    ## under the default budget and under one that stops some problems early
    ## and lets others finish: HiGHS's value, and the bits of a stack of one
    values, signs = stack
    for pivot_budget in (PIVOT_BUDGET, budget):
        results = solve_minimax_signed(values, signs, pivot_budget=pivot_budget)
        _check_stack(values, signs, results, pivot_budget)


@PROPERTY_SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_batch_switches_to_bland_per_problem(bland_after, seed):
    ## an early switch makes Bland's rule run on these degenerate stacks,
    ## at a different pivot in each problem
    rng = np.random.default_rng(seed)
    values = rng.integers(-1, 2, (6, 24)).astype(float)
    signs = rng.choice([-1.0, 1.0], size=(8, 6))
    with mock.patch.object(simplex, "BLAND_AFTER_DEGENERATE", bland_after):
        results = solve_minimax_signed(values, signs)
        _check_stack(values, signs, results)


def test_bland_rule_pivot_counts_pinned():
    ## Bland's first improving column from the second pivot on takes its own
    ## path to the optimum, longer than Dantzig's on these degenerate problems
    rng = np.random.default_rng(0)
    values = rng.integers(-1, 2, (6, 24)).astype(float)
    signs = rng.choice([-1.0, 1.0], size=(8, 6))
    with mock.patch.object(simplex, "BLAND_AFTER_DEGENERATE", 1):
        bland = solve_minimax_signed(values, signs)
    assert [res.iterations for res in bland] == [16, 17, 26, 22, 24, 19, 21, 25]
    dantzig = solve_minimax_signed(values, signs)
    assert sum(res.iterations for res in dantzig) < sum(res.iterations for res in bland)


def test_batch_mixes_optimal_and_exhausted():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(5, 30))
    signs = rng.choice([-1.0, 1.0], size=(9, 5))
    pivots = sorted(res.iterations for res in solve_minimax_signed(values, signs))
    budget = pivots[len(pivots) // 2]
    results = solve_minimax_signed(values, signs, pivot_budget=budget)
    assert {res.status for res in results} == {"optimal", "pivot_budget_exhausted"}
    _check_stack(values, signs, results, budget)


def test_all_plus_pattern_is_the_plain_solve():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, 20))
    signs = rng.choice([-1.0, 1.0], size=(6, 4))
    signs[3] = 1.0
    assert _bits(solve_minimax_signed(values, signs)[3]) == \
        _bits(_all_plus_solve(values))


def test_batch_validation():
    assert solve_minimax_signed(np.ones((2, 3)), np.zeros((0, 2))) == []
    with pytest.raises(InputError):
        solve_minimax_signed(np.ones(3), np.ones((1, 3)))
    with pytest.raises(InputError):
        solve_minimax_signed(np.ones((0, 3)), np.ones((1, 0)))
    with pytest.raises(InputError):
        solve_minimax_signed(np.ones((2, 3)), np.ones((1, 3)))  # one sign per row
    with pytest.raises(InputError):
        solve_minimax_signed(np.ones((2, 3)), np.ones(2))
    with pytest.raises(InputError):
        solve_minimax_signed(np.ones((2, 3)), np.array([[1.0, 0.0]]))
    bad = np.ones((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(InputError):
        solve_minimax_signed(bad, np.ones((1, 2)))
