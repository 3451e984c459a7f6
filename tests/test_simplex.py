"""Minimax-on-simplex solver against hand oracles, scipy's LP and a serial reference."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from semicascade import simplex
from semicascade.errors import InputError
from semicascade.simplex import (BLAND_AFTER_DEGENERATE, PIVOT_BUDGET, RATIO_TOL,
                                 REDCOST_TOL, SimplexResult, solve_minimax_batch,
                                 solve_minimax_on_simplex)


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


def test_hand_oracles():
    ## opposing rows cancel completely
    res = solve_minimax_on_simplex(np.array([[1.0], [-1.0]]))
    assert res.value <= 1e-12
    assert res.weights == pytest.approx([0.5, 0.5])
    assert res.status == "optimal" and not res.suboptimal
    ## orthogonal rows: best split halves both coordinates
    res = solve_minimax_on_simplex(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert res.value == pytest.approx(0.5)
    assert res.weights == pytest.approx([0.5, 0.5])
    ## identical rows: no cancellation available
    res = solve_minimax_on_simplex(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert res.value == pytest.approx(1.0)
    ## single row: the simplex is a point
    res = solve_minimax_on_simplex(np.array([[2.0]]))
    assert res.value == pytest.approx(2.0)
    assert res.weights == pytest.approx([1.0])


def test_zero_matrix():
    ## any simplex point is optimal; the contract is value 0 with a
    ## certifying weight vector, not a particular optimizer
    res = solve_minimax_on_simplex(np.zeros((3, 5)))
    assert res.value == 0.0
    assert np.all(res.weights >= 0.0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.status == "optimal"


def test_duplicate_columns_degenerate():
    ## repeated grid columns create degenerate ties; result must still match
    w = np.array([[1.0, 1.0, 1.0, -2.0], [-1.0, -1.0, -1.0, 1.0]])
    res = solve_minimax_on_simplex(w)
    oracle = _scipy_minimax(w)
    assert res.value == pytest.approx(oracle, abs=1e-10)
    assert res.status == "optimal"


@pytest.mark.parametrize("seed", range(60))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 7))
    n_grid = int(rng.integers(1, 40))
    w = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=(n_rows, n_grid))
    res = solve_minimax_on_simplex(w)
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
    res = solve_minimax_on_simplex(w, pivot_budget=1)
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
        solve_minimax_on_simplex(np.ones(4))
    with pytest.raises(InputError):
        solve_minimax_on_simplex(np.zeros((0, 3)))
    bad = np.ones((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(InputError):
        solve_minimax_on_simplex(bad)


# ---------------------------------------------------------------------------
# lock-step batches


@st.composite
def stacks(draw):
    """(P, K, S) stacks mixing generic, rank-deficient, tied and zero problems."""
    n_probs = draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 6))
    n_grid = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ws = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=(n_probs, n_rows, n_grid))
    for w, kind in zip(ws, rng.integers(0, 4, n_probs)):
        if kind == 1:
            w[-1] = -0.5 * w[0]  # rank deficient
        elif kind == 2:
            w[:] = rng.integers(-2, 3, w.shape)  # many exact ties
        elif kind == 3:
            w[:] = 0.0
    return ws


def _serial_reference(w, pivot_budget=PIVOT_BUDGET, bland_after=BLAND_AFTER_DEGENERATE):
    """One problem pivoted alone, a tableau copy at a time (the pre-batch solver)."""
    n_rows, n_grid = w.shape
    tol = REDCOST_TOL * max(1.0, float(np.max(np.abs(w))))
    z_col = 2 * n_grid
    h_cols = z_col + 1
    g_col = h_cols + n_rows
    n_cols = g_col + 1
    tab = np.zeros((n_rows + 1, n_cols + 1))
    tab[:n_rows, :n_grid] = -w
    tab[:n_rows, n_grid:z_col] = w
    tab[:n_rows, z_col] = 1.0
    tab[:n_rows, h_cols:g_col] = np.eye(n_rows)
    tab[n_rows, :z_col] = 1.0
    tab[n_rows, g_col] = 1.0
    tab[n_rows, -1] = 1.0
    red = np.zeros(n_cols)
    red[z_col] = -1.0
    obj_value = 0.0
    basis = list(range(h_cols, g_col)) + [g_col]
    iters, degenerate_run, use_bland, status = 0, 0, False, "optimal"
    while True:
        negatives = np.flatnonzero(red < -tol)
        if negatives.size == 0:
            break
        if iters >= pivot_budget:
            status = "pivot_budget_exhausted"
            break
        if use_bland:
            enter = int(negatives[0])
        else:
            enter = int(negatives[np.argmin(red[negatives])])
        col = tab[:, enter]
        pos = np.flatnonzero(col > RATIO_TOL)
        if pos.size == 0:
            status = "unbounded"
            break
        ratios = tab[pos, -1] / col[pos]
        best = np.min(ratios)
        tied = pos[ratios <= best + RATIO_TOL]
        leave = int(tied[np.argmin([basis[i] for i in tied])])
        if best <= RATIO_TOL:
            degenerate_run += 1
            if degenerate_run >= bland_after:
                use_bland = True
        else:
            degenerate_run = 0
        tab[leave] /= tab[leave, enter]
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, tab[leave])
        obj_value += red[enter] * tab[leave, -1]
        red = red - red[enter] * tab[leave, :-1]
        red[enter] = 0.0
        basis[leave] = enter
        iters += 1
    weights = np.maximum(red[h_cols:g_col], 0.0)
    total = weights.sum()
    weights = np.full(n_rows, 1.0 / n_rows) if total <= 0.0 else weights / total
    value = float(np.max(np.abs(w.T.dot(weights))))
    return SimplexResult(value, weights, float(-obj_value), iters, status,
                         status != "optimal")


def _bits(res):
    return (np.array([res.value, res.objective]).tobytes(), res.weights.tobytes(),
            res.iterations, res.status, res.suboptimal)


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(stacks(), st.integers(0, 40))
def test_batch_equals_batch_of_one(ws, budget):
    ## bit for bit, under the default budget and under one that stops some
    ## problems early and lets others finish
    for kwargs in ({}, {"pivot_budget": budget}):
        batch = solve_minimax_batch(ws, **kwargs)
        assert len(batch) == len(ws)
        for w, res in zip(ws, batch):
            assert _bits(res) == _bits(solve_minimax_on_simplex(w, **kwargs))
            assert _bits(res) == _bits(_serial_reference(w, **kwargs))


@PROPERTY_SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_batch_switches_to_bland_per_problem(bland_after, seed):
    ## an early switch makes Bland's rule run on these degenerate stacks,
    ## at a different pivot in each problem
    ws = np.random.default_rng(seed).integers(-1, 2, (8, 6, 24)).astype(float)
    with mock.patch.object(simplex, "BLAND_AFTER_DEGENERATE", bland_after):
        batch = solve_minimax_batch(ws)
    for w, res in zip(ws, batch):
        assert _bits(res) == _bits(_serial_reference(w, bland_after=bland_after))


def test_batch_mixes_optimal_and_exhausted():
    rng = np.random.default_rng(11)
    ws = rng.normal(size=(9, 5, 30))
    pivots = sorted(solve_minimax_on_simplex(w).iterations for w in ws)
    budget = pivots[len(pivots) // 2]
    batch = solve_minimax_batch(ws, pivot_budget=budget)
    assert {res.status for res in batch} == {"optimal", "pivot_budget_exhausted"}
    for w, res in zip(ws, batch):
        assert _bits(res) == _bits(solve_minimax_on_simplex(w, pivot_budget=budget))
        assert res.iterations <= budget


def test_batch_validation():
    assert solve_minimax_batch(np.zeros((0, 2, 3))) == []
    with pytest.raises(InputError):
        solve_minimax_batch(np.ones((2, 3)))
    with pytest.raises(InputError):
        solve_minimax_batch(np.ones((2, 0, 3)))
    bad = np.ones((3, 2, 2))
    bad[2, 0, 1] = np.inf
    with pytest.raises(InputError):
        solve_minimax_batch(bad)
