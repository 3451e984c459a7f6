"""Revised simplex solver for minimax problems over the probability simplex.

Solves min over b in the simplex (b >= 0, sum b = 1) of max_s |(W^T b)_s|
for a K x S value matrix W, the inner subproblem of the cancellation
defect. The solve runs on the dual program, which has only K+1 rows no
matter how many grid constraints S there are:

    max z  s.t.  W_k (u - v) >= z (k = 1..K),  sum(u) + sum(v) <= 1,
                 u, v, z >= 0

(the normalization may be relaxed to an inequality: any slack would be
rescaled away at a positive optimum). Column layout u | v | z | h | g with
slacks h_k for the K rows and g for the normalization gives the identity
basis {h, g} as an immediately feasible start, so no phase-1 is needed.
At optimality the primal weights are read off the duals of the h rows
and the defect from the objective.

The solver is the revised simplex (Dantzig & Orchard-Hays, MTAC 8, 1954):
each problem carries only its (K+1) x (K+1) basis inverse, the basic
values, the basic column indices and their costs. A pivot prices the 2S
grid columns from the duals pi = c_B B^-1 in one product d = pi_K W, so
the reduced cost of u_s is d_s - pi_g and that of v_s is -d_s - pi_g, and
ends with a rank-one update of the inverse and the basic values.

Pivoting is Dantzig's rule, switching permanently to Bland's rule after a
run of degenerate steps (the zero right-hand sides of the h rows invite
cycling). A pivot budget turns pathological instances into a flagged
suboptimal result instead of a hang.

solve_minimax_signed runs the 2^(K-1) sign patterns of the cancellation
defect in lock step. The patterns share one W and differ only by row
signs sigma, so pattern p prices against (pi_K * sigma_p) W and no signed
copy of W is ever built. Each problem keeps its own entering and leaving
choice, degenerate-run counter, Bland switch and pivot count, and drops
out of the stack when it stops. Every product is an np.einsum, whose
per-problem summation order does not depend on the stack size (a BLAS
matmul's does), so a problem's result is the same bits in any stack.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError

PIVOT_BUDGET = 20_000
BLAND_AFTER_DEGENERATE = 50
REDCOST_TOL = 1e-11
RATIO_TOL = 1e-12


class SimplexResult(NamedTuple):
    value: float  # certified max_s |(W^T b)_s| at the returned b
    weights: np.ndarray  # b on the probability simplex
    objective: float  # LP optimum z (equals value up to solver tolerance)
    iterations: int
    status: str  # optimal | pivot_budget_exhausted | unbounded
    suboptimal: bool


def solve_minimax_signed(values, signs, pivot_budget=PIVOT_BUDGET):
    """Solve the minimax problems of sign * values for each row of signs.

    values is a (K, S) matrix and signs a (P, K) matrix of +-1. Returns a
    list of P SimplexResults, in row order; problem p is W = signs[p, :,
    None] * values, and its result does not depend on the other rows.
    """
    values = np.asarray(values, dtype=np.float64)
    signs = np.asarray(signs, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
        raise InputError("need a (K, S) value matrix with K, S >= 1")
    if not np.all(np.isfinite(values)):
        raise InputError("value matrix must be finite")
    n_rows, n_grid = values.shape
    if signs.ndim != 2 or signs.shape[1] != n_rows or not np.all(np.abs(signs) == 1.0):
        raise InputError("need a (P, %d) matrix of +-1 row signs" % n_rows)
    n_probs = signs.shape[0]
    tol = REDCOST_TOL * max(1.0, float(np.abs(values).max()))

    # columns: u (n_grid) | v (n_grid) | z | h (n_rows) | g
    z_col = 2 * n_grid
    h_cols = z_col + 1
    g_col = h_cols + n_rows
    n_cols = g_col + 1
    inverse = np.tile(np.eye(n_rows + 1), (n_probs, 1, 1))  # B^-1
    x_basic = np.zeros((n_probs, n_rows + 1))
    x_basic[:, n_rows] = 1.0
    basis = np.tile(np.arange(h_cols, n_cols), (n_probs, 1))
    c_basic = np.zeros((n_probs, n_rows + 1))  # the objective is min -z
    obj_value = np.zeros(n_probs)
    degenerate_run = np.zeros(n_probs, dtype=np.int64)
    use_bland = np.zeros(n_probs, dtype=bool)
    # stack index of each problem still pivoting; each has made iters pivots
    live = np.arange(n_probs)
    # the (P, S) prices, written in place every pivot: the allocator may map
    # and fault in a fresh array of this size anew on each pivot
    prices = np.empty((n_probs, n_grid))

    results = [None] * n_probs
    iters = 0
    while live.size:
        at = np.arange(live.size)
        duals = np.einsum("pi,pij->pj", c_basic, inverse)
        pi_h, pi_g = duals[:, :n_rows], duals[:, n_rows]
        d = np.einsum("pk,ks->ps", pi_h * signs, values, out=prices[:live.size])
        # the most negative reduced cost of each block, in column order
        u_best, v_best = d.argmin(axis=1), d.argmax(axis=1)
        h_best = pi_h.argmax(axis=1)
        block_red = np.stack([d[at, u_best] - pi_g, -d[at, v_best] - pi_g,
                              -1.0 - pi_h.sum(axis=1), -pi_h[at, h_best], -pi_g],
                             axis=1)
        block = block_red.argmin(axis=1)
        red_enter = block_red[at, block]
        enter = np.choose(block, [u_best, n_grid + v_best, z_col, h_cols + h_best,
                                  g_col])
        improvable = red_enter < -tol
        bland = np.flatnonzero(use_bland & improvable)
        if bland.size:
            # Bland's rule takes the first improving column: build whole rows
            red = np.concatenate([d[bland] - pi_g[bland, None],
                                  -d[bland] - pi_g[bland, None],
                                  (-1.0 - pi_h[bland].sum(axis=1))[:, None],
                                  -pi_h[bland], -pi_g[bland, None]], axis=1)
            enter[bland] = (red < -tol).argmax(axis=1)
            red_enter[bland] = red[np.arange(bland.size), enter[bland]]

        # entering column a_j of each problem, then B^-1 a_j
        entering = np.zeros((live.size, n_rows + 1))
        grid = np.flatnonzero(enter < z_col)
        s = enter[grid] % n_grid
        sign = np.where(enter[grid] < n_grid, -1.0, 1.0)
        entering[grid, :n_rows] = (sign[:, None] * signs[grid]) * values.T[s]
        entering[grid, n_rows] = 1.0
        entering[enter == z_col, :n_rows] = 1.0
        slack = np.flatnonzero(enter > z_col)
        entering[slack, enter[slack] - h_cols] = 1.0
        col = np.einsum("pij,pj->pi", inverse, entering)
        pos = col > RATIO_TOL

        exhausted = iters >= pivot_budget
        stop = ~improvable | exhausted | ~pos.any(axis=1)
        for j in np.flatnonzero(stop):
            if not improvable[j]:
                status = "optimal"
            elif exhausted:
                status = "pivot_budget_exhausted"
            else:
                status = "unbounded"
            results[live[j]] = _result(values, signs[j], -pi_h[j], obj_value[j],
                                       iters, status)
        if stop.any():
            keep = np.flatnonzero(~stop)
            live, signs, inverse, x_basic = (live[keep], signs[keep], inverse[keep],
                                             x_basic[keep])
            basis, c_basic, obj_value = basis[keep], c_basic[keep], obj_value[keep]
            degenerate_run, use_bland = degenerate_run[keep], use_bland[keep]
            enter, red_enter, col, pos = (enter[keep], red_enter[keep], col[keep],
                                          pos[keep])
            at = np.arange(live.size)
        if not live.size:
            break
        ratios = np.divide(x_basic, col, out=np.full(col.shape, np.inf), where=pos)
        best = ratios.min(axis=1)
        tied = ratios <= (best + RATIO_TOL)[:, None]
        # leaving choice by smallest basic index breaks degenerate ties
        leave = np.where(tied, basis, n_cols).argmin(axis=1)
        degenerate_run = np.where(best <= RATIO_TOL, degenerate_run + 1, 0)
        use_bland |= degenerate_run >= BLAND_AFTER_DEGENERATE
        pivot = col[at, leave]
        row = inverse[at, leave] / pivot[:, None]
        step = x_basic[at, leave] / pivot
        factors = col  # the entering column, except the finished pivot row
        factors[at, leave] = 0.0
        inverse -= np.einsum("pi,pj->pij", factors, row)
        inverse[at, leave] = row
        x_basic -= factors * step[:, None]
        x_basic[at, leave] = step
        obj_value += red_enter * step
        basis[at, leave] = enter
        c_basic[at, leave] = np.where(enter == z_col, -1.0, 0.0)
        iters += 1
    return results


def _result(values, sigma, red_h, obj_value, iters, status):
    """Primal weights and certified value of one stopped problem."""
    n_rows = values.shape[0]
    weights = np.maximum(red_h, 0.0)
    total = weights.sum()
    if total <= 0.0:
        # defect-zero corner where no h column ever left the basis
        weights = np.full(n_rows, 1.0 / n_rows)
    else:
        weights = weights / total
    value = float(np.max(np.abs(values.T.dot(sigma * weights))))
    return SimplexResult(value, weights, float(-obj_value), iters, status,
                         status != "optimal")
