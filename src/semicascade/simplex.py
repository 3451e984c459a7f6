"""Dense simplex solver for minimax problems over the probability simplex.

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
At optimality the primal weights are read off the reduced costs of the h
columns and the defect from the reduced cost of g.

Pivoting is Dantzig's rule, switching permanently to Bland's rule after a
run of degenerate steps (the zero right-hand sides of the h rows invite
cycling). A pivot budget turns pathological instances into a flagged
suboptimal result instead of a hang.

The pivot loop runs a stack of same-shape problems in lock step
(solve_minimax_batch): each problem keeps its own entering and leaving
choice, degenerate-run counter, Bland switch and pivot count, and drops
out of the stack when it stops. Every step is the same elementwise
arithmetic a lone solve would do, so a problem's result does not depend
on the stack it was solved in; solve_minimax_on_simplex is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

PIVOT_BUDGET = 20_000
BLAND_AFTER_DEGENERATE = 50
REDCOST_TOL = 1e-11
RATIO_TOL = 1e-12


@dataclass(frozen=True)
class SimplexResult:
    value: float  # certified max_s |(W^T b)_s| at the returned b
    weights: np.ndarray  # b on the probability simplex
    objective: float  # LP optimum z (equals value up to solver tolerance)
    iterations: int
    status: str  # optimal | pivot_budget_exhausted | unbounded
    suboptimal: bool


def solve_minimax_on_simplex(w, pivot_budget=PIVOT_BUDGET):
    """Minimize max_s |(W^T b)_s| over the probability simplex in b."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise InputError("need a (K, S) value matrix with K, S >= 1")
    return solve_minimax_batch(w[None], pivot_budget)[0]


def solve_minimax_batch(ws, pivot_budget=PIVOT_BUDGET):
    """Solve a (P, K, S) stack of minimax problems in lock step.

    Returns a list of P SimplexResults, in stack order, each equal to what
    solve_minimax_on_simplex returns for that problem alone.
    """
    ws = np.asarray(ws, dtype=np.float64)
    if ws.ndim != 3 or ws.shape[1] < 1 or ws.shape[2] < 1:
        raise InputError("need a (P, K, S) stack of value matrices with K, S >= 1")
    if not np.all(np.isfinite(ws)):
        raise InputError("value matrix must be finite")
    n_probs, n_rows, n_grid = ws.shape
    tol = REDCOST_TOL * np.maximum(1.0, np.abs(ws).max(axis=(1, 2), initial=0.0))

    # columns: u (n_grid) | v (n_grid) | z | h (n_rows) | g
    z_col = 2 * n_grid
    h_cols = z_col + 1
    g_col = h_cols + n_rows
    n_cols = g_col + 1
    tab = np.zeros((n_probs, n_rows + 1, n_cols + 1))
    np.negative(ws, out=tab[:, :n_rows, :n_grid])
    tab[:, :n_rows, n_grid:z_col] = ws
    tab[:, :n_rows, z_col] = 1.0
    tab[:, np.arange(n_rows), np.arange(h_cols, g_col)] = 1.0
    tab[:, n_rows, :z_col] = 1.0
    tab[:, n_rows, g_col] = 1.0
    tab[:, n_rows, -1] = 1.0
    update = np.empty_like(tab)  # rank-one update, written in place

    red = np.zeros((n_probs, n_cols))  # reduced costs; objective is min -z
    red[:, z_col] = -1.0
    obj_value = np.zeros(n_probs)
    basis = np.tile(np.arange(h_cols, n_cols), (n_probs, 1))
    degenerate_run = np.zeros(n_probs, dtype=np.int64)
    use_bland = np.zeros(n_probs, dtype=bool)
    # stack index of each problem still pivoting; each has made iters pivots
    live = np.arange(n_probs)

    results = [None] * n_probs
    iters = 0
    while live.size:
        negatives = red < -tol[:, None]
        improvable = negatives.any(axis=1)
        exhausted = iters >= pivot_budget
        # Dantzig's most negative reduced cost is the row minimum
        enter = np.where(use_bland, negatives.argmax(axis=1), red.argmin(axis=1))
        at = np.arange(live.size)
        col = tab[at, :, enter]
        pos = col > RATIO_TOL
        stop = ~improvable | exhausted | ~pos.any(axis=1)
        for j in np.flatnonzero(stop):
            if not improvable[j]:
                status = "optimal"
            elif exhausted:
                status = "pivot_budget_exhausted"
            else:
                status = "unbounded"
            results[live[j]] = _result(ws[live[j]], red[j, h_cols:g_col],
                                       obj_value[j], iters, status)
        if stop.any():
            keep = np.flatnonzero(~stop)
            for dest, src in enumerate(keep):  # slide survivors down in place
                if dest != src:
                    tab[dest] = tab[src]
            tab = tab[:keep.size]
            live, red, obj_value, basis = (live[keep], red[keep], obj_value[keep],
                                           basis[keep])
            degenerate_run, use_bland, tol = (degenerate_run[keep],
                                              use_bland[keep], tol[keep])
            enter, col, pos = enter[keep], col[keep], pos[keep]
            at = np.arange(live.size)
        if not live.size:
            break
        ratios = np.divide(tab[:, :, -1], col, out=np.full(col.shape, np.inf),
                           where=pos)
        best = ratios.min(axis=1)
        tied = ratios <= (best + RATIO_TOL)[:, None]
        # leaving choice by smallest basic index breaks degenerate ties
        leave = np.where(tied, basis, n_cols).argmin(axis=1)
        degenerate_run = np.where(best <= RATIO_TOL, degenerate_run + 1, 0)
        use_bland |= degenerate_run >= BLAND_AFTER_DEGENERATE
        row = tab[at, leave] / col[at, leave][:, None]
        tab[at, leave] = row
        factors = col  # the entering column, except the finished pivot row
        factors[at, leave] = 0.0
        step = update[:live.size]
        np.einsum("pi,pj->pij", factors, row, out=step)
        tab -= step
        red_enter = red[at, enter]
        obj_value += red_enter * row[:, -1]
        red -= red_enter[:, None] * row[:, :-1]
        red[at, enter] = 0.0
        basis[at, leave] = enter
        iters += 1
    return results


def _result(w, red_h, obj_value, iters, status):
    """Primal weights and certified value of one stopped problem."""
    n_rows = w.shape[0]
    weights = np.maximum(red_h, 0.0)
    total = weights.sum()
    if total <= 0.0:
        # defect-zero corner where no h column ever left the basis
        weights = np.full(n_rows, 1.0 / n_rows)
    else:
        weights = weights / total
    value = float(np.max(np.abs(w.T.dot(weights))))
    return SimplexResult(value, weights, float(-obj_value), iters, status,
                         status != "optimal")
