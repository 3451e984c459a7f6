"""Stationary and empirical measures of the sampled chain.

Each terminal SCC of the transition graph carries exactly one stationary
measure of the chain (the finite stand-in for an ergodic measure: every
invariant cell set gets mass 0 or 1 from it). The damped power iteration
v <- (v + vP)/2 kills the oscillation that plain iteration suffers on
periodic classes (pure cycle blocks) while keeping the same fixed points.
The first product vP of each class is ulam.left_product over the class's
rows; scipy.sparse is imported only for a class that must iterate, whose
loop runs scipy's sparse product.

Supports use a strict threshold. On an irreducible closed class the
stationary vector is strictly positive, so at sane thresholds the support
of a class measure IS its class; the support-minimality check below tests
exactly that equality, and the attraction-center comparison tests whether
the union of supports matches the union of terminal classes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import systems, topology, ulam
from .errors import InputError, check_budget

DEFAULT_SUPPORT_THRESHOLD = 1e-12
# the stop bounds how closely Q = A Pi meets a direct solve (worst gap
# 7.4e-12 over 15,000 random chains)
STATIONARY_RESIDUAL = 1e-12
STATIONARY_MAX_ITERS = 50_000


class ErgodicMeasureSet(NamedTuple):
    """One stationary measure per terminal SCC of graph, as full vectors.

    measures[i] belongs to the class graph.minimal_sets.terminal_scc_ids[i].
    """

    measures: tuple  # of np arrays, length n_cells each
    residuals: tuple  # final l1 residual per measure
    converged: tuple  # bool per measure
    iterations: tuple
    graph: topology.TransitionGraph


def stationary_measures(graph):
    """Stationary measure of each terminal SCC by damped power iteration.

    Starts uniform on the class (already exact for doubly stochastic
    blocks) and iterates v <- (v + vP)/2 on the class block of
    graph.transfer until the embedded l1 residual ||mu V - mu||_1 drops
    below STATIONARY_RESIDUAL. A class that exhausts STATIONARY_MAX_ITERS
    is returned anyway, flagged not converged. More entries (terminal
    classes x cells) than errors.BUDGETS["measures"] allows raise
    ResourceBudgetError before any vector is made.
    """
    classes = graph.minimal_sets.terminal_cells
    entries = len(classes) * graph.n_cells
    check_budget("measures", entries, len(classes), graph.n_cells, entries)
    tm = graph.transfer
    measures, residuals, converged, iters = [], [], [], []
    for cells in classes:
        ptr, cols, weights = _class_block(tm, cells)
        v = np.full(len(cells), 1.0 / len(cells))
        it = 0
        # w = vP serves the residual of v and then the step from v
        w = ulam.left_product(ptr, cols, weights, v.shape)(v)
        res = float(np.abs(w - v).sum())
        if res > STATIONARY_RESIDUAL:
            import scipy.sparse as sp

            ## column j of P^T holds row j of P
            p_t = sp.csc_matrix((weights, cols, ptr), shape=(len(cells), len(cells)))
            while res > STATIONARY_RESIDUAL and it < STATIONARY_MAX_ITERS:
                v = 0.5 * (v + w)
                v /= v.sum()
                w = p_t.dot(v)
                res = float(np.abs(w - v).sum())
                it += 1
        full = np.zeros(graph.n_cells)
        full[cells] = v
        measures.append(full)
        residuals.append(res)
        converged.append(res <= STATIONARY_RESIDUAL)
        iters.append(it)
    return ErgodicMeasureSet(tuple(measures), tuple(residuals), tuple(converged),
                             tuple(iters), graph)


def _class_block(tm, cells):
    """The block P of a terminal class as CSR arrays (ptr, cols, weights).

    A terminal class has no edge out, so the stored entries of its rows, in
    order, are the block's, each column renumbered by its place in cells.
    """
    counts = tm.indptr[cells + 1] - tm.indptr[cells]
    ptr = np.zeros(len(cells) + 1, dtype=tm.indptr.dtype)
    np.cumsum(counts, out=ptr[1:])
    entries = np.arange(ptr[-1]) + np.repeat(tm.indptr[cells] - ptr[:-1], counts)
    place = np.empty(tm.n_cells, dtype=tm.indices.dtype)
    place[cells] = np.arange(len(cells))
    return ptr, place[tm.indices[entries]], tm.data[entries]


def birkhoff_measure(spec, point, n, partition):
    """Empirical cell distribution of the first n orbit points.

    Exact rational points with an exact-arithmetic family follow the
    exact orbit (cells assigned from exact coordinates); everything else
    runs the float orbit.
    """
    if n < 1:
        raise InputError("need n >= 1")
    if isinstance(point, systems.RationalPoint):
        orbit_pts = systems.exact_orbit(spec, point, n - 1)
        cells = np.asarray([partition.cell_of_rational(rp) for rp in orbit_pts])
    else:
        orbit_pts = systems.orbit(spec, point, n - 1)
        cells = partition.cell_of_points(orbit_pts)
    weights = np.bincount(cells, minlength=partition.n_cells).astype(np.float64)
    return weights / n


def support(mu, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Cells with weight strictly above the threshold."""
    if threshold < 0:
        raise InputError("threshold must be >= 0")
    return np.flatnonzero(np.asarray(mu) > threshold)


def support_minimality_check(measure_set, threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Per measure: does its support equal its own terminal class exactly?"""
    return [np.array_equal(support(mu, threshold), cells) for mu, cells
            in zip(measure_set.measures, measure_set.graph.minimal_sets.terminal_cells)]


class AttractionCenterReport(NamedTuple):
    """Union of measure supports vs union of terminal classes, as cell sets."""

    support_union: np.ndarray
    minimal_union: np.ndarray
    only_in_support: np.ndarray
    only_in_minimal: np.ndarray
    equal: bool
    threshold: float


def attraction_center_vs_minimal_union(measure_set,
                                       threshold=DEFAULT_SUPPORT_THRESHOLD):
    """Compare union of stationary supports with union of terminal classes."""
    ## boolean cell masks: np.unique's sort added 0.35 MB to a 16k-cell run's peak RSS
    in_z = np.zeros(measure_set.graph.n_cells, dtype=bool)
    in_m = np.zeros_like(in_z)
    for mu in measure_set.measures:
        in_z[support(mu, threshold)] = True
    for cells in measure_set.graph.minimal_sets.terminal_cells:
        in_m[cells] = True
    return AttractionCenterReport(np.flatnonzero(in_z), np.flatnonzero(in_m),
                                  np.flatnonzero(in_z & ~in_m), np.flatnonzero(in_m & ~in_z),
                                  np.array_equal(in_z, in_m), float(threshold))
