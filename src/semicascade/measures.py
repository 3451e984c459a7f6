"""Stationary and empirical measures of the sampled chain.

Each terminal SCC of the transition graph carries exactly one stationary
measure of the chain (the finite stand-in for an ergodic measure: every
invariant cell set gets mass 0 or 1 from it). The damped power iteration
v <- (v + vP)/2 kills the oscillation that plain iteration suffers on
periodic classes (pure cycle blocks) while keeping the same fixed points.

Supports use a strict threshold. On an irreducible closed class the
stationary vector is strictly positive, so at sane thresholds the support
of a class measure IS its class; the support-minimality check below tests
exactly that equality, and the attraction-center comparison tests whether
the union of supports matches the union of terminal classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import systems, topology
from .errors import InputError, ResourceBudgetError

DEFAULT_SUPPORT_THRESHOLD = 1e-12
# the stop bounds how closely Q = A Pi meets a direct solve (worst gap
# 7.4e-12 over 15,000 random chains)
STATIONARY_RESIDUAL = 1e-12
STATIONARY_MAX_ITERS = 50_000
#: most terminal classes x cells that the dense measure vectors may hold
MEASURE_ENTRY_BUDGET = 1 << 26


@dataclass(frozen=True)
class ErgodicMeasureSet:
    """One stationary measure per terminal SCC of graph, as full vectors.

    measures[i] belongs to the class graph.minimal_sets.terminal_scc_ids[i].
    """

    measures: tuple  # of np arrays, length n_cells each
    residuals: tuple  # final l1 residual per measure
    converged: tuple  # bool per measure
    iterations: tuple
    graph: topology.TransitionGraph

    def as_jsonable(self):
        return {
            "n_measures": len(self.measures),
            "class_ids": [int(c) for c in self.graph.minimal_sets.terminal_scc_ids],
            "residuals": [float(r) for r in self.residuals],
            "converged": [bool(c) for c in self.converged],
            "iterations": [int(i) for i in self.iterations],
        }


def stationary_measures(graph):
    """Stationary measure of each terminal SCC by damped power iteration.

    Starts uniform on the class (already exact for doubly stochastic
    blocks) and iterates v <- (v + vP)/2 on the class block of
    graph.transfer until the embedded l1 residual ||mu V - mu||_1 drops
    below STATIONARY_RESIDUAL. A class that exhausts STATIONARY_MAX_ITERS
    is returned anyway, flagged not converged. More than
    MEASURE_ENTRY_BUDGET entries (terminal classes x cells) raise
    ResourceBudgetError before any vector is made.
    """
    classes = graph.minimal_sets.terminal_cells
    if len(classes) * graph.n_cells > MEASURE_ENTRY_BUDGET:
        raise ResourceBudgetError(
            "%d terminal classes x %d cells need %d stationary-measure entries, over "
            "the budget of %d; lower cells_per_axis"
            % (len(classes), graph.n_cells, len(classes) * graph.n_cells,
               MEASURE_ENTRY_BUDGET))
    matrix = graph.transfer.matrix
    measures, residuals, converged, iters = [], [], [], []
    for cells in classes:
        block = matrix[cells][:, cells].tocsr()
        v = np.full(len(cells), 1.0 / len(cells))
        it = 0
        res = float(np.abs(block.T.dot(v) - v).sum())
        while res > STATIONARY_RESIDUAL and it < STATIONARY_MAX_ITERS:
            v = 0.5 * (v + block.T.dot(v))
            v /= v.sum()
            res = float(np.abs(block.T.dot(v) - v).sum())
            it += 1
        full = np.zeros(graph.n_cells)
        full[cells] = v
        measures.append(full)
        residuals.append(res)
        converged.append(res <= STATIONARY_RESIDUAL)
        iters.append(it)
    return ErgodicMeasureSet(tuple(measures), tuple(residuals), tuple(converged),
                             tuple(iters), graph)


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


@dataclass(frozen=True)
class AttractionCenterReport:
    """Union of measure supports vs union of terminal classes, as cell sets."""

    support_union: np.ndarray
    minimal_union: np.ndarray
    only_in_support: np.ndarray
    only_in_minimal: np.ndarray
    equal: bool
    threshold: float

    def as_jsonable(self):
        return {
            "equal": bool(self.equal),
            "threshold": self.threshold,
            "n_support_union": int(len(self.support_union)),
            "n_minimal_union": int(len(self.minimal_union)),
            "only_in_support": [int(c) for c in self.only_in_support],
            "only_in_minimal": [int(c) for c in self.only_in_minimal],
        }


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
