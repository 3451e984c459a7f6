"""Ergodic averaging schedules and weak-star convergence diagnostics.

A schedule is a finite convex combination of transfer-operator powers,
held as runs (start, stop, weight) of constant weight. Every sum
sum_p w_p mu V^p here is a reduction over one ulam.walk that keeps one
running sum of mu V^p per distinct run start (one for a whole Cesaro
ladder); a run that stops adds weight x sum into its row, so each row is
the sequential sum of its own powers. The ergodicity defect T(I - V) mu
needs no second walk: it regroups as sum_p (w_p - w_{p-1}) mu V^p, one
single-power run per weight change, and for Cesaro length n it is
(mu - mu V^n)/n.

Weak-star comparisons pair measures against a fixed finite bank of test
functions sampled at cell centers, so "distance" always means: max
absolute pairing difference over the bank.

Two convergence routes exist on purpose. The matrix route diagnoses the
sampled chain, whose averages always settle (finite stochastic matrices
have convergent Cesaro means), so it can only ever certify convergence at
a resolution. The exact-orbit route evaluates window averages of a test
function along an exact rational orbit (binary arithmetic for the
doubling map) and is the only honest way to exhibit non-convergence for
expanding maps; see exact_orbit_diagnostic.

Per-point limits take no walk: the limit of a point mass in cell c is row
c of the Kemeny-Snell projection Q = A Pi, kept factored in a KernelEstimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures, systems, topology, ulam
from .errors import CapabilityError, InputError

DEFAULT_TOL = 1e-2
## schedules whose telescoping bound exceeds this are too far from ergodic
## for a Cauchy test to mean anything (a single power has bound 2)
ERGODICITY_GATE = 0.25


@dataclass(frozen=True)
class ErgodicSchedule:
    """Convex combination of powers: weight * V^p for p = start..stop-1 of each run.

    runs is a tuple of (start, stop, weight) triples, increasing and disjoint.
    """

    runs: tuple

    def __post_init__(self):
        if not self.runs or self.runs[0][0] < 0 or any(b <= a for a, b, _ in self.runs) \
                or any(b > a for (_, b, _), (a, _, _) in zip(self.runs, self.runs[1:])):
            raise InputError("schedule needs nonempty runs of powers >= 0, "
                             "increasing and disjoint")
        if any(w < 0 for _, _, w in self.runs):
            raise InputError("weights must be nonnegative")
        if abs(math.fsum((b - a) * w for a, b, w in self.runs) - 1.0) > 1e-12:
            raise InputError("weights must sum to 1 within 1e-12")

    @property
    def max_power(self):
        return self.runs[-1][1] - 1

    @property
    def powers(self):
        """Every power the schedule weights, in order (built from the runs)."""
        return tuple(p for a, b, _ in self.runs for p in range(a, b))

    @property
    def weights(self):
        """The weight of each power in powers (built from the runs)."""
        return tuple(w for a, b, w in self.runs for _ in range(a, b))

    def label(self):
        if len(self.runs) == 1:
            (a, b, _), = self.runs
            return "cesaro_%d" % b if a == 0 else "window_%d_%d" % (a, b - a)
        return "schedule_%d_terms" % sum(b - a for a, b, _ in self.runs)


def cesaro_schedule(n):
    """Powers 0..n-1, each weight 1/n."""
    if n < 1:
        raise InputError("cesaro length must be >= 1")
    return ErgodicSchedule(((0, n, 1.0 / n),))


def cesaro_ladder(lengths):
    """cesaro_schedule(n) for each n, the schedules of one convergence diagnostic."""
    if not lengths:
        raise InputError("cesaro ladder needs at least one length")
    return [cesaro_schedule(n) for n in lengths]


def window_schedule(start, length):
    """Powers start..start+length-1, each weight 1/length."""
    if length < 1:
        raise InputError("window length must be >= 1")
    if start < 0:
        raise InputError("window start must be >= 0")
    return ErgodicSchedule(((start, start + length, 1.0 / length),))


def _telescoped(runs):
    """Runs of T(I-V) = sum_p (w(p) - w(p-1)) V^p: one single power per weight change."""
    steps = {}
    for a, b, w in runs:
        steps[a] = steps.get(a, 0.0) + w
        steps[b] = steps.get(b, 0.0) - w
    return tuple((p, p + 1, c) for p, c in sorted(steps.items()) if c)


def telescoping_bound(sch):
    """Upper bound on the ergodicity defect for sup-normalized test functions.

    T(I-V) regroups into sum_p c_p V^p with c_p = w(p) - w(p-1) where w is
    the weight-by-power map; the pairing against any |x| <= 1 test function
    and a probability vector is at most sum |c_p|. Cesaro length n gives 2/n.
    """
    return math.fsum(abs(c) for _, _, c in _telescoped(sch.runs))


def _check_measure(tm, mu):
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (tm.n_cells,):
        raise InputError("measure vector must have length %d" % tm.n_cells)
    return mu


def _run_sums(rows, terms):
    """Per row of runs (a, b, w): the sum of w * (terms[a] + ... + terms[b-1]).

    terms yields one float array per power 0, 1, ..., read up to the last
    stop. Each row is the sequential sum of its own terms, whatever the other
    rows: one running sum per distinct run start, scaled once per run.
    """
    closing, ends = {}, {}
    for i, runs in enumerate(rows):
        for a, b, w in runs:
            closing.setdefault(b - 1, []).append((i, a, w))
            ends[a] = max(ends.get(a, a), b - 1)
    out = [0.0] * len(rows)
    sums = {}
    for p, cur in zip(range(max(closing) + 1), terms):
        for total in sums.values():
            total += cur
        if p in ends:
            sums[p] = cur.copy()
        if p in closing:
            for i, a, w in closing[p]:
                out[i] = out[i] + w * sums[a]
            sums = {a: total for a, total in sums.items() if ends[a] > p}
    return np.array(out)


def _walk_sums(tm, rows, start):
    """_run_sums of rows over the powers start V^p of one ulam.walk."""
    steps = max(b for runs in rows for _, b, _ in runs) - 1
    return _run_sums(rows, ulam.walk(tm, start, steps))


def apply_schedules_batch(tm, schedules, mu):
    """Apply several schedules to one start, sharing one walk.

    mu is a measure vector or an (n_cells, k) block of measures; row i of
    the result is schedule i applied to it, shape (n_schedules,) + mu.shape.
    """
    return _walk_sums(tm, [sch.runs for sch in schedules], mu)


def weakstar_distance(mu1, mu2, bank):
    """max over bank functions x of |<x, mu1 - mu2>|."""
    d = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    if not bank:
        raise InputError("bank must be nonempty")
    return max(abs(float(np.dot(x, d))) for x in bank)


def cesaro_defect_curve(tm, mu, bank, n_max):
    """Ergodicity defect of every Cesaro schedule n = 1..n_max, one shared walk.

    The Cesaro mean T_n telescopes: T_n(I-V) mu = (mu - mu V^n)/n, so each
    power of the walk gives one defect. Returns an array of length n_max
    (index n-1 holds defect(n)).
    """
    mu = _check_measure(tm, mu)
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    bank_mat = np.asarray(bank, dtype=np.float64)
    powers = ulam.walk(tm, mu, n_max)
    next(powers)
    return np.array([np.max(np.abs(bank_mat.dot(mu - cur))) / n
                     for n, cur in enumerate(powers, 1)])


# ---------------------------------------------------------------------------
# convergence diagnostics


class ConvergenceReport(NamedTuple):
    """Cauchy test of schedule outputs in the weak-star pairing.

    verdict: converged (all tail pairs <= tol), not_converged (some tail
    pair >= 10*tol), else inconclusive. The 10x gap is hysteresis: between
    tol and 10*tol the data neither certifies nor refutes at this
    resolution. Every report carries the tolerance it was computed under.
    consecutive_defects[i] is the distance between the outputs of
    schedules i and i+1, which convergence_diagnostic fills for the CLI's
    defect series (empty otherwise).
    """

    verdict: str
    tolerance: float
    schedule_labels: tuple
    tail_indices: tuple
    pairwise_defects: np.ndarray  # over tail indices
    limit: object  # measure vector when converged, else None
    cause: str
    max_tail_defect: float
    consecutive_defects: tuple = ()


def _tail_verdict(outputs, schedules, tol, distance):
    n_sched = len(schedules)
    q = max(2, -(-n_sched // 4))  # last quartile, at least two entries
    tail = tuple(range(n_sched - q, n_sched))
    defects = np.zeros((q, q))
    for a in range(q):
        for b in range(a + 1, q):
            d = distance(outputs[tail[a]], outputs[tail[b]])
            defects[a, b] = defects[b, a] = d
    worst = float(defects.max())
    if worst <= tol:
        verdict, cause = "converged", "all tail pairs within tolerance"
    elif worst >= 10.0 * tol:
        verdict, cause = "not_converged", "tail pair defect at 10x tolerance"
    else:
        verdict, cause = "inconclusive", "tail defects between tol and 10x tol"
    return verdict, cause, tail, defects, worst


def convergence_diagnostic(tm, schedules, mu0, bank, tol=DEFAULT_TOL,
                           gate=ERGODICITY_GATE):
    """Cauchy test of schedule outputs from one start measure.

    Schedules whose measured ergodicity defect exceeds the gate make the
    whole diagnostic inconclusive (the Cauchy question is only meaningful
    for near-ergodic schedules). One walk to max_power + 1 gives both the
    outputs T mu0 and the gated defects T(I-V) mu0.
    """
    if len(schedules) < 2:
        raise InputError("a Cauchy test needs at least two schedules")
    mu0 = _check_measure(tm, mu0)
    labels = tuple(sch.label() for sch in schedules)
    rows = [sch.runs for sch in schedules] + [_telescoped(sch.runs) for sch in schedules]
    outputs, gated = np.split(_walk_sums(tm, rows, mu0), 2)
    distance = lambda a, b: weakstar_distance(a, b, bank)
    steps = tuple(distance(a, b) for a, b in zip(outputs, outputs[1:]))
    zero = np.zeros(tm.n_cells)
    for t_nu, lab in zip(gated, labels):
        defect = distance(t_nu, zero)
        if defect > gate:
            return ConvergenceReport(
                "inconclusive", float(tol), labels, (), np.zeros((0, 0)), None,
                "schedule %s has ergodicity defect %.3g above the gate %.3g"
                % (lab, defect, gate), float("nan"), steps)
    verdict, cause, tail, defects, worst = _tail_verdict(
        outputs, schedules, tol, distance)
    limit = outputs[-1] if verdict == "converged" else None
    return ConvergenceReport(verdict, float(tol), labels, tail, defects,
                             limit, cause, worst, steps)


def exact_orbit_schedule_averages(spec, point, schedules, functions):
    """Schedule averages of test functions along an exact orbit.

    functions: (name, callable) pairs taking (P, d) float arrays. Orbit
    points are carried in exact rational arithmetic and reduced mod 1
    exactly; only the final evaluation is floating point. Returns an
    (n_schedules, n_functions) array.
    """
    if not schedules:
        raise InputError("need at least one schedule")
    first = min(sch.runs[0][0] for sch in schedules)

    def values(cur):
        for p in itertools.count():
            if p < first:
                yield None  # no run covers p: the orbit steps on unevaluated
            else:
                coords = np.asarray([float(c) for c in cur.coords])[None, :]
                yield np.asarray([fn(coords)[0] for _, fn in functions])
            cur = systems.exact_step(spec, cur)

    return _run_sums([sch.runs for sch in schedules], values(point))


def exact_orbit_diagnostic(spec, point, schedules, functions, tol=DEFAULT_TOL,
                           gate=ERGODICITY_GATE):
    """Cauchy test of exact-orbit window averages.

    The matrix route cannot refuse convergence (finite chains always
    settle), so refutations for expanding maps run here: averages of the
    test functions along the exact orbit stand in for the measures, and
    the distance is the max difference across functions. The gate uses
    the analytic telescoping bound of each schedule.
    """
    if len(schedules) < 2:
        raise InputError("a Cauchy test needs at least two schedules")
    labels = tuple(sch.label() for sch in schedules)
    for sch, lab in zip(schedules, labels):
        bound = telescoping_bound(sch)
        if bound > gate:
            return ConvergenceReport(
                "inconclusive", float(tol), labels, (), np.zeros((0, 0)), None,
                "schedule %s has telescoping bound %.3g above the gate %.3g"
                % (lab, bound, gate), float("nan"))
    averages = exact_orbit_schedule_averages(spec, point, schedules, functions)
    verdict, cause, tail, defects, worst = _tail_verdict(
        list(averages), schedules, tol,
        lambda a, b: float(np.max(np.abs(a - b))))
    limit = averages[-1] if verdict == "converged" else None
    return ConvergenceReport(verdict, float(tol), labels, tail, defects,
                             limit, cause, worst)


# ---------------------------------------------------------------------------
# kernel projection


class KernelEstimate(NamedTuple):
    """The Cesaro-limit projection Q = A Pi of the sampled chain, kept factored.

    Kemeny & Snell (Finite Markov Chains, 1960): stationary (Pi, k x n)
    stacks one stationary measure per terminal class; absorption (A, n x k)
    holds the probability that a chain started in each cell ends in each
    class, an indicator on every cell that reaches one class. q materializes
    A Pi as a dense n x n array. residual_vq = ||V Q - Q||_inf and
    residual_idem = ||Q Q - Q||_inf (max absolute row sums) come from the
    factors: the rows of Pi are probability vectors with disjoint supports,
    so ||M Pi||_inf = ||M||_inf for every n x k M, with V Q - Q = (V A - A) Pi
    and Q Q - Q = (A (Pi A) - A) Pi. The terminal classes of graph index the
    columns of A and the rows of Pi.
    """

    absorption: np.ndarray
    stationary: np.ndarray
    residual_vq: float
    residual_idem: float
    stop_reason: str
    graph: topology.TransitionGraph

    @property
    def q(self):
        return self.absorption @ self.stationary


def _inf_norm(mat):
    return float(np.max(np.abs(mat).sum(axis=1)))


def kernel_projection_estimate(mset):
    """Exact Cesaro-limit projection Q = A Pi of the chain, factored.

    mset is the result of measures.stationary_measures, whose measures are
    the rows of Pi; the chain is mset.graph.transfer. A finite chain is
    absorbed with probability 1, so a cell that reaches one class (a row of
    graph.minimal_sets.reach with one entry) has that class's indicator as
    its row of A. The rows of the cells S that reach two or more classes
    solve (I - P_SS) A_S = P_SR A_R, with one sparse LU of I - P_SS when S
    is not empty.
    """
    graph = mset.graph
    tm = graph.transfer
    pi = np.array(mset.measures)
    reach = graph.minimal_sets.reach
    counts = reach.counts()
    a = np.zeros((graph.n_cells, pi.shape[0]))
    rows = np.arange(graph.n_cells)
    a[np.repeat(rows, counts), reach.indices] = 1.0
    ## the successors of a cell that reaches one class reach only that class,
    ## so its row of M A - A is (row sum - 1) in that class's column and 0
    ## elsewhere; bincount adds each row's stored entries in order from 0.0,
    ## as scipy's product does
    row_sums = np.bincount(np.repeat(rows, np.diff(tm.indptr)), tm.data, graph.n_cells)
    residual_vq = float(np.max(np.abs(row_sums[counts == 1] - 1.0), initial=0.0))
    multi = np.flatnonzero(counts > 1)
    if multi.size:
        ## imported here: scipy.sparse.linalg loads scipy.linalg, which a
        ## chain without such cells never needs
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        a[multi] = 0.0  # so that P_S. A = P_SR A_R
        p_s = tm.matrix[multi]
        lhs = sp.identity(multi.size, format="csc") - p_s[:, multi].tocsc()
        a[multi] = splu(lhs).solve(p_s @ a)
        residual_vq = max(residual_vq, _inf_norm(p_s @ a - a[multi]))
    residual_idem = _inf_norm(a @ (pi @ a) - a)
    return KernelEstimate(a, pi, residual_vq, residual_idem, "exact", graph)


# ---------------------------------------------------------------------------
# per-point limit measures


class LimitMeasureResult(NamedTuple):
    """Cesaro limit of a point mass, with an exact single-class flag.

    mass_in_class is the largest mass the limit puts on one terminal SCC, whose
    id is dominant_class. ergodic uses no tolerance: on the matrix route it says
    the point's cell reaches exactly one terminal SCC, on the exact-cycle route
    that the cycle's cells lie in one terminal SCC.
    """

    measure: np.ndarray
    ergodic: bool
    dominant_class: int
    mass_in_class: float
    route: str
    support_cells: np.ndarray


def limit_measure_per_point(est, omegas, n):
    """Cesaro limit of each point mass, read off the chain's decomposition.

    est is the KernelEstimate of the chain; omegas is a sequence of points,
    each a RationalPoint or a float coordinate array; the result is a tuple
    with one LimitMeasureResult per point, in order. Exact rational points
    ride the exact backend when the family supports it: the orbit is
    followed for up to n steps until it cycles, and the measure is the
    uniform distribution over the cycle's cells. Float points, and exact
    orbits that do not cycle within n steps, take the matrix route: for a
    point in cell c the Cesaro limit of the sampled chain is row c of
    Q = A Pi, and its class masses are row c of A (Kemeny & Snell).
    """
    if n < 1:
        raise InputError("need n >= 1")
    partition, spec = est.graph.transfer.partition, est.graph.transfer.spec
    report = est.graph.minimal_sets
    n_reached = report.reach.counts()
    results = []
    for omega in omegas:
        cycle = None
        if isinstance(omega, systems.RationalPoint):
            try:
                cycle = systems.exact_cycle(spec, omega, n)
            except CapabilityError:
                pass  # no exact backend: the matrix route
        if cycle is not None:
            cells = [partition.cell_of_rational(rp) for rp in cycle]
            measure = np.zeros(partition.n_cells)
            np.add.at(measure, cells, 1.0 / len(cycle))
            masses = [float(measure[cls].sum()) for cls in report.terminal_cells]
            sccs = set(report.scc_of_cell[cells])
            single = len(sccs) == 1 and sccs <= set(report.terminal_scc_ids)
            route = "exact_cycle"
        else:
            c = (partition.cell_of_rational(omega) if isinstance(omega, systems.RationalPoint)
                 else partition.cell_of_points(systems.as_point(omega, partition.dimension)[None])[0])
            masses = est.absorption[c]
            measure = masses @ est.stationary
            single = bool(n_reached[c] == 1)
            route = "matrix_cesaro"
        best = int(np.argmax(masses))
        results.append(LimitMeasureResult(
            measure, single, int(report.terminal_scc_ids[best]), float(masses[best]),
            route, measures.support(measure)))
    return tuple(results)
