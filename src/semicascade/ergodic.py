"""Ergodic averaging schedules and weak-star convergence diagnostics.

A schedule is a finite convex combination of transfer-operator powers.
Every sum sum_p w_p mu V^p here is a reduction over one ulam.walk: a list
of schedules becomes a weight table (row = schedule, column = power), and
each power mu V^p, computed once, is added into every row with its column
of weights. Nothing materializes a matrix power. The ergodicity defect
T(I - V) mu needs no second walk: it regroups as sum_p (w_p - w_{p-1})
mu V^p, the telescoped table over the same walk, and for Cesaro length n
it is (mu - mu V^n)/n.

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import linalg as splinalg

from . import measures, systems, topology, ulam
from .errors import CapabilityError, InputError

DEFAULT_TOL = 1e-2
## schedules whose telescoping bound exceeds this are too far from ergodic
## for a Cauchy test to mean anything (a single power has bound 2)
ERGODICITY_GATE = 0.25


@dataclass(frozen=True)
class ErgodicSchedule:
    """Convex combination of powers: sum_k weights[k] * V^powers[k]."""

    powers: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.powers) != len(self.weights) or not self.powers:
            raise InputError("schedule needs matching nonempty powers and weights")
        if any(p < 0 for p in self.powers):
            raise InputError("powers must be nonnegative")
        if any(b <= a for a, b in zip(self.powers, self.powers[1:])):
            raise InputError("powers must be strictly increasing")
        if any(w < 0 for w in self.weights):
            raise InputError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise InputError("weights must sum to 1 within 1e-12")

    @property
    def max_power(self):
        return self.powers[-1]

    def label(self):
        if self.weights.count(self.weights[0]) == len(self.weights) and \
                self.powers == tuple(range(self.powers[0], self.powers[-1] + 1)):
            if self.powers[0] == 0:
                return "cesaro_%d" % len(self.powers)
            return "window_%d_%d" % (self.powers[0], len(self.powers))
        return "schedule_%d_terms" % len(self.powers)


def cesaro_schedule(n):
    """Powers 0..n-1, each weight 1/n."""
    if n < 1:
        raise InputError("cesaro length must be >= 1")
    return ErgodicSchedule(tuple(range(n)), (1.0 / n,) * n)


def window_schedule(start, length):
    """Powers start..start+length-1, each weight 1/length."""
    if length < 1:
        raise InputError("window length must be >= 1")
    if start < 0:
        raise InputError("window start must be >= 0")
    return ErgodicSchedule(tuple(range(start, start + length)), (1.0 / length,) * length)


def mix_schedule(a, s1, s2):
    """Convex mix a*s1 + (1-a)*s2 as a single schedule."""
    if not 0.0 <= a <= 1.0:
        raise InputError("mixing weight must lie in [0,1]")
    acc = {}
    for p, w in zip(s1.powers, s1.weights):
        acc[p] = acc.get(p, 0.0) + a * w
    for p, w in zip(s2.powers, s2.weights):
        acc[p] = acc.get(p, 0.0) + (1.0 - a) * w
    powers = tuple(sorted(acc))
    return ErgodicSchedule(powers, tuple(acc[p] for p in powers))


def telescoping_bound(sch):
    """Upper bound on the ergodicity defect for sup-normalized test functions.

    T(I-V) regroups into sum_p c_p V^p with c_p = w(p) - w(p-1) where w is
    the weight-by-power map; the pairing against any |x| <= 1 test function
    and a probability vector is at most sum |c_p|. Cesaro length n gives 2/n.
    """
    return float(np.abs(_telescoped(_weight_table([sch]))).sum())


def _check_measure(tm, mu):
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (tm.n_cells,):
        raise InputError("measure vector must have length %d" % tm.n_cells)
    return mu


def _weight_table(schedules):
    """Row i, column p: the weight schedule i puts on the power p."""
    table = np.zeros((len(schedules), max(sch.max_power for sch in schedules) + 1))
    for i, sch in enumerate(schedules):
        table[i, list(sch.powers)] = sch.weights
    return table


def _telescoped(table):
    """Rows of T(I-V) = sum_p (w(p) - w(p-1)) V^p: one column longer than table."""
    return np.diff(table, axis=1, prepend=0.0, append=0.0)


def _walk_sums(tm, table, start):
    """sum_p table[:, p] * start V^p for every row of table, over one walk.

    start is a measure vector or an (n_cells, k) block of measures; the
    result has shape (rows,) + start.shape.
    """
    out = np.zeros((table.shape[0],) + np.shape(start))
    for p, cur in enumerate(ulam.walk(tm, start, table.shape[1] - 1)):
        out += np.multiply.outer(table[:, p], cur)
    return out


def apply_schedules_batch(tm, schedules, mu):
    """Apply several schedules to one start, sharing one walk.

    mu is a measure vector or an (n_cells, k) block of measures; row i of
    the result is schedule i applied to it, shape (n_schedules,) + mu.shape.
    """
    return _walk_sums(tm, _weight_table(schedules), mu)


def weakstar_distance(mu1, mu2, bank):
    """max over bank functions x of |<x, mu1 - mu2>|."""
    d = np.asarray(mu1, dtype=np.float64) - np.asarray(mu2, dtype=np.float64)
    if not bank:
        raise InputError("bank must be nonempty")
    return max(abs(float(np.dot(x, d))) for x in bank)


def ergodicity_defect(tm, sch, bank, probes):
    """max over bank x probes of |<x, T mu - T V mu>| for T = the schedule.

    T mu - T V mu = T(I-V) mu is the telescoped schedule applied to mu, so
    all probes ride one block walk.
    """
    if not bank or not probes:
        raise InputError("bank and probes must be nonempty")
    block = np.column_stack([_check_measure(tm, mu) for mu in probes])
    t_nu = _walk_sums(tm, _telescoped(_weight_table([sch])), block)[0]
    return float(np.max(np.abs(np.asarray(bank, dtype=np.float64).dot(t_nu))))


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


@dataclass(frozen=True)
class ConvergenceReport:
    """Cauchy test of schedule outputs in the weak-star pairing.

    verdict: converged (all tail pairs <= tol), not_converged (some tail
    pair >= 10*tol), else inconclusive. The 10x gap is hysteresis: between
    tol and 10*tol the data neither certifies nor refutes at this
    resolution. Every report carries the tolerance it was computed under.
    consecutive_defects[i] is the distance between the outputs of
    schedules i and i+1, which convergence_diagnostic fills for the CLI's
    defect series (empty otherwise); it is not part of as_jsonable.
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

    def as_jsonable(self):
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "schedule_labels": list(self.schedule_labels),
            "tail_indices": [int(i) for i in self.tail_indices],
            "pairwise_defects": [[float(v) for v in row] for row in self.pairwise_defects],
            "max_tail_defect": self.max_tail_defect,
            "cause": self.cause,
            "limit": None if self.limit is None else [float(v) for v in self.limit],
        }


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
    if not schedules:
        raise InputError("need at least one schedule")
    if len(schedules) < 2:
        raise InputError("a Cauchy test needs at least two schedules")
    mu0 = _check_measure(tm, mu0)
    labels = tuple(sch.label() for sch in schedules)
    weights = _weight_table(schedules)
    table = np.vstack([np.pad(weights, ((0, 0), (0, 1))), _telescoped(weights)])
    outputs, gated = np.split(_walk_sums(tm, table, mu0), 2)
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
    table = _weight_table(schedules)
    out = np.zeros((len(schedules), len(functions)))
    cur = point
    for p, column in enumerate(table.T):
        if p:
            cur = systems.exact_step(spec, cur)
        if column.any():
            coords = np.asarray([float(c) for c in cur.coords])[None, :]
            vals = np.asarray([fn(coords)[0] for _, fn in functions])
            out += np.multiply.outer(column, vals)
    return out


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


@dataclass(frozen=True)
class KernelEstimate:
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
    matrix = graph.transfer.matrix
    pi = np.array(mset.measures)
    reach = graph.minimal_sets.reach
    a = reach.toarray().astype(np.float64)
    multi = np.flatnonzero(np.diff(reach.indptr) > 1)
    if multi.size:
        a[multi] = 0.0  # so that P_S. A = P_SR A_R
        p_s = matrix[multi]
        lhs = sp.identity(multi.size, format="csc") - p_s[:, multi].tocsc()
        a[multi] = splinalg.splu(lhs).solve(p_s @ a)
    residual_vq = _inf_norm(matrix @ a - a)
    residual_idem = _inf_norm(a @ (pi @ a) - a)
    return KernelEstimate(a, pi, residual_vq, residual_idem, "exact", graph)


# ---------------------------------------------------------------------------
# per-point limit measures


@dataclass(frozen=True)
class LimitMeasureResult:
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
    results = []
    for omega in omegas:
        cycle = None
        if isinstance(omega, systems.RationalPoint):
            try:
                cycle = systems.exact_cycle(spec, omega, n)
            except CapabilityError:
                pass  # no exact backend: the matrix route
            omega = omega.as_floats()
        if cycle is not None:
            cells = [partition.cell_of_rational(rp) for rp in cycle]
            measure = np.zeros(partition.n_cells)
            np.add.at(measure, cells, 1.0 / len(cycle))
            masses = [float(measure[cls].sum()) for cls in report.terminal_cells]
            sccs = set(report.scc_of_cell[cells])
            single = len(sccs) == 1 and sccs <= set(report.terminal_scc_ids)
            route = "exact_cycle"
        else:
            pt = np.asarray(omega, dtype=np.float64).reshape(1, -1)
            if pt.shape[1] != partition.dimension:
                raise InputError("points must have %d coordinates" % partition.dimension)
            c = partition.cell_of_points(pt)[0]
            masses = est.absorption[c]
            measure = masses @ est.stationary
            single = report.reach[c].nnz == 1
            route = "matrix_cesaro"
        best = int(np.argmax(masses))
        results.append(LimitMeasureResult(
            measure, single, int(report.terminal_scc_ids[best]), float(masses[best]),
            route, measures.support(measure)))
    return tuple(results)
