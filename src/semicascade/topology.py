"""Transition-graph structure of the sampled chain.

A directed graph over partition cells (edge i -> j iff some sample of cell
i maps into cell j, i.e. exactly the support of the transfer matrix) stands
in for the topology of the map at the partition's resolution: reachable
closures play the role of orbit closures, terminal strongly connected
components play the role of minimal sets, and the uniqueness check asks
whether every reachable closure sees exactly one terminal component.

Terminal SCCs miss repelling invariant sets on purpose: a repelling fixed
point's cell leaks samples outward, so its component acquires an out-edge
and is classified transient at every finite resolution. The exact periodic
backend (see unique_minimal_set_check) exists to recover falsifications
that this collapse would otherwise hide for hyperbolic integer-linear maps.

Proximality is rendered with a horizon and a threshold: two probe points
are proximal at (N, eps) when their orbits come within eps somewhere in
the first N steps. Verdicts always carry (N, eps).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import systems, ulam
from .errors import InputError, ResourceBudgetError

PAIR_OP_BUDGET = 1 << 31
EXACT_TRIPLE_LIMIT = 200
SAMPLED_TRIPLES = 100_000
VIOLATION_SAMPLE_CAP = 10


@dataclass(frozen=True)
class TransitionGraph:
    """Directed cell graph of a transfer matrix, which it carries.

    adjacency is the boolean CSR support of transfer.matrix; the partition
    and the system are transfer.partition and transfer.spec.
    """

    transfer: ulam.TransferMatrix
    adjacency: sp.csr_matrix

    @property
    def n_cells(self):
        return self.transfer.n_cells

    @functools.cached_property
    def minimal_sets(self):
        """The terminal-SCC decomposition, computed once per graph."""
        return minimal_invariant_sets(self)


def graph_from_transfer(tm):
    return TransitionGraph(tm, (tm.matrix > 0).astype(np.int8).tocsr())


def reachable_closure(graph, cell):
    """Forward-reachable cell set (breadth-first), including the cell itself."""
    n = graph.n_cells
    if not 0 <= cell < n:
        raise InputError("cell index %d out of range [0, %d)" % (cell, n))
    order = csgraph.breadth_first_order(graph.adjacency, int(cell),
                                        directed=True, return_predecessors=False)
    return np.sort(order)


@dataclass(frozen=True)
class MinimalSetReport:
    """Terminal-SCC decomposition of a transition graph.

    scc_of_cell maps each cell to its strongly connected component id;
    terminal_scc_ids lists the components without out-edges in the
    condensation; terminal_cells holds the sorted member cells of each of
    those; terminals_reachable[c] is the frozenset of terminal component
    ids visible from component c (the per-cell witness set for the
    uniqueness question). Repelling invariant sets appear as transient
    components here, never as terminal ones: their cells leak samples
    outward at any finite resolution.
    """

    n_sccs: int
    scc_of_cell: np.ndarray
    terminal_scc_ids: tuple
    terminal_cells: tuple
    terminals_reachable: tuple
    backend: str = "graph"

    def terminal_ids_for_cell(self, cell):
        return self.terminals_reachable[int(self.scc_of_cell[cell])]

    def as_jsonable(self):
        return {
            "n_sccs": int(self.n_sccs),
            "backend": self.backend,
            "terminal_scc_ids": [int(i) for i in self.terminal_scc_ids],
            "terminal_cells": [[int(c) for c in cells] for cells in self.terminal_cells],
            "max_terminals_seen_from_any_cell": int(
                max(len(t) for t in self.terminals_reachable)
            ),
        }


def _condensation_edges(adjacency, labels, n_sccs):
    coo = adjacency.tocoo()
    a = labels[coo.row]
    b = labels[coo.col]
    keep = a != b
    if not np.any(keep):
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.unique(np.stack([a[keep], b[keep]], axis=1), axis=0)
    return pairs


def minimal_invariant_sets(graph):
    """SCC condensation with terminal components as minimal-set stand-ins."""
    n_sccs, labels = csgraph.connected_components(graph.adjacency, directed=True,
                                                  connection="strong")
    dag = _condensation_edges(graph.adjacency, labels, n_sccs)
    out_deg = np.zeros(n_sccs, dtype=np.int64)
    if dag.size:
        np.add.at(out_deg, dag[:, 0], 1)
    terminal_ids = tuple(int(i) for i in np.flatnonzero(out_deg == 0))
    terminal_cells = tuple(np.flatnonzero(labels == t) for t in terminal_ids)

    ## reachable terminal sets per component, in reverse topological order
    succ = [[] for _ in range(n_sccs)]
    indeg = np.zeros(n_sccs, dtype=np.int64)
    for a, b in dag:
        succ[a].append(b)
        indeg[b] += 1
    topo = []
    stack = [int(i) for i in np.flatnonzero(indeg == 0)]
    while stack:
        node = stack.pop()
        topo.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                stack.append(int(nxt))
    terminal_set = set(terminal_ids)
    reach = [frozenset()] * n_sccs
    for node in reversed(topo):
        if node in terminal_set:
            reach[node] = frozenset((node,))
        else:
            acc = set()
            for nxt in succ[node]:
                acc |= reach[nxt]
            reach[node] = frozenset(acc)
    return MinimalSetReport(n_sccs, labels, terminal_ids, terminal_cells, tuple(reach))


@dataclass(frozen=True)
class UniqueMinimalSetReport:
    """Verdict of the unique-minimal-set-per-orbit-closure question.

    Graph route: true iff every cell's reachable closure contains exactly
    one terminal SCC. Exact route (systems.hyperbolic maps only: they have
    a dense orbit, which a finite-order or parabolic matrix does not): if
    the sampled graph is strongly connected (dense-orbit witness) and at
    least two distinct exact periodic orbits of period <= max_period
    exist, the dense orbit's closure contains two minimal sets, so the
    verdict is false with those orbits as witnesses. The exact route only
    ever falsifies; when it finds nothing the graph verdict stands. Both
    verdicts are kept and a disagreement is reported, not hidden.
    """

    verdict: bool
    graph_verdict: bool
    exact_verdict: object  # True/False/None (None: exact route silent)
    backend_used: str
    witnesses: tuple
    max_period: int
    discrepancy: bool
    minimal_sets: MinimalSetReport

    def as_jsonable(self):
        return {
            "verdict": bool(self.verdict),
            "graph_verdict": bool(self.graph_verdict),
            "exact_verdict": None if self.exact_verdict is None else bool(self.exact_verdict),
            "backend_used": self.backend_used,
            "max_period": int(self.max_period),
            "discrepancy": bool(self.discrepancy),
            "witnesses": [
                {"period": orb.period,
                 "points": [[str(c) for c in pt.coords] for pt in orb.points]}
                for orb in self.witnesses
            ],
        }


def unique_minimal_set_check(graph, max_period=2):
    """Does every reachable closure contain exactly one terminal component?"""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    spec = graph.transfer.spec
    report = graph.minimal_sets
    graph_verdict = all(len(t) == 1 for t in report.terminals_reachable)

    exact_verdict = None
    witnesses = ()
    if report.n_sccs == 1 and systems.hyperbolic(spec):
        orbits = systems.periodic_orbits(spec, max_period)
        if len(orbits) >= 2:
            exact_verdict = False
            witnesses = tuple(orbits)

    if exact_verdict is None:
        verdict, backend = graph_verdict, "graph"
    else:
        verdict, backend = exact_verdict, "exact_periodic"
    discrepancy = exact_verdict is not None and exact_verdict != graph_verdict
    return UniqueMinimalSetReport(verdict, graph_verdict, exact_verdict, backend,
                                  witnesses, int(max_period), discrepancy, report)


# ---------------------------------------------------------------------------
# proximality


@dataclass(frozen=True)
class ProximalityGraph:
    """Symmetric reflexive pair relation at a horizon and threshold."""

    points: np.ndarray  # (P, d)
    horizon: int
    eps: float
    edges: np.ndarray  # (P, P) bool, symmetric, True diagonal


def proximality_graph(spec, points, horizon, eps):
    """Pairs whose orbits pass within eps of each other in the first `horizon` steps."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != spec.dimension:
        raise InputError("expected probe points of shape (P, %d)" % spec.dimension)
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    if eps <= 0:
        raise InputError("eps must be > 0")
    n_pts = pts.shape[0]
    if n_pts * n_pts * (horizon + 1) > PAIR_OP_BUDGET:
        raise ResourceBudgetError(
            "pairwise orbit comparison needs %d point-step operations, over the "
            "budget of %d; subsample the probes or shorten the horizon"
            % (n_pts * n_pts * (horizon + 1), PAIR_OP_BUDGET)
        )
    cur = pts
    dmin = systems.metric_pairwise(cur, cur)
    for _ in range(horizon):
        cur = systems._step(spec, cur)
        np.minimum(dmin, systems.metric_pairwise(cur, cur), out=dmin)
    edges = dmin < eps
    np.fill_diagonal(edges, True)
    edges = np.logical_or(edges, edges.T)
    return ProximalityGraph(pts, int(horizon), float(eps), edges)


@dataclass(frozen=True)
class TransitivityReport:
    defect: float
    n_two_step_triples: int
    n_violations: int
    vacuous: bool
    method: str
    violating_sample: tuple

    def as_jsonable(self):
        return {
            "defect": self.defect,
            "n_two_step_triples": self.n_two_step_triples,
            "n_violations": self.n_violations,
            "vacuous": self.vacuous,
            "method": self.method,
            "violating_sample": [list(t) for t in self.violating_sample],
        }


def transitivity_defect(pg):
    """Fraction of distinct ordered triples (a,b,c) with edges ab, bc but not ac.

    The denominator counts distinct ordered triples carrying both edges ab
    and bc; with no such triples (e.g. a diagonal-only graph) the defect
    is 0 vacuously. Self-pairs never enter since a, b, c are distinct.
    Above 200 points the count switches to 1e5 seeded triple samples.
    """
    n_pts = pg.edges.shape[0]
    off = pg.edges.copy()
    np.fill_diagonal(off, False)
    if n_pts <= EXACT_TRIPLE_LIMIT:
        a0 = off.astype(np.int64)
        two_step = a0 @ a0
        mask_offdiag = ~np.eye(n_pts, dtype=bool)
        total = int(two_step[mask_offdiag].sum())
        viol_mask = (two_step > 0) & ~off & mask_offdiag
        violations = int(two_step[viol_mask].sum())
        method = "exact"
        sample = []
        for a, c in np.argwhere(viol_mask)[:VIOLATION_SAMPLE_CAP]:
            mid = int(np.flatnonzero(off[a] & off[:, c])[0])
            sample.append((int(a), mid, int(c)))
    else:
        rng = np.random.default_rng(0)
        trip = rng.integers(0, n_pts, size=(SAMPLED_TRIPLES, 3))
        a, b, c = trip[:, 0], trip[:, 1], trip[:, 2]
        distinct = (a != b) & (b != c) & (a != c)
        has_path = off[a, b] & off[b, c] & distinct
        total = int(has_path.sum())
        bad = has_path & ~off[a, c]
        violations = int(bad.sum())
        method = "sampled"
        idx = np.flatnonzero(bad)[:VIOLATION_SAMPLE_CAP]
        sample = [(int(a[i]), int(b[i]), int(c[i])) for i in idx]
    if total == 0:
        return TransitivityReport(0.0, 0, 0, True, method, ())
    return TransitivityReport(violations / total, total, violations, False,
                              method, tuple(sample))
