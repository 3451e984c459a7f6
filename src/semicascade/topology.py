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

from . import systems, ulam
from .errors import InputError, ResourceBudgetError

PAIR_OP_BUDGET = 1 << 31
#: entries of one (P, P) pair array; proximality_graph holds two, the bool
#: hit mask and the edges
PAIR_PLANE_BUDGET = 1 << 22
#: orbit point-steps per proximality sweep block, max(1, this // P) steps.
#: On 100 cat-map probes at horizon 1024, 2^10 and 2^15 both ran slower,
#: and 2^15 held 4 MB more at its peak
SWEEP_BLOCK_POINTS = 1 << 12
EXACT_TRIPLE_LIMIT = 200
SAMPLED_TRIPLES = 100_000
VIOLATION_SAMPLE_CAP = 10
#: graphs with at most this many stored edges are decomposed in Python.
#: Importing scipy.sparse.csgraph also loads scipy.sparse.linalg and
#: scipy.linalg, 70-80 ms per process. The Python search costs about
#: 0.7 us per edge, 20 ms at this size against csgraph's 2 ms, so far
#: above it the search costs more than the import it saves
SMALL_GRAPH_EDGES = 1 << 15


@dataclass(frozen=True)
class TransitionGraph:
    """Directed cell graph of a transfer matrix, which it carries.

    adjacency is the 0/1 CSR support of transfer.matrix, held in float64:
    a graph of more than SMALL_GRAPH_EDGES edges goes to
    scipy.sparse.csgraph, which copies any other dtype to float64 on every
    call. A transfer matrix stores only positive entries, so the adjacency
    shares its index arrays and owns only its data. The partition and the
    system are transfer.partition and transfer.spec.
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
    mat = tm.matrix
    return TransitionGraph(tm, sp.csr_matrix((np.ones(mat.nnz), mat.indices, mat.indptr),
                                             shape=mat.shape))


@dataclass(frozen=True)
class MinimalSetReport:
    """Terminal-SCC decomposition of a transition graph.

    scc_of_cell maps each cell to its strongly connected component id;
    terminal_scc_ids lists the components without out-edges, ascending, and
    terminal_cells the sorted member cells of each. reach is the boolean
    n_cells x n_terminal CSR relation whose row c marks the terminal
    components that cell c reaches (column j is terminal_scc_ids[j]).
    Repelling invariant sets appear as transient components here, never as
    terminal ones: their cells leak samples outward at any finite resolution.
    """

    n_sccs: int
    scc_of_cell: np.ndarray
    terminal_scc_ids: tuple
    terminal_cells: tuple
    reach: sp.csr_matrix
    backend: str = "graph"

    def as_jsonable(self):
        return {
            "n_sccs": int(self.n_sccs),
            "backend": self.backend,
            "terminal_scc_ids": [int(i) for i in self.terminal_scc_ids],
            "terminal_cells": [[int(c) for c in cells] for cells in self.terminal_cells],
            "max_terminals_seen_from_any_cell": int(np.diff(self.reach.indptr).max()),
        }


def minimal_invariant_sets(graph):
    """Terminal SCCs as minimal-set stand-ins, with the cell-to-class reach relation.

    A terminal component is strongly connected, so the cells that reach it
    are those one backward breadth-first search from any of its cells
    finds. A component without incoming cross edges is reached only by its
    own cells and needs no search. A graph of at most SMALL_GRAPH_EDGES
    edges is searched in Python, a larger one by scipy.sparse.csgraph; both
    give the same labels and the same reach relation.
    """
    adjacency = graph.adjacency
    small = adjacency.nnz <= SMALL_GRAPH_EDGES
    if small:
        n_sccs, labels = _strong_components(adjacency.indptr, adjacency.indices)
    else:
        from scipy.sparse import csgraph

        n_sccs, labels = csgraph.connected_components(adjacency, directed=True,
                                                      connection="strong")
    ## the classes of each edge's source and target
    a = np.repeat(labels, np.diff(adjacency.indptr))
    b = np.take(labels, adjacency.indices)
    cross = a != b
    terminal = np.ones(n_sccs, dtype=bool)
    terminal[a[cross]] = False
    fed = np.zeros(n_sccs, dtype=bool)
    fed[b[cross]] = True
    terminal_ids = np.flatnonzero(terminal)
    column = np.full(n_sccs, -1)
    column[terminal_ids] = np.arange(terminal_ids.size)

    ## a stable sort keeps each class's cells ascending
    order = np.argsort(labels, kind="stable")
    lo = np.searchsorted(labels, terminal_ids, sorter=order)
    hi = np.searchsorted(labels, terminal_ids, side="right", sorter=order)
    terminal_cells = tuple(order[i:j] for i, j in zip(lo, hi))

    rows = [np.flatnonzero((terminal & ~fed)[labels])]
    cols = [column[labels[rows[0]]]]
    fed_ids = np.flatnonzero(terminal & fed)
    if fed_ids.size:
        backward = adjacency.T.tocsr()
        if small:
            indptr, indices = backward.indptr.tolist(), backward.indices.tolist()
        for j in column[fed_ids]:
            start = int(terminal_cells[j][0])
            if small:
                seen = np.array(_reached(indptr, indices, start))
            else:
                ## the order is a view into an n-sized buffer: copy, do not hold it
                seen = csgraph.breadth_first_order(backward, start,
                                                   return_predecessors=False).copy()
            rows.append(seen)
            cols.append(np.full(seen.size, j))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    reach = sp.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)),
                          shape=(graph.n_cells, terminal_ids.size))
    return MinimalSetReport(n_sccs, labels, tuple(int(t) for t in terminal_ids),
                            terminal_cells, reach)


def _strong_components(indptr, indices):
    """Strong components of the CSR graph (indptr, indices), labelled as csgraph labels them.

    Pearce's iterative search (Inf. Process. Lett. 116, 2016), as
    scipy.sparse.csgraph.connected_components(directed=True,
    connection="strong") runs it: roots in cell order, each cell's
    successors from its last stored edge back to its first, and components
    numbered in the order they complete. Returns (n_sccs, int32 labels).
    """
    n = len(indptr) - 1
    indptr, indices = indptr.tolist(), indices.tolist()
    done = n + 1  # above every visit number, so a labelled cell lowers no link
    ## 0 unvisited, then the visit number, then the low link, then done
    rindex = [0] * n
    labels = [0] * n
    visits = n_sccs = 0
    unlabelled = []  # finished cells whose component is still open
    for root in range(n):
        if rindex[root]:
            continue
        visits += 1
        rindex[root] = visits
        path, edge = [root], [indptr[root + 1]]
        while path:
            v, e = path[-1], edge[-1]
            first = indptr[v]
            while e > first and rindex[indices[e - 1]]:
                e -= 1
            if e > first:
                e -= 1
                edge[-1] = e
                w = indices[e]
                visits += 1
                rindex[w] = visits
                path.append(w)
                edge.append(indptr[w + 1])
                continue
            path.pop()
            edge.pop()
            own = rindex[v]
            low = min(map(rindex.__getitem__, indices[first:indptr[v + 1]]), default=done)
            if low < own:
                rindex[v] = low
                unlabelled.append(v)
                continue
            ## v is its component's root; the cells finished since its visit
            ## and still unlabelled are the rest of the component
            rindex[v], labels[v] = done, n_sccs
            while unlabelled and rindex[unlabelled[-1]] >= own:
                w = unlabelled.pop()
                rindex[w], labels[w] = done, n_sccs
            n_sccs += 1
    return n_sccs, np.array(labels, dtype=np.int32)


def _reached(indptr, indices, start):
    """Cells reachable from start in the CSR graph (indptr, indices), in breadth-first order."""
    seen = bytearray(len(indptr) - 1)
    seen[start] = 1
    order = [start]
    for v in order:
        for w in indices[indptr[v]:indptr[v + 1]]:
            if not seen[w]:
                seen[w] = 1
                order.append(w)
    return order


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
    graph_verdict = bool(np.all(np.diff(report.reach.indptr) == 1))

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
    """Pairs whose orbits pass within eps of each other in the first `horizon` steps.

    An edge joins two probes when their wraparound max-metric
    (systems.metric) is below eps at some step 0..horizon. The pairs come
    from the broad phase of collision detection, sort and sweep (Cohen,
    Lin, Manocha and Ponamgi, I-COLLIDE, SI3D 1995), over blocks of
    max(1, SWEEP_BLOCK_POINTS // P) orbit steps walked by systems.orbit_batch:

    - each step's points are sorted by their first coordinate, and row k
      meets row k + o of the cyclic order for o = 1, 2, ..., one turn up
      past the seam;
    - the sweep stops at the first offset where no forward gap of the first
      coordinate in the block is below min(eps, 1/2), times 1 + 1e-9 plus
      1e-15 against rounding, and after P // 2 at the latest;
    - each offset met is tested with the exact metric, and the hits go to a
      P x P bool mask, made symmetric and reflexive at the end.

    Every pair within eps is met. Its two directions have forward gaps d
    and 1 - d, and the shorter one is at most 1/2 and below eps. A row's
    forward gap never shrinks as the offset grows, so no earlier offset
    stops the sweep. A pair at offset o is also the pair at P - o from its
    other end, so offsets past P // 2 add none. The edges are those of a
    dense comparison at every step, bit for bit, for O(H P log P + pairs
    met) work in place of O(H P^2).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != spec.dimension:
        raise InputError("expected probe points of shape (P, %d)" % spec.dimension)
    if not np.all((pts >= 0.0) & (pts < 1.0)):  # NaN fails both
        raise InputError("probe coordinates must lie in [0,1)")
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
    if n_pts * n_pts > PAIR_PLANE_BUDGET:
        raise ResourceBudgetError(
            "%d probe points make %d-entry pair planes, over the budget of %d; "
            "subsample the probes" % (n_pts, n_pts * n_pts, PAIR_PLANE_BUDGET))
    hit = np.zeros(n_pts * n_pts, dtype=bool)
    cut = min(eps, 0.5) * (1.0 + 1e-9) + 1e-15
    steps = max(1, SWEEP_BLOCK_POINTS // n_pts)
    cur = pts
    for start in range(0, horizon + 1, steps):
        block = systems.orbit_batch(spec, cur, min(steps, horizon + 1 - start) - 1)
        _sweep(block, eps, cut, hit)
        if start + steps <= horizon:
            cur = systems._step(spec, block[-1])
    hit = hit.reshape(n_pts, n_pts)
    edges = np.logical_or(hit, hit.T)
    np.fill_diagonal(edges, True)
    return ProximalityGraph(pts, int(horizon), float(eps), edges)


def _sweep(block, eps, cut, hit):
    """Mark hit[i * P + j] for the orbit rows i, j of some step of block (T, P, d) within eps."""
    n_pts = block.shape[1]
    order = np.argsort(block[:, :, 0], axis=1)
    axes = [np.take_along_axis(block[:, :, j], order, axis=1) for j in range(block.shape[2])]
    ## reused buffers, filled in two halves at each offset: a doubled copy of
    ## the sorted rows to slice from held more than the P x P planes it replaced
    diffs = [np.empty_like(x) for x in axes]
    pair = order * n_pts  # row i of the flat P x P mask starts at i * P
    codes = np.empty_like(pair)
    for o in range(1, n_pts // 2 + 1):
        ## row k meets row k + o, and past the seam row k + o - P one turn up
        seam = n_pts - o
        for x, d in zip(axes, diffs):
            np.subtract(x[:, o:], x[:, :seam], out=d[:, :seam])
            np.subtract(x[:, :o], x[:, seam:], out=d[:, seam:])
        if not ((diffs[0][:, :seam] < cut).any() or (diffs[0][:, seam:] + 1.0 < cut).any()):
            break
        ## systems.metric, one axis at a time
        far = None
        for d in diffs:
            np.abs(d, out=d)
            np.minimum(d, 1.0 - d, out=d)
            far = d if far is None else np.maximum(far, d, out=far)
        np.add(pair[:, :seam], order[:, o:], out=codes[:, :seam])
        np.add(pair[:, seam:], order[:, :o], out=codes[:, seam:])
        hit[codes[far < eps]] = True


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
