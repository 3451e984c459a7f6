"""Transition-graph structure of the sampled chain.

A directed graph over partition cells (edge i -> j iff some sample of cell
i maps into cell j, i.e. exactly the support of the transfer matrix) stands
in for the topology of the map at the partition's resolution: reachable
closures play the role of orbit closures, terminal strongly connected
components play the role of minimal sets, and the uniqueness check asks
whether every reachable closure sees exactly one terminal component. The
graph is the transfer matrix's own CSR arrays, with no copy; the reversed
graph is a stable numpy transpose of them, and the reach relation is held
as numpy CSR arrays too. scipy.sparse.csgraph, and with it scipy.sparse, is
imported only for a graph of more than SMALL_GRAPH_EDGES edges.

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
from typing import NamedTuple

import numpy as np

from . import systems, ulam
from .errors import InputError, check_budget

#: orbit point-steps per proximality sweep block, max(1, this // P) steps.
#: On 100 cat-map probes at horizon 1024, 2^10 and 2^15 both ran slower,
#: and 2^15 held 4 MB more at its peak
SWEEP_BLOCK_POINTS = 1 << 12
#: rows of the two-step count product made at a time: each block is a
#: (rows, P) float32 array, 2 MB at 2025 probes
TRIPLE_ROW_BLOCK = 256
VIOLATION_SAMPLE_CAP = 10
#: graphs with at most this many stored edges are decomposed in Python.
#: Importing scipy.sparse.csgraph also loads scipy.sparse, scipy.sparse.linalg
#: and scipy.linalg, which a run without a walk otherwise never loads. With
#: that import counted, whole runs at up to 2^16 edges were 0.05-0.16 s faster
#: without csgraph. A single cycle, the slowest shape per edge, was 15 ms
#: faster at 1.5 x 2^16 edges and 62 ms slower at 2^17, so 2^16 keeps a margin
SMALL_GRAPH_EDGES = 1 << 16


@dataclass(frozen=True)
class TransitionGraph:
    """Directed cell graph of a transfer matrix, which it carries.

    The edges out of cell i are the stored columns of row i of transfer,
    transfer.indices[transfer.indptr[i]:transfer.indptr[i + 1]]: a transfer
    matrix stores only positive entries. The partition and the system are
    transfer.partition and transfer.spec.
    """

    transfer: ulam.TransferMatrix

    @property
    def n_cells(self):
        return self.transfer.n_cells

    @functools.cached_property
    def minimal_sets(self):
        """The terminal-SCC decomposition, computed once per graph."""
        return minimal_invariant_sets(self)


def graph_from_transfer(tm):
    return TransitionGraph(tm)


class Reach(NamedTuple):
    """Cell-to-class reach relation as CSR arrays.

    Cell c reaches the terminal classes indices[indptr[c]:indptr[c + 1]],
    ascending; class j is MinimalSetReport.terminal_scc_ids[j].
    """

    indptr: np.ndarray
    indices: np.ndarray

    def counts(self):
        """How many terminal classes each cell reaches."""
        return np.diff(self.indptr)


class MinimalSetReport(NamedTuple):
    """Terminal-SCC decomposition of a transition graph.

    scc_of_cell maps each cell to its strongly connected component id;
    terminal_scc_ids lists the components without out-edges, ascending, and
    terminal_cells the sorted member cells of each. reach is the Reach
    relation whose row c lists the terminal components that cell c reaches
    (column j is terminal_scc_ids[j]).
    Repelling invariant sets appear as transient components here, never as
    terminal ones: their cells leak samples outward at any finite resolution.
    """

    n_sccs: int
    scc_of_cell: np.ndarray
    terminal_scc_ids: tuple
    terminal_cells: tuple
    reach: Reach
    backend: str = "graph"


def minimal_invariant_sets(graph):
    """Terminal SCCs as minimal-set stand-ins, with the cell-to-class reach relation.

    A terminal component is strongly connected, so the cells that reach it
    are those one backward breadth-first search from any of its cells
    finds. A component without incoming cross edges is reached only by its
    own cells and needs no search. A graph of at most SMALL_GRAPH_EDGES
    edges is searched in Python, a larger one by scipy.sparse.csgraph; both
    give the same labels and the same reach relation.
    """
    tm = graph.transfer
    indptr, indices = tm.indptr, tm.indices
    small = indices.size <= SMALL_GRAPH_EDGES
    if small:
        n_sccs, labels = _strong_components(indptr, indices)
    else:
        import scipy.sparse as sp
        from scipy.sparse import csgraph

        n_sccs, labels = csgraph.connected_components(tm.matrix, directed=True,
                                                      connection="strong")
    ## the classes of each edge's source and target
    a = np.repeat(labels, np.diff(indptr))
    b = np.take(labels, indices)
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
        back_indptr, back_indices = _reversed(indptr, indices)
        if small:
            back_indptr, back_indices = back_indptr.tolist(), back_indices.tolist()
        else:
            ## csgraph reads only the pattern; float64 data spares it a conversion
            backward = sp.csr_matrix((np.ones(back_indices.size), back_indices, back_indptr),
                                     shape=(graph.n_cells, graph.n_cells))
        for j in column[fed_ids]:
            start = int(terminal_cells[j][0])
            if small:
                seen = np.array(_reached(back_indptr, back_indices, start))
            else:
                ## the order is a view into an n-sized buffer: copy, do not hold it
                seen = csgraph.breadth_first_order(backward, start,
                                                   return_predecessors=False).copy()
            rows.append(seen)
            cols.append(np.full(seen.size, j))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    ## each (cell, class) pair occurs once: sort by cell, then by class
    by_cell = np.lexsort((cols, rows))
    reach_indptr = np.zeros(graph.n_cells + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=graph.n_cells), out=reach_indptr[1:])
    reach = Reach(reach_indptr, cols[by_cell].astype(np.int32))
    return MinimalSetReport(n_sccs, labels, tuple(int(t) for t in terminal_ids),
                            terminal_cells, reach)


def _reversed(indptr, indices):
    """The CSR graph (indptr, indices) with every edge reversed, as CSR arrays.

    A stable sort by target keeps each cell's sources ascending: the arrays
    equal those of scipy's .T.tocsr() of the same pattern.
    """
    n = len(indptr) - 1
    by_target = np.argsort(indices, kind="stable")
    sources = np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))[by_target]
    back_indptr = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(indices, minlength=n), out=back_indptr[1:])
    return back_indptr, sources


def _strong_components(indptr, indices):
    """Strong components of the CSR graph (indptr, indices), labelled as csgraph labels them.

    Pearce's iterative search (Inf. Process. Lett. 116, 2016) in the order
    of scipy.sparse.csgraph.connected_components(connection="strong"):
    roots in cell order, successors from a cell's last stored edge back to
    its first, components numbered as they complete. Tarjan's one-pass low
    link (SIAM J. Comput. 1(2), 1972) reads each edge once: the scan folds
    each visited successor's rindex into the cell's low, and a finished
    child its final rindex into its parent's. Returns (n_sccs, int32 labels).
    """
    n = len(indptr) - 1
    indptr, indices = indptr.tolist(), indices.tolist()
    done = n + 1  # above every visit number, so a labelled cell lowers no link
    ## 0 unvisited, then the visit number, then the low link, then done
    rindex, labels = [0] * n, [0] * n
    visits = n_sccs = 0
    unlabelled = []  # finished cells whose component is still open
    for root in range(n):
        if rindex[root]:
            continue
        rindex[root] = visits = visits + 1
        path = [[root, indptr[root + 1], done]]  # open cells: [cell, next edge, low]
        while path:
            v, e, low = top = path[-1]
            first = indptr[v]
            while e > first:
                e -= 1
                w = indices[e]
                r = rindex[w]
                if not r:
                    top[1], top[2] = e, low
                    rindex[w] = visits = visits + 1
                    path.append([w, indptr[w + 1], done])
                    break
                if r < low:
                    low = r
            else:
                path.pop()
                own = rindex[v]
                if low < own:  # not at a search root: v has an open parent
                    rindex[v] = low
                    unlabelled.append(v)
                    if low < path[-1][2]:
                        path[-1][2] = low
                    continue
                ## v is its component's root; the rest are the unlabelled cells finished after it
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


class UniqueMinimalSetReport(NamedTuple):
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


def unique_minimal_set_check(graph, max_period=2):
    """Does every reachable closure contain exactly one terminal component?"""
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    spec = graph.transfer.spec
    report = graph.minimal_sets
    graph_verdict = bool(np.all(report.reach.counts() == 1))

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


class ProximalityGraph(NamedTuple):
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
    pts = systems.as_points(points, spec.dimension)
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    if eps <= 0:
        raise InputError("eps must be > 0")
    n_pts = pts.shape[0]
    if n_pts < 2:  # no pair to meet, so no orbit to step
        return ProximalityGraph(pts, int(horizon), float(eps), np.ones((n_pts, n_pts), bool))
    tests = n_pts * (n_pts // 2) * (horizon + 1)
    check_budget("sweep", tests, n_pts, horizon, tests)
    check_budget("pair_plane", n_pts * n_pts, n_pts, n_pts * n_pts)
    hit = np.zeros(n_pts * n_pts, dtype=bool)
    cut = min(eps, 0.5) * (1.0 + 1e-9) + 1e-15
    steps = max(1, SWEEP_BLOCK_POINTS // n_pts)
    cur = pts
    for start in range(0, horizon + 1, steps):
        block = systems.orbit_batch(spec, cur, min(steps, horizon + 1 - start) - 1)
        _sweep(block, eps, cut, hit)
        if start + steps <= horizon:
            cur = systems.orbit_batch(spec, block[-1], 1)[1]
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


class TransitivityReport(NamedTuple):
    defect: float
    n_two_step_triples: int
    n_violations: int
    vacuous: bool
    violating_sample: tuple


def transitivity_defect(pg):
    """Fraction of distinct ordered triples (a,b,c) with edges ab, bc but not ac.

    The denominator counts distinct ordered triples carrying both edges ab
    and bc, sum_b d_b (d_b - 1) over the degrees d_b of the symmetric
    relation without its diagonal; with no such triples (e.g. a diagonal-only graph)
    the defect is 0 vacuously, and no product is made. Self-pairs never
    enter since a, b, c are distinct. Otherwise the two-step counts
    (off @ off)[a, c], off the relation without its diagonal, are made
    TRIPLE_ROW_BLOCK rows at a time in float32. They are exact: each is at
    most P, and the pair_plane budget keeps P below 2^24. The violations
    are the counts at the pairs without an edge, and violating_sample holds
    the first VIOLATION_SAMPLE_CAP of those pairs in row-major order, each
    with its smallest middle point.
    """
    edges = pg.edges
    n_pts = edges.shape[0]
    check_budget("pair_plane", n_pts * n_pts, n_pts, n_pts * n_pts)
    degrees = np.count_nonzero(edges, axis=1) - 1  # less the diagonal
    total = int(degrees @ (degrees - 1))
    if total == 0:
        return TransitivityReport(0.0, 0, 0, True, ())
    off = edges.astype(np.float32)
    np.fill_diagonal(off, 0.0)
    violations, sample = 0, []
    for lo in range(0, n_pts, TRIPLE_ROW_BLOCK):
        two_step = off[lo:lo + TRIPLE_ROW_BLOCK] @ off
        ## the relation is reflexive, so a pair without an edge has a != c
        bad = (two_step > 0) & ~edges[lo:lo + TRIPLE_ROW_BLOCK]
        violations += int(two_step[bad].sum(dtype=np.float64))
        for a, c in np.argwhere(bad)[:VIOLATION_SAMPLE_CAP - len(sample)] + (lo, 0):
            ## with no edge ac, neither a nor c is a common neighbour
            mid = int(np.flatnonzero(edges[a] & edges[:, c])[0])
            sample.append((int(a), mid, int(c)))
    return TransitivityReport(violations / total, total, violations, False, tuple(sample))
