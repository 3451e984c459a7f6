"""Transition-graph structure: SCC oracles, uniqueness verdicts, proximality."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import transfer_of_dense
from semicascade import errors, systems, topology, ulam
from semicascade.errors import InputError, ResourceBudgetError

F = Fraction


def _graph_from_dense(dense, spec=None):
    return topology.graph_from_transfer(
        transfer_of_dense(dense, spec or systems.north_south(0.5)))


def _classes_reached(rep, cell):
    return rep.reach.indices[rep.reach.indptr[cell]:rep.reach.indptr[cell + 1]].tolist()


## hand-built 8-cell chain: transient chain 0 -> 1 -> 2 branching evenly into
## two 2-cycles {3,4} and {5,6}; cell 7 is an isolated self-loop
def _synthetic_two_sink_graph():
    dense = np.zeros((8, 8))
    dense[0, 1] = dense[1, 2] = 1
    dense[2, 3] = dense[2, 5] = 0.5
    dense[3, 4] = dense[4, 3] = 1
    dense[5, 6] = dense[6, 5] = 1
    dense[7, 7] = 1
    return _graph_from_dense(dense)


def test_minimal_sets_synthetic_oracle():
    graph = _synthetic_two_sink_graph()
    rep = topology.minimal_invariant_sets(graph)
    assert rep.n_sccs == 6  # three singles, two 2-cycles, the loop at 7
    terminal_sets = {frozenset(int(c) for c in cells) for cells in rep.terminal_cells}
    assert terminal_sets == {frozenset({3, 4}), frozenset({5, 6}), frozenset({7})}
    ## cells 0,1,2 see both cycle sinks; sink cells see only themselves
    assert len(_classes_reached(rep, 0)) == 2
    assert len(_classes_reached(rep, 3)) == 1
    assert _classes_reached(rep, 3) == _classes_reached(rep, 4)
    assert len(_classes_reached(rep, 7)) == 1
    assert rep.reach.counts().max() == 2
    assert rep.backend == "graph"


def test_reachable_closure():
    ## a row of reach names the terminal classes in the cell's forward closure
    rep = _synthetic_two_sink_graph().minimal_sets

    def closure_sinks(cell):
        return sorted(int(c) for k in _classes_reached(rep, cell) for c in rep.terminal_cells[k])

    assert closure_sinks(0) == [3, 4, 5, 6]
    assert closure_sinks(3) == closure_sinks(4) == [3, 4]
    assert closure_sinks(7) == [7]


def test_unique_check_synthetic_false():
    graph = _synthetic_two_sink_graph()
    chk = topology.unique_minimal_set_check(graph)
    assert chk.verdict is False and chk.graph_verdict is False
    assert chk.backend_used == "graph" and chk.exact_verdict is None
    assert not chk.discrepancy


def test_exact_route_needs_one_scc(monkeypatch):
    ## a doubling graph with two sinks is no dense-orbit witness: the
    ## periodic search is not even started
    def never(*_args):
        raise AssertionError("periodic_orbits called on a graph with several SCCs")

    monkeypatch.setattr(systems, "periodic_orbits", never)
    dense = _synthetic_two_sink_graph().transfer.matrix.toarray()
    chk = topology.unique_minimal_set_check(_graph_from_dense(dense, systems.doubling_map()))
    assert chk.verdict is False and chk.backend_used == "graph"


def test_north_south_unique_true():
    spec = systems.north_south(0.5)
    part = ulam.build_partition(spec, 64, 3)
    graph = topology.graph_from_transfer(ulam.build_transfer_matrix(part, spec))
    chk = topology.unique_minimal_set_check(graph)
    assert chk.verdict is True and chk.backend_used == "graph"
    ## the only terminal class is the attractor's cell [1/2, 1/2 + w)
    cells = [list(map(int, c)) for c in chk.minimal_sets.terminal_cells]
    assert cells == [[32]]


def test_doubling_exact_falsification_and_discrepancy():
    spec = systems.doubling_map()
    part = ulam.build_partition(spec, 64, 3)
    graph = topology.graph_from_transfer(ulam.build_transfer_matrix(part, spec))
    chk = topology.unique_minimal_set_check(graph, max_period=2)
    ## the sampled graph collapses everything into one class (verdict true)
    ## while exact period <= 2 orbits witness two minimal sets
    assert chk.graph_verdict is True
    assert chk.exact_verdict is False
    assert chk.verdict is False
    assert chk.backend_used == "exact_periodic"
    assert chk.discrepancy is True
    sets = sorted(({pt.coords[0] for pt in orb.points} for orb in chk.witnesses), key=min)
    assert sets == [{F(0)}, {F(1, 3), F(2, 3)}]


def test_rotation_single_class():
    spec = systems.circle_rotation(systems.GOLDEN)
    part = ulam.build_partition(spec, 64, 3)
    graph = topology.graph_from_transfer(ulam.build_transfer_matrix(part, spec))
    rep = topology.minimal_invariant_sets(graph)
    assert rep.n_sccs == 1
    assert len(rep.terminal_cells) == 1 and len(rep.terminal_cells[0]) == 64


def test_many_unfed_classes_need_no_search(monkeypatch):
    ## the half-turn with one sample per cell pairs cell i with i + m/2: 2048
    ## two-cell classes that nothing feeds, so each cell reaches only its own
    ## class and no breadth-first search runs (k searches would cost O(k n)),
    ## neither on the Python path its 4096 edges take nor on csgraph's
    from scipy.sparse import csgraph

    def never(*_args, **_kwargs):
        raise AssertionError("breadth-first search run from an unfed class")

    spec = systems.circle_rotation("1/2")
    part = ulam.build_partition(spec, 4096, 1)
    tm = ulam.build_transfer_matrix(part, spec)
    monkeypatch.setattr(topology, "_reached", never)
    monkeypatch.setattr(csgraph, "breadth_first_order", never)
    for threshold in (topology.SMALL_GRAPH_EDGES, 0):
        monkeypatch.setattr(topology, "SMALL_GRAPH_EDGES", threshold)
        rep = topology.minimal_invariant_sets(topology.graph_from_transfer(tm))
        assert len(rep.terminal_cells) == 2048
        assert np.array_equal(np.diff(rep.reach.indptr), np.ones(4096, dtype=int))
        assert rep.reach.counts().max() == 1


@st.composite
def _directed_graphs(draw):
    """Boolean adjacency of up to 200 cells: cycles, chains and self-loops
    over spans of cells, random edges on top, then the cells shuffled."""
    n = draw(st.integers(1, 200))
    dense = np.zeros((n, n), dtype=bool)
    cell = st.integers(0, n - 1)
    for kind, a, b in draw(st.lists(st.tuples(st.sampled_from(["cycle", "chain", "loop"]),
                                              cell, cell), max_size=12)):
        span = np.arange(min(a, b), max(a, b) + 1)
        if kind == "cycle":
            dense[span, np.roll(span, -1)] = True
        elif kind == "chain":
            dense[span[:-1], span[1:]] = True
        else:
            dense[span, span] = True
    for a, b in draw(st.lists(st.tuples(cell, cell), max_size=2 * n)):
        dense[a, b] = True
    order = np.array(draw(st.permutations(range(n))))
    return dense[np.ix_(order, order)]


@settings(max_examples=200, deadline=None)
@given(dense=_directed_graphs())
def test_python_and_csgraph_paths_agree(dense):
    ## csgraph is the reference: the Python search must reproduce its labels,
    ## not just its partition, and the reach relation built on either path
    from scipy.sparse import csgraph

    graph = _graph_from_dense(dense)
    tm = graph.transfer
    n_sccs, labels = topology._strong_components(tm.indptr, tm.indices)
    ref_n_sccs, ref_labels = csgraph.connected_components(tm.matrix, directed=True,
                                                          connection="strong")
    assert n_sccs == ref_n_sccs
    assert labels.dtype == ref_labels.dtype and np.array_equal(labels, ref_labels)

    reports = []
    for threshold in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology, "SMALL_GRAPH_EDGES", threshold)
            reports.append(topology.minimal_invariant_sets(graph))
    by_csgraph, by_python = reports
    assert by_python.n_sccs == by_csgraph.n_sccs
    assert np.array_equal(by_python.scc_of_cell, by_csgraph.scc_of_cell)
    assert by_python.terminal_scc_ids == by_csgraph.terminal_scc_ids
    assert len(by_python.terminal_cells) == len(by_csgraph.terminal_cells)
    for ours, theirs in zip(by_python.terminal_cells, by_csgraph.terminal_cells):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(by_python.reach.indptr, by_csgraph.reach.indptr)
    assert np.array_equal(by_python.reach.indices, by_csgraph.reach.indices)


@pytest.mark.parametrize("spec, cells, samples, n_sccs", [
    ## one cycle through every cell: the search runs 2^15 cells deep
    (systems.circle_rotation(systems.GOLDEN), 1 << 15, 2, 1),
    ## 32768 two-cell classes, each a search of its own
    (systems.circle_rotation("1/2"), 1 << 16, 1, 1 << 15),
    ## every cell a singleton component, all feeding the attractor's class
    (systems.north_south(0.5), 1 << 15, 2, 1 << 15),
    (systems.tent_map(1.7), 1 << 15, 3, 13271),
], ids=["golden", "half_turn", "north_south", "tent"])
def test_python_and_csgraph_paths_agree_on_large_graphs(spec, cells, samples, n_sccs):
    from scipy.sparse import csgraph

    graph = topology.graph_from_transfer(
        ulam.build_transfer_matrix(ulam.build_partition(spec, cells, samples), spec))
    tm = graph.transfer
    ours = topology._strong_components(tm.indptr, tm.indices)
    theirs = csgraph.connected_components(tm.matrix, directed=True, connection="strong")
    assert ours[0] == theirs[0] == n_sccs
    assert ours[1].dtype == theirs[1].dtype and np.array_equal(ours[1], theirs[1])

    reports = []
    for threshold in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(topology, "SMALL_GRAPH_EDGES", threshold)
            reports.append(topology.minimal_invariant_sets(graph))
    by_csgraph, by_python = reports
    assert by_python.backend == by_csgraph.backend
    assert by_python.n_sccs == by_csgraph.n_sccs
    assert by_python.scc_of_cell.dtype == by_csgraph.scc_of_cell.dtype
    assert np.array_equal(by_python.scc_of_cell, by_csgraph.scc_of_cell)
    assert by_python.terminal_scc_ids == by_csgraph.terminal_scc_ids
    assert len(by_python.terminal_cells) == len(by_csgraph.terminal_cells)
    for a, b in zip(by_python.terminal_cells, by_csgraph.terminal_cells):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(by_python.reach, by_csgraph.reach):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_proximality_rotation_is_diagonal():
    ## an isometry preserves every pairwise distance, so points 0.01 apart
    ## never come within 1e-3 of each other
    spec = systems.circle_rotation(systems.GOLDEN)
    pts = systems.equispaced_points(100, 1)
    pg = topology.proximality_graph(spec, pts, 100, 1e-3)
    assert np.array_equal(pg.edges, np.eye(100, dtype=bool))
    rep = topology.transitivity_defect(pg)
    assert rep.defect == 0.0 and rep.vacuous and rep.n_two_step_triples == 0


def test_proximality_north_south_complete_except_repeller():
    spec = systems.north_south(0.5)
    pts = systems.equispaced_points(40, 1)
    pg = topology.proximality_graph(spec, pts, 1000, 1e-3)
    ## the repelling fixed point 0 never meets anyone; everyone else
    ## funnels into the attractor and meets everyone
    assert not pg.edges[0, 1:].any()
    assert pg.edges[1:, 1:].all()
    rep = topology.transitivity_defect(pg)
    assert rep.defect == 0.0 and not rep.vacuous


def test_proximal_pair_doubling():
    ## dyadic points both collapse onto 0 in finitely many doublings
    spec = systems.doubling_map()
    pts = np.array([[1.0 / 8.0], [1.0 / 8.0 + 1.0 / 64.0], [1.0 / 3.0]])
    pg = topology.proximality_graph(spec, pts, 10, 1e-6)
    assert pg.edges[0, 1]
    assert not pg.edges[0, 2]


@pytest.mark.parametrize("spec", [
    systems.circle_rotation(systems.GOLDEN), systems.doubling_map(),
    systems.north_south(0.5), systems.tent_map(1.7), systems.tent_map(2),
    systems.cat_map()], ids=lambda s: s.describe())
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_proximality_matches_bruteforce(spec, data):
    ## edge iff the pairwise minimum of systems.metric over the orbit rows
    ## falls below eps; short horizons and large eps make the last step
    ## decide often, long ones reach the float collapse of doubling and tent
    n_pts = data.draw(st.integers(1, 6))
    coords = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                min_size=n_pts * spec.dimension,
                                max_size=n_pts * spec.dimension))
    pts = np.array(coords).reshape(n_pts, spec.dimension)
    horizon = data.draw(st.one_of(st.integers(0, 4), st.integers(0, 80)))
    eps = data.draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.3]))
    pg = topology.proximality_graph(spec, pts, horizon, eps)
    orb = systems.orbit_batch(spec, pts, horizon)
    expected = np.eye(n_pts, dtype=bool)
    for a in range(n_pts):
        for b in range(a + 1, n_pts):
            dmin = min(systems.metric(spec, row[a], row[b]) for row in orb)
            expected[a, b] = expected[b, a] = dmin < eps
    assert np.array_equal(pg.edges, expected)


def _dense_edges(spec, pts, horizon, eps):
    ## the comparison the sweep replaced: one P x P plane of systems.metric
    ## per orbit step, folded into a running minimum
    def plane(c):
        far = None
        for j in range(c.shape[1]):
            d = np.abs(c[:, None, j] - c[None, :, j])
            np.minimum(d, 1.0 - d, out=d)
            far = d if far is None else np.maximum(far, d, out=far)
        return far

    orbit = systems.orbit_batch(spec, pts, horizon)
    dmin = plane(orbit[0])
    for cur in orbit[1:]:
        np.minimum(dmin, plane(cur), out=dmin)
    edges = dmin < eps
    np.fill_diagonal(edges, True)
    return np.logical_or(edges, edges.T)


_FAMILIES = [
    systems.circle_rotation(systems.GOLDEN), systems.circle_rotation("1/2"),
    systems.doubling_map(), systems.north_south(0.5), systems.tent_map(1.7),
    systems.tent_map(2), systems.cat_map(), systems.toral_automorphism(1, 1, 0, 1),
    systems.toral_automorphism(0, 1, -1, 0)]
_SWEEP_EPS = [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7]


@st.composite
def _probe_sets(draw, dimension, eps):
    ## every coordinate comes from a small pool, so exact duplicates and
    ## equal first coordinates (the columns of an equispaced grid) are
    ## common; the pool holds values within eps on both sides of the seam
    near = st.floats(0.0, min(eps, 0.5), exclude_max=True)
    pool = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), near,
        near.map(lambda u: 1.0 - u if 1.0 - u < 1.0 else 0.0)), min_size=1, max_size=8))
    n_pts = draw(st.integers(1, 40))
    coords = draw(st.lists(st.sampled_from(pool), min_size=n_pts * dimension,
                           max_size=n_pts * dimension))
    return np.array(coords).reshape(n_pts, dimension)


@pytest.mark.parametrize("eps", _SWEEP_EPS)
@pytest.mark.parametrize("spec", _FAMILIES, ids=lambda s: s.describe())
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_sweep_matches_dense_loop(spec, eps, data):
    ## blocks of a few point-steps make the horizons cross several blocks
    pts = data.draw(_probe_sets(spec.dimension, eps))
    horizon = data.draw(st.integers(0, 60))
    block = data.draw(st.sampled_from([1, 7, 64, topology.SWEEP_BLOCK_POINTS]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "SWEEP_BLOCK_POINTS", block)
        pg = topology.proximality_graph(spec, pts, horizon, eps)
    assert np.array_equal(pg.edges, _dense_edges(spec, pts, horizon, eps))


def _seam_cases():
    ## probe counts that put a block seam at every boundary: one probe, the
    ## divisors of SWEEP_BLOCK_POINTS and one above a divisor; horizons at
    ## and next to one block of steps = max(1, SWEEP_BLOCK_POINTS // P)
    for n_pts in (1, 2, 64, 65, 512, 513, 1024, 1025):
        steps = max(1, topology.SWEEP_BLOCK_POINTS // n_pts)
        for horizon in sorted({0, 1, steps - 1, steps, steps + 1}):
            yield n_pts, horizon


@pytest.mark.parametrize("n_pts, horizon", list(_seam_cases()))
@pytest.mark.parametrize("spec", [systems.circle_rotation(systems.GOLDEN), systems.doubling_map(),
                                  systems.cat_map()], ids=lambda s: s.family)
def test_sweep_matches_dense_loop_at_block_seams(spec, n_pts, horizon):
    pts = systems.kronecker_points(n_pts, spec.dimension)
    pg = topology.proximality_graph(spec, pts, horizon, 0.05)
    assert np.array_equal(pg.edges, _dense_edges(spec, pts, horizon, 0.05))


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("spec, pts", [
    (systems.cat_map(), systems.equispaced_points(10, 2)),
    (systems.circle_rotation(systems.GOLDEN), systems.equispaced_points(100, 1))],
    ids=["cat-10x10", "golden-100"])
def test_sweep_matches_dense_loop_at_the_cli_horizon(spec, pts, eps):
    pg = topology.proximality_graph(spec, pts, 1024, eps)
    assert np.array_equal(pg.edges, _dense_edges(spec, pts, 1024, eps))


def _triples(edges):
    """(two-step triples, violations, the first VIOLATION_SAMPLE_CAP
    violating pairs (a, c) in row-major order with their smallest b) of a
    relation, enumerated one first point a at a time."""
    n = edges.shape[0]
    off = edges & ~np.eye(n, dtype=bool)
    total = viol = 0
    sample = []
    for a in range(n):
        ## path[b, c]: edges ab and bc, with a, b and c distinct
        path = off[a][:, None] & off
        path[:, a] = False
        bad = path & ~edges[a]
        total += int(path.sum())
        viol += int(bad.sum())
        for c in np.flatnonzero(bad.any(axis=0)):
            sample.append((a, int(np.flatnonzero(bad[:, c])[0]), int(c)))
    return total, viol, tuple(sample[:topology.VIOLATION_SAMPLE_CAP])


def _symmetric(rng, n, density):
    edges = rng.random((n, n)) < density
    edges = np.logical_or(edges, edges.T)
    np.fill_diagonal(edges, True)
    return edges


def test_transitivity_exact_against_bruteforce():
    rng = np.random.default_rng(11)
    graphs = [_symmetric(rng, int(rng.integers(4, 16)), 0.4) for trial in range(20)]
    ## past the row blocks of the count product: a sparse relation, and a
    ## path whose first block holds fewer violations than the sample takes
    block = topology.TRIPLE_ROW_BLOCK
    graphs.append(_symmetric(rng, 2 * block + 37, 0.01))
    path = np.eye(block + 30, dtype=bool)
    step = np.arange(block - 2, block + 29)
    path[step, step + 1] = path[step + 1, step] = True
    graphs.append(path)
    for edges in graphs:
        n = edges.shape[0]
        total, viol, sample = _triples(edges)
        ## a small block puts a boundary between the rows of every graph
        for rows in (block, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(topology, "TRIPLE_ROW_BLOCK", rows)
                rep = topology.transitivity_defect(
                    topology.ProximalityGraph(np.zeros((n, 1)), 1, 0.1, edges))
            assert rep.n_two_step_triples == total
            assert rep.n_violations == viol
            assert rep.defect == (viol / total if total else 0.0)
            assert rep.vacuous == (total == 0)
            assert rep.violating_sample == sample
    ## the path's sample holds pairs from both sides of the first boundary
    assert any(v[0] < block for v in sample) and any(v[0] >= block for v in sample)


def _int64_report(edges):
    ## the dense int64 count: every two-step count of the relation at once
    n = edges.shape[0]
    off = edges.copy()
    np.fill_diagonal(off, False)
    two = off.astype(np.int64) @ off.astype(np.int64)
    mask = ~np.eye(n, dtype=bool)
    total = int(two[mask].sum())
    bad = (two > 0) & ~off & mask
    viol = int(two[bad].sum())
    sample = tuple((int(a), int(np.flatnonzero(off[a] & off[:, c])[0]), int(c))
                   for a, c in np.argwhere(bad)[:topology.VIOLATION_SAMPLE_CAP])
    if total == 0:
        return topology.TransitivityReport(0.0, 0, 0, True, ())
    return topology.TransitivityReport(viol / total, total, viol, False, sample)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_transitivity_matches_the_int64_count(n, density, seed):
    edges = _symmetric(np.random.default_rng(seed), n, density ** 3)
    rep = topology.transitivity_defect(topology.ProximalityGraph(np.zeros((n, 1)), 1, 0.1, edges))
    assert rep == _int64_report(edges)


def test_transitivity_exact_at_250_probes():
    edges = _symmetric(np.random.default_rng(3), 250, 0.3)
    rep = topology.transitivity_defect(topology.ProximalityGraph(np.zeros((250, 1)), 1, 0.1, edges))
    assert rep == _int64_report(edges)
    assert len(rep.violating_sample) == topology.VIOLATION_SAMPLE_CAP


def test_proximality_plane_budget(monkeypatch):
    ## P x P planes are refused by size even when the operation count fits
    spec = systems.circle_rotation("1/3")
    monkeypatch.setitem(errors.BUDGETS, "pair_plane", errors.BUDGETS["pair_plane"]._replace(cap=100))
    assert topology.proximality_graph(spec, systems.equispaced_points(10, 1), 1, 0.1).edges.shape == (10, 10)
    with pytest.raises(ResourceBudgetError, match="11 probe points make 121-entry pair planes"):
        topology.proximality_graph(spec, systems.equispaced_points(11, 1), 1, 0.1)
    ## the triple count holds a float32 plane of the same size
    edges = np.ones((11, 11), dtype=bool)
    with pytest.raises(ResourceBudgetError, match="11 probe points make 121-entry pair planes"):
        topology.transitivity_defect(topology.ProximalityGraph(np.zeros((11, 1)), 1, 0.1, edges))


def test_proximality_validation_and_budget():
    spec = systems.doubling_map()
    pts = systems.equispaced_points(10, 1)
    with pytest.raises(InputError):
        topology.proximality_graph(spec, pts, -1, 0.1)
    with pytest.raises(InputError):
        topology.proximality_graph(spec, pts, 10, 0.0)
    with pytest.raises(InputError):
        topology.proximality_graph(systems.cat_map(), pts, 10, 0.1)
    with pytest.raises(ResourceBudgetError, match="2097152500000 sweep pair tests at most, over the budget of"):
        topology.proximality_graph(spec, systems.equispaced_points(1000, 1),
                                   1 << 22, 0.1)


def test_single_probe_is_its_own_pair_without_a_step(monkeypatch):
    ## one probe, or none, has no pair to sweep, so no orbit step is taken at
    ## any horizon
    monkeypatch.setattr(systems, "orbit_batch", None)
    pg = topology.proximality_graph(systems.doubling_map(), np.array([[0.3]]), 1 << 40, 0.1)
    assert pg.edges.tolist() == [[True]] and pg.horizon == 1 << 40
    assert topology.proximality_graph(systems.doubling_map(), np.zeros((0, 1)), 4, 0.1).edges.shape == (0, 0)


def test_proximality_budget_counts_sweep_pair_tests(monkeypatch):
    ## the sweep may meet all P // 2 offsets at every step: P (P // 2) (H + 1)
    spec = systems.doubling_map()
    pts = systems.equispaced_points(10, 1)
    monkeypatch.setitem(errors.BUDGETS, "sweep", errors.BUDGETS["sweep"]._replace(cap=500))
    assert topology.proximality_graph(spec, pts, 9, 0.5).edges.all()
    with pytest.raises(ResourceBudgetError, match="550 sweep pair tests at most, over the budget of 500"):
        topology.proximality_graph(spec, pts, 10, 0.5)


def test_dense_sweep_is_refused_up_front():
    ## at eps 1/2 every offset is met at every step: the sweep of 2025
    ## cat-map probes to horizon 1060484 would run for hours, so it is
    ## refused before any work
    spec = systems.cat_map()
    pts = systems.equispaced_points(45, 2)
    for horizon in (1060484, 1047):  # 2025 x 1012 x 1048 pair tests pass 2^31 first at 1047
        with pytest.raises(ResourceBudgetError, match="sweep pair tests at most, over the budget of"):
            topology.proximality_graph(spec, pts, horizon, 0.5)


def test_2025_cat_map_probes_run_to_horizon_1024():
    ## the default eps, as the CLI's proximality config gives it
    pg = topology.proximality_graph(systems.cat_map(), systems.equispaced_points(45, 2), 1024, 1e-3)
    assert pg.edges.shape == (2025, 2025)
    rep = topology.transitivity_defect(pg)
    assert (rep.n_two_step_triples, rep.n_violations) == (19396, 19048)


def test_2025_cat_map_probes_count_every_triple_at_horizon_256():
    ## a sparse relation: 828 two-step triples among 2025^3 ordered triples,
    ## too few for a sample of 10^5 random triples to meet one
    pg = topology.proximality_graph(systems.cat_map(), systems.equispaced_points(45, 2), 256, 1e-3)
    rep = topology.transitivity_defect(pg)
    assert (rep.n_two_step_triples, rep.n_violations, rep.vacuous) == (828, 762, False)
    assert rep.defect == 762 / 828
    assert rep.violating_sample[0] == (3, 628, 133)
    for a, b, c in rep.violating_sample:
        assert pg.edges[a, b] and pg.edges[b, c] and not pg.edges[a, c]


def test_proximality_refuses_points_off_the_circle():
    ## the sweep's seam argument needs every coordinate in [0,1)
    spec = systems.doubling_map()
    for pts in ([[0.5], [1.0]], [[-0.25], [0.5]], [[np.nan], [0.5]]):
        with pytest.raises(InputError, match=r"\[0,1\)"):
            topology.proximality_graph(spec, pts, 10, 0.1)


def test_proximality_2d_route():
    cat = systems.cat_map()
    pts = systems.equispaced_points(4, 2)  # 16 points
    pg = topology.proximality_graph(cat, pts, 30, 0.05)
    assert pg.edges.shape == (16, 16)
    assert np.array_equal(pg.edges, pg.edges.T)
    assert np.all(np.diag(pg.edges))
