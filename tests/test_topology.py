"""Transition-graph structure: SCC oracles, uniqueness verdicts, proximality."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from semicascade import systems, topology, ulam
from semicascade.errors import InputError, ResourceBudgetError

F = Fraction


def _graph_from_dense(dense, spec=None, m=None):
    spec = spec or systems.north_south(0.5)
    m = m or dense.shape[0]
    part = ulam.build_partition(spec, m, 1)
    mat = sp.csr_matrix(np.asarray(dense, dtype=np.float64))
    return topology.graph_from_transfer(ulam.TransferMatrix(mat, part, spec))


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
    assert rep.reach[0].nnz == 2
    assert rep.reach[3].nnz == 1
    assert list(rep.reach[3].indices) == list(rep.reach[4].indices)
    assert rep.reach[7].nnz == 1
    js = rep.as_jsonable()
    assert js["max_terminals_seen_from_any_cell"] == 2
    assert js["backend"] == "graph"


def test_reachable_closure():
    ## a row of reach names the terminal classes in the cell's forward closure
    rep = _synthetic_two_sink_graph().minimal_sets

    def closure_sinks(cell):
        return sorted(int(c) for k in rep.reach[cell].indices for c in rep.terminal_cells[k])

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
    dense = _synthetic_two_sink_graph().adjacency.toarray()
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
    ## class and no breadth-first search runs (k searches would cost O(k n))
    def never(*_args, **_kwargs):
        raise AssertionError("breadth_first_order called on an unfed class")

    spec = systems.circle_rotation("1/2")
    part = ulam.build_partition(spec, 4096, 1)
    graph = topology.graph_from_transfer(ulam.build_transfer_matrix(part, spec))
    monkeypatch.setattr(topology.csgraph, "breadth_first_order", never)
    rep = topology.minimal_invariant_sets(graph)
    assert len(rep.terminal_cells) == 2048
    assert np.array_equal(np.diff(rep.reach.indptr), np.ones(4096, dtype=int))
    assert rep.as_jsonable()["max_terminals_seen_from_any_cell"] == 1


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
    assert rep.method == "exact"


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


def test_transitivity_exact_against_bruteforce():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(4, 16))
        edges = rng.random((n, n)) < 0.4
        edges = np.logical_or(edges, edges.T)
        np.fill_diagonal(edges, True)
        pg = topology.ProximalityGraph(np.zeros((n, 1)), 1, 0.1, edges)
        rep = topology.transitivity_defect(pg)
        total = viol = 0
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if a == b or b == c or a == c:
                        continue
                    if edges[a, b] and edges[b, c]:
                        total += 1
                        if not edges[a, c]:
                            viol += 1
        assert rep.n_two_step_triples == total
        assert rep.n_violations == viol
        expected = viol / total if total else 0.0
        assert rep.defect == pytest.approx(expected)
        assert rep.vacuous == (total == 0)
        for a, b, c in rep.violating_sample:
            assert edges[a, b] and edges[b, c] and not edges[a, c]


def test_transitivity_sampled_route():
    rng = np.random.default_rng(3)
    n = 250  # over the 200-point exact limit
    edges = rng.random((n, n)) < 0.3
    edges = np.logical_or(edges, edges.T)
    np.fill_diagonal(edges, True)
    pg = topology.ProximalityGraph(np.zeros((n, 1)), 1, 0.1, edges)
    rep1 = topology.transitivity_defect(pg)
    rep2 = topology.transitivity_defect(pg)
    assert rep1.method == "sampled"
    assert rep1.defect == rep2.defect  # seeded sampling is deterministic
    ## exact defect on the same graph, via the matrix-count identity
    off = edges.copy()
    np.fill_diagonal(off, False)
    a0 = off.astype(np.int64)
    two = a0 @ a0
    mask = ~np.eye(n, dtype=bool)
    exact = two[mask & (two > 0) & ~off].sum() / two[mask].sum()
    assert abs(rep1.defect - exact) <= 0.01  # 1e5 samples, ~3 sigma
    for a, b, c in rep1.violating_sample:
        assert off[a, b] and off[b, c] and not off[a, c]


def test_proximality_validation_and_budget():
    spec = systems.doubling_map()
    pts = systems.equispaced_points(10, 1)
    with pytest.raises(InputError):
        topology.proximality_graph(spec, pts, -1, 0.1)
    with pytest.raises(InputError):
        topology.proximality_graph(spec, pts, 10, 0.0)
    with pytest.raises(InputError):
        topology.proximality_graph(systems.cat_map(), pts, 10, 0.1)
    with pytest.raises(ResourceBudgetError):
        topology.proximality_graph(spec, systems.equispaced_points(1000, 1),
                                   1 << 22, 0.1)


def test_proximality_2d_route():
    cat = systems.cat_map()
    pts = systems.equispaced_points(4, 2)  # 16 points
    pg = topology.proximality_graph(cat, pts, 30, 0.05)
    assert pg.edges.shape == (16, 16)
    assert np.array_equal(pg.edges, pg.edges.T)
    assert np.all(np.diag(pg.edges))
