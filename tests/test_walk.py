"""Property tests of the one transfer-operator walk and the sums built on it.

Chains are random sparse row-stochastic matrices whose first cells form
pure cycle blocks (a random permutation) and whose other rows spread over
one to three random cells. Every schedule sum is checked against dense
matrix powers, every ergodicity defect against an explicit T(mu - mu V),
batched limit measures against one-point calls, the cell-to-class reach
relation against a dense transitive closure, and the kernel projection and
the per-point limit measures against a dense Kemeny-Snell projection.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import transfer_of_dense
from semicascade import ergodic, measures, systems, topology, ulam

F = Fraction

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def chains(draw):
    n = draw(st.integers(2, 10))
    cyclic = draw(st.integers(0, n))  # cells 0..cyclic-1 are permuted exactly
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n, n))
    dense[np.arange(cyclic), rng.permutation(cyclic)] = 1.0
    for i in range(cyclic, n):
        cols = rng.choice(n, size=rng.integers(1, min(3, n) + 1), replace=False)
        dense[i, cols] = rng.random(cols.size) + 0.05
        dense[i] /= dense[i].sum()
    return transfer_of_dense(dense), dense


@st.composite
def _multi_run(draw):
    """One to three disjoint runs, possibly with gaps, of random weights."""
    cuts = sorted(draw(st.sets(st.integers(0, 30), min_size=2, max_size=7)))
    spans = list(zip(cuts[::2], cuts[1::2]))
    mass = [draw(st.floats(0.05, 1.0)) for _ in spans]
    total = sum(m * (b - a) for m, (a, b) in zip(mass, spans))
    return ergodic.ErgodicSchedule(tuple((a, b, m / total) for m, (a, b) in zip(mass, spans)))


schedules = st.one_of(st.integers(1, 24).map(ergodic.cesaro_schedule),
                      st.builds(ergodic.window_schedule, st.integers(0, 16),
                                st.integers(1, 12)),
                      _multi_run())


def _measures(data, n, k):
    """k random probability vectors of length n, as an (n, k) block."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    block = rng.random((n, k)) * (rng.random((n, k)) < 0.6) + 1e-3
    return block / block.sum(axis=0)


def _dense_apply(dense, sch, start):
    return sum(w * np.linalg.matrix_power(dense.T, p) @ start
               for p, w in zip(sch.powers, sch.weights))


@PROPERTY_SETTINGS
@given(chains(), st.lists(schedules, min_size=1, max_size=4), st.integers(0, 3),
       st.data())
def test_schedule_sums_match_dense_powers(chain, schs, k, data):
    ## k == 0 walks a single measure vector, k >= 1 an (n, k) block
    tm, dense = chain
    block = _measures(data, tm.n_cells, max(k, 1))
    start = block[:, 0] if k == 0 else block
    got = ergodic.apply_schedules_batch(tm, schs, start)
    assert got.shape == (len(schs),) + start.shape
    for sch, out in zip(schs, got):
        assert np.max(np.abs(out - _dense_apply(dense, sch, start))) <= 1e-12
        ## a row is the sum of its own powers, whatever else rides the walk
        assert np.array_equal(ergodic.apply_schedules_batch(tm, [sch], start)[0], out)


@PROPERTY_SETTINGS
@given(chains(), schedules, st.integers(1, 3), st.data())
def test_gate_defects_match_explicit_telescoping(chain, sch, k, data):
    ## T(I-V) mu = T mu - T(mu V): the schedule applied to the probes and to
    ## their images, against dense powers
    tm, dense = chain
    block = _measures(data, tm.n_cells, k)
    probes = list(block.T)
    bank = np.asarray(ulam.sample_test_bank(tm.partition, 4))
    explicit = [np.max(np.abs(bank @ _dense_apply(dense, sch, mu - mu @ dense)))
                for mu in probes]
    t_mu, t_mu_v = ergodic.apply_schedules_batch(
        tm, [sch], np.hstack([block, dense.T @ block]))[0].T.reshape(2, k, -1)
    defect = np.max(np.abs(bank @ (t_mu - t_mu_v).T))
    assert abs(defect - max(explicit)) <= 1e-12
    ## the gate inside convergence_diagnostic sees the same defect: it lets
    ## the schedule through just above it and stops it just below
    mu, d = probes[0], explicit[0]
    passed = ergodic.convergence_diagnostic(tm, [sch, sch], mu, list(bank),
                                            gate=d + 1e-12)
    assert "gate" not in passed.cause
    if d > 1e-12:
        gated = ergodic.convergence_diagnostic(tm, [sch, sch], mu, list(bank),
                                               gate=d - 1e-12)
        assert "gate" in gated.cause


points = st.lists(st.one_of(
    st.floats(0.0, 1.0, exclude_max=True).map(lambda x: np.array([x])),
    st.integers(1, 40).flatmap(lambda q: st.integers(0, q - 1).map(
        lambda a: systems.RationalPoint((F(a, q),))))), min_size=1, max_size=6)


def _estimate(tm):
    graph = topology.graph_from_transfer(tm)
    return ergodic.kernel_projection_estimate(measures.stationary_measures(graph))


@PROPERTY_SETTINGS
@given(chains(), points, st.integers(1, 48))
def test_batched_limit_measures_equal_single_calls(chain, points, n):
    ## a small n cuts the exact-cycle search short for some rational points,
    ## so the batch mixes matrix-route fallbacks with float points
    est = _estimate(chain[0])
    batch = ergodic.limit_measure_per_point(est, points, n)
    assert len(batch) == len(points)
    for pt, res in zip(points, batch):
        single, = ergodic.limit_measure_per_point(est, [pt], n)
        assert res.route == single.route
        assert np.array_equal(res.measure, single.measure)
        assert res.ergodic == single.ergodic
        assert res.mass_in_class == single.mass_in_class


def _reach(dense):
    """Dense transitive closure: reach[c, d] iff cell c reaches cell d."""
    n = len(dense)
    return np.linalg.matrix_power((np.eye(n) + dense > 0).astype(float), n) > 0


def _kemeny_snell(dense):
    """Cesaro limit Q = A Pi of a dense row-stochastic matrix, by numpy.linalg.

    Returns (Q, A, classes): A has one column per closed class, and
    classes[j] is the boolean cell mask of column j.
    """
    n = len(dense)
    reach = _reach(dense)
    closed = np.all(reach.T | ~reach, axis=1)  # every cell it reaches reaches back
    classes = np.unique(reach[closed], axis=0)  # a closed cell reaches its class
    pi = np.zeros((len(classes), n))
    for c, cells in enumerate(classes):
        block = dense[np.ix_(cells, cells)]
        lhs = np.vstack([block.T - np.eye(len(block)), np.ones(len(block))])
        rhs = np.append(np.zeros(len(block)), 1.0)
        pi[c, cells] = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    a = classes.T.astype(float)
    a[~closed] = np.linalg.solve(np.eye(n - closed.sum()) - dense[np.ix_(~closed, ~closed)],
                                 dense[np.ix_(~closed, closed)] @ a[closed])
    return a @ pi, a, classes


@PROPERTY_SETTINGS
@given(chains(), points, st.integers(1, 48))
def test_limit_measures_match_kemeny_snell(chain, pts, n):
    ## the limit of a point mass in cell c is row c of Q, its class masses
    ## are row c of A, and it is single-class iff c reaches one closed class;
    ## an exact cycle is single-class iff its cells lie in one closed class
    tm, dense = chain
    q, a, classes = _kemeny_snell(dense)
    reach = _reach(dense)
    est = _estimate(tm)
    scc_of_cell = est.graph.minimal_sets.scc_of_cell
    results = ergodic.limit_measure_per_point(est, pts, n)
    for pt, res in zip(pts, results):
        class_masses = [res.measure[cells].sum() for cells in classes]
        assert abs(res.mass_in_class - max(class_masses)) <= 1e-12
        if res.route == "exact_cycle":
            assert res.ergodic == any(cells[res.support_cells].all() for cells in classes)
            continue
        if isinstance(pt, systems.RationalPoint):
            pt = pt.as_floats()  # its orbit did not cycle within n steps
        c = tm.partition.cell_of_points(np.array([pt]))[0]
        assert np.max(np.abs(res.measure - q[c])) <= 1e-9
        assert np.max(np.abs(np.array(class_masses) - a[c])) <= 1e-12
        dominant, = [j for j, cells in enumerate(classes)
                     if np.array_equal(cells, scc_of_cell == res.dominant_class)]
        assert abs(a[c, dominant] - a[c].max()) <= 1e-12
        assert res.ergodic == (int(np.any(classes & reach[c], axis=1).sum()) == 1)


@PROPERTY_SETTINGS
@given(chains())
def test_reach_relation_matches_dense_closure(chain):
    ## column j of reach is the set of cells whose closure meets terminal
    ## class j; pure-cycle blocks give unfed classes, spreading rows fed ones
    tm, dense = chain
    classes = _kemeny_snell(dense)[2]
    reach = _reach(dense)
    report = topology.graph_from_transfer(tm).minimal_sets
    assert report.reach.indptr.size == tm.n_cells + 1
    cell_of_pair = np.repeat(np.arange(tm.n_cells), report.reach.counts())
    got = {frozenset(cells.tolist()): frozenset(cell_of_pair[report.reach.indices == j].tolist())
           for j, cells in enumerate(report.terminal_cells)}
    want = {frozenset(np.flatnonzero(cells).tolist()):
            frozenset(np.flatnonzero(reach[:, cells].any(axis=1)).tolist())
            for cells in classes}
    assert got == want
    seen = (reach[:, None, :] & classes[None, :, :]).any(axis=2).sum(axis=1)
    assert report.reach.counts().max() == seen.max()


@PROPERTY_SETTINGS
@given(chains())
def test_kernel_projection_matches_kemeny_snell(chain):
    tm, dense = chain
    est = _estimate(tm)
    q = est.q
    assert np.max(np.abs(q - _kemeny_snell(dense)[0])) <= 1e-9
    assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-12
    assert est.residual_idem <= 1e-12
    assert est.residual_vq <= 1e-12
    ## the certificates from the factors are the norms of the dense products
    assert abs(est.residual_vq - np.abs(dense @ q - q).sum(axis=1).max()) <= 1e-12
    assert abs(est.residual_idem - np.abs(q @ q - q).sum(axis=1).max()) <= 1e-12
