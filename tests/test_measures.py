"""Stationary measures, Birkhoff averages, supports, attraction center."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import transfer_of_dense
from semicascade import measures, systems, topology, ulam
from semicascade.errors import InputError

F = Fraction


def _tm_of(spec, m, s=3):
    part = ulam.build_partition(spec, m, s)
    return ulam.build_transfer_matrix(part, spec)


# ---------------------------------------------------------------------------
# stationary measures


def test_rotation_uniform_is_exactly_stationary():
    ## the rotation chain is doubly stochastic (constant displacement
    ## multiset per cell), so the uniform start is a fixed point and the
    ## damped iteration never runs
    tm = _tm_of(systems.circle_rotation(F(1, 8)), 16)
    graph = topology.graph_from_transfer(tm)
    ms = measures.stationary_measures(graph)
    assert len(ms.measures) == 1
    assert ms.iterations == (0,)
    assert ms.converged == (True,)
    assert ms.residuals[0] <= 1e-12
    assert np.max(np.abs(ms.measures[0] - 1.0 / 16)) <= 1e-12


def test_north_south_point_mass():
    tm = _tm_of(systems.north_south(0.5), 64)
    graph = topology.graph_from_transfer(tm)
    ms = measures.stationary_measures(graph)
    assert len(ms.measures) == 1
    expected = np.zeros(64)
    expected[32] = 1.0
    assert np.array_equal(ms.measures[0], expected)
    assert ms.iterations == (0,)
    assert ms.converged == (True,)


def test_two_swap_blocks_give_two_half_half_measures():
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    dense[2, 3] = dense[3, 2] = 1.0
    tm = transfer_of_dense(dense)
    graph = topology.graph_from_transfer(tm)
    ms = measures.stationary_measures(graph)
    assert len(ms.measures) == 2
    assert ms.iterations == (0, 0)
    supports = sorted(tuple(measures.support(mu)) for mu in ms.measures)
    assert supports == [(0, 1), (2, 3)]
    for mu in ms.measures:
        assert np.array_equal(np.sort(mu[measures.support(mu)]), [0.5, 0.5])
    assert measures.support_minimality_check(ms) == [True, True]
    rep = measures.attraction_center_vs_minimal_union(ms)
    assert rep.equal is True
    assert np.array_equal(rep.support_union, [0, 1, 2, 3])
    assert np.array_equal(rep.minimal_union, [0, 1, 2, 3])
    assert rep.only_in_support.size == 0 and rep.only_in_minimal.size == 0


def test_crafted_deficient_support_is_caught():
    ## hand-build a measure set whose first measure lost a support cell;
    ## both checks must flag the mismatch rather than trust the labels
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.0
    dense[2, 3] = dense[3, 2] = 1.0
    tm = transfer_of_dense(dense)
    honest = measures.stationary_measures(topology.graph_from_transfer(tm))
    idx_01 = [i for i, mu in enumerate(honest.measures)
              if tuple(measures.support(mu)) == (0, 1)][0]
    crafted = list(honest.measures)
    bogus = np.zeros(4)
    bogus[0] = 1.0
    crafted[idx_01] = bogus
    ms = measures.ErgodicMeasureSet(tuple(crafted), honest.residuals,
                                    honest.converged, honest.iterations, honest.graph)
    flags = measures.support_minimality_check(ms)
    assert flags[idx_01] is False
    assert flags[1 - idx_01] is True
    rep = measures.attraction_center_vs_minimal_union(ms)
    assert rep.equal is False
    assert np.array_equal(rep.only_in_minimal, [1])
    assert rep.only_in_support.size == 0


def test_doubling_perron_measure_full_support():
    tm = _tm_of(systems.doubling_map(), 64)
    graph = topology.graph_from_transfer(tm)
    ms = measures.stationary_measures(graph)
    assert len(ms.measures) == 1
    mu = ms.measures[0]
    assert ms.converged == (True,)
    assert ms.iterations[0] > 0  # not doubly stochastic, iteration must work
    assert mu.sum() == pytest.approx(1.0)
    assert mu.min() > 0.0
    assert np.abs(ulam.apply_transfer(tm, mu) - mu).sum() <= 1e-9
    assert measures.support_minimality_check(ms) == [True]


def _two_product_stationary(graph):
    ## the solve as it was: vP computed for the residual of v and again for
    ## the step from v
    out = []
    for cells in graph.minimal_sets.terminal_cells:
        block = graph.transfer.matrix[cells][:, cells].tocsr()
        v = np.full(len(cells), 1.0 / len(cells))
        it = 0
        res = float(np.abs(block.T.dot(v) - v).sum())
        while res > measures.STATIONARY_RESIDUAL and it < measures.STATIONARY_MAX_ITERS:
            v = 0.5 * (v + block.T.dot(v))
            v /= v.sum()
            res = float(np.abs(block.T.dot(v) - v).sum())
            it += 1
        out.append((v, res, it))
    return out


@pytest.mark.parametrize("spec,m", [(systems.doubling_map(), 64),
                                    (systems.tent_map(F(17, 10)), 1024),
                                    (systems.tent_map(2.0), 64)],
                         ids=["doubling", "tent-1.7", "tent-2"])
def test_one_product_step_matches_two_product_reference(spec, m):
    ## of the bundled families only these iterate (rotations and toral
    ## automorphisms start exact, north_south is a point mass); measures,
    ## residuals and iteration counts agree bit for bit with the reference
    graph = topology.graph_from_transfer(_tm_of(spec, m))
    ms = measures.stationary_measures(graph)
    reference = _two_product_stationary(graph)
    assert min(ms.iterations) > 0
    assert len(reference) == len(ms.measures)
    for k, (cells, (v, res, it)) in enumerate(
            zip(graph.minimal_sets.terminal_cells, reference)):
        assert np.array_equal(ms.measures[k][cells], v)
        assert not np.delete(ms.measures[k], cells).any()
        assert ms.residuals[k] == res
        assert ms.iterations[k] == it


# ---------------------------------------------------------------------------
# Birkhoff measures


def test_birkhoff_exact_two_cycle():
    spec = systems.doubling_map()
    part = ulam.build_partition(spec, 6, 1)
    point = systems.RationalPoint((F(1, 3),))
    mu10 = measures.birkhoff_measure(spec, point, 10, part)
    assert np.array_equal(mu10, np.array([0, 0, 5, 0, 5, 0]) / 10.0)
    mu11 = measures.birkhoff_measure(spec, point, 11, part)
    assert np.array_equal(mu11, np.array([0, 0, 6, 0, 5, 0]) / 11.0)
    with pytest.raises(InputError):
        measures.birkhoff_measure(spec, point, 0, part)


def test_birkhoff_golden_rotation_near_uniform():
    ## equidistribution sanity run; the tight-tolerance long run lives in
    ## the acceptance suite
    spec = systems.circle_rotation(systems.GOLDEN)
    part = ulam.build_partition(spec, 10, 1)
    mu = measures.birkhoff_measure(spec, np.array([0.0]), 10_000, part)
    assert mu.sum() == pytest.approx(1.0)
    assert np.max(np.abs(mu - 0.1)) <= 2e-2


def test_birkhoff_cat_map_shape():
    spec = systems.cat_map()
    part = ulam.build_partition(spec, 8, 1)
    mu = measures.birkhoff_measure(spec, np.array([0.1, 0.2]), 500, part)
    assert mu.shape == (64,)
    assert mu.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# supports


def test_support_is_strict():
    mu = np.array([0.0, 1e-13, 2e-12, 1.0])
    assert np.array_equal(measures.support(mu), [2, 3])
    assert np.array_equal(measures.support(mu, threshold=0.0), [1, 2, 3])
    with pytest.raises(InputError):
        measures.support(mu, threshold=-1e-3)
