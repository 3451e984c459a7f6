"""Partition and transfer-matrix oracles.

The doubling m=4 and rotation-by-1/8 m=16 matrices are written out by
hand from the sample layout (corners of the closed cell, then center):
those frozen values pin the sampling convention, including the corner
echo that closed-cell corners produce for s > 1. The exact-interval
comparison quantifies how far the sampled matrix sits from the
interval-overlap discretization it approximates. The block-by-block
build is checked bit for bit against a COO matrix made from every sample
at once, and its traced memory against the bytes of the CSR it returns.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from semicascade import _kernels, systems, ulam
from semicascade.errors import InputError, ResourceBudgetError

F = Fraction

CANONICAL = [
    systems.circle_rotation(systems.GOLDEN),
    systems.doubling_map(),
    systems.north_south(0.5),
    systems.tent_map(2.0),
    systems.cat_map(),
]


def _matrix(spec, m, s):
    part = ulam.build_partition(spec, m, s)
    return ulam.build_transfer_matrix(part, spec)


def test_doubling_m4_frozen_matrix():
    ## cell i samples {i/4, i/4 + 1/4, i/4 + 1/8}; doubling sends them to
    ## cells 2i, 2i+2, 2i+1 mod 4, one third each
    tm = _matrix(systems.doubling_map(), 4, 3)
    dense = tm.matrix.toarray()
    third = 1.0 / 3.0
    expected = np.zeros((4, 4))
    for i in range(4):
        for d in (0, 1, 2):
            expected[i, (2 * i + d) % 4] = third
    assert np.array_equal(dense, expected)


def test_doubling_corner_echo_vs_interval_oracle():
    ## the exact interval method spreads cell i uniformly over cells
    ## 2i, 2i+1; the sampled matrix instead puts 1/3 on each of
    ## 2i, 2i+1, 2i+2 - per-row l1 distance exactly 2/3
    tm = _matrix(systems.doubling_map(), 4, 3)
    dense = tm.matrix.toarray()
    interval = np.zeros((4, 4))
    for i in range(4):
        interval[i, (2 * i) % 4] = 0.5
        interval[i, (2 * i + 1) % 4] = 0.5
    row_l1 = np.abs(dense - interval).sum(axis=1)
    assert np.allclose(row_l1, 2.0 / 3.0)


def test_rotation_eighth_frozen_matrix():
    ## shift of exactly two cells; the closed right corner echoes one
    ## cell further, so rows are 2/3 at i+2 and 1/3 at i+3
    tm = _matrix(systems.circle_rotation(F(1, 8)), 16, 3)
    dense = tm.matrix.toarray()
    expected = np.zeros((16, 16))
    for i in range(16):
        expected[i, (i + 2) % 16] = 2.0 / 3.0
        expected[i, (i + 3) % 16] = 1.0 / 3.0
    assert np.array_equal(dense, expected)


def test_rotation_single_sample_is_permutation():
    ## s=1 keeps only the lower corner: exact cell permutation, no echo
    tm = _matrix(systems.circle_rotation(F(1, 8)), 16, 1)
    dense = tm.matrix.toarray()
    expected = np.zeros((16, 16))
    for i in range(16):
        expected[i, (i + 2) % 16] = 1.0
    assert np.array_equal(dense, expected)


@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.family)
def test_row_stochastic(spec):
    m = 16 if spec.dimension == 2 else 64
    s = 5 if spec.dimension == 2 else 3
    tm = _matrix(spec, m, s)
    sums = np.asarray(tm.matrix.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert tm.matrix.min() >= 0.0


@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.family)
def test_koopman_transfer_duality(spec):
    m = 8 if spec.dimension == 2 else 64
    s = 5 if spec.dimension == 2 else 3
    tm = _matrix(spec, m, s)
    rng = np.random.default_rng(7)
    mu = rng.random(tm.n_cells)
    mu /= mu.sum()
    for x in ulam.sample_test_bank(tm.partition, 6):
        lhs = float(np.dot(ulam.apply_koopman(tm, x), mu))
        rhs = float(np.dot(x, ulam.apply_transfer(tm, mu)))
        assert abs(lhs - rhs) <= 1e-12


def test_partition_geometry():
    part = ulam.build_partition(systems.doubling_map(), 8, 2)
    assert part.n_cells == 8
    assert part.width == pytest.approx(0.125)
    corners = part.lower_corners()
    assert corners.shape == (8, 1) and corners[3, 0] == pytest.approx(0.375)
    centers = part.centers()
    assert centers[0, 0] == pytest.approx(0.0625)
    samples = part.cell_samples(0, part.n_cells)
    assert samples.shape == (16, 1)
    assert np.all(samples >= 0.0) and np.all(samples < 1.0)
    ## s=2 means corners only: lower corner then right corner (wrapped)
    assert samples[0, 0] == 0.0 and samples[1, 0] == pytest.approx(0.125)
    assert samples[15, 0] == 0.0  # the last cell's right corner wraps to 0
    ## a block's samples are the matching rows of the whole layout
    assert np.array_equal(part.cell_samples(3, 5), samples[6:10])
    cat_part = ulam.build_partition(systems.cat_map(), 4, 7)
    assert cat_part.n_cells == 16
    assert cat_part.offsets.shape == (7, 2)
    assert np.all(cat_part.offsets <= cat_part.width + 1e-15)


def _coo_reference(part, spec):
    ## every sample at once, one COO entry per sample, then CSR
    pts = part.lower_corners()[:, None, :] + part.offsets[None, :, :]
    pts = _kernels._wrap01(pts.reshape(-1, part.dimension))
    cols = part.cell_of_points(systems.evaluate_map_batch(spec, pts))
    n, s = part.n_cells, part.samples_per_cell
    rows = np.repeat(np.arange(n, dtype=np.int64), s)
    mat = sp.coo_matrix((np.full(rows.shape, 1.0 / s), (rows, cols)), shape=(n, n)).tocsr()
    mat.sum_duplicates()
    return mat


def _assert_same_csr(mat, ref):
    for name in ("indptr", "indices", "data"):
        got, want = getattr(mat, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("block", [1, 7, 10], ids=lambda b: "block%d" % b)
@pytest.mark.parametrize("s", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("spec", CANONICAL, ids=lambda s: s.family)
def test_block_build_matches_coo_reference(monkeypatch, spec, s, block):
    ## 49 cells in both dimensions: blocks of 7 tile them, blocks of 10 leave 9
    monkeypatch.setattr(ulam, "BUILD_BLOCK_CELLS", block)
    part = ulam.build_partition(spec, 49 if spec.dimension == 1 else 7, s, seed=3)
    _assert_same_csr(ulam.build_transfer_matrix(part, spec).matrix, _coo_reference(part, spec))


def test_build_traced_peak_stays_near_the_csr_bytes():
    ## cat map at 256^2 cells, s = 3, eight default blocks: the traced peak
    ## was 1.16x the CSR's bytes, and 5.8x when every sample was mapped at once
    spec = systems.cat_map()
    part = ulam.build_partition(spec, 256, 3)
    tracemalloc.start()
    try:
        mat = ulam.build_transfer_matrix(part, spec).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 2 * csr_bytes, (peak, csr_bytes)
    _assert_same_csr(mat, _coo_reference(part, spec))


def test_cell_lookup():
    part = ulam.build_partition(systems.doubling_map(), 8, 1)
    pts = np.array([[0.0], [0.1249], [0.125], [0.999999]])
    assert list(part.cell_of_points(pts)) == [0, 0, 1, 7]
    assert part.cell_of_rational(systems.RationalPoint((F(1, 3),))) == 2
    assert part.cell_of_rational(systems.RationalPoint((F(7, 8),))) == 7
    cat_part = ulam.build_partition(systems.cat_map(), 4, 1)
    assert cat_part.cell_of_points(np.array([[0.3, 0.8]]))[0] == 1 * 4 + 3


def test_trig_bank_names_and_bounds():
    names_1d = [nm for nm, _ in ulam.trig_bank(5, 1)]
    assert names_1d == ["one", "cos1", "sin1", "cos2", "sin2"]
    names_2d = [nm for nm, _ in ulam.trig_bank(5, 2)]
    assert names_2d == ["one", "one*cos1", "cos1*one", "one*sin1", "cos1*cos1"]
    pts = np.random.default_rng(0).random((50, 2))
    for _, fn in ulam.trig_bank(9, 2):
        vals = fn(pts)
        assert vals.shape == (50,)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    bank = ulam.sample_test_bank(ulam.build_partition(systems.doubling_map(), 8, 1), 4)
    assert len(bank) == 4 and all(v.shape == (8,) for v in bank)
    assert np.all(bank[0] == 1.0)


def test_validation_and_budget():
    with pytest.raises(InputError):
        ulam.build_partition(systems.doubling_map(), 0, 3)
    with pytest.raises(InputError):
        ulam.build_partition(systems.doubling_map(), 8, 0)
    with pytest.raises(ResourceBudgetError):
        ulam.build_partition(systems.cat_map(), 8192, 5)
    part_1d = ulam.build_partition(systems.doubling_map(), 8, 1)
    with pytest.raises(InputError):
        ulam.build_transfer_matrix(part_1d, systems.cat_map())
    tm = ulam.build_transfer_matrix(part_1d, systems.doubling_map())
    with pytest.raises(InputError):
        ulam.apply_transfer(tm, np.ones(9))
    with pytest.raises(InputError):
        ulam.apply_koopman(tm, np.ones(9))
    with pytest.raises(InputError):
        ulam.trig_bank(0, 1)
