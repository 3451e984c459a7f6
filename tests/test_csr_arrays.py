"""The numpy CSR arrays against the scipy.sparse operations they replace.

The transfer matrix is held as numpy arrays, and scipy.sparse is imported
only where a sparse product runs in a loop. Each numpy step that stands in
for a scipy call must give the same arrays bit for bit: the merge of each
cell's sample images (scipy: csr_matrix then sum_duplicates), the reversed
graph (.T.tocsr()), a class block's first product vP (block.T.dot(v)), an
operator walk below ulam.SMALL_WALK_ENTRY_STEPS (forward @ cur at every
step) and the kernel projection's residual ||M A - A||, taken without the
product matrix @ A.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from conftest import transfer_of_dense
from semicascade import ergodic, measures, systems, topology, ulam

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _same(ours, theirs):
    return ours.dtype == theirs.dtype and np.array_equal(ours, theirs)


@st.composite
def _image_cells(draw):
    """(b, s) image cells over few distinct cells, so that runs are long."""
    s = draw(st.integers(1, 24))
    rows = draw(st.integers(1, 40))
    n = draw(st.integers(1, 2 * s + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ## a per-row spread: some rows land in one cell, some in up to n
    spread = rng.integers(1, n + 1, size=(rows, 1))
    cells = (rng.integers(0, n, size=(rows, s)) % spread + rng.integers(0, n, size=(rows, 1))) % n
    return cells.astype(np.int64), n


@PROPERTY_SETTINGS
@given(_image_cells())
def test_merged_rows_match_sum_duplicates(case):
    cells, n = case
    rows, s = cells.shape
    ref = sp.csr_matrix((np.full(rows * s, 1.0 / s), cells.ravel(),
                         np.arange(0, rows * s + 1, s)), shape=(rows, n))
    ref.sum_duplicates()
    counts, cols, weights = ulam._merge_rows(cells.copy())
    assert np.array_equal(counts, np.diff(ref.indptr))
    assert np.array_equal(cols, ref.indices)
    assert _same(weights, ref.data)


@st.composite
def _chains(draw, max_entries=None, absorbing=0.0):
    """Row-stochastic (n, n) chains with rows of 1 to n entries (at most
    max_entries) and random weights; each row is a lone loop with
    probability absorbing."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n, n))
    for i in range(n):
        if absorbing and rng.random() < absorbing:
            dense[i, i] = 1.0
            continue
        cols = rng.choice(n, size=rng.integers(1, min(n, max_entries or n) + 1), replace=False)
        dense[i, cols] = rng.random(cols.size) + 1e-3
        dense[i] /= dense[i].sum()
    return transfer_of_dense(dense), rng


@PROPERTY_SETTINGS
@given(_chains())
def test_reversed_graph_matches_scipy_transpose(chain):
    tm, _ = chain
    back_indptr, back_indices = topology._reversed(tm.indptr, tm.indices)
    ref = tm.matrix.T.tocsr()
    assert _same(back_indptr, ref.indptr)
    assert _same(back_indices, ref.indices)


@PROPERTY_SETTINGS
@given(_chains())
def test_class_block_product_matches_scipy(chain):
    ## the rows of a random cell set keep only their entries inside it, so
    ## that the set is closed, as a terminal class is (a row left empty
    ## gets a loop: every row of a transfer matrix stores an entry)
    tm, rng = chain
    cells = np.flatnonzero(rng.random(tm.n_cells) < 0.5)
    if cells.size == 0:
        cells = np.arange(tm.n_cells)
    dense = tm.matrix.toarray()
    dense[np.ix_(cells, np.setdiff1d(np.arange(tm.n_cells), cells))] = 0.0
    empty = cells[~dense[cells].any(axis=1)]
    dense[empty, empty] = 1.0
    tm = transfer_of_dense(dense)
    ptr, cols, weights = measures._class_block(tm, cells)
    block = tm.matrix[cells][:, cells].tocsr()
    assert np.array_equal(ptr, block.indptr)
    assert np.array_equal(cols, block.indices)
    assert _same(weights, block.data)
    for v in (np.full(cells.size, 1.0 / cells.size), rng.random(cells.size)):
        assert _same(ulam.left_product(ptr, cols, weights, v.shape)(v), block.T.dot(v))


def _walk_against_forward(tm, start, steps):
    """Assert that ulam.walk gives forward @ cur at every step, bit for bit,
    and return whether the walk built the forward operator M^T."""
    forward = tm.matrix.T.tocsr()  # what tm.forward builds, left uncached
    cur = start
    for p, got in enumerate(ulam.walk(tm, start, steps)):
        if p:
            cur = forward @ cur
        assert _same(got, cur), p
    return "forward" in tm.__dict__


@PROPERTY_SETTINGS
@given(_chains(), st.integers(0, 3), st.integers(0, 20))
def test_short_walk_matches_scipy_forward_steps(chain, k, steps):
    ## k == 0 walks a vector, k >= 1 an (n, k) block; a walk this short
    ## steps with numpy bincounts and never builds M^T
    tm, rng = chain
    start = rng.random(tm.n_cells) if k == 0 else rng.random((tm.n_cells, k))
    assert not _walk_against_forward(tm, start, steps)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("steps", [200, 2047])
def test_walk_matches_scipy_forward_steps_on_both_sides_of_the_kernel_switch(k, steps):
    ## doubling at 4096 cells with 3 samples stores 12288 entries: 200 steps
    ## (at most 4.9M entry-steps) run the numpy bincount, 2047 steps (25.2M
    ## entry-steps per column) run scipy's product
    spec = systems.doubling_map()
    tm = ulam.build_transfer_matrix(ulam.build_partition(spec, 4096, 3), spec)
    entry_steps = steps * tm.indices.size * max(k, 1)
    assert (entry_steps > ulam.SMALL_WALK_ENTRY_STEPS) == (steps == 2047)
    rng = np.random.default_rng(steps + k)
    start = rng.random(tm.n_cells) if k == 0 else rng.random((tm.n_cells, k))
    assert _walk_against_forward(tm, start, steps) == (steps == 2047)


@PROPERTY_SETTINGS
@given(_chains(max_entries=3, absorbing=0.25))
def test_projection_residual_matches_scipy(chain):
    ## few entries per row and some absorbing cells give several terminal
    ## classes and cells that reach two or more of them
    tm, _ = chain
    graph = topology.graph_from_transfer(tm)
    est = ergodic.kernel_projection_estimate(measures.stationary_measures(graph))
    a = est.absorption
    assert est.residual_vq == ergodic._inf_norm(tm.matrix @ a - a)
