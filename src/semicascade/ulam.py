"""Ulam-style discretization: partitions, sampled transfer matrices, test banks.

The space [0,1)^d is cut into m^d half-open cells. Each cell carries s
deterministic sample points: the corners of the closed cell first (the
lower-left corner is always first, so s=1 samples exactly the grid), then
the center, then a seeded Kronecker fill. Corner samples are taken on the
cell closure on purpose: fixed points sitting exactly on grid lines (the
repeller at 0, the attractor at 1/2 for even m) must show up in the sample
set or the sampled chain misses the transition into the cell that owns the
fixed point. The price is that a boundary corner is shared with the next
cell, so a map that permutes cells exactly acquires a 1/s echo entry for
s > 1; the interval-exact oracle in the tests quantifies this.

The transfer matrix M is row-stochastic with entry (i, j) equal to the
fraction of cell i's samples that the map sends into cell j. It is held
as plain numpy CSR arrays (indptr, indices, data) and built
BUILD_BLOCK_CELLS cells at a time: systems.orbit_batch maps one block's
samples (Partition.cell_samples), each cell's s image cells are sorted,
and a run of equal cells becomes one entry whose weight is the sequential
sum of 1/s over the run, as scipy's sum_duplicates adds it. No array of
every sample, image or COO row index is made, so the transient memory of
the build is one block, not a few copies of n_cells * s.

Measures on cells and cell functions are plain numpy vectors of length
n_cells. A measure moves forward as mu -> mu M, a cell function is pulled
back as x -> M x (the Koopman action). walk yields every power mu, mu M,
mu M^2, ... in turn, for one measure or an (n_cells, k) block of them, a
short walk by left_product's numpy bincounts. A long walk, apply_transfer
and apply_koopman read M^T or the scipy view TransferMatrix.matrix, each
built on first use, and only these import scipy.sparse here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, systems
from .errors import InputError, check_budget

#: bank entries that each test function counts beyond its cells, for the
#: closures and array header it carries
BANK_FUNCTION_ENTRIES = 128
#: cells whose samples build_transfer_matrix maps at once; its orbit buffer holds
#: samples and images (cat map, 128 x 128 cells, s = 3: peak 0.88 MB over the CSR)
BUILD_BLOCK_CELLS = 1 << 12
#: entry-steps (operator steps x stored entries x block columns) up to which
#: walk steps with left_product. scipy's product saves 1.4-3.3 ns per entry-step
#: from 1024 cells up, at most 55 ms at 2^24, about its import's 47-72 ms (2-core x86-64)
SMALL_WALK_ENTRY_STEPS = 1 << 24


class Partition(NamedTuple):
    """Uniform grid partition of [0,1)^d with per-cell sample offsets."""

    dimension: int
    cells_per_axis: int
    samples_per_cell: int
    seed: int
    offsets: np.ndarray  # (s, d), offsets within the closed cell, in [0, width]

    @property
    def n_cells(self):
        return self.cells_per_axis**self.dimension

    @property
    def width(self):
        return 1.0 / self.cells_per_axis

    def lower_corners(self, lo=0, hi=None):
        """Lower corners of cells lo..hi-1 (every cell by default), shape (hi - lo, d)."""
        m = self.cells_per_axis
        cells = np.arange(lo, self.n_cells if hi is None else hi)
        return np.column_stack(np.unravel_index(cells, (m,) * self.dimension)) / m

    def centers(self):
        return self.lower_corners() + 0.5 * self.width

    def cell_samples(self, lo, hi):
        """Sample points of cells lo..hi-1, cell-major, wrapped into [0,1).

        Returns shape ((hi - lo) * s, d); row (c - lo) * s + k is sample k of cell c.
        """
        pts = self.lower_corners(lo, hi)[:, None, :] + self.offsets[None, :, :]
        return _kernels._wrap01(pts.reshape(-1, self.dimension))

    def cell_of_points(self, pts):
        """Cell index for each row of a (P, d) float array with coords in [0,1)."""
        m = self.cells_per_axis
        idx = (np.asarray(pts, dtype=np.float64).T * m).astype(np.int64)
        ## mode="clip" keeps a coordinate of exactly 1.0 in the last cell
        return np.ravel_multi_index(tuple(idx), (m,) * self.dimension, mode="clip")

    def cell_of_rational(self, rp):
        ## exact: a Fraction coordinate c < 1 has int(c * m) <= m - 1
        m = self.cells_per_axis
        return int(np.ravel_multi_index([int(c * m) for c in rp.coords], (m,) * self.dimension))


def _sample_offsets(dimension, s, width, seed):
    ## closed-cell corners, first axis fastest, then the center
    corners = [c[::-1] for c in itertools.product((0.0, width), repeat=dimension)]
    offs = (corners + [(0.5 * width,) * dimension])[:s]
    need = s - len(offs)
    if need > 0:
        offs.extend(systems.kronecker_points(need, dimension, seed=seed) * width)
    return np.asarray(offs, dtype=np.float64).reshape(s, dimension)


def build_partition(spec, cells_per_axis, samples_per_cell, seed=0):
    """Build the uniform partition with its deterministic sample layout.

    Parameters
    ----------
    spec : SystemSpec
        Determines the dimension.
    cells_per_axis : int
        m >= 1; the partition has m**d cells.
    samples_per_cell : int
        s >= 1; sample order is closed-cell corners, center, Kronecker fill.
    seed : int
        Shifts the Kronecker fill; everything else is seed-independent.

    More samples (m**d * s) than errors.BUDGETS["samples"] allows raise
    ResourceBudgetError.
    """
    m, s = int(cells_per_axis), int(samples_per_cell)
    if m < 1 or s < 1:
        raise InputError("need cells_per_axis >= 1 and samples_per_cell >= 1")
    total = (m**spec.dimension) * s
    check_budget("samples", total, total)
    offsets = _sample_offsets(spec.dimension, s, 1.0 / m, seed)
    return Partition(spec.dimension, m, s, int(seed), offsets)


@dataclass(frozen=True)
class TransferMatrix:
    """Sampled transfer matrix, row-stochastic, as CSR arrays tied to its inputs.

    Row i stores the columns indices[indptr[i]:indptr[i + 1]], ascending
    and distinct, with the positive weights data[indptr[i]:indptr[i + 1]].
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    partition: Partition
    spec: systems.SystemSpec

    @property
    def n_cells(self):
        return self.partition.n_cells

    @functools.cached_property
    def matrix(self):
        """M as a scipy.sparse CSR matrix over the same arrays, made on first read."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n_cells, self.n_cells))

    @functools.cached_property
    def forward(self):
        """The forward operator M^T as scipy CSR, so that forward @ mu = mu M."""
        return self.matrix.T.tocsr()


def build_transfer_matrix(partition, spec):
    """Row-stochastic sampled transfer matrix for (partition, spec).

    Entry (i, j) is the fraction of cell i's s samples whose image lies in
    cell j, so every row sums to 1 exactly up to float summation and
    entry (i, j) > 0 only if some sample of cell i maps into cell j. The
    samples are mapped BUILD_BLOCK_CELLS cells at a time, and each cell's
    equal image cells are merged in the same block.
    """
    if partition.dimension != spec.dimension:
        raise InputError("partition dimension %d does not match system dimension %d"
                         % (partition.dimension, spec.dimension))
    n, s = partition.n_cells, partition.samples_per_cell
    ## the sample budget keeps n * s, and so every index, below 2**24: int32 holds them
    indptr = np.zeros(n + 1, dtype=np.int32)
    indices = np.empty(n * s, dtype=np.int32)
    data = np.empty(n * s)
    nnz = 0
    for lo in range(0, n, BUILD_BLOCK_CELLS):
        hi = min(lo + BUILD_BLOCK_CELLS, n)
        images = systems.orbit_batch(spec, partition.cell_samples(lo, hi), 1)[1]
        counts, cols, weights = _merge_rows(partition.cell_of_points(images).reshape(hi - lo, s))
        indices[nnz:nnz + cols.size] = cols
        data[nnz:nnz + cols.size] = weights
        np.cumsum(counts, out=indptr[lo + 1:hi + 1])
        indptr[lo + 1:hi + 1] += nnz
        nnz += cols.size
    indices, data = indices[:nnz], data[:nnz]
    if nnz < n * s // 2:  # as scipy's prune does: a short view would hold the whole buffer
        indices, data = indices.copy(), data.copy()
    return TransferMatrix(indptr, indices, data, partition, spec)


def _merge_rows(cells):
    """CSR rows of the (b, s) image cells of b cells, s samples each, weight 1/s per sample.

    Sorts cells in place. Returns each row's entry count, the distinct cells
    of each row ascending, and their weights: a run of r equal cells weighs
    1/s + 1/s + ... (r terms, added in turn), as scipy's sum_duplicates adds it.
    """
    s = cells.shape[1]
    cells.sort(axis=1)
    first = np.ones(cells.shape, dtype=bool)  # where a run of equal cells starts
    np.not_equal(cells[:, 1:], cells[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    run_weight = np.cumsum(np.full(s, 1.0 / s))
    return (first.sum(axis=1), cells.ravel()[starts],
            run_weight[np.diff(starts, append=cells.size) - 1])


def apply_transfer(tm, mu):
    """Push a cell measure forward one step: returns mu @ M."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (tm.n_cells,):
        raise InputError("measure vector must have length %d" % tm.n_cells)
    return tm.forward @ mu


def left_product(indptr, indices, data, shape):
    """The step v -> vP of the CSR arrays of P on arrays of shape (n,) or (n, k).

    One bincount adds each output's terms in entry order from 0.0, as
    scipy's product with P^T does: the same bits.
    """
    n = indptr.size - 1
    ## intp indices: the gather and bincount cast int32 ones at every step
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if len(shape) == 1:
        cols = indices.astype(np.intp)
        return lambda v: np.bincount(cols, weights=data * v[rows], minlength=n)
    k = shape[1]
    out = (indices.astype(np.intp)[:, None] * k + np.arange(k)).ravel()
    return lambda v: np.bincount(out, weights=(data[:, None] * v[rows]).ravel(),
                                 minlength=n * k).reshape(shape)


def walk(tm, start, n):
    """Yield start M^p for p = 0..n, one operator step per power.

    start is a measure vector of length n_cells or an (n_cells, k) block
    of measures. Over errors.BUDGETS["walk"] (steps x stored entries) the
    walk raises before its first step; at most SMALL_WALK_ENTRY_STEPS
    (that count x k) steps with left_product, more with scipy's product.
    The walk never writes into an array it has yielded.
    """
    cur = np.asarray(start, dtype=np.float64)
    if cur.ndim not in (1, 2) or cur.shape[0] != tm.n_cells:
        raise InputError("start must be a measure vector or an (n_cells, k) "
                         "block with n_cells = %d" % tm.n_cells)
    cost = n * tm.indices.size
    check_budget("walk", cost, n, tm.indices.size, cost)
    if cost * (cur.size // tm.n_cells) <= SMALL_WALK_ENTRY_STEPS:
        step = left_product(tm.indptr, tm.indices, tm.data, cur.shape)
    else:
        step = tm.forward.dot
    yield cur
    for _ in range(n):
        cur = step(cur)
        yield cur


def apply_koopman(tm, x):
    """Pull a cell function back one step: returns M @ x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (tm.n_cells,):
        raise InputError("cell function must have length %d" % tm.n_cells)
    return tm.matrix.dot(x)


# ---------------------------------------------------------------------------
# trigonometric test bank

def _bank_1d_terms():
    ## generator of (name, callable) on 1d coordinates, sup-norm <= 1
    yield "one", lambda t: np.ones_like(t)
    k = 1
    while True:
        yield "cos%d" % k, (lambda kk: lambda t: np.cos(_kernels.TWO_PI * kk * t))(k)
        yield "sin%d" % k, (lambda kk: lambda t: np.sin(_kernels.TWO_PI * kk * t))(k)
        k += 1


def _bank_2d_order(count):
    ## tensor pairs (i, j) of 1d indices, enumerated by (i+j, i); (0,0) first
    pairs = []
    total = 0
    while len(pairs) < count:
        for i in range(total + 1):
            pairs.append((i, total - i))
            if len(pairs) == count:
                break
        total += 1
    return pairs


def trig_bank(count, dimension):
    """First `count` bank functions as (name, callable-on-(P,d)-array) pairs.

    1d order: 1, cos(2 pi w), sin(2 pi w), cos(4 pi w), sin(4 pi w), ...
    2d: tensor products of the 1d terms enumerated diagonally. Every member
    has sup-norm <= 1, the first is the constant 1.
    """
    if count < 1:
        raise InputError("bank needs count >= 1")
    gen = _bank_1d_terms()
    if dimension == 1:
        terms = [next(gen) for _ in range(count)]
        return [(nm, (lambda f: lambda pts: f(np.asarray(pts)[..., 0]))(fn)) for nm, fn in terms]
    need = max(i for pair in _bank_2d_order(count) for i in pair) + 1
    terms = [next(gen) for _ in range(need)]
    out = []
    for i, j in _bank_2d_order(count):
        nmi, fi = terms[i]
        nmj, fj = terms[j]
        name = "%s*%s" % (nmi, nmj) if (i, j) != (0, 0) else "one"
        out.append((name, (lambda a, b: lambda pts: a(np.asarray(pts)[..., 0]) * b(np.asarray(pts)[..., 1]))(fi, fj)))
    return out


def sample_test_bank(partition, count):
    """Bank functions evaluated at cell centers: list of length-n_cells arrays.

    These are the fixed test functions that render weak-star comparisons
    finitely; pairing a cell measure with each of them and taking the max
    absolute difference is the package's weak-star distance. A bank over
    errors.BUDGETS["bank"] raises ResourceBudgetError before any entry is made.
    """
    entries = count * (partition.n_cells + BANK_FUNCTION_ENTRIES)
    check_budget("bank", entries, count, partition.n_cells, entries)
    centers = partition.centers()
    return [fn(centers) for _, fn in trig_bank(count, partition.dimension)]
