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
fraction of cell i's samples that the map sends into cell j. It is built
BUILD_BLOCK_CELLS cells at a time: Partition.cell_samples makes one block's
samples, and the cells of their images go straight into the CSR column
array, where row i owns the slots i*s .. i*s + s - 1. One sum_duplicates
then merges the samples of a row that land in the same cell. No array of
every sample, image or COO row index is made, so the transient memory of
the build is one block, not a few copies of n_cells * s.

Measures on cells and cell functions are plain numpy vectors of length
n_cells. A measure moves forward as mu -> mu M, a cell function is pulled
back as x -> M x (the Koopman action). The forward operator M^T is built
once per matrix, on first use. apply_transfer pushes a measure one step
through it, and walk yields every power mu, mu M, mu M^2, ... in turn, for
one measure or an (n_cells, k) block of measures at once; the averaging
code goes through these two and never transposes M itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels, systems
from .errors import InputError, ResourceBudgetError

DEFAULT_SAMPLE_BUDGET = 1 << 24
#: cells whose samples build_transfer_matrix maps at once
BUILD_BLOCK_CELLS = 1 << 13

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Partition:
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

    def lower_corners(self):
        return systems.equispaced_points(self.cells_per_axis, self.dimension)

    def centers(self):
        return self.lower_corners() + 0.5 * self.width

    def cell_samples(self, lo, hi):
        """Sample points of cells lo..hi-1, cell-major, wrapped into [0,1).

        Returns shape ((hi - lo) * s, d); row (c - lo) * s + k is sample k of cell c.
        """
        m = self.cells_per_axis
        ## k / m for integer k rounds exactly as lower_corners' grid does
        corners = np.column_stack(np.unravel_index(np.arange(lo, hi), (m,) * self.dimension)) / m
        pts = corners[:, None, :] + self.offsets[None, :, :]
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

    More than DEFAULT_SAMPLE_BUDGET samples (m**d * s) raise
    ResourceBudgetError.
    """
    m, s = int(cells_per_axis), int(samples_per_cell)
    if m < 1 or s < 1:
        raise InputError("need cells_per_axis >= 1 and samples_per_cell >= 1")
    total = (m**spec.dimension) * s
    if total > DEFAULT_SAMPLE_BUDGET:
        raise ResourceBudgetError(
            "partition would carry %d sample points, over the budget of %d; "
            "lower cells_per_axis or samples_per_cell" % (total, DEFAULT_SAMPLE_BUDGET)
        )
    offsets = _sample_offsets(spec.dimension, s, 1.0 / m, seed)
    return Partition(spec.dimension, m, s, int(seed), offsets)


@dataclass(frozen=True)
class TransferMatrix:
    """Sampled transfer matrix (row-stochastic CSR) tied to its inputs."""

    matrix: sp.csr_matrix
    partition: Partition
    spec: systems.SystemSpec

    @property
    def n_cells(self):
        return self.partition.n_cells

    @functools.cached_property
    def forward(self):
        """The forward operator M^T as CSR, so that forward @ mu = mu M."""
        return self.matrix.T.tocsr()


def build_transfer_matrix(partition, spec):
    """Row-stochastic sampled transfer matrix for (partition, spec).

    Entry (i, j) is the fraction of cell i's s samples whose image lies in
    cell j, so every row sums to 1 exactly up to float summation and
    entry (i, j) > 0 only if some sample of cell i maps into cell j. The
    samples are mapped BUILD_BLOCK_CELLS cells at a time.
    """
    if partition.dimension != spec.dimension:
        raise InputError("partition dimension %d does not match system dimension %d"
                         % (partition.dimension, spec.dimension))
    n, s = partition.n_cells, partition.samples_per_cell
    ## the sample budget keeps n * s, and so every index, below 2**24: int32 holds them
    indices = np.empty(n * s, dtype=np.int32)
    for lo in range(0, n, BUILD_BLOCK_CELLS):
        hi = min(lo + BUILD_BLOCK_CELLS, n)
        images = systems.evaluate_map_batch(spec, partition.cell_samples(lo, hi))
        indices[lo * s:hi * s] = partition.cell_of_points(images)
    indptr = np.arange(0, n * s + 1, s, dtype=np.int32)
    mat = sp.csr_matrix((np.full(n * s, 1.0 / s), indices, indptr), shape=(n, n))
    mat.sum_duplicates()
    return TransferMatrix(mat, partition, spec)


def apply_transfer(tm, mu):
    """Push a cell measure forward one step: returns mu @ M."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (tm.n_cells,):
        raise InputError("measure vector must have length %d" % tm.n_cells)
    return tm.forward @ mu


def walk(tm, start, n):
    """Yield start M^p for p = 0..n, one operator step per power.

    start is a measure vector of length n_cells or an (n_cells, k) block
    whose columns are measures; a block moves all k columns in one sparse
    product per step. The walk never writes into an array it has yielded.
    """
    cur = np.asarray(start, dtype=np.float64)
    if cur.ndim not in (1, 2) or cur.shape[0] != tm.n_cells:
        raise InputError("start must be a measure vector or an (n_cells, k) "
                         "block with n_cells = %d" % tm.n_cells)
    forward = tm.forward
    yield cur
    for _ in range(n):
        cur = forward @ cur
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
        yield "cos%d" % k, (lambda kk: lambda t: np.cos(TWO_PI * kk * t))(k)
        yield "sin%d" % k, (lambda kk: lambda t: np.sin(TWO_PI * kk * t))(k)
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
    absolute difference is the package's weak-star distance.
    """
    centers = partition.centers()
    return [fn(centers) for _, fn in trig_bank(count, partition.dimension)]
