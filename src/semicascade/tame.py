"""Quantitative separation diagnostics between rigid and chaotic maps.

Two instruments, both comparative rather than absolute:

cancellation_defect asks how well signed unit-l1 combinations of iterated
test functions x(phi^n .) can cancel on a grid. Rigid systems (rotations)
admit exact linear dependences among shifts, so the defect collapses to
float noise; expanding maps produce near-orthogonal iterates that refuse
to cancel. The absolute-value objective is handled exactly by sign-orthant
decomposition: for each sign pattern of the coefficients the inner
problem is a minimax LP over the probability simplex (see simplex module)
and the defect is the best orthant's value. The patterns share one value
matrix and are solved as lock-step revised-simplex stacks of
SIGN_PATTERN_CHUNK sign rows; tameness_profile reports the sign patterns
and pivots each K cost.

covering_profile equips the iterates {phi^n} with the weighted double-sum
pseudometric d(n1, n2) = sum 2^-(i+j) |x_i(phi^{n1} w_j) - x_i(phi^{n2} w_j)|
over a truncated function bank and a deterministic dense point sequence,
and counts greedy eps-net sizes of {phi^0..phi^N} under d, one pass over
the iterates for all eps at once. The pass prunes exactly: the distance
over the 16 widest feature columns is a lower bound on d, so only the
centers that bound leaves within eps are measured in full. Near-periodic
families stay coverable by a bounded net; hyperbolic ones keep opening
centers as N grows.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import systems, ulam
from .errors import InputError, check_budget
from .simplex import solve_minimax_signed

SIGN_PATTERN_CHUNK = 256  # patterns per lock-step simplex stack; sized for peak memory
ENVELOPE_BANK = 16
ENVELOPE_POINTS = 16
NET_HEAD_COLUMNS = 16  # columns in the covering scan's partial-distance bound
NET_HEAD_SLACK = 1e-12  # relative; far above the ~256 ulps two l1 sums can differ by


def koopman_value_matrix(spec, fn, powers, grid):
    """Entry (k, s) = x(phi^{powers[k]} grid[s]); one orbit pass, rows reused."""
    powers = [int(p) for p in powers]
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise InputError("powers must be strictly increasing")
    if not powers or powers[0] < 0:
        raise InputError("powers must be nonempty and nonnegative")
    grid = systems.as_points(grid, spec.dimension)
    if grid.shape[0] < 1:
        raise InputError("grid must be nonempty")
    orbit = systems.orbit_batch(spec, grid, powers[-1])
    return np.stack([fn(orbit[p]) for p in powers])


def sign_patterns(n_terms):
    """The (2^(n_terms-1), n_terms) +-1 row signs with a plus first sign.

    Row p flips sign k+1 where bit k of p is set.
    """
    flips = (np.arange(1 << (n_terms - 1))[:, None] >> np.arange(n_terms - 1)) & 1
    signs = np.ones((flips.shape[0], n_terms))
    signs[:, 1:] -= 2.0 * flips
    return signs


def cancellation_defect(values, pivot_budget=None):
    """Smallest grid sup-norm of sum a_k * row_k over sum |a_k| = 1.

    Decomposes by coefficient sign pattern (2^(K-1) patterns after fixing
    the first sign; flipping all signs cannot change |sum a_k row_k|) and
    solves each pattern's minimax program on the simplex. Returns
    (defect, coefficients, report) with sum |coefficients| = 1.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or min(values.shape) < 1:
        raise InputError("values must be a (K, S) matrix with K, S >= 1")
    n_terms = values.shape[0]
    check_budget("cancellation", n_terms, n_terms, 1 << (n_terms - 1))
    kwargs = {} if pivot_budget is None else {"pivot_budget": pivot_budget}
    signs = sign_patterns(n_terms)
    n_patterns = signs.shape[0]
    best = None
    best_coeffs = None
    any_suboptimal = False
    iterations = 0
    for lo in range(0, n_patterns, SIGN_PATTERN_CHUNK):
        chunk = signs[lo:lo + SIGN_PATTERN_CHUNK]
        for pattern, res in zip(chunk, solve_minimax_signed(values, chunk, **kwargs)):
            iterations += res.iterations
            any_suboptimal = any_suboptimal or res.suboptimal
            if best is None or res.value < best:
                best = res.value
                best_coeffs = pattern * res.weights
    report = {"sign_patterns": n_patterns,
              "total_pivots": iterations,
              "suboptimal": any_suboptimal}
    return float(best), best_coeffs, report


class TamenessReport(NamedTuple):
    function_name: str
    strategy: str  # fixed | adversarial
    grid_size: int
    subsequence: tuple  # powers at the largest K
    defect_per_k: dict  # K -> defect
    coefficients: np.ndarray  # optimal coefficients at the largest K
    suboptimal: bool
    work: dict  # K -> {"sign_patterns": ..., "pivots": ...} over every solve at K


def tameness_profile(spec, fn_entry, k_max, grid, strategy="fixed",
                     candidate_span=8):
    """Cancellation defect as a function of the number of terms K = 2..k_max.

    fn_entry is a (name, callable) pair as produced by the trig bank. The
    fixed strategy uses powers 1..K (nested, so the defect must be
    nonincreasing in K, which is enforced unless a solve hit its pivot
    budget and set suboptimal); the adversarial strategy grows
    the subsequence greedily, picking the next power from a short span to
    maximize the defect, giving upper-bound evidence against cancellation.
    The work entry of each K sums the sign patterns and pivots of every
    cancellation_defect call made at that K, and suboptimal flags a pivot
    budget hit at any K.
    """
    name, fn = fn_entry
    if k_max < 2:
        raise InputError("k_max must be >= 2")
    if strategy not in ("fixed", "adversarial"):
        raise InputError("strategy must be fixed or adversarial")
    grid = systems.as_points(grid, spec.dimension)
    defects = {}
    work = {}
    suboptimal = False

    def solve(k, values):
        """cancellation_defect, with its cost added to the work at K = k."""
        nonlocal suboptimal
        defect, coeffs, rep = cancellation_defect(values)
        done = work.setdefault(k, {"sign_patterns": 0, "pivots": 0})
        done["sign_patterns"] += rep["sign_patterns"]
        done["pivots"] += rep["total_pivots"]
        suboptimal = suboptimal or rep["suboptimal"]
        return defect, coeffs

    ## one orbit pass over every power the strategy can reach; row p - 1 holds power p
    top = k_max if strategy == "fixed" else 2 + (k_max - 2) * candidate_span
    table = koopman_value_matrix(spec, fn, range(1, top + 1), grid)
    if strategy == "fixed":
        powers = list(range(1, k_max + 1))
        for k in range(2, k_max + 1):
            defects[k], coeffs = solve(k, table[:k])
            if k > 2 and defects[k] > defects[k - 1] + 1e-10 and not suboptimal:
                raise RuntimeError(
                    "defect rose from %.3g to %.3g between K=%d and K=%d on a "
                    "nested subsequence; solver tolerance exceeded"
                    % (defects[k - 1], defects[k], k - 1, k))
        return TamenessReport(name, strategy, grid.shape[0], tuple(powers),
                              defects, coeffs, suboptimal, work)
    powers = [1, 2]
    defects[2], best_coeffs = solve(2, table[:2])
    for k in range(3, k_max + 1):
        best_defect, best_power, best_coeffs = -1.0, None, None
        for cand in range(powers[-1] + 1, powers[-1] + 1 + candidate_span):
            defect, coeffs = solve(k, table[[p - 1 for p in powers + [cand]]])
            if defect > best_defect:
                best_defect, best_power, best_coeffs = defect, cand, coeffs
        powers.append(best_power)
        defects[k] = best_defect
    return TamenessReport(name, "adversarial", grid.shape[0], tuple(powers),
                          defects, best_coeffs, suboptimal, work)


# ---------------------------------------------------------------------------
# envelope pseudometric and covering profiles


def _envelope_features(spec, horizon, bank_count, point_count):
    """Weighted feature rows; row t flattens 2^-(i+j) x_i(phi^t w_j).

    The l1 distance between two rows is exactly the truncated double-sum
    pseudometric between phi^{t1} and phi^{t2}.
    """
    bank = ulam.trig_bank(bank_count, spec.dimension)
    pts = systems.kronecker_points(point_count, spec.dimension)
    orbit = systems.orbit_batch(spec, pts, horizon)  # (horizon+1, M, d)
    i_w = 0.5 ** np.arange(1, bank_count + 1)
    j_w = 0.5 ** np.arange(1, point_count + 1)
    weights = np.outer(i_w, j_w).ravel()
    vals = np.empty((horizon + 1, bank_count, point_count))
    for i, (_, fn) in enumerate(bank):
        vals[:, i] = fn(orbit)
    feats = vals.reshape(horizon + 1, bank_count * point_count)
    feats *= weights[None, :]
    return feats


class CoveringProfile(NamedTuple):
    horizon: int
    eps_list: tuple
    counts: tuple
    bank_count: int
    point_count: int
    truncation_bound: float


def covering_profile(spec, horizon, eps_list):
    """Greedy first-fit eps-net sizes of {phi^0 .. phi^horizon}.

    Scans iterates in order, opening a new center whenever no existing
    center lies within eps; deterministic, and monotone in both arguments
    (more iterates never shrink the net, larger eps never grows it). One
    pass serves every eps, and each eps keeps its own center mask: iterate
    t is compared with all earlier iterates on NET_HEAD_COLUMNS head
    columns, a lower bound on the distance, and measured in full only
    against the centers that bound leaves within eps (see
    _greedy_net_sizes). errors.BUDGETS["covering"] still caps (horizon+1)^2.
    The features are ENVELOPE_BANK test functions at ENVELOPE_POINTS points.
    """
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    if any(e <= 0 for e in eps_list):
        raise InputError("eps values must be positive")
    check_budget("covering", (horizon + 1) ** 2, horizon, (horizon + 1) ** 2)
    feats = _envelope_features(spec, horizon, ENVELOPE_BANK, ENVELOPE_POINTS)
    counts = _greedy_net_sizes(feats, eps_list)
    truncation = 2.0 * (0.5 ** ENVELOPE_BANK + 0.5 ** ENVELOPE_POINTS)
    return CoveringProfile(int(horizon), tuple(float(e) for e in eps_list),
                           counts, ENVELOPE_BANK, ENVELOPE_POINTS, truncation)


def _head_columns(feats):
    """The NET_HEAD_COLUMNS feature columns of largest spread over the rows."""
    spread = feats.max(axis=0) - feats.min(axis=0)
    return np.argsort(-spread, kind="stable")[:NET_HEAD_COLUMNS]


def _greedy_net_sizes(feats, eps_list):
    """First-fit net size of the feature rows under l1, one per eps.

    Partial-distance search (Bei & Gray, IEEE Trans. Commun. 33(10), 1985):
    the l1 distance over the head columns is a lower bound on the full
    distance, so iterate t is measured in full only against the earlier
    centers whose head distance is within the largest eps they are a
    center for. The factor 1 + NET_HEAD_SLACK covers the different
    summation order of the two sums, so no pair within eps is skipped, and
    the full distance and its <= eps test are those of a full scan: the
    counts are the same bit for bit.
    """
    eps = np.asarray(eps_list, dtype=np.float64)[:, None]
    reach_eps = eps[:, 0] * (1.0 + NET_HEAD_SLACK)
    n_rows = feats.shape[0]
    is_center = np.zeros((eps.shape[0], n_rows), dtype=bool)
    is_center[:, 0] = True
    ## reach[s]: the largest slackened eps that row s is a center for, -inf
    ## if none; fmax skips a NaN eps, which never admits a pair
    reach = np.full(n_rows, -np.inf)
    reach[0] = np.fmax.reduce(reach_eps, initial=-np.inf)
    head = np.ascontiguousarray(feats[:, _head_columns(feats)].T)
    for t in range(1, n_rows):
        head_dists = np.abs(head[:, :t] - head[:, t:t + 1]).sum(axis=0)
        near = np.flatnonzero(head_dists <= reach[:t])
        dists = np.abs(feats[near] - feats[t]).sum(axis=1)
        opened = ~np.any((dists <= eps) & is_center[:, near], axis=1)
        is_center[:, t] = opened
        reach[t] = np.fmax.reduce(reach_eps[opened], initial=-np.inf)
    return tuple(int(c) for c in is_center.sum(axis=1))
