"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Each test prints a PASS/FAIL verdict line (collected again in the terminal
summary) so the claim ledger is readable straight off a pytest run. The
known-unattainable window-average magnitude claim is kept as a strict
xfail with its own FAIL line rather than silently weakened; see the
companion test for the measured value.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import record_verdict
from semicascade import ergodic, measures, systems, tame, topology, ulam

F = Fraction

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
AC7_BASELINE = os.path.join(DATA_DIR, "ac7_doubling_baseline.json")

COS1 = ulam.trig_bank(2, 1)[1]

## cross-criterion state: the proximality verdict is read alongside the
## rotation convergence verdict
STATE = {}


def _tm_of(spec, m):
    s = 3 if spec.dimension == 1 else 5
    part = ulam.build_partition(spec, m, s)
    return part, ulam.build_transfer_matrix(part, spec)


@pytest.fixture(scope="module")
def north_south_64():
    spec = systems.north_south(0.5)
    part, tm = _tm_of(spec, 64)
    graph = topology.graph_from_transfer(tm)
    bank = ulam.sample_test_bank(part, 8)
    return spec, part, tm, graph, bank


def test_ac1_rotation_unique_ergodicity():
    ## golden rotation, m=10: the n=1e5 Birkhoff average of omega=0 matches
    ## uniform to 5e-3 per cell and the schedule ladder certifies
    ## convergence at tol=1e-2, inside 2 seconds
    t0 = time.perf_counter()
    spec = systems.circle_rotation(systems.GOLDEN)
    part, tm = _tm_of(spec, 10)
    birkhoff = measures.birkhoff_measure(spec, np.array([0.0]), 100_000, part)
    cell_dev = float(np.max(np.abs(birkhoff - 0.1)))
    bank = ulam.sample_test_bank(part, 8)
    mu0 = np.zeros(10)
    mu0[0] = 1.0
    schedules = [ergodic.cesaro_schedule(n) for n in (1024, 2048, 4096, 8192, 16384)]
    rep = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=1e-2)
    runtime = time.perf_counter() - t0
    STATE["ac1_verdict"] = rep.verdict
    ok = cell_dev <= 5e-3 and rep.verdict == "converged" and runtime < 2.0
    record_verdict("AC-1", ok,
                   "birkhoff dev %.1e (<=5e-3), verdict %s (tol 1e-2), %.2fs (<2s)"
                   % (cell_dev, rep.verdict, runtime))
    assert cell_dev <= 5e-3
    assert rep.verdict == "converged"
    assert runtime < 2.0


def test_ac2_north_south_positive_direction(north_south_64):
    ## single minimal set, every cell probe's Cesaro ladder converges, and
    ## the averaged projection sends every non-repeller probe to the
    ## attractor's point mass
    t0 = time.perf_counter()
    spec, part, tm, graph, bank = north_south_64
    check = topology.unique_minimal_set_check(graph, max_period=2)
    schedules = [ergodic.cesaro_schedule(n) for n in (256, 512, 1024, 2048, 4096)]
    probe_cells = [4 * i for i in range(16)]
    verdicts = set()
    worst_tail = 0.0
    for cell in probe_cells:
        mu0 = np.zeros(64)
        mu0[cell] = 1.0
        rep = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=1e-2)
        verdicts.add(rep.verdict)
        worst_tail = max(worst_tail, rep.max_tail_defect)
    est = ergodic.kernel_projection_estimate(measures.stationary_measures(graph))
    one_hot = np.zeros(64)
    one_hot[32] = 1.0
    ## cell 0 holds the repelling fixed point and is exempt by the claim
    q_dev = max(ergodic.weakstar_distance(est.q[c], one_hot, bank)
                for c in probe_cells if c != 0)
    runtime = time.perf_counter() - t0
    ok = (check.verdict is True and verdicts == {"converged"}
          and est.residual_vq <= 1e-8 and q_dev <= 1e-6 and runtime < 5.0)
    record_verdict("AC-2", ok,
                   "single minimal set %s, 16 probes %s (worst tail %.1e at tol "
                   "1e-2), residual %.1e (<=1e-8), projection rows %.1e (<=1e-6), "
                   "%.2fs (<5s)" % (check.verdict, sorted(verdicts), worst_tail,
                                    est.residual_vq, q_dev, runtime))
    assert check.verdict is True
    assert verdicts == {"converged"}
    assert est.residual_vq <= 1e-8
    assert q_dev <= 1e-6
    assert runtime < 5.0


def test_ac3_doubling_negative_direction():
    ## expanding map: the exact periodic backend refutes uniqueness with
    ## the fixed point and the 2-cycle as witnesses
    spec = systems.doubling_map()
    _part, tm = _tm_of(spec, 64)
    check = topology.unique_minimal_set_check(topology.graph_from_transfer(tm), max_period=2)
    witness_sets = [frozenset(pt.coords[0] for pt in orb.points)
                    for orb in check.witnesses]
    expected = [frozenset({F(0)}), frozenset({F(1, 3), F(2, 3)})]
    ok = (check.verdict is False and check.backend_used == "exact_periodic"
          and sorted(witness_sets, key=len) == expected)
    record_verdict("AC-3", ok,
                   "verdict %s via %s, witnesses %s"
                   % (check.verdict, check.backend_used,
                      [sorted(str(c) for c in w) for w in witness_sets]))
    assert check.verdict is False
    assert check.backend_used == "exact_periodic"
    assert sorted(witness_sets, key=len) == expected


BUNDLE = [
    ("circle_rotation", lambda: systems.circle_rotation(systems.GOLDEN)),
    ("doubling", lambda: systems.doubling_map()),
    ("north_south", lambda: systems.north_south(0.5)),
    ("tent", lambda: systems.tent_map(2.0)),
    ("toral_automorphism", lambda: systems.cat_map()),
]


def test_ac4_supports_equal_minimal_sets():
    ## every stationary support is exactly its own terminal class, and the
    ## union of supports is exactly the union of terminal classes, for all
    ## bundled systems at three resolutions
    failures = []
    for (name, make), m in itertools.product(BUNDLE, (16, 64, 256)):
        spec = make()
        _part, tm = _tm_of(spec, m)
        mset = measures.stationary_measures(topology.graph_from_transfer(tm))
        minimal = all(measures.support_minimality_check(mset))
        center = measures.attraction_center_vs_minimal_union(mset)
        if not (minimal and center.equal and all(mset.converged)):
            failures.append((name, m))
    ok = not failures
    record_verdict("AC-4", ok,
                   "supports == classes and Z == M on 15/15 system-resolution "
                   "combos" if ok else "failing combos: %s" % failures)
    assert not failures


def _block_bits(k_max):
    ## for each k: 2^k zeros, then 2^k bits of the pattern 01
    bits = ""
    for k in range(k_max + 1):
        bits += "0" * (2 ** k) + ("01" * (2 ** k))[: 2 ** k]
    return bits


def _block_start(k):
    return 2 ** (k + 1) - 2


@pytest.fixture(scope="module")
def block_point_averages():
    bits = _block_bits(7)
    omega = systems.RationalPoint((systems.point_from_bits(bits),))
    spec = systems.doubling_map()
    windows = [ergodic.window_schedule(_block_start(6), 64),
               ergodic.window_schedule(_block_start(6) + 64, 64),
               ergodic.window_schedule(_block_start(7), 128),
               ergodic.window_schedule(_block_start(7) + 128, 128)]
    t0 = time.perf_counter()
    averages = ergodic.exact_orbit_schedule_averages(spec, omega, windows, [COS1])
    rep = ergodic.exact_orbit_diagnostic(spec, omega, windows, [COS1], tol=0.05)
    runtime = time.perf_counter() - t0
    return bits, windows, averages.ravel(), rep, runtime


def test_ac5_block_orbit_refutes_convergence(block_point_averages):
    ## the zero blocks average near 1, the 01-pattern blocks near -1/2, so
    ## aligned windows alternate and the Cauchy test must refuse; the
    ## window averages themselves are checked against direct evaluation of
    ## cos(2 pi 2^j omega) from the bit string
    bits, windows, averages, rep, runtime = block_point_averages
    length = len(bits)
    oracle = []
    for sch in windows:
        total = 0.0
        for j in sch.powers:
            tail = F(int(bits[j:], 2), 1 << (length - j)) if j < length else F(0)
            total += math.cos(2.0 * math.pi * float(tail))
        oracle.append(total / len(sch.powers))
    oracle_dev = float(np.max(np.abs(averages - oracle)))
    zero_avgs = averages[[0, 2]]
    ok = (oracle_dev <= 1e-9 and np.all(zero_avgs >= 0.9)
          and rep.verdict == "not_converged" and rep.max_tail_defect >= 0.5
          and runtime < 2.0)
    record_verdict("AC-5", ok,
                   "zero-block averages %s (>=0.9), verdict %s, tail defect "
                   "%.3f (>=0.5), bit-string oracle dev %.1e, %.2fs (<2s)"
                   % (np.round(zero_avgs, 4).tolist(), rep.verdict,
                      rep.max_tail_defect, oracle_dev, runtime))
    assert oracle_dev <= 1e-9
    assert np.all(zero_avgs >= 0.9)
    assert rep.verdict == "not_converged"
    assert rep.max_tail_defect >= 0.5
    assert runtime < 2.0


@pytest.mark.xfail(strict=True, reason="the 01-pattern block points sit near "
                   "1/3 and 2/3 where cos is -1/2, so the block average is "
                   "about -0.5; the <=0.1 magnitude bound cannot hold. Kept "
                   "failing on purpose; see notes in the repo history.")
def test_ac5b_pattern_block_magnitude_claim(block_point_averages):
    _bits, _windows, averages, _rep, _runtime = block_point_averages
    pattern_avgs = averages[[1, 3]]
    magnitude = float(np.max(np.abs(pattern_avgs)))
    record_verdict("AC-5b", magnitude <= 0.1,
                   "pattern-block |average| = %.3f, stated bound 0.1 "
                   "(unattainable: the pattern value is cos(2pi/3) = -1/2)"
                   % magnitude)
    assert magnitude <= 0.1


def test_ac6_rotation_proximality_transitive():
    ## isometry: orbits keep their initial spacing, so proximality is the
    ## diagonal and transitivity holds vacuously, consistent with AC-1
    points = systems.equispaced_points(100, 1)
    spec = systems.circle_rotation(systems.GOLDEN)
    pg = topology.proximality_graph(spec, points, 10_000, 1e-3)
    trep = topology.transitivity_defect(pg)
    off_diagonal = int(pg.edges.sum()) - 100
    ac1 = STATE.get("ac1_verdict", "missing")
    ok = trep.defect == 0.0 and off_diagonal == 0 and ac1 == "converged"
    record_verdict("AC-6", ok,
                   "defect %g over %d triples (vacuous %s), %d off-diagonal "
                   "pairs, alongside AC-1 verdict %s -- consistent"
                   % (trep.defect, trep.n_two_step_triples, trep.vacuous,
                      off_diagonal, ac1))
    assert trep.defect == 0.0
    assert off_diagonal == 0
    assert ac1 == "converged"


def test_ac7_tameness_separation():
    ## fixed subsequence, K=8, 4096-point grid: the rotation cancels to
    ## float noise, the doubling map stays bounded away; the doubling value
    ## is pinned as a regression baseline and cross-checked at K=3 by a
    ## coefficient-lattice brute force at resolution 1/64
    grid = systems.equispaced_points(4096, 1)
    rot = tame.tameness_profile(systems.circle_rotation(systems.GOLDEN),
                                COS1, 8, grid)
    dbl = tame.tameness_profile(systems.doubling_map(), COS1, 8, grid)
    rot_defect = rot.defect_per_k[8]
    dbl_defect = dbl.defect_per_k[8]

    level = 64
    vals = tame.koopman_value_matrix(systems.doubling_map(), COS1[1],
                                     [1, 2, 3], grid)
    lattice = []
    for k1, k2 in itertools.product(range(level + 1), range(-level, level + 1)):
        k3 = level - k1 - abs(k2)
        if k3 < 0:
            continue
        lattice.append((k1, k2, k3))
        if k3 > 0:
            lattice.append((k1, k2, -k3))
    coeff = np.asarray(lattice, dtype=np.float64) / level
    lattice_min = np.inf
    for lo in range(0, coeff.shape[0], 2048):  # keep the matmul under 100 MB
        sup = np.max(np.abs(coeff[lo:lo + 2048].dot(vals)), axis=1)
        lattice_min = min(lattice_min, float(sup.min()))
    lattice_gap = abs(lattice_min - dbl.defect_per_k[3])

    if os.path.exists(AC7_BASELINE):
        with open(AC7_BASELINE) as fh:
            baseline = json.load(fh)
        baseline_dev = abs(dbl_defect - baseline["defect_k8"])
        baseline_note = "baseline dev %.1e (<=1e-9)" % baseline_dev
    else:
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(AC7_BASELINE, "w") as fh:
            json.dump({"defect_k8": dbl_defect, "grid_size": 4096,
                       "powers": list(range(1, 9)), "tolerance": 1e-9}, fh,
                      indent=2)
            fh.write("\n")
        baseline_dev = 0.0
        baseline_note = "baseline recorded"
    ok = (rot_defect <= 1e-8 and dbl_defect >= 10 * rot_defect
          and baseline_dev <= 1e-9 and lattice_gap <= 1.0 / 64)
    record_verdict("AC-7", ok,
                   "rotation K=8 defect %.1e (<=1e-8), doubling %.6f (>=10x), "
                   "%s, K=3 lattice gap %.1e (<=1/64)"
                   % (rot_defect, dbl_defect, baseline_note, lattice_gap))
    assert rot_defect <= 1e-8
    assert dbl_defect >= 10 * rot_defect
    assert baseline_dev <= 1e-9
    assert lattice_gap <= 1.0 / 64


def test_ac8_covering_separation():
    ## matched eps: the hyperbolic torus map keeps opening net centers
    ## while the rotation's net saturates (sublinear growth in N)
    eps = 0.1
    rot_512 = tame.covering_profile(systems.circle_rotation(systems.GOLDEN),
                                    512, [eps]).counts[0]
    rot_1024 = tame.covering_profile(systems.circle_rotation(systems.GOLDEN),
                                     1024, [eps]).counts[0]
    cat_1024 = tame.covering_profile(systems.cat_map(), 1024, [eps]).counts[0]
    growth = rot_1024 / rot_512
    ok = cat_1024 >= 10 * rot_1024 and growth <= 1.5
    record_verdict("AC-8", ok,
                   "eps %.2f: torus count %d >= 10x rotation %d; rotation "
                   "growth %d/%d = %.2f (<=1.5)"
                   % (eps, cat_1024, rot_1024, rot_1024, rot_512, growth))
    assert cat_1024 >= 10 * rot_1024
    assert growth <= 1.5


def test_ac9_operator_identities():
    ## row-stochasticity, Koopman/transfer adjointness, and the telescoping
    ## Cesaro bound, on every bundled system at m=64
    rng = np.random.default_rng(7)
    worst_row, worst_dual, bound_margin = 0.0, 0.0, -np.inf
    for name, make in BUNDLE:
        spec = make()
        part, tm = _tm_of(spec, 64)
        row_dev = float(np.max(np.abs(np.asarray(tm.matrix.sum(axis=1)).ravel() - 1.0)))
        worst_row = max(worst_row, row_dev)
        for _ in range(5):
            x = rng.standard_normal(tm.n_cells)
            mu = rng.random(tm.n_cells)
            mu /= mu.sum()
            dual = abs(float(np.dot(ulam.apply_koopman(tm, x), mu))
                       - float(np.dot(x, ulam.apply_transfer(tm, mu))))
            worst_dual = max(worst_dual, dual)
        bank = ulam.sample_test_bank(part, 8)
        mu0 = np.zeros(tm.n_cells)
        mu0[tm.n_cells // 3] = 1.0
        curve = ergodic.cesaro_defect_curve(tm, mu0, bank, 1024)
        margins = curve[1:] - 2.0 / np.arange(2, 1025)
        bound_margin = max(bound_margin, float(np.max(margins)))
    ok = worst_row <= 1e-12 and worst_dual <= 1e-12 and bound_margin <= 1e-12
    record_verdict("AC-9", ok,
                   "row sums %.1e (<=1e-12), duality %.1e (<=1e-12), Cesaro "
                   "bound margin %.1e over n in 2..1024 (never above 2/n)"
                   % (worst_row, worst_dual, bound_margin))
    assert worst_row <= 1e-12
    assert worst_dual <= 1e-12
    assert bound_margin <= 1e-12


def test_ac10_limit_measures_single_class(north_south_64):
    ## per-point Cesaro limits concentrate in one terminal class for every
    ## probe; probes sit at cell-interior offsets (i+0.5)/16, which keeps
    ## them off the repelling fixed point (consistent with the non-N
    ## exemption in the projection claim)
    probes = [(i + 0.5) / 16 for i in range(16)]
    bad = []
    min_mass = 1.0
    _spec, _part, _tm, ns_graph, _bank = north_south_64
    _rot_part, rot_tm = _tm_of(systems.circle_rotation(systems.GOLDEN), 64)
    rot_graph = topology.graph_from_transfer(rot_tm)
    for label, graph in (("north_south", ns_graph), ("rotation", rot_graph)):
        est = ergodic.kernel_projection_estimate(measures.stationary_measures(graph))
        results = ergodic.limit_measure_per_point(est, [np.array([p]) for p in probes],
                                                  4096)
        for p, res in zip(probes, results):
            min_mass = min(min_mass, res.mass_in_class)
            if not res.ergodic:
                bad.append((label, p))
    ok = not bad
    record_verdict("AC-10", ok,
                   "32/32 probes single-class (min class mass %.4f)" % min_mass
                   if ok else "non-ergodic probes: %s" % bad)
    assert not bad
