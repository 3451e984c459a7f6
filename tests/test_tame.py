"""Cancellation defects, envelope metric, covering profiles, equicontinuity."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicascade import systems, tame, ulam
from semicascade.errors import InputError, ResourceBudgetError
from semicascade.simplex import solve_minimax_signed
from test_simplex import _scipy_minimax

F = Fraction

COS1 = ulam.trig_bank(2, 1)[1]
GRID = systems.equispaced_points(256, 1)


def test_koopman_value_matrix_rotation_oracle():
    spec = systems.circle_rotation(F(1, 8))
    grid = systems.equispaced_points(16, 1)
    vals = tame.koopman_value_matrix(spec, COS1[1], [1, 2, 3], grid)
    assert vals.shape == (3, 16)
    t = grid[:, 0]
    for row, p in enumerate([1, 2, 3]):
        direct = np.cos(2.0 * math.pi * (t + p / 8.0))
        assert np.allclose(vals[row], direct, atol=1e-12)
    with pytest.raises(InputError):
        tame.koopman_value_matrix(spec, COS1[1], [2, 1], grid)
    with pytest.raises(InputError):
        tame.koopman_value_matrix(spec, COS1[1], [-1, 0], grid)
    with pytest.raises(InputError):
        tame.koopman_value_matrix(spec, COS1[1], [1], np.zeros((4, 2)))
    ## no powers, no rows: refused before the orbit pass reads powers[-1]
    with pytest.raises(InputError, match="nonempty"):
        tame.koopman_value_matrix(spec, COS1[1], [], grid)


def test_koopman_value_matrix_refuses_points_off_the_space():
    ## tent 1.7 at 1.5 is not tent 1.7 at its wrapped point 0.5: refused, as
    ## a probe point off the space is
    spec = systems.tent_map(1.7)
    name, fn = ulam.trig_bank(3, 1)[2]
    for grid in ([[0.5], [1.5]], [[-0.25]], [[np.nan]], [0.5, 1.0]):
        with pytest.raises(InputError, match=r"\[0,1\)"):
            tame.koopman_value_matrix(spec, fn, [1], grid)
        with pytest.raises(InputError, match=r"\[0,1\)"):
            tame.tameness_profile(spec, (name, fn), 2, grid)


def test_cancellation_defect_single_row():
    defect, coeffs, report = tame.cancellation_defect(np.array([[0.3, -0.7]]))
    assert defect == pytest.approx(0.7)
    assert coeffs == pytest.approx([1.0])
    assert report["sign_patterns"] == 1


def test_cancellation_defect_opposing_rows():
    defect, coeffs, report = tame.cancellation_defect(
        np.array([[1.0, -0.5], [1.0, -0.5]]))
    assert defect <= 1e-12
    ## perfect cancellation needs opposite signs at equal weight
    assert np.sort(coeffs) == pytest.approx([-0.5, 0.5])
    assert report["sign_patterns"] == 2


def test_rotation_three_term_identity():
    ## shifted cosines of a rotation satisfy an exact three-term linear
    ## dependence; the solver must find a combination at least as flat as
    ## the closed-form coefficients (1, -2 cos(2 pi a), 1) / norm
    alpha = systems.GOLDEN
    spec = systems.circle_rotation(alpha)
    vals = tame.koopman_value_matrix(spec, COS1[1], [1, 2, 3], GRID)
    c = np.array([1.0, -2.0 * math.cos(2.0 * math.pi * alpha), 1.0])
    c /= np.abs(c).sum()
    closed_form = float(np.max(np.abs(c.dot(vals))))
    assert closed_form <= 1e-12
    rep = tame.tameness_profile(spec, COS1, 4, GRID)
    assert rep.defect_per_k[3] <= closed_form + 1e-10
    assert rep.defect_per_k[4] <= rep.defect_per_k[3] + 1e-10
    assert rep.defect_per_k[2] == pytest.approx(0.3624, abs=0.02)
    assert np.abs(rep.coefficients).sum() == pytest.approx(1.0)
    assert rep.strategy == "fixed" and set(rep.defect_per_k) == {2, 3, 4}


def test_doubling_defect_against_signed_lattice():
    ## independent route: brute-force all l1-normalized coefficient vectors
    ## on the (1/64)-lattice; the LP may only improve on the lattice, and
    ## the lattice may only exceed the LP by its own resolution
    spec = systems.doubling_map()
    vals = tame.koopman_value_matrix(spec, COS1[1], [1, 2, 3], GRID)
    level = 64
    lattice = []
    for k1, k2 in itertools.product(range(level + 1), range(-level, level + 1)):
        k3_abs = level - k1 - abs(k2)
        if k3_abs < 0:
            continue
        lattice.append((k1, k2, k3_abs))
        if k3_abs > 0:
            lattice.append((k1, k2, -k3_abs))
    coeff = np.asarray(lattice, dtype=np.float64) / level
    lattice_min = float(np.min(np.max(np.abs(coeff.dot(vals)), axis=1)))
    defect, coeffs, _ = tame.cancellation_defect(vals)
    assert -1e-9 <= lattice_min - defect <= 0.05
    assert defect == pytest.approx(0.6366, abs=0.02)
    assert float(np.max(np.abs(coeffs.dot(vals)))) == pytest.approx(defect, abs=1e-9)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_sign_pattern_chunks_do_not_change_defect(n_terms, n_grid, chunk, seed):
    ## chunk sizes that do and do not divide 2^(K-1) give the bits of
    ## one-pattern stacks
    values = np.random.default_rng(seed).normal(size=(n_terms, n_grid))
    with mock.patch.object(tame, "SIGN_PATTERN_CHUNK", 1):
        defect, coeffs, report = tame.cancellation_defect(values)
    with mock.patch.object(tame, "SIGN_PATTERN_CHUNK", chunk):
        got = tame.cancellation_defect(values)
    assert np.float64(got[0]).tobytes() == np.float64(defect).tobytes()
    assert got[1].tobytes() == coeffs.tobytes()
    assert got[2] == report


## per K: defect and total pivots over all sign patterns of the revised
## simplex; the defects agree with those of the earlier dense tableau to
## within a few ulps
TORUS_K10 = {2: (1.0, 5), 3: (1.0, 15), 4: (0.7940821500191232, 62),
             5: (0.7453187918974948, 197), 6: (0.6438063236874718, 518),
             7: (0.5978001025328958, 1239), 8: (0.541196100146198, 2848),
             9: (0.4968402262963978, 6504), 10: (0.45420055362272976, 14316)}


def _torus_values():
    spec = systems.cat_map()
    grid = systems.equispaced_points(16, 2)
    fn = ulam.trig_bank(2, 2)[1][1]
    return tame.koopman_value_matrix(spec, fn, list(range(1, 11)), grid)


def test_torus_k10_every_sign_pattern_against_highs():
    ## every one of the 512 patterns, not just the best: a pattern that
    ## stops early above its optimum can hide behind a better one
    values = _torus_values()
    signs = tame.sign_patterns(10)
    results = solve_minimax_signed(values, signs)
    assert len(results) == 512
    for sign, res in zip(signs, results):
        oracle = _scipy_minimax(sign[:, None] * values)
        assert res.status == "optimal"
        assert oracle - 1e-12 <= res.value <= oracle + 1e-9


def test_torus_k10_defects_and_pivots_pinned():
    values = _torus_values()
    for k, (defect, pivots) in TORUS_K10.items():
        got, coeffs, report = tame.cancellation_defect(values[:k])
        assert got == pytest.approx(defect, rel=1e-12, abs=1e-15)
        assert report == {"sign_patterns": 1 << (k - 1), "total_pivots": pivots,
                          "suboptimal": False}
        assert np.abs(coeffs).sum() == pytest.approx(1.0)


def test_tameness_work_counts_every_solve():
    spec = systems.doubling_map()
    fixed = tame.tameness_profile(spec, COS1, 4, GRID)
    vals = tame.koopman_value_matrix(spec, COS1[1], [1, 2, 3, 4], GRID)
    for k in (2, 3, 4):
        report = tame.cancellation_defect(vals[:k])[2]
        assert fixed.work[k] == {"sign_patterns": report["sign_patterns"],
                                 "pivots": report["total_pivots"]}
    assert sorted(fixed.work) == [2, 3, 4]
    ## the adversarial strategy solves candidate_span subsequences per K > 2
    adv = tame.tameness_profile(spec, COS1, 3, GRID, strategy="adversarial",
                                candidate_span=3)
    assert adv.work[2]["sign_patterns"] == 2
    assert adv.work[3]["sign_patterns"] == 3 * 4
    ## and stops at K = 2 without a candidate round
    two = tame.tameness_profile(spec, COS1, 2, GRID, strategy="adversarial")
    assert set(two.defect_per_k) == {2} and set(two.work) == {2}
    assert np.abs(two.coefficients).sum() == pytest.approx(1.0)


def test_fixed_profile_nonincreasing():
    rep = tame.tameness_profile(systems.doubling_map(), COS1, 5, GRID)
    ks = sorted(rep.defect_per_k)
    assert ks == [2, 3, 4, 5]
    for a, b in zip(ks, ks[1:]):
        assert rep.defect_per_k[b] <= rep.defect_per_k[a] + 1e-10
    assert rep.defect_per_k[5] >= 0.3  # expanding maps refuse to cancel


def test_adversarial_at_least_fixed():
    spec = systems.doubling_map()
    fixed = tame.tameness_profile(spec, COS1, 3, GRID)
    adv = tame.tameness_profile(spec, COS1, 3, GRID, strategy="adversarial")
    assert adv.defect_per_k[3] >= fixed.defect_per_k[3] - 1e-12
    assert adv.strategy == "adversarial"
    assert len(adv.subsequence) == 3


def test_adversarial_profile_walks_the_orbit_once(monkeypatch):
    ## one pass to power 2 + (K - 2) * candidate_span feeds every candidate
    spec, fn_entry = systems.cat_map(), ulam.trig_bank(2, 2)[1]
    grid = systems.equispaced_points(64, 2)
    walks, orbit_batch = [], systems.orbit_batch
    monkeypatch.setattr(systems, "orbit_batch", lambda *args: walks.append(args[2]) or orbit_batch(*args))
    tame.tameness_profile(spec, fn_entry, 8, grid, strategy="adversarial")
    assert walks == [2 + 6 * 8]


def test_adversarial_profile_equals_a_pass_per_candidate():
    ## reference: the greedy search with a fresh value matrix per candidate
    spec, (_, fn), span = systems.doubling_map(), COS1, 3
    rep = tame.tameness_profile(spec, COS1, 5, GRID, strategy="adversarial", candidate_span=span)
    powers, defects = [1, 2], {}
    defects[2], coeffs, _ = tame.cancellation_defect(tame.koopman_value_matrix(spec, fn, powers, GRID))
    for k in range(3, 6):
        best = None
        for cand in range(powers[-1] + 1, powers[-1] + 1 + span):
            values = tame.koopman_value_matrix(spec, fn, powers + [cand], GRID)
            defect, cand_coeffs, _ = tame.cancellation_defect(values)
            if best is None or defect > best[0]:
                best = (defect, cand, cand_coeffs)
        defects[k], cand, coeffs = best
        powers.append(cand)
    assert rep.subsequence == tuple(powers) and rep.defect_per_k == defects
    assert rep.coefficients.tobytes() == coeffs.tobytes()


def test_tameness_validation_and_budget():
    with pytest.raises(InputError):
        tame.tameness_profile(systems.doubling_map(), COS1, 1, GRID)
    with pytest.raises(InputError):
        tame.tameness_profile(systems.doubling_map(), COS1, 3, GRID, strategy="greedy")
    with pytest.raises(ResourceBudgetError):
        tame.cancellation_defect(np.ones((15, 4)))
    with pytest.raises(InputError):
        tame.cancellation_defect(np.ones(4))
    with pytest.raises(InputError):
        tame.cancellation_defect(np.ones((0, 4)))


def test_budget_limited_rise_is_reported_not_raised():
    ## at 10 pivots per pattern the torus defect rises from K=4 to K=5; the
    ## solves are flagged suboptimal, so the profile comes back flagged
    solve = tame.cancellation_defect
    fn = ulam.trig_bank(2, 2)[1]
    grid = systems.equispaced_points(16, 2)
    with mock.patch.object(tame, "cancellation_defect",
                           lambda values: solve(values, pivot_budget=10)):
        rep = tame.tameness_profile(systems.cat_map(), fn, 6, grid)
    assert rep.suboptimal is True
    assert rep.defect_per_k[5] > rep.defect_per_k[4] + 1e-10
    ## a rise between optimal solves still means the solver is wrong
    rising = iter([0.5, 0.4, 0.45])
    with mock.patch.object(tame, "cancellation_defect", lambda values: (
            next(rising), np.ones(len(values)) / len(values),
            {"sign_patterns": 1, "total_pivots": 1, "suboptimal": False})):
        with pytest.raises(RuntimeError, match="defect rose"):
            tame.tameness_profile(systems.cat_map(), fn, 4, grid)


# ---------------------------------------------------------------------------
# covering


def test_covering_rotation_saturates_at_period():
    spec = systems.circle_rotation(F(1, 8))
    ## iterates one period apart coincide, so even eps = 1e-9 opens only 8 centers
    prof = tame.covering_profile(spec, 64, [0.5, 0.1, 0.02, 1e-9])
    assert prof.counts == (3, 8, 8, 8)
    ## finer eps never shrinks the net
    assert all(a <= b for a, b in zip(prof.counts, prof.counts[1:]))
    assert prof.truncation_bound == pytest.approx(2.0 * 2.0 ** -15, rel=1e-12)
    assert prof.horizon == 64


def _naive_net_sizes(feats, eps_list):
    ## one greedy first-fit scan per eps, centers kept as a list
    counts = []
    for eps in eps_list:
        centers = [feats[0]]
        for row in feats[1:]:
            if not np.any(np.abs(np.array(centers) - row).sum(axis=1) <= eps):
                centers.append(row)
        counts.append(len(centers))
    return tuple(counts)


@st.composite
def eps_lists(draw, feats):
    ## unsorted, with duplicates, and with eps equal to a realized distance
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i, j = rng.choice(len(feats), size=2, replace=False)
    hit = float(np.abs(feats[i] - feats[j]).sum())
    scale = float(np.abs(feats - feats[0]).sum(axis=1).max()) or 1.0
    eps = [hit] + list(rng.random(draw(st.integers(0, 5))) * scale + 1e-9)
    eps += draw(st.lists(st.sampled_from(eps), max_size=3))
    return draw(st.permutations(eps))


@PROPERTY_SETTINGS
@given(st.data(), st.integers(2, 60), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_net_sizes_match_naive_on_random_rows(data, n_rows, n_feats, seed):
    ## widths on both sides of the head; column scales fall with the index,
    ## like the envelope's 2^-(i+j) weights, so the head is mostly the
    ## leading columns
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.01, 1.0]) * 0.5 ** (np.arange(n_feats) / 16.0)
    feats = rng.random((n_rows, n_feats)) * scale
    if n_feats >= 32 and rng.random() < 0.5:
        feats[:, 16:32] = feats[:, :16]  # columns whose spreads tie
    head = min(n_feats, tame.NET_HEAD_COLUMNS)
    source = rng.integers(0, n_rows, n_rows)
    tied = rng.random(n_rows) < 0.3
    feats[tied, :head] = feats[source[tied], :head]  # rows that tie on the head
    feats[rng.random(n_rows) < 0.2] = feats[0]  # repeated iterates
    eps = data.draw(eps_lists(feats))
    assert tame._greedy_net_sizes(feats, eps) == _naive_net_sizes(feats, eps)


def test_head_slack_keeps_pairs_at_exactly_eps(monkeypatch):
    ## two rows that differ in 16 of 20 columns: the head holds every nonzero
    ## term, so only the summation order separates the head bound from the
    ## full distance, and eps is that full distance
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(200):
        feats = np.zeros((2, 20))
        feats[1, rng.permutation(20)[:16]] = rng.random(16) * 2.0 ** rng.integers(-40, 1, 16)
        cases.append((feats, [float(np.abs(feats[1] - feats[0]).sum())]))
    assert all(tame._greedy_net_sizes(feats, eps) == (1,) for feats, eps in cases)
    monkeypatch.setattr(tame, "NET_HEAD_SLACK", 0.0)
    ## without the slack the head sum rounds above eps on some of them
    assert any(tame._greedy_net_sizes(feats, eps) == (2,) for feats, eps in cases)


def test_head_is_the_widest_envelope_columns():
    feats = tame._envelope_features(systems.cat_map(), 64, tame.ENVELOPE_BANK,
                                    tame.ENVELOPE_POINTS)
    head = tame._head_columns(feats)
    spread = feats.max(axis=0) - feats.min(axis=0)
    assert len(set(head)) == tame.NET_HEAD_COLUMNS
    assert spread[head].min() >= np.delete(spread, head).max() > 0
    ## the constant bank function `one` fills columns 0..15 and has no spread
    assert not set(head) & set(range(tame.ENVELOPE_POINTS))


@pytest.mark.parametrize("spec", [systems.circle_rotation(systems.GOLDEN),
                                  systems.circle_rotation(F(1, 8)),
                                  systems.doubling_map(), systems.north_south(0.5),
                                  systems.tent_map(2.0), systems.cat_map()],
                         ids=lambda spec: spec.family)
def test_covering_matches_naive_on_families(spec):
    eps = [0.1, 0.5, 0.02, 0.1, 0.05, 0.2]
    prof = tame.covering_profile(spec, 128, eps)
    feats = tame._envelope_features(spec, 128, tame.ENVELOPE_BANK, tame.ENVELOPE_POINTS)
    assert prof.counts == _naive_net_sizes(feats, eps)
    assert prof.eps_list == tuple(eps)


def test_covering_torus_wildness_counts_pinned():
    ## the cat map at the torus-wildness horizon and eps list
    prof = tame.covering_profile(systems.cat_map(), 1024, [0.5, 0.2, 0.1, 0.05, 0.02])
    assert prof.counts == (3, 138, 976, 1025, 1025)


def test_covering_monotone_in_horizon():
    spec = systems.doubling_map()
    small = tame.covering_profile(spec, 32, [0.05])
    large = tame.covering_profile(spec, 64, [0.05])
    assert large.counts[0] >= small.counts[0]
    assert large.counts[0] > 8  # keeps opening centers


def test_covering_validation_and_budget():
    spec = systems.circle_rotation(F(1, 8))
    with pytest.raises(InputError):
        tame.covering_profile(spec, 0, [0.1])
    with pytest.raises(InputError):
        tame.covering_profile(spec, 8, [0.0])
    with pytest.raises(ResourceBudgetError):
        tame.covering_profile(spec, 3000, [0.1])
