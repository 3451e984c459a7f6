"""Schedules, convergence diagnostics, kernel projection, limit measures."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import transfer_of_dense
from semicascade import ergodic, errors, measures, systems, topology, ulam
from semicascade.errors import InputError, ResourceBudgetError
from test_acceptance import BUNDLE
from test_topology import _synthetic_two_sink_graph

F = Fraction


def _tm_random(n, seed):
    """Random row-stochastic chain wearing the TransferMatrix interface."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) + 0.05
    dense /= dense.sum(axis=1, keepdims=True)
    return transfer_of_dense(dense)


def _tm_swap():
    return transfer_of_dense([[0.0, 1.0], [1.0, 0.0]])


def _tm_of(spec, m, s=3):
    part = ulam.build_partition(spec, m, s)
    return ulam.build_transfer_matrix(part, spec)


def _estimate(tm):
    """The chain's pipeline: graph, stationary measures, kernel estimate."""
    return _estimate_graph(topology.graph_from_transfer(tm))


def _estimate_graph(graph):
    return ergodic.kernel_projection_estimate(measures.stationary_measures(graph))


def _spy_splu(monkeypatch):
    """Record the left-hand side of every sparse LU the projection runs."""
    from scipy.sparse import linalg as splinalg

    systems_solved = []
    splu = splinalg.splu

    def spy(lhs, *args, **kwargs):
        systems_solved.append(lhs.toarray())
        return splu(lhs, *args, **kwargs)

    ## the projection imports splu from scipy.sparse.linalg when it runs one
    monkeypatch.setattr(splinalg, "splu", spy)
    return systems_solved


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(())
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((0, 0, 1.0),))  # empty run
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((2, 3, 0.5), (0, 1, 0.5)))  # not increasing
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((0, 2, 0.25), (1, 3, 0.25)))  # overlapping
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((-1, 1, 0.5),))
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((0, 2, 0.7),))  # sum != 1
    with pytest.raises(InputError):
        ergodic.ErgodicSchedule(((0, 1, -0.5), (1, 2, 1.5)))
    with pytest.raises(InputError):
        ergodic.cesaro_schedule(0)
    with pytest.raises(InputError, match="at least one length"):
        ergodic.cesaro_ladder([])
    with pytest.raises(InputError):
        ergodic.window_schedule(-1, 4)


@pytest.mark.parametrize("n", [39500, 52000, 100000])
def test_long_cesaro_schedule_weights_sum_to_one(n):
    ## a plain float sum of n copies of 1/n drifts past 1e-12 at these n
    sch = ergodic.cesaro_schedule(n)
    assert len(sch.weights) == n and sch.label() == "cesaro_%d" % n


def test_schedules_are_built_in_constant_memory():
    ## one run each, whatever the length: no tuple of 2^40 powers is made
    n = 1 << 40
    tracemalloc.start()
    try:
        cesaro = ergodic.cesaro_schedule(n)
        window = ergodic.window_schedule(n, n)
        ladder = ergodic.cesaro_ladder([64, n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert cesaro.label() == "cesaro_1099511627776"
    assert window.label() == "window_1099511627776_1099511627776"
    assert [sch.label() for sch in ladder] == ["cesaro_64", "cesaro_1099511627776"]
    assert (cesaro.max_power, window.max_power) == (n - 1, 2 * n - 1)
    assert ergodic.telescoping_bound(cesaro) == 2.0 / n


def _counting_walk(monkeypatch):
    """Count the powers every ulam.walk yields."""
    steps = []
    walk = ulam.walk

    def spy(tm, start, n):
        for cur in walk(tm, start, n):
            steps.append(1)
            yield cur

    monkeypatch.setattr(ulam, "walk", spy)
    return steps


def test_walk_budget_refused_before_the_first_step(monkeypatch):
    tm = _tm_random(6, seed=5)  # 36 stored entries
    mu = np.full(6, 1.0 / 6)
    steps = _counting_walk(monkeypatch)
    ## a ladder to length 2^40 is refused before the walk yields anything
    with pytest.raises(ResourceBudgetError, match="over the budget of %d"
                       % errors.BUDGETS["walk"].cap):
        ergodic.apply_schedules_batch(tm, ergodic.cesaro_ladder([64, 1 << 40]), mu)
    assert steps == []
    ## the budget counts steps x stored entries: 8 steps of 36 entries
    ## (9 powers) for the schedules, one more step for their defects
    monkeypatch.setitem(errors.BUDGETS, "walk", errors.BUDGETS["walk"]._replace(cap=8 * 36))
    ladder = ergodic.cesaro_ladder([4, 9])
    assert ergodic.apply_schedules_batch(tm, ladder, mu).shape == (2, 6)
    assert len(steps) == 9
    bank = ulam.sample_test_bank(tm.partition, 4)
    with pytest.raises(ResourceBudgetError, match="9 operator steps over 36 stored matrix "
                                                  "entries makes 324 entry-steps"):
        ergodic.convergence_diagnostic(tm, ladder, mu, bank)
    assert len(steps) == 9


def test_defect_curve_walk_budget_refused_before_the_first_step(monkeypatch):
    ## the Cesaro defect curve walks under the same budget as the schedules;
    ## a walk that yields even its start fails at once, not after 2^40 steps
    tm = _tm_random(6, seed=5)  # 36 stored entries
    bank = ulam.sample_test_bank(tm.partition, 4)
    walk = ulam.walk

    def spy(tm, start, n):
        next(walk(tm, start, n))
        raise AssertionError("the walk yielded its start")

    monkeypatch.setattr(ulam, "walk", spy)
    with pytest.raises(ResourceBudgetError, match="1099511627776 operator steps over 36 stored "
                                                  "matrix entries"):
        ergodic.cesaro_defect_curve(tm, np.full(6, 1.0 / 6), bank, 1 << 40)


def test_schedule_labels():
    assert ergodic.cesaro_schedule(8).label() == "cesaro_8"
    assert ergodic.window_schedule(3, 4).label() == "window_3_4"
    two_runs = ergodic.ErgodicSchedule(((0, 2, 0.15), (4, 6, 0.35)))
    assert two_runs.label() == "schedule_4_terms"
    assert two_runs.max_power == 5
    assert two_runs.powers == (0, 1, 4, 5)
    assert two_runs.weights == (0.15, 0.15, 0.35, 0.35)


def test_telescoping_bound_oracle():
    ## Cesaro length n: weight profile steps up by 1/n once and down once
    for n in (1, 2, 7, 64):
        assert ergodic.telescoping_bound(ergodic.cesaro_schedule(n)) == pytest.approx(2.0 / n)
    assert ergodic.telescoping_bound(ergodic.window_schedule(5, 8)) == pytest.approx(2.0 / 8)
    ## adjacent runs step by the weight difference, a gap steps down and up
    adjacent = ergodic.ErgodicSchedule(((0, 2, 0.125), (2, 5, 0.25)))
    assert ergodic.telescoping_bound(adjacent) == 0.125 + 0.125 + 0.25
    gapped = ergodic.ErgodicSchedule(((0, 2, 0.25), (4, 6, 0.25)))
    assert ergodic.telescoping_bound(gapped) == 4 * 0.25


def test_apply_schedule_against_naive_powers():
    tm = _tm_random(6, seed=5)
    dense = tm.matrix.toarray()
    rng = np.random.default_rng(0)
    mu = rng.random(6)
    mu /= mu.sum()
    schedules = [ergodic.cesaro_schedule(5), ergodic.window_schedule(2, 3),
                 ergodic.ErgodicSchedule(((0, 1, 0.2), (2, 3, 0.3), (7, 8, 0.5)))]
    outs = ergodic.apply_schedules_batch(tm, schedules, mu)
    for sch, got in zip(schedules, outs):
        naive = np.zeros(6)
        for p, w in zip(sch.powers, sch.weights):
            naive += w * (mu @ np.linalg.matrix_power(dense, p))
        assert np.allclose(got, naive, atol=1e-13)
        single = ergodic.apply_schedules_batch(tm, [sch], mu)[0]
        assert np.array_equal(single, got)
        assert got.sum() == pytest.approx(1.0)
        assert got.min() >= -1e-15


def test_weakstar_distance_properties():
    part = ulam.build_partition(systems.doubling_map(), 16, 1)
    bank = ulam.sample_test_bank(part, 6)
    rng = np.random.default_rng(2)
    mus = [rng.random(16) for _ in range(3)]
    for mu in mus:
        mu /= mu.sum()
    a, b, c = mus
    assert ergodic.weakstar_distance(a, a, bank) == 0.0
    assert ergodic.weakstar_distance(a, b, bank) == ergodic.weakstar_distance(b, a, bank)
    assert ergodic.weakstar_distance(a, c, bank) <= \
        ergodic.weakstar_distance(a, b, bank) + ergodic.weakstar_distance(b, c, bank) + 1e-15
    with pytest.raises(InputError):
        ergodic.weakstar_distance(a, b, [])


def test_cesaro_defect_curve_against_direct_averages():
    ## non-circular oracle: build V_n mu and V_n(V mu) from explicit dense
    ## powers and compare defect by defect
    tm = _tm_random(6, seed=9)
    dense = tm.matrix.toarray()
    part16 = tm.partition
    bank = ulam.sample_test_bank(part16, 5)
    mu = np.zeros(6)
    mu[2] = 1.0
    curve = ergodic.cesaro_defect_curve(tm, mu, bank, 32)
    bank_mat = np.asarray(bank)
    powers = [mu]
    for _ in range(32):
        powers.append(powers[-1] @ dense)
    for n in range(1, 33):
        avg = sum(powers[:n]) / n
        avg_v = sum(powers[1:n + 1]) / n
        direct = np.max(np.abs(bank_mat.dot(avg - avg_v)))
        assert abs(curve[n - 1] - direct) <= 1e-13
        assert curve[n - 1] <= 2.0 / n + 1e-12


def test_ergodicity_defect_matches_curve():
    ## T_n(I-V) mu, as T_n mu - T_n(mu V) and as the telescoped row behind
    ## the gate, equals (mu - mu V^n)/n
    tm = _tm_of(systems.north_south(0.5), 32)
    bank = ulam.sample_test_bank(tm.partition, 6)
    mu = np.zeros(tm.n_cells)
    mu[3] = 1.0
    curve = ergodic.cesaro_defect_curve(tm, mu, bank, 16)
    block = np.column_stack([mu, ulam.apply_transfer(tm, mu)])
    for n in (1, 4, 16):
        sch = ergodic.cesaro_schedule(n)
        t_block = ergodic.apply_schedules_batch(tm, [sch], block)[0]
        defect = np.max(np.abs(np.asarray(bank) @ (t_block[:, 0] - t_block[:, 1])))
        assert defect == pytest.approx(curve[n - 1], abs=1e-13)
        passed = ergodic.convergence_diagnostic(tm, [sch, sch], mu, bank,
                                                gate=curve[n - 1] + 1e-13)
        assert "gate" not in passed.cause
        gated = ergodic.convergence_diagnostic(tm, [sch, sch], mu, bank,
                                               gate=curve[n - 1] - 1e-13)
        assert "gate" in gated.cause


def test_power_of_two_ladder_is_bit_exact():
    ## weights 1/2^k scale exactly, so each row must equal the plain sequential
    ## sum of w * mu V^p over its own powers, bit for bit; segment sums
    ## restarted at other rows' stops would round differently
    tm = _tm_random(48, seed=11)
    rng = np.random.default_rng(4)
    mu = rng.random(48)
    mu /= mu.sum()
    lengths = [1 << k for k in range(9)]
    want = np.zeros((len(lengths), 48))
    for p, cur in enumerate(ulam.walk(tm, mu, lengths[-1] - 1)):
        for i, n in enumerate(lengths):
            if p < n:
                want[i] += (1.0 / n) * cur
    got = ergodic.apply_schedules_batch(tm, ergodic.cesaro_ladder(lengths), mu)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# convergence diagnostics


def test_convergence_rotation_converged():
    spec = systems.circle_rotation(systems.GOLDEN)
    tm = _tm_of(spec, 16)
    bank = ulam.sample_test_bank(tm.partition, 8)
    mu0 = np.zeros(16)
    mu0[0] = 1.0
    schedules = [ergodic.cesaro_schedule(n) for n in (64, 128, 256, 512)]
    rep = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=1e-2)
    assert rep.verdict == "converged"
    assert rep.limit is not None and rep.limit.sum() == pytest.approx(1.0)
    assert rep.max_tail_defect <= 1e-2
    assert rep.tail_indices == (2, 3)
    assert len(rep.limit) == 16


def test_convergence_hysteresis_three_verdicts():
    ## same outputs, three tolerances: the 10x hysteresis band separates
    ## converged / inconclusive / not_converged honestly
    spec = systems.circle_rotation(systems.GOLDEN)
    tm = _tm_of(spec, 16)
    bank = ulam.sample_test_bank(tm.partition, 8)
    mu0 = np.zeros(16)
    mu0[5] = 1.0
    schedules = [ergodic.window_schedule(0, 16), ergodic.window_schedule(16, 16),
                 ergodic.window_schedule(32, 16), ergodic.window_schedule(48, 16)]
    probe = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=1e-9)
    worst = probe.max_tail_defect
    assert worst > 0.0
    rep_nc = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=worst / 20.0)
    assert rep_nc.verdict == "not_converged" and rep_nc.limit is None
    rep_inc = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=worst / 5.0)
    assert rep_inc.verdict == "inconclusive"
    rep_cv = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=worst * 1.01)
    assert rep_cv.verdict == "converged"


def test_convergence_gate_blocks_far_from_ergodic_schedules():
    tm = _tm_swap()
    bank = ulam.sample_test_bank(tm.partition, 4)
    mu0 = np.array([1.0, 0.0])
    ## single powers are maximally non-ergodic on a 2-cycle: T(I-V) swaps
    schedules = [ergodic.window_schedule(0, 1), ergodic.window_schedule(1, 1)]
    rep = ergodic.convergence_diagnostic(tm, schedules, mu0, bank, tol=1e-2)
    assert rep.verdict == "inconclusive"
    assert "gate" in rep.cause


def test_convergence_needs_two_schedules():
    tm = _tm_swap()
    bank = ulam.sample_test_bank(tm.partition, 4)
    with pytest.raises(InputError):
        ergodic.convergence_diagnostic(tm, [ergodic.cesaro_schedule(4)],
                                       np.array([1.0, 0.0]), bank)


# ---------------------------------------------------------------------------
# exact-orbit route


def test_exact_orbit_averages_rotation_oracle():
    ## sum of cos over a full lattice orbit of a rational rotation is 0
    spec = systems.circle_rotation(F(1, 8))
    point = systems.RationalPoint((F(0),))
    bank = ulam.trig_bank(2, 1)
    cos_entry = bank[1]
    avgs = ergodic.exact_orbit_schedule_averages(
        spec, point, [ergodic.cesaro_schedule(8), ergodic.window_schedule(8, 8)],
        [cos_entry])
    assert abs(avgs[0, 0]) <= 1e-15
    assert abs(avgs[1, 0]) <= 1e-15


def test_exact_orbit_diagnostic_converges_on_rotation():
    spec = systems.circle_rotation(F(1, 8))
    point = systems.RationalPoint((F(1, 16),))
    schedules = [ergodic.window_schedule(8 * k, 8) for k in range(4)]
    rep = ergodic.exact_orbit_diagnostic(spec, point, schedules,
                                         [ulam.trig_bank(2, 1)[1]], tol=1e-12)
    assert rep.verdict == "converged"
    assert rep.max_tail_defect <= 1e-15


def test_exact_orbit_diagnostic_gate():
    spec = systems.circle_rotation(F(1, 8))
    point = systems.RationalPoint((F(0),))
    schedules = [ergodic.window_schedule(0, 1), ergodic.window_schedule(1, 1)]
    rep = ergodic.exact_orbit_diagnostic(spec, point, schedules,
                                         [ulam.trig_bank(2, 1)[1]])
    assert rep.verdict == "inconclusive"
    assert "telescoping" in rep.cause


# ---------------------------------------------------------------------------
# kernel projection


def test_kernel_projection_swap_oracle():
    ## the 2-cycle chain averages to the rank-one projection onto uniform
    tm = _tm_swap()
    est = _estimate(tm)
    assert np.allclose(est.q, np.full((2, 2), 0.5), atol=1e-15)
    assert est.residual_vq <= 1e-13
    assert est.residual_idem <= 1e-13
    assert est.stop_reason == "exact"


def test_kernel_projection_identity_chain():
    tm = transfer_of_dense(np.eye(3))
    est = _estimate(tm)
    assert np.array_equal(est.q, np.eye(3))
    assert est.residual_vq == 0.0 and est.residual_idem == 0.0
    ## every cell is its own terminal class: both factors are the identity
    assert np.array_equal(est.absorption, np.eye(3))
    assert np.array_equal(est.stationary, np.eye(3))


def test_kernel_projection_north_south_rows(monkeypatch):
    ## every row of the projection is the point mass at the attractor cell;
    ## every cell reaches that one class, so A is read off without an LU
    lu_systems = _spy_splu(monkeypatch)
    est = _estimate(_tm_of(systems.north_south(0.5), 64))
    assert lu_systems == []
    assert est.residual_vq <= 1e-8
    one_hot = np.zeros(64)
    one_hot[32] = 1.0
    assert np.max(np.abs(est.q - one_hot[None, :])) <= 1e-6


def test_kernel_projection_lu_only_over_multi_class_cells(monkeypatch):
    ## cells 0, 1, 2 of the two-sink chain reach both 2-cycles and are the
    ## only unknowns; every other cell keeps its class indicator
    lu_systems = _spy_splu(monkeypatch)
    graph = _synthetic_two_sink_graph()
    est = _estimate_graph(graph)
    lhs, = lu_systems
    assert np.array_equal(lhs, [[1, -1, 0], [0, 1, -1], [0, 0, 1]])
    reach = np.zeros((8, 3))
    counts = graph.minimal_sets.reach.counts()
    reach[np.repeat(np.arange(8), counts), graph.minimal_sets.reach.indices] = 1.0
    assert np.array_equal(est.absorption[3:], reach[3:])
    assert np.allclose(est.absorption[:3], 0.5 * reach[:3], atol=1e-15)
    assert est.residual_vq <= 1e-15 and est.residual_idem <= 1e-15


def test_kernel_projection_has_no_cell_cap():
    ## the dense squaring it replaced stopped at 1024 cells
    est = _estimate(_tm_of(systems.circle_rotation(systems.GOLDEN), 2048, 1))
    assert est.residual_vq <= 1e-12 and est.residual_idem <= 1e-12


@pytest.mark.parametrize("m", [16, 64, 256])
@pytest.mark.parametrize("name,make", BUNDLE, ids=[name for name, _ in BUNDLE])
def test_kernel_projection_bundle_certificates(name, make, m):
    spec = make()
    tm = _tm_of(spec, m, 3 if spec.dimension == 1 else 5)
    est = _estimate(tm)
    assert est.residual_idem <= 1e-12
    assert est.residual_vq <= 1e-12


def test_kernel_projection_cat_map_16k_cells():
    tm = _tm_of(systems.cat_map(), 128)
    assert tm.n_cells == 16384
    est = _estimate(tm)
    assert est.residual_idem <= 1e-12
    assert est.residual_vq <= 1e-12


# ---------------------------------------------------------------------------
# per-point limit measures


def test_limit_measure_exact_cycle_route():
    spec = systems.doubling_map()
    tm = _tm_of(spec, 64)
    res, = ergodic.limit_measure_per_point(_estimate(tm),
                                           [systems.RationalPoint((F(1, 3),))], 256)
    assert res.route == "exact_cycle"
    ## 1/3 <-> 2/3 is a 2-cycle through cells 21 and 42
    expected = np.zeros(64)
    expected[21] = expected[42] = 0.5
    assert np.array_equal(res.measure, expected)
    assert res.ergodic is True  # the sampled chain has a single class
    assert list(res.support_cells) == [21, 42]


def test_limit_measure_exact_cap_falls_back():
    spec = systems.doubling_map()
    tm = _tm_of(spec, 16)
    ## 1/10 needs 5 exact steps to close its cycle; n = 2 forces the
    ## matrix route, whose measure is the row of Q for the point's cell
    point = systems.RationalPoint((F(1, 10),))
    est = _estimate(tm)
    res, = ergodic.limit_measure_per_point(est, [point], 2)
    assert res.route == "matrix_cesaro"
    cell = tm.partition.cell_of_points(np.array([point.as_floats()]))[0]
    assert np.array_equal(res.measure, est.q[cell])


def test_limit_measure_float_route_north_south():
    spec = systems.north_south(0.5)
    tm = _tm_of(spec, 32)
    est = _estimate(tm)
    res, = ergodic.limit_measure_per_point(est, [np.array([0.25])], 4096)
    assert res.route == "matrix_cesaro"
    assert res.ergodic is True
    assert res.mass_in_class >= 1.0 - 1e-12
    ## the repelling fixed point's cell leaks all of its limit into the one
    ## terminal class of the sampled chain: the exact limit is single-class
    res0, = ergodic.limit_measure_per_point(est, [np.array([0.0])], 512)
    assert res0.ergodic is True
    assert res0.mass_in_class == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        ergodic.limit_measure_per_point(est, [np.array([0.25])], 0)


@pytest.mark.parametrize("probe", [1.5, float("nan"), -0.25])
def test_limit_measure_refuses_float_probes_outside_the_space(probe):
    ## cell lookup clips, so such a probe would be read as a point of cell 15 or 0
    est = _estimate(_tm_of(systems.north_south(0.5), 16))
    with pytest.raises(InputError, match=r"\[0,1\)"):
        ergodic.limit_measure_per_point(est, [np.array([probe])], 64)


def test_limit_measure_flag_has_no_slack():
    ## cell 0 ends in absorbing cell 1 with probability 0.995 and in absorbing
    ## cell 2 otherwise: almost all of its limit is in one class, yet it
    ## reaches two, so it is not single-class
    tm = transfer_of_dense([[0.0, 0.995, 0.005], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    split, absorbed = ergodic.limit_measure_per_point(
        _estimate(tm), [np.array([0.1]), np.array([0.5])], 1)
    assert split.ergodic is False
    assert split.mass_in_class == pytest.approx(0.995, abs=1e-15)
    assert np.allclose(split.measure, [0.0, 0.995, 0.005], atol=1e-15)
    assert absorbed.ergodic is True and absorbed.mass_in_class == 1.0
