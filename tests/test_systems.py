"""Map families: float/exact agreement, periodic-orbit oracles, validation."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicascade import _kernels, errors, systems
from semicascade.errors import CapabilityError, InputError, ResourceBudgetError

F = Fraction


def test_input_validation():
    with pytest.raises(InputError):
        systems.circle_rotation(0.0)
    with pytest.raises(InputError):
        systems.circle_rotation(1)
    with pytest.raises(InputError):
        systems.north_south(0.0)
    with pytest.raises(InputError):
        systems.north_south(1.0)
    with pytest.raises(InputError):
        systems.tent_map(1.0)
    with pytest.raises(InputError):
        systems.tent_map(2.5)
    with pytest.raises(InputError):
        systems.toral_automorphism(1, 0, 0, 2)  # det 2


def test_as_point_validation():
    spec = systems.doubling_map()
    with pytest.raises(InputError):
        systems.orbit(spec, 1.0, 1)
    with pytest.raises(InputError):
        systems.orbit(spec, -0.1, 1)
    with pytest.raises(InputError):
        systems.orbit(spec, [0.1, 0.2], 1)  # wrong dimension


def test_as_point_rejects_nan():
    ## NaN fails both range comparisons, so it must be refused explicitly
    spec = systems.doubling_map()
    for call in (lambda: systems.orbit(spec, float("nan"), 1),
                 lambda: systems.metric(spec, 0.5, float("nan")),
                 lambda: systems.orbit(systems.cat_map(), [0.5, float("nan")], 1)):
        with pytest.raises(InputError, match=r"\[0,1\)"):
            call()


def test_metric_wraparound():
    spec = systems.doubling_map()
    assert systems.metric(spec, 0.01, 0.99) == pytest.approx(0.02)
    assert systems.metric(spec, 0.2, 0.7) == pytest.approx(0.5)
    cat = systems.cat_map()
    assert systems.metric(cat, [0.05, 0.2], [0.95, 0.3]) == pytest.approx(0.1)


def test_orbit_shapes():
    spec = systems.north_south(0.5)
    orb = systems.orbit(spec, 0.3, 5)
    assert orb.shape == (6, 1)
    batch = systems.orbit_batch(spec, np.array([[0.3], [0.6]]), 4)
    assert batch.shape == (5, 2, 1)
    assert np.all(batch[0, 0] == [0.3])
    cat = systems.cat_map()
    assert systems.orbit_batch(cat, np.array([[0.1, 0.2]]), 3).shape == (4, 1, 2)
    ## a point array not of shape (P, d) would leave orbit columns unwritten
    for bad_spec, shape in ((cat, (4, 3)), (spec, (4, 2)), (spec, (4,))):
        with pytest.raises(InputError, match=r"shape \(P, %d\)" % bad_spec.dimension):
            systems.orbit_batch(bad_spec, np.zeros(shape), 2)
    for run in (lambda: systems.orbit(spec, 0.3, -1),
                lambda: systems.orbit_batch(spec, np.array([[0.3]]), -1)):
        with pytest.raises(InputError, match="nonnegative"):
            run()


## every bundled family, plus the slope-2 tent whose images land on 1.0 and
## a toral matrix with negative entries, whose tiny negative images np.mod
## rounds up to 1.0
BUNDLE = [systems.circle_rotation(systems.GOLDEN), systems.doubling_map(),
          systems.north_south(0.5), systems.tent_map(1.7), systems.tent_map(2),
          systems.cat_map(), systems.toral_automorphism(0, 1, -1, 0)]


def _reference_step(spec, pts):
    ## one map step written apart from orbit_batch's in-place loop: the
    ## formula on columns, stacked, then wrapped
    lift = systems.FAMILY_TABLE[spec.family].lift
    return _kernels._wrap01(np.column_stack(lift(spec.linear or spec.params[0], tuple(pts.T))))


@pytest.mark.parametrize("spec", BUNDLE, ids=lambda s: s.describe())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_orbit_rows_are_map_steps(spec, data):
    n_pts = data.draw(st.integers(1, 8))
    coords = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                min_size=n_pts * spec.dimension,
                                max_size=n_pts * spec.dimension))
    pts = np.array(coords).reshape(n_pts, spec.dimension)
    n = data.draw(st.integers(0, 80))
    orb = systems.orbit_batch(spec, pts, n)
    assert orb.shape == (n + 1, n_pts, spec.dimension)
    assert orb[0].tobytes() == pts.tobytes()
    for k in range(n):
        assert orb[k + 1].tobytes() == _reference_step(spec, orb[k]).tobytes()
    assert np.all(orb >= 0.0) and np.all(orb < 1.0)


@pytest.mark.parametrize("spec,point,steps,atol", [
    (systems.circle_rotation(F(1, 7)), F(2, 7), 50, 1e-12),
    (systems.doubling_map(), F(1, 3), 20, 1e-9),
    (systems.tent_map(F(3, 2)), F(1, 5), 20, 1e-11),
])
def test_exact_matches_float_1d(spec, point, steps, atol):
    ## expanding maps amplify the initial float representation error
    ## geometrically, hence the short horizons and per-family tolerances
    rp = systems.RationalPoint((point,))
    exact = systems.exact_orbit(spec, rp, steps)
    floats = systems.orbit(spec, rp.as_floats(), steps)
    ## circle distance: a float step may land at 1-eps where exact says 0
    worst = max(min(d, 1.0 - d) for d in
                (abs(float(e.coords[0]) - f[0]) for e, f in zip(exact, floats)))
    assert worst <= atol


def test_exact_matches_float_2d():
    cat = systems.cat_map()
    rp = systems.RationalPoint((F(1, 5), F(2, 7)))
    exact = systems.exact_orbit(cat, rp, 15)
    floats = systems.orbit(cat, rp.as_floats(), 15)
    for e, f in zip(exact, floats):
        assert np.allclose(e.as_floats(), f, atol=2e-9)


UNIMODULAR = [m for m in itertools.product(range(-5, 6), repeat=4) if abs(m[0] * m[3] - m[1] * m[2]) == 1]


@st.composite
def _exact_specs(draw):
    ## rational rotations, rational tent slopes in (1,2], doubling, and
    ## unimodular 2x2 matrices with entries of at most 5
    kind = draw(st.sampled_from(["rotation", "tent", "doubling", "toral"]))
    if kind == "rotation":
        q = draw(st.integers(2, 50))
        return systems.circle_rotation(F(draw(st.integers(1, q - 1)), q))
    if kind == "tent":
        q = draw(st.integers(1, 50))
        return systems.tent_map(F(draw(st.integers(q + 1, 2 * q)), q))
    if kind == "doubling":
        return systems.doubling_map()
    return systems.toral_automorphism(*draw(st.sampled_from(UNIMODULAR)))


@st.composite
def _rational_coords(draw):
    q = draw(st.integers(1, 1000))
    return F(draw(st.integers(0, q - 1)), q)


@settings(max_examples=300, deadline=None)
@given(spec=_exact_specs(), data=st.data())
def test_exact_step_matches_float_step_on_random_parameters(spec, data):
    ## one step on each backend from the same rational point agrees to 1e-12
    ## in the circle metric: the exact image converted to floats, against
    ## the float orbit's first step from the point converted to floats
    rp = systems.RationalPoint(tuple(data.draw(_rational_coords()) for _ in range(spec.dimension)))
    exact = systems.exact_step(spec, rp).as_floats()
    floats = systems.orbit(spec, rp.as_floats(), 1)[1]
    d = np.abs(exact - floats)
    assert np.max(np.minimum(d, 1.0 - d)) <= 1e-12, (spec, rp, exact, floats)


def test_exact_step_unsupported_family():
    ns = systems.north_south(0.5)
    with pytest.raises(CapabilityError):
        systems.exact_step(ns, systems.RationalPoint((F(1, 4),)))
    irr = systems.circle_rotation(systems.GOLDEN)
    with pytest.raises(CapabilityError):
        systems.exact_step(irr, systems.RationalPoint((F(1, 4),)))


def test_rational_point_validation():
    with pytest.raises(InputError):
        systems.RationalPoint((F(5, 4),))
    with pytest.raises(InputError):
        systems.RationalPoint((F(-1, 4),))
    rp = systems.RationalPoint((F(1, 2), F(1, 3)))
    assert rp.dimension == 2
    assert np.allclose(rp.as_floats(), [0.5, 1.0 / 3.0])


def test_doubling_periodic_orbits_oracle():
    ## period-p points of w -> 2w are exactly k/(2^p - 1)
    spec = systems.doubling_map()
    orbits = systems.periodic_orbits(spec, 2)
    assert len(orbits) == 2
    sets = sorted(({pt.coords[0] for pt in orb.points} for orb in orbits), key=min)
    assert sets[0] == {F(0)}
    assert sets[1] == {F(1, 3), F(2, 3)}
    orbits3 = systems.periodic_orbits(spec, 3)
    assert len(orbits3) == 4
    period3 = [orb for orb in orbits3 if orb.period == 3]
    got = sorted(({pt.coords[0] for pt in orb.points} for orb in period3), key=min)
    assert got[0] == {F(1, 7), F(2, 7), F(4, 7)}
    assert got[1] == {F(3, 7), F(6, 7), F(5, 7)}


def test_exact_cycle_starts_at_the_point_iff_periodic():
    ## 1/6 -> 1/3 -> 2/3 -> 1/3: the preperiodic point enters the cycle at 1/3
    spec = systems.doubling_map()
    pt = lambda x: systems.RationalPoint((x,))
    assert systems.exact_cycle(spec, pt(F(1, 6)), 3) == [pt(F(1, 3)), pt(F(2, 3))]
    assert systems.exact_cycle(spec, pt(F(2, 3)), 2) == [pt(F(2, 3)), pt(F(1, 3))]
    assert systems.exact_cycle(spec, pt(F(1, 6)), 2) is None
    with pytest.raises(CapabilityError):
        systems.exact_cycle(systems.north_south(0.5), pt(F(1, 3)), 4)


def test_rotation_periodic_orbits():
    spec = systems.circle_rotation(F(1, 4))
    assert systems.periodic_orbits(spec, 3) == []
    orbits = systems.periodic_orbits(spec, 4)
    assert len(orbits) == 1 and orbits[0].period == 4
    assert [pt.coords[0] for pt in orbits[0].points] == [F(0), F(1, 4), F(1, 2), F(3, 4)]
    with pytest.raises(CapabilityError):
        systems.periodic_orbits(systems.circle_rotation(systems.GOLDEN), 4)


def test_cat_map_periodic_orbits():
    ## det(A - I) = 1 and det(A^2 - I) = 5: one fixed point, plus 4 points
    ## in two 2-cycles
    cat = systems.cat_map()
    orbits = systems.periodic_orbits(cat, 1)
    assert len(orbits) == 1
    assert orbits[0].points[0].coords == (F(0), F(0))
    orbits2 = systems.periodic_orbits(cat, 2)
    assert len(orbits2) == 3
    assert sorted(orb.period for orb in orbits2) == [1, 2, 2]
    for orb in orbits2:
        for pt in orb.points:
            img = systems.exact_step(cat, systems.exact_step(cat, pt))
            assert img == pt


#: hyperbolic toral matrices: det 1 with |trace| > 2, det -1 with trace != 0
HYPERBOLIC_TORAL = [(2, 1, 1, 1), (-2, 1, 1, -1), (3, 1, 2, 1), (2, 1, 3, 2), (3, 2, 1, 1),
                    (5, 2, 2, 1), (1, 1, 1, 2), (4, 3, 1, 1),
                    (1, 1, 1, 0), (1, 2, 1, 1), (0, 1, 1, 3), (-1, 1, 1, 0)]
LINEAR_SPECS = [systems.doubling_map()] + [systems.toral_automorphism(*m) for m in HYPERBOLIC_TORAL]


def _box_scan_periodic(spec, max_period):
    """Reference: scan the integer box of (L^p - I)[0,1]^d for the k of every
    solution x = adj k / det of (L^p - I)x = k, and keep each x whose exact
    cycle starts at x, in the box's lexicographic order."""
    d = len(spec.linear)
    a, eye = np.array(spec.linear, dtype=object), np.eye(d, dtype=object)
    lp, plan, scanned = eye, [], 0
    for p in range(1, max_period + 1):
        lp = lp @ a
        m = (lp - eye).tolist()
        if d == 1:
            det, adj = m[0][0], ((1,),)
        else:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        box = [(sum(min(c, 0) for c in row), sum(max(c, 0) for c in row)) for row in m]
        scanned += int(np.prod([hi - lo + 1 for lo, hi in box], dtype=object))
        errors.check_budget("periodic", scanned, max_period, scanned, p)
        plan.append((p, det, adj, [range(lo, hi + 1) for lo, hi in box]))
    seen = set()
    orbits = []
    for p, det, adj, box in plan:
        for k in itertools.product(*box):
            x = tuple(F(sum(c * kk for c, kk in zip(row, k)), det) for row in adj)
            if not all(0 <= c < 1 for c in x):
                continue
            pt = systems.RationalPoint(x)
            if pt in seen:
                continue
            cycle = systems.exact_cycle(spec, pt, p)
            if cycle is None or cycle[0] != pt:  # no period <= p
                continue
            seen.update(cycle)
            if len(cycle) == p:
                orbits.append(systems.PeriodicOrbit(tuple(cycle), p))
    return orbits


def _largest_box_scan(spec):
    """(max_period, orbits) of the box scan at the largest max_period its budget
    accepts; a refused scan stops while sizing its boxes."""
    for m in range(40, 0, -1):
        try:
            return m, _box_scan_periodic(spec, m)
        except ResourceBudgetError:
            pass


@pytest.mark.parametrize("spec", LINEAR_SPECS, ids=lambda spec: spec.describe())
def test_periodic_orbits_equal_the_box_scan(spec):
    ## the scan at max_period `top` lists every smaller max_period's orbits
    ## first, period by period, so that one scan is the reference for them all
    top, reference = _largest_box_scan(spec)
    assert reference
    for m in range(1, top + 1):
        assert systems.periodic_orbits(spec, m) == [o for o in reference if o.period <= m]


def _mobius(n):
    mu, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize("spec", LINEAR_SPECS, ids=lambda spec: spec.describe())
def test_least_period_counts_are_the_mobius_inversion_of_det(spec, monkeypatch):
    ## Fix(L^p) has |det(L^p - I)| points, so the points of least period p
    ## number sum over q | p of mobius(p/q) |det(L^q - I)|; checked up to the
    ## largest max_period a 2^13 cap accepts, every orbit closing exactly
    monkeypatch.setitem(errors.BUDGETS, "periodic", errors.BUDGETS["periodic"]._replace(cap=1 << 13))
    a, lp, fix = np.array(spec.linear, dtype=object), np.eye(len(spec.linear), dtype=object), {}
    while sum(fix.values()) <= 1 << 13:
        lp = lp @ a
        m = (lp - np.eye(len(spec.linear), dtype=object)).tolist()
        fix[len(fix) + 1] = abs(m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0])
    top = len(fix) - 1
    with pytest.raises(ResourceBudgetError, match="by period %d, over the budget of 8192" % (top + 1)):
        systems.periodic_orbits(spec, top + 1)
    orbits = systems.periodic_orbits(spec, top)
    for p in range(1, top + 1):
        least = sum(_mobius(p // q) * fix[q] for q in range(1, p + 1) if p % q == 0)
        assert sum(len(o.points) for o in orbits if o.period == p) == least
    points = [pt for o in orbits for pt in o.points]
    assert len(set(points)) == len(points)
    for o in orbits[:200]:
        assert len(o.points) == o.period
        for pt, nxt in zip(o.points, o.points[1:] + o.points[:1]):
            assert systems.exact_step(spec, pt) == nxt


def test_finite_order_toral_matrix_refused():
    spec = systems.toral_automorphism(0, 1, -1, 0)  # A^4 = I
    with pytest.raises(CapabilityError):
        systems.periodic_orbits(spec, 4)


def test_hyperbolic_means_no_eigenvalue_on_the_unit_circle():
    toral = systems.toral_automorphism
    assert systems.hyperbolic(systems.doubling_map())
    assert systems.hyperbolic(systems.cat_map())
    assert systems.hyperbolic(toral(1, 1, 1, 0))  # det -1, trace 1
    assert systems.hyperbolic(toral(-2, 1, 1, -1))  # det 1, trace -3
    ## orders 4, 2, 6, 3 and 2, then two parabolic shears
    for m in [(0, 1, -1, 0), (0, 1, 1, 0), (1, 1, -1, 0), (-1, 1, -1, 0), (-1, 0, 0, -1),
              (1, 1, 0, 1), (2, 1, -1, 0)]:
        assert not systems.hyperbolic(toral(*m)), m
    assert not systems.hyperbolic(systems.circle_rotation(F(1, 3)))
    assert not systems.hyperbolic(systems.tent_map(2))


def test_periodic_search_refused_over_the_lattice_budget():
    ## checked period by period before any point is enumerated, so a huge
    ## max_period costs only the periods up to the one that crosses the cap
    for spec in (systems.doubling_map(), systems.cat_map()):
        with pytest.raises(ResourceBudgetError, match="budget of %d" % errors.BUDGETS["periodic"].cap):
            systems.periodic_orbits(spec, 1 << 20)


def test_rotation_periodic_search_refused_over_the_lattice_budget(monkeypatch):
    ## the orbit of a rotation by p/q takes q exact steps; q is counted first
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError, match="lists 65537 periodic points by period 65537, "
                                                  "over the budget of 65536; lower options.max_period"):
        systems.periodic_orbits(systems.circle_rotation("1/65537"), 1 << 20)
    assert time.perf_counter() - start < 0.5
    ## q at the cap still runs: the orbit through 0, in visiting order
    monkeypatch.setitem(errors.BUDGETS, "periodic", errors.BUDGETS["periodic"]._replace(cap=7))
    (orbit,) = systems.periodic_orbits(systems.circle_rotation("3/7"), 7)
    assert orbit.period == 7 and [pt.coords[0] for pt in orbit.points] == [F(3 * k % 7, 7) for k in range(7)]
    with pytest.raises(ResourceBudgetError, match="over the budget of 7"):
        systems.periodic_orbits(systems.circle_rotation("1/8"), 8)


def test_point_from_bits():
    assert systems.point_from_bits("1") == F(1, 2)
    assert systems.point_from_bits("011") == F(3, 8)
    assert systems.point_from_bits("0000") == F(0)


@pytest.mark.parametrize("bits", ["0121", "1 0", "0_1", "x", "+1", [0, 1]])
def test_point_from_bits_rejects_other_characters(bits):
    with pytest.raises(InputError, match="0s and 1s"):
        systems.point_from_bits(bits)


def test_point_sets():
    pts = systems.equispaced_points(8, 1)
    assert pts.shape == (8, 1) and pts[0, 0] == 0.0 and pts[-1, 0] == 0.875
    grid = systems.equispaced_points(4, 2)
    assert grid.shape == (16, 2)
    kron = systems.kronecker_points(100, 2)
    assert kron.shape == (100, 2)
    assert np.all(kron >= 0.0) and np.all(kron < 1.0)
    assert not np.allclose(systems.kronecker_points(5, 1),
                           systems.kronecker_points(5, 1, seed=3))


def test_equispaced_points_budget():
    ## the budget counts count^dimension points, the grid's rows
    cap = errors.BUDGETS["grid"].cap
    assert systems.equispaced_points(cap, 1).shape == (1 << 16, 1)
    assert systems.equispaced_points(1 << 8, 2).shape == (1 << 16, 2)
    for count, dimension in ((cap + 1, 1), (257, 2), (1 << 40, 1)):
        with pytest.raises(ResourceBudgetError, match="points, over the budget of 65536; lower"):
            systems.equispaced_points(count, dimension)


def test_systems_catalog():
    cat = systems.systems_catalog()
    assert [entry["family"] for entry in cat] == list(systems.FAMILIES)
    for entry in cat:
        assert {"family", "dimension", "params", "exact_backend", "description"} <= set(entry)


def test_describe_mentions_parameters():
    ## these texts are every report's system_description, so they are pinned
    ## byte for byte
    assert systems.circle_rotation(0.25).describe() == "circle_rotation(alpha=0.25)"
    assert systems.circle_rotation("1/3").describe() == "circle_rotation(alpha=0.3333333333333333)"
    assert systems.doubling_map().describe() == "doubling()"
    assert systems.north_south(0.05).describe() == "north_south(kappa=0.05)"
    assert systems.tent_map("3/2").describe() == "tent(slope=1.5)"
    assert systems.toral_automorphism(1, 1, 0, 1).describe() == "toral_automorphism(1,1,0,1)"
    assert systems.cat_map().describe() == "toral_automorphism(2,1,1,1)"
