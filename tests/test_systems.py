"""Map families: float/exact agreement, periodic-orbit oracles, validation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semicascade import systems
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
        systems.evaluate_map(spec, 1.0)
    with pytest.raises(InputError):
        systems.evaluate_map(spec, -0.1)
    with pytest.raises(InputError):
        systems.evaluate_map(spec, [0.1, 0.2])  # wrong dimension


def test_as_point_rejects_nan():
    ## NaN fails both range comparisons, so it must be refused explicitly
    spec = systems.doubling_map()
    for call in (lambda: systems.evaluate_map(spec, float("nan")),
                 lambda: systems.orbit(spec, float("nan"), 3),
                 lambda: systems.metric(spec, 0.5, float("nan")),
                 lambda: systems.evaluate_map(systems.cat_map(), [0.5, float("nan")])):
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


## every bundled family, plus the slope-2 tent whose images land on 1.0 and
## a toral matrix with negative entries, whose tiny negative images np.mod
## rounds up to 1.0
BUNDLE = [systems.circle_rotation(systems.GOLDEN), systems.doubling_map(),
          systems.north_south(0.5), systems.tent_map(1.7), systems.tent_map(2),
          systems.cat_map(), systems.toral_automorphism(0, 1, -1, 0)]


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
        assert orb[k + 1].tobytes() == systems.evaluate_map_batch(spec, orb[k]).tobytes()
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
    ## evaluate_map of the point converted to floats
    rp = systems.RationalPoint(tuple(data.draw(_rational_coords()) for _ in range(spec.dimension)))
    exact = systems.exact_step(spec, rp).as_floats()
    floats = systems.evaluate_map(spec, rp.as_floats())
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
        with pytest.raises(ResourceBudgetError, match="budget of %d" % systems.PERIODIC_LATTICE_BUDGET):
            systems.periodic_orbits(spec, 1 << 20)


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
    assert systems.equispaced_points(systems.GRID_POINT_BUDGET, 1).shape == (1 << 16, 1)
    assert systems.equispaced_points(1 << 8, 2).shape == (1 << 16, 2)
    for count, dimension in ((systems.GRID_POINT_BUDGET + 1, 1), (257, 2), (1 << 40, 1)):
        with pytest.raises(ResourceBudgetError, match="over the budget of 65536 points"):
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
