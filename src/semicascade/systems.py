"""Bundled map families on the circle [0,1) and torus [0,1)^2.

Five families are bundled: an irrational/rational circle rotation, the
angle-doubling map, a north-south circle map with one repelling and one
attracting fixed point, a tent map, and an integer toral automorphism.
Each family is one row of `FAMILY_TABLE`: config schema, map formula,
description and exact periodic-orbit solver. Every float orbit is built
by one numpy loop (`orbit_batch`), and an exact-rational backend
(fractions.Fraction) runs the same formula on the algebraic families so
periodic orbits and crafted binary points can be followed without roundoff.

Conventions
-----------
Points are numpy arrays of shape (d,) with coordinates in [0,1); the
metric is the wraparound max-metric, i.e. the max over coordinates of
min(|a-b|, 1-|a-b|). Exact points are `RationalPoint` instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import CapabilityError, InputError, check_budget

#: (sqrt(5)-1)/2, the canonical irrational rotation angle used in tests
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class SystemSpec(NamedTuple):
    """Immutable description of one bundled system.

    `params` holds the constructor arguments: the four integer entries of
    a toral automorphism, none for doubling, else the parameter as a
    float; an exactly given rotation angle or tent slope is also the
    Fraction in `exact_params`. An integer-linear map x -> Lx mod 1
    carries the rows of L in `linear`: ((2,),) for doubling,
    ((m11, m12), (m21, m22)) for a toral automorphism.
    """

    family: str
    dimension: int
    params: tuple
    exact_params: tuple | None = None
    linear: tuple | None = None

    def describe(self):
        return FAMILY_TABLE[self.family].describe % self.params


def _float_and_exact(value):
    ## an int, Fraction or "p/q" string is exact, (Fraction,); a float is not, None
    if not isinstance(value, (Fraction, int, str)):
        return float(value), None
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InputError("%r is not a fraction" % (value,))
    return float(frac), (frac,)


def circle_rotation(alpha) -> SystemSpec:
    """Rotation w -> w + alpha mod 1.

    Pass alpha as a Fraction (or "p/q" string) to enable the exact-rational
    backend; a plain float is treated as an irrational angle.
    """
    a, exact = _float_and_exact(alpha)
    if not 0.0 < a < 1.0:
        raise InputError("rotation angle must lie in (0,1), got %r" % (alpha,))
    return SystemSpec("circle_rotation", 1, (a,), exact)


def doubling_map() -> SystemSpec:
    """Angle doubling w -> 2w mod 1."""
    return SystemSpec("doubling", 1, (), linear=((2,),))


def north_south(kappa) -> SystemSpec:
    """w -> w + kappa*sin(2 pi w)/(2 pi) mod 1, kappa in (0,1).

    Two fixed points: 0 is repelling (derivative 1+kappa) and 1/2 is
    attracting (derivative 1-kappa); every other orbit flows monotonically
    from the repeller to the attractor.
    """
    k = float(kappa)
    if not 0.0 < k < 1.0:
        raise InputError("north_south kappa must lie in (0,1), got %r" % (kappa,))
    return SystemSpec("north_south", 1, (k,))


def tent_map(slope) -> SystemSpec:
    """w -> slope * min(w, 1-w), slope in (1, 2]."""
    a, exact = _float_and_exact(slope)
    if not 1.0 < a <= 2.0:
        raise InputError("tent slope must lie in (1,2], got %r" % (slope,))
    return SystemSpec("tent", 1, (a,), exact)


def toral_automorphism(m11, m12, m21, m22) -> SystemSpec:
    """(x,y) -> (m11 x + m12 y, m21 x + m22 y) mod 1 for an integer matrix with |det| = 1."""
    entries = (int(m11), int(m12), int(m21), int(m22))
    det = entries[0] * entries[3] - entries[1] * entries[2]
    if abs(det) != 1:
        raise InputError("toral matrix must have determinant +-1, got det=%d" % det)
    return SystemSpec("toral_automorphism", 2, entries, linear=(entries[:2], entries[2:]))


def cat_map() -> SystemSpec:
    return toral_automorphism(2, 1, 1, 1)


def hyperbolic(spec):
    """Is the map integer-linear with no eigenvalue on the unit circle?

    For a toral automorphism this is ergodicity: no eigenvalue is a root
    of unity. A 2x2 matrix with det 1 needs |tr| > 2, with det -1 tr != 0.
    """
    rows = spec.linear
    if rows is None:
        return False
    if len(rows) == 1:
        return abs(rows[0][0]) > 1
    (a, b), (c, d) = rows
    return abs(a + d) > 2 if a * d - b * c == 1 else a + d != 0


def as_point(p, dimension):
    """Coerce scalars/sequences to a validated (d,) float array in [0,1)."""
    arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if arr.shape != (dimension,):
        raise InputError("expected a point of dimension %d, got shape %r" % (dimension, arr.shape))
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # NaN fails both
        raise InputError("coordinates must lie in [0,1), got %r" % (arr,))
    return arr


def as_points(pts, dimension):
    """A (P, d) array, or a (P,) one when d = 1, as a validated (P, d) float array in [0,1)."""
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dimension:
        raise InputError("expected points of shape (P, %d), got shape %r" % (dimension, arr.shape))
    ## NaN propagates through min and max and fails both comparisons; they
    ## make no array the size of the points
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < 1.0):
        raise InputError("coordinates must lie in [0,1)")
    return arr


def metric(spec, p1, p2):
    """Wraparound max-metric between two points of the system's space."""
    a = as_point(p1, spec.dimension)
    b = as_point(p2, spec.dimension)
    d = np.abs(a - b)
    return float(np.max(np.minimum(d, 1.0 - d)))


def orbit(spec, p, n):
    """First n+1 orbit points of p under the map; returns shape (n+1, d)."""
    return orbit_batch(spec, as_point(p, spec.dimension)[None, :], n)[:, 0, :]


def orbit_batch(spec, pts, n):
    """Orbits of points of shape (P, d) at once; returns shape (n+1, P, d).

    The one float orbit loop: each step runs the family's `lift` on the
    columns of row k and wraps every axis image into row k+1 in place.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != spec.dimension:
        raise InputError("expected points of shape (P, %d)" % spec.dimension)
    if n < 0:
        raise InputError("orbit length must be nonnegative")
    out = np.empty((n + 1,) + pts.shape)
    out[0] = pts
    lift, par = FAMILY_TABLE[spec.family].lift, spec.linear or spec.params[0]
    for k in range(n):
        for j, img in enumerate(lift(par, tuple(out[k].T))):
            _kernels._wrap01(img, out=out[k + 1][:, j])
    return out


# ---------------------------------------------------------------------------
# exact rational backend


@dataclass(frozen=True)
class RationalPoint:
    """Exact point with Fraction coordinates in [0,1)."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        for c in coords:
            if not 0 <= c < 1:
                raise InputError("rational coordinates must lie in [0,1), got %s" % (c,))
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self):
        return len(self.coords)

    def as_floats(self):
        return np.array([float(c) for c in self.coords])


class PeriodicOrbit(NamedTuple):
    """One periodic orbit: its points in visiting order and its least period."""

    points: tuple
    period: int


def _exact_supported(spec):
    return spec.linear is not None or spec.exact_params is not None


def exact_step(spec, rp):
    """One exact map step; only the algebraic families support this."""
    if not isinstance(rp, RationalPoint):
        raise InputError("exact_step expects a RationalPoint")
    if rp.dimension != spec.dimension:
        raise InputError("point dimension %d does not match system dimension %d" % (rp.dimension, spec.dimension))
    if not _exact_supported(spec):
        raise CapabilityError(
            "no exact backend for %s; use the float orbit or the transition-graph route" % spec.describe()
        )
    lift = FAMILY_TABLE[spec.family].lift
    return RationalPoint(tuple(c % 1 for c in lift(spec.linear or spec.exact_params[0], rp.coords)))


def exact_orbit(spec, rp, n):
    """First n+1 exact orbit points; list of RationalPoint."""
    out = [rp]
    for _ in range(n):
        out.append(exact_step(spec, out[-1]))
    return out


def exact_cycle(spec, rp, cap):
    """The cycle the exact orbit of rp enters within cap steps, or None.

    The cycle is listed in visiting order from the first of its points that
    the orbit reaches, so rp is periodic with least period <= cap exactly
    when the cycle starts at rp.
    """
    step_of = {rp: 0}  # orbit point -> step; insertion order is the orbit
    cur = rp
    for _ in range(cap):
        cur = exact_step(spec, cur)
        if cur in step_of:
            return list(step_of)[step_of[cur]:]
        step_of[cur] = len(step_of)
    return None


def _rotation_periodic(spec, max_period):
    p, q = spec.exact_params[0].numerator, spec.exact_params[0].denominator
    if q > max_period:
        return []
    check_budget("periodic", q, max_period, q, q)
    ## every point has period q; report the orbit through 0, at jp/q mod 1 after
    ## j steps, of which every other orbit is a translate
    return [PeriodicOrbit(tuple(RationalPoint((Fraction(j * p % q, q),)) for j in range(q)), q)]


def _linear_periodic(spec, max_period):
    ## the period-p points form the group (L^p - I)^-1 Z^d / Z^d of exactly
    ## D = |det(L^p - I)| points n/D (Katok & Hasselblatt 1995), whose numerators
    ## n the columns of adj(L^p - I) span mod D. Every D is counted against the
    ## budget first. Python ints throughout, as L^p can outgrow int64.
    d = len(spec.linear)
    a, eye = np.array(spec.linear, dtype=object), np.eye(d, dtype=object)
    lp, plan, listed = eye, [], 0
    for p in range(1, max_period + 1):
        lp = lp @ a
        m = (lp - eye).tolist()
        if d == 1:
            det, adj = m[0][0], ((1,),)
        else:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
        if det == 0:
            raise CapabilityError("L^%d - I is singular: a whole subtorus is periodic; "
                                  "use the transition-graph route" % p)
        listed += abs(det)
        check_budget("periodic", listed, max_period, listed, p)
        plan.append((p, m, abs(det), list(zip(*adj))))
    apply = lambda rows, n: [sum(c * x for c, x in zip(row, n)) for row in rows]
    orbits = []
    for p, m, size, cols in plan:
        ## u1 = cols[0] has order o1, and u2 = cols[-1] spans the quotient by it
        o1 = size // math.gcd(size, *cols[0])
        group = [tuple((i * x + j * y) % size for x, y in zip(cols[0], cols[-1]))
                 for i in range(o1) for j in range(size // o1)]
        seen = set()
        ## in the order of the k for which x = n/D solves (L^p - I)x = k
        for n in sorted(group, key=lambda n: [c // size for c in apply(m, n)]):
            if n in seen:
                continue
            cycle = [n]
            while (nxt := tuple(c % size for c in apply(spec.linear, cycle[-1]))) != n:
                cycle.append(nxt)
            seen.update(cycle)
            if len(cycle) == p:
                points = (RationalPoint(tuple(Fraction(c, size) for c in x)) for x in cycle)
                orbits.append(PeriodicOrbit(tuple(points), p))
    return orbits


class Family(NamedTuple):
    """One bundled family: the only place that knows it by name.

    `params` lists (name, kind, catalog text) in the order `build` takes
    them; kind is what a config may give: "fraction" (a number or a "p/q"
    string), "number" or "int". `lift` is the `_kernels` formula both
    backends run, `describe` formats `SystemSpec.params`, and `periodic`
    is the exact periodic-orbit solver, if any.
    """

    dimension: int
    params: tuple
    build: object
    exact_backend: str
    description: str
    lift: object
    describe: str
    periodic: object = None


FAMILY_TABLE = {
    "circle_rotation": Family(
        1, (("alpha", "fraction", "float or exact rational string in (0,1)"),),
        circle_rotation, "rational alpha only", "rotation w -> w + alpha mod 1",
        _kernels.rotation, "circle_rotation(alpha=%r)", _rotation_periodic),
    "doubling": Family(1, (), doubling_map, "yes", "angle doubling w -> 2w mod 1",
                       _kernels.linear, "doubling()", _linear_periodic),
    "north_south": Family(
        1, (("kappa", "number", "float in (0,1)"),), north_south, "no",
        "w -> w + kappa*sin(2 pi w)/(2 pi); 0 repels, 1/2 attracts",
        _kernels.north_south, "north_south(kappa=%r)"),
    "tent": Family(
        1, (("slope", "fraction", "float or exact rational string in (1,2]"),),
        tent_map, "rational slope only", "w -> slope*min(w, 1-w)",
        _kernels.tent, "tent(slope=%r)"),
    "toral_automorphism": Family(
        2, tuple((key, "int", "integer entry of the matrix [[m11, m12], [m21, m22]], |det| = 1")
                 for key in ("m11", "m12", "m21", "m22")),
        toral_automorphism, "yes", "integer matrix action on the 2-torus",
        _kernels.linear, "toral_automorphism(%d,%d,%d,%d)", _linear_periodic),
}

FAMILIES = tuple(FAMILY_TABLE)


def periodic_orbits(spec, max_period):
    """All periodic orbits of least period <= max_period, exactly.

    Supported: x -> Lx mod 1 while every L^p - I is invertible, and rotations
    by an exact rational p/q (every point has period q; the orbit through 0 is
    reported, every other orbit being a translate of it). Orbits come by period,
    each in visiting order from its point x of least k = (L^p - I)x in Z^d.
    Other maps raise CapabilityError naming the graph fallback, and a search of
    more than errors.BUDGETS["periodic"] points raises ResourceBudgetError first.
    """
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    periodic = FAMILY_TABLE[spec.family].periodic
    if periodic is not None and _exact_supported(spec):
        return periodic(spec, max_period)
    raise CapabilityError(
        "periodic_orbits has no exact backend for %s; fall back to minimal_invariant_sets "
        "on the transition graph" % spec.describe()
    )


def point_from_bits(bits):
    """Exact binary point 0.b1 b2 b3 ... as a Fraction, bits a string of 0/1."""
    if not set(bits) <= {"0", "1"}:
        raise InputError("bits must be a string of 0s and 1s, got %r" % (bits,))
    return Fraction(int("0" + bits, 2), 1 << len(bits))


# ---------------------------------------------------------------------------
# deterministic point sets


def equispaced_points(count, dimension):
    """count^dimension grid points (cell-center free, starts at 0), first axis slowest.

    More points than errors.BUDGETS["grid"] allows raise ResourceBudgetError.
    """
    check_budget("grid", count**dimension, count, dimension)
    side = np.arange(count, dtype=np.float64) / count
    return np.column_stack([g.ravel() for g in np.meshgrid(*[side] * dimension, indexing="ij")])


#: per-dimension Kronecker steps: 1/phi, and (1/rho, 1/rho^2) for the plastic number rho
_KRONECKER_STEPS = {1: (0.6180339887498949,), 2: (0.7548776662466927, 0.5698402909980532)}


def kronecker_points(count, dimension, seed=0):
    """Deterministic low-discrepancy points: fractional parts of j*alpha."""
    j = np.arange(1 + seed, count + 1 + seed, dtype=np.float64)
    return np.mod(np.multiply.outer(j, _KRONECKER_STEPS[dimension]), 1.0)


def systems_catalog():
    """Stable-ordered description of the bundled families for the CLI."""
    return [{"family": name, "dimension": row.dimension,
             "params": {key: text for key, _, text in row.params},
             "exact_backend": row.exact_backend, "description": row.description}
            for name, row in FAMILY_TABLE.items()]
