"""The map formulas behind every float orbit and every exact step."""

from fractions import Fraction

import numpy as np
import pytest

from semicascade import _kernels


def _step(lift, par, pts):
    ## one float map step: formula on columns, then wrap
    return _kernels._wrap01(np.column_stack(lift(par, tuple(pts.T))))


def test_wrap_hits_zero_not_one():
    ## x + par landing exactly on 1.0 must wrap to 0.0
    out_rot = _step(_kernels.rotation, 0.25, np.array([[0.75]]))
    assert out_rot[0, 0] == 0.0
    out_tent = _step(_kernels.tent, 2.0, np.array([[0.5]]))
    assert out_tent[0, 0] == 0.0
    ## a tiny negative image makes np.mod round up to exactly 1.0
    out_2d = _step(_kernels.linear, ((0, 1), (-1, 0)), np.array([[1e-17, 0.5]]))
    assert out_2d[0, 0] == 0.5 and out_2d[0, 1] == 0.0


@pytest.mark.parametrize("rows", [((2,),), ((2, 1), (1, 1)), ((0, 1), (-1, 0)), ((-3, 2), (1, -1))])
def test_step_linear_matches_the_explicit_products(rows):
    ## reference: each coordinate's products summed left to right, as the
    ## doubling (2.0 * x) and 2x2 toral steps wrote them out by hand
    pts = np.random.default_rng(7).random((1000, len(rows)))
    if len(rows) == 1:
        want = _kernels._wrap01(2.0 * pts)
    else:
        (a, b), (c, d) = rows
        want = _kernels._wrap01(np.column_stack([a * pts[:, 0] + b * pts[:, 1],
                                                 c * pts[:, 0] + d * pts[:, 1]]))
    assert np.array_equal(_step(_kernels.linear, rows, pts), want)


@pytest.mark.parametrize("lift,par,coords,image", [
    (_kernels.rotation, Fraction(1, 3), (Fraction(5, 6),), (Fraction(7, 6),)),
    (_kernels.tent, Fraction(3, 2), (Fraction(3, 4),), (Fraction(3, 8),)),
    (_kernels.linear, ((2, 1), (1, 1)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(4, 3), Fraction(5, 6))),
])
def test_formulas_stay_exact_on_fractions(lift, par, coords, image):
    got = lift(par, coords)
    assert got == image and all(type(c) is Fraction for c in got)
