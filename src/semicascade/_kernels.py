"""One map formula per family, run by both the float and the exact backend.

Each formula is `(parameter, coords) -> unwrapped image coords`, with one
entry of `coords` per axis. `systems.orbit_batch`, the one float orbit loop,
passes float64 columns and wraps each image with `_wrap01` into the next
orbit row, so every float map step (the Ulam build's included) runs the
same arithmetic bit for bit; `systems.exact_step` passes Fractions and
reduces them mod 1.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _wrap01(x, out=None):
    ## float mod can round up to exactly 1.0; the circle identifies 1 with 0
    r = np.mod(x, 1.0, out=out)
    r[r >= 1.0] = 0.0
    return r


def rotation(alpha, coords):
    (x,) = coords
    return (x + alpha,)


def north_south(kappa, coords):
    (x,) = coords
    return (x + kappa * np.sin(TWO_PI * x) / TWO_PI,)


def tent(slope, coords):
    ## np.minimum of two Fractions is the smaller Fraction
    (x,) = coords
    return (slope * np.minimum(x, 1 - x),)


def linear(rows, coords):
    """x -> Lx for the integer matrix L with the given rows, summed left to right."""
    return tuple(sum((c * x for c, x in zip(row[1:], coords[1:])), row[0] * coords[0])
                 for row in rows)
