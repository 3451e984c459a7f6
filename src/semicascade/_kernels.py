"""One numpy map step per family; every float orbit is built from these.

`systems.orbit_batch`, `systems.evaluate_map_batch` and
`topology.proximality_graph` all advance points through `step_1d` or
`step_2d`, so every float route shares the same arithmetic bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

# family codes shared with systems.py
ROTATION = 0
DOUBLING = 1
NORTH_SOUTH = 2
TENT = 3

TWO_PI = 2.0 * math.pi


def _wrap01(x):
    ## float mod can round up to exactly 1.0; the circle identifies 1 with 0
    r = np.mod(x, 1.0)
    r[r >= 1.0] = 0.0
    return r


def step_1d(family, par, x):
    """One map step for an array of circle points (any shape, elementwise)."""
    if family == ROTATION:
        y = x + par
    elif family == DOUBLING:
        y = 2.0 * x
    elif family == NORTH_SOUTH:
        y = x + par * np.sin(TWO_PI * x) / TWO_PI
    elif family == TENT:
        y = par * np.minimum(x, 1.0 - x)
    else:
        raise ValueError("unknown 1d family code %r" % family)
    return _wrap01(y)


def step_2d(m11, m12, m21, m22, pts):
    """One toral-automorphism step, pts shape (P, 2)."""
    y = np.empty_like(pts)
    y[:, 0] = m11 * pts[:, 0] + m12 * pts[:, 1]
    y[:, 1] = m21 * pts[:, 0] + m22 * pts[:, 1]
    return _wrap01(y)
