"""One numpy map step per family; every float orbit is built from these.

`systems.orbit_batch`, `systems.evaluate_map_batch` and
`topology.proximality_graph` all advance points through `step_1d` or
`step_linear`, so every float route shares the same arithmetic bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _wrap01(x):
    ## float mod can round up to exactly 1.0; the circle identifies 1 with 0
    r = np.mod(x, 1.0)
    r[r >= 1.0] = 0.0
    return r


def step_1d(family, par, x):
    """One step of the named circle family for an array of points (elementwise)."""
    if family == "circle_rotation":
        y = x + par
    elif family == "north_south":
        y = x + par * np.sin(TWO_PI * x) / TWO_PI
    elif family == "tent":
        y = par * np.minimum(x, 1.0 - x)
    else:
        raise ValueError("unknown 1d family %r" % family)
    return _wrap01(y)


def step_linear(rows, pts):
    """One step of x -> Lx mod 1 for the integer matrix L with the given rows, pts shape (P, d)."""
    y = np.empty_like(pts)
    for i, row in enumerate(rows):
        y[:, i] = row[0] * pts[:, 0]
        for j in range(1, len(row)):
            y[:, i] += row[j] * pts[:, j]
    return _wrap01(y)
