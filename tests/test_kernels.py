"""The numpy map steps behind every float orbit."""

import numpy as np

from semicascade import _kernels


def test_wrap_hits_zero_not_one():
    ## x + par landing exactly on 1.0 must wrap to 0.0
    out_rot = _kernels.step_1d("circle_rotation", 0.25, np.array([0.75]))
    assert out_rot[0] == 0.0
    out_tent = _kernels.step_1d("tent", 2.0, np.array([0.5]))
    assert out_tent[0] == 0.0
    ## a tiny negative image makes np.mod round up to exactly 1.0
    out_2d = _kernels.step_2d(0, 1, -1, 0, np.array([[1e-17, 0.5]]))
    assert out_2d[0, 0] == 0.5 and out_2d[0, 1] == 0.0
