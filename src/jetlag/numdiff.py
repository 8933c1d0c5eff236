"""Finite differences: an independent oracle for the package's derivatives.

No module of the package calls this one: every derivative on the main
path is exact, by forward mode (``dtensor.adapted_gradient``).  The tests
take the same derivatives here, with a 5-point central stencil plus one
Richardson extrapolation level, and check that the two routes agree.  The
step is fixed: REL_STEP = 1e-3, scaled by (1 + |coordinate|).
"""

from __future__ import annotations

import numpy as np

REL_STEP = 1e-3


def partial(fn, z, axis: int):
    """d fn / d z[axis] at z; fn maps a coordinate array to a float/ndarray."""
    z = np.asarray(z, dtype=float)
    h = REL_STEP * (1.0 + abs(z[axis]))

    def f(shift):
        zz = z.copy()
        zz[axis] += shift
        return np.asarray(fn(zz), dtype=float)

    f1, fm1 = f(h), f(-h)
    f2, fm2 = f(2 * h), f(-2 * h)
    fh, fmh = f(h / 2), f(-h / 2)
    d_h = (-f2 + 8.0 * f1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d_h2 = (-f1 + 8.0 * fh - 8.0 * fmh + fm1) / (6.0 * h)
    return (16.0 * d_h2 - d_h) / 15.0

