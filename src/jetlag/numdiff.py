"""Finite differences for derived fields.

Symbolic differentiation covers the inputs (Lagrangian, temporal metric,
user metric components); everything built on top of a matrix inverse
(connections, curvatures, Ricci blocks) is differentiated numerically with
a 5-point central stencil plus one Richardson extrapolation level.  The
step is 1e-3 scaled by (1 + |coordinate|).
"""

from __future__ import annotations

import numpy as np

DEFAULT_REL_STEP = 1e-3


def partial(fn, z, axis: int, rel_step: float = DEFAULT_REL_STEP):
    """d fn / d z[axis] at z; fn maps a coordinate array to a float/ndarray."""
    z = np.asarray(z, dtype=float)
    h = rel_step * (1.0 + abs(z[axis]))

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


def gradient(fn, z, axes=None, rel_step: float = DEFAULT_REL_STEP):
    """Stack of partials along the requested axes (default: all).

    Returns an array of shape (len(axes),) + fn(z).shape.
    """
    z = np.asarray(z, dtype=float)
    if axes is None:
        axes = range(len(z))
    return np.stack([partial(fn, z, a, rel_step) for a in axes])

