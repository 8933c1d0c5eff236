"""Geometry of time-dependent Lagrangians on the 1-jet bundle of curves.

Layers, bottom to top:

* :mod:`jetlag.dual` - forward-mode dual numbers over numpy arrays.
* :mod:`jetlag.expr` - symbolic scalar fields on jet coordinates, evaluated
  at float or dual points.
* :mod:`jetlag.dtensor` - distinguished tensors as (components, signature)
  pairs: adapted derivatives (forward mode, through ``adapted_gradient``),
  the slot rule of covariant derivatives, chart transforms.
* :mod:`jetlag.geometry` - Lagrange spaces: metrics, sprays, connections,
  torsion and curvature.
* :mod:`jetlag.fields` - deflections, electromagnetic form, Maxwell identities,
  Ricci/Einstein blocks, conservation residuals.
* :mod:`jetlag.dynamics` - harmonic curves, action integrals.
* :mod:`jetlag.checks` / :mod:`jetlag.cli` - identity sweeps and the ``jetlag``
  command line tool.

:mod:`jetlag.numdiff` (finite differences) is no layer: the tests use it as
the independent oracle of the forward-mode derivatives.
"""

from jetlag.expr import JetPoint, ScalarField, parse

__all__ = ["JetPoint", "ScalarField", "parse"]
__version__ = "0.1.0"
