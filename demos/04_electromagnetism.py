#!/usr/bin/env python3
"""Electromagnetic and gravitational fields of a charged-particle model.

L = h11(t) g_ij(x) y^i y^j + U_i(x) y^i on the unit sphere, with a
one-form potential U.  The deflection tensors split the field strength
off the metric part; the antisymmetric piece satisfies source-free
field equations, and the metric part feeds the Einstein-type system.
"""

import numpy as np

from jetlag import parse
from jetlag.geometry import LagrangeSpace
from jetlag.fields import (conservation_residuals, deflections, em_form,
                           maxwell_residuals, maxwell_simple_residuals,
                           ricci_and_scalar, einstein_system)

n = 2
g = [[parse("1", n), parse("0", n)], [parse("0", n), parse("sin(x1)^2", n)]]
U = [parse("0", n), parse("cos(x1)", n)]
sp = LagrangeSpace.from_family("electrodynamics", n, parse("1 + 0.5*t^2", n),
                               g, U_fields=U)

z = np.array([0.4, 1.1, 0.3, 0.2, 1.0])

def_set = deflections(sp, z)
print("deflection D_ij:")
print(def_set.D)
print("vertical deflection d_ij (identity expected):")
print(def_set.d)

ef = em_form(sp, z)
print("field strength F (antisymmetric):")
print(ef.F)
print("two construction routes agree to", ef.route_residual)

for form, fn in (("general", maxwell_residuals),
                 ("simple", maxwell_simple_residuals)):
    res = fn(sp, z)
    print(f"field equations, {form} form:",
          {k: float(np.abs(v).max()) for k, v in res.items()})

ric = ricci_and_scalar(sp, z)
print("Ricci R_ij:")
print(ric.R_ij)
print("scalar Sc =", ric.Sc, " (2 on the unit sphere)")

rep = einstein_system(sp, z, kappa=1.0)
print("gravitational field equations, max residual per block:")
for key, val in rep.e2.items():
    print(f"  e2 {key:12s} {np.abs(val).max():.3e}")
print("stress blocks:", sorted(rep.stress))
print("identically vanishing rows:", rep.forced_zero)
cons = conservation_residuals(sp, z)
print("divergence laws:", {k: float(np.abs(v).max()) for k, v in cons.items()})
