#!/usr/bin/env python3
# Harmonic curves: integrate the second-order system, compare against a
# great circle, and measure the integrator's convergence order.

import numpy as np

from jetlag import parse
from jetlag.geometry import LagrangeSpace
from jetlag.dynamics import integrate_harmonic, action, el_residual

n = 2
g = [[parse("1", n), parse("0", n)], [parse("0", n), parse("sin(x1)^2", n)]]
sphere = LagrangeSpace.from_family("quadratic", n, parse("1", n), g)

# start on the equator heading east: the solution stays on the equator,
# x2(t) = t, unit speed, action = 1
x0, y0 = [np.pi / 2, 0.0], [0.0, 1.0]
cv = integrate_harmonic(sphere, x0, y0, 0.0, 1.0, 1e-3)
print("samples:", len(cv.t), "step:", cv.step)
print("endpoint x:", cv.x[-1], " exact: [pi/2, 1]")
print("action:", action(sphere, cv))
print("Euler-Lagrange residual along the curve:", np.abs(el_residual(sphere, cv)).max())

# halving the step should cut the endpoint error about 16x (4th order)
errors = []
steps = [0.04, 0.02, 0.01, 0.005]
tilted = LagrangeSpace.from_family("quadratic", n, parse("1", n), g)
for h in steps:
    c = integrate_harmonic(tilted, [1.0, 0.2], [0.3, 0.8], 0.0, 1.0, h)
    fine = integrate_harmonic(tilted, [1.0, 0.2], [0.3, 0.8], 0.0, 1.0, h / 8)
    errors.append(np.abs(c.x[-1] - fine.x[-1]).max())

print("step     endpoint error   order")
for k, (h, e) in enumerate(zip(steps, errors)):
    order = "" if k == 0 else f"{np.log2(errors[k-1] / e):.2f}"
    print(f"{h:<8g} {e:.3e}        {order}")
