"""Second-order curves of the time-dependent spray and the energy action.

The curve equation solved here is h^11 { d2x/dt2 + 2 Gspat + 2 Htemp } = 0;
since h^11 never vanishes on a regular space the integrated form is simply
d2x/dt2 = -2 Gspat - 2 Htemp.  A fixed-step classical Runge-Kutta scheme
keeps convergence studies reproducible.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import LagrangeSpace, NonRegularError

__all__ = [
    "Curve",
    "harmonic_rhs",
    "integrate_harmonic",
    "action",
    "el_acceleration",
    "el_residual",
]

# step-count cap of integrate_harmonic: every sample is kept in memory, and
# at 0.13-0.32 ms per step (n = 2 builtins, 2-core x86-64 VM) the cap is
# under a minute of work
MAX_STEPS = 100_000


@dataclass(frozen=True)
class Curve:
    """Sampled solution curve: x(t) with its velocity y = dx/dt.

    t is strictly increasing; y is the integrator's own state, never
    recomputed by differencing x.
    """

    t: np.ndarray          # (m,)
    x: np.ndarray          # (m, n)
    y: np.ndarray          # (m, n)
    step: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size \
                or y.shape != x.shape:
            raise ValueError("inconsistent sample shapes")
        if t.size < 2:
            raise ValueError("a curve needs at least two samples")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.t.size

    def point(self, k: int) -> np.ndarray:
        return np.concatenate([[self.t[k]], self.x[k], self.y[k]])

    def to_csv(self, target) -> None:
        """Write `t,x1..xn,y1..yn` rows at full double precision to an
        open text file or a path."""
        if not hasattr(target, "write"):
            with open(target, "w") as fh:
                return self.to_csv(fh)
        names = ([f"x{i + 1}" for i in range(self.n)]
                 + [f"y{i + 1}" for i in range(self.n)])
        target.write("t," + ",".join(names) + "\n")
        for k in range(len(self)):
            target.write(",".join(f"{v:.17g}" for v in self.point(k)) + "\n")


def harmonic_rhs(sp: LagrangeSpace, point) -> np.ndarray:
    """Acceleration d2x/dt2 of the curve equation at a jet point."""
    geo = sp.geometry_at(point)
    return -2.0 * geo.Gspat - 2.0 * geo.Htemp


def integrate_harmonic(sp: LagrangeSpace, x0, y0, t0: float, t1: float,
                       step: float) -> Curve:
    """Fixed-step RK4 on the first-order system (x' = y, y' = rhs)."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != (sp.n,) or y0.shape != (sp.n,):
        raise ValueError(f"initial data must have shape ({sp.n},)")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    steps = (t1 - t0) / step - 1e-12
    if not math.isfinite(steps):
        raise ValueError("(t1 - t0)/step is not a finite step count")
    count = max(1, int(math.ceil(steps)))
    if count > MAX_STEPS:
        # exact below 1e20 steps, and never the 309 digits of a huge count
        raise ValueError(f"{count:.20g} steps exceed the cap of {MAX_STEPS}")

    # RK4 on the state s = (x, y), whose slope is (y, rhs).  Each stage's
    # point (t, s) is written into one reused buffer z: a geometry keeps a
    # copy of any point it holds on to
    n = sp.n
    z = np.empty(2 * n + 1)
    k = np.empty((4, 2 * n))            # the four stage slopes

    def slope(stage, t, s):
        z[0], z[1:] = t, s
        if not np.isfinite(z).all():
            raise NonRegularError(f"non-finite state at t = {t:.6g}",
                                  point=tuple(z))
        k[stage, :n] = s[n:]
        try:
            k[stage, n:] = harmonic_rhs(sp, z)
        except NonRegularError as err:
            raise NonRegularError(
                f"{err} (reached at t = {t:.6g} along the curve)",
                point=err.point, det=err.det) from err
        return k[stage]

    t, s = t0, np.concatenate([x0, y0])
    ts, states = [t], [s]
    for i in range(count):
        h = min(step, t1 - t)
        k1 = slope(0, t, s)
        k2 = slope(1, t + 0.5 * h, s + 0.5 * h * k1)
        k3 = slope(2, t + 0.5 * h, s + 0.5 * h * k2)
        k4 = slope(3, t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t1 if i == count - 1 else t + h
        ts.append(t)
        states.append(s)
    states = np.array(states)
    return Curve(t=np.array(ts), x=states[:, :n], y=states[:, n:], step=step)


def action(sp: LagrangeSpace, curve: Curve) -> float:
    """Energy functional of the curve: integral of L sqrt(|h11|) dt.

    Composite Simpson on uniformly spaced samples with an even interval
    count; anything else falls back to the trapezoid rule with a warning.
    """
    m = len(curve)
    vals = np.empty(m)
    for k in range(m):
        z = curve.point(k)
        h11 = sp.h11.evaluate(z)
        vals[k] = sp.L.evaluate(z) * math.sqrt(abs(h11))
    dt = np.diff(curve.t)
    uniform = np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)
    if uniform and m >= 3 and m % 2 == 1:
        w = np.ones(m)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float(dt[0] / 3.0 * (w @ vals))
    warnings.warn("falling back to trapezoid quadrature "
                  "(need an odd count of uniformly spaced samples)")
    return float(np.sum(0.5 * dt * (vals[:-1] + vals[1:])))


def el_acceleration(sp: LagrangeSpace, point) -> np.ndarray:
    """Acceleration solved algebraically from the extremal equation.

    The stationarity condition of the action is
    d/dt (dL/dy^k sqrt|h11|) = dL/dx^k sqrt|h11|; expanding the total
    time derivative and solving the linear system in d2x/dt2 gives an
    expression assembled purely from Lagrangian partials, with none of
    the metric contractions the spray route uses.
    """
    geo = sp.geometry_at(point)
    return -np.linalg.solve(geo.Lyy, _el_source(geo, geo.z[1 + sp.n:]))


def _el_source(geo, y) -> np.ndarray:
    """The acceleration-free part b of the extremal equation Lyy x'' + b = 0."""
    return geo.Lty + geo.Lxy.T @ y - geo.Lx + geo.H * geo.Ly


def el_residual(sp: LagrangeSpace, curve: Curve) -> np.ndarray:
    """Extremal-equation residual at the interior samples of a curve.

    The second derivative of x comes from a 3-point central difference of
    the curve's own positions, so this is an external check on the
    integrator, not a restatement of it.  Requires >= 5 samples.
    """
    m = len(curve)
    if m < 5:
        raise ValueError("need at least 5 samples for interior differences")
    out = np.empty((m - 2, curve.n))
    for k in range(1, m - 1):
        dt0 = curve.t[k] - curve.t[k - 1]
        dt1 = curve.t[k + 1] - curve.t[k]
        # nonuniform 3-point second derivative
        xdd = 2.0 * (dt0 * curve.x[k + 1] - (dt0 + dt1) * curve.x[k]
                     + dt1 * curve.x[k - 1]) / (dt0 * dt1 * (dt0 + dt1))
        geo = sp.geometry_at(curve.point(k))
        out[k - 1] = geo.Lyy @ xdd + _el_source(geo, curve.y[k])
    return out

