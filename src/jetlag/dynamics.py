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

from .dtensor import ChartMap, transform_point
from .expr import _point_array
from .geometry import LagrangeSpace, NonRegularError

__all__ = [
    "Curve",
    "harmonic_rhs",
    "integrate_harmonic",
    "action",
    "el_acceleration",
    "el_residual",
    "transform_curve",
]

# step-count cap of integrate_harmonic: every sample is kept in memory, and
# at ~1 ms per step the cap is a couple of minutes of work
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
        """Write `t,x1..xn,y1..yn` rows at full double precision."""
        close = False
        if hasattr(target, "write"):
            fh = target
        else:
            fh = open(target, "w")
            close = True
        try:
            names = ([f"x{i + 1}" for i in range(self.n)]
                     + [f"y{i + 1}" for i in range(self.n)])
            fh.write("t," + ",".join(names) + "\n")
            for k in range(len(self)):
                row = np.concatenate([[self.t[k]], self.x[k], self.y[k]])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        finally:
            if close:
                fh.close()


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
        raise ValueError(f"{count} steps exceed the cap of {MAX_STEPS}")

    def rhs(t, x, y):
        z = np.concatenate([[t], x, y])
        if not np.all(np.isfinite(z)):
            raise NonRegularError(f"non-finite state at t = {t:.6g}",
                                  point=tuple(z))
        try:
            return harmonic_rhs(sp, z)
        except NonRegularError as err:
            raise NonRegularError(
                f"{err} (reached at t = {t:.6g} along the curve)",
                point=err.point, det=err.det) from err

    ts = [t0]
    xs = [x0]
    ys = [y0]
    t, x, y = t0, x0, y0
    for k in range(count):
        h = min(step, t1 - t)
        k1x, k1y = y, rhs(t, x, y)
        k2x, k2y = y + 0.5 * h * k1y, rhs(t + 0.5 * h, x + 0.5 * h * k1x,
                                          y + 0.5 * h * k1y)
        k3x, k3y = y + 0.5 * h * k2y, rhs(t + 0.5 * h, x + 0.5 * h * k2x,
                                          y + 0.5 * h * k2y)
        k4x, k4y = y + h * k3y, rhs(t + h, x + h * k3x, y + h * k3y)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        t = t1 if k == count - 1 else t + h
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return Curve(t=np.array(ts), x=np.array(xs), y=np.array(ys), step=step)


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
    z = _point_array(point, sp.n)
    geo = sp.geometry_at(z)
    return -np.linalg.solve(geo.Lyy, _el_source(geo, z[1 + sp.n:]))


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
        z = curve.point(k)
        geo = sp.geometry_at(z)
        out[k - 1] = geo.Lyy @ xdd + _el_source(geo, curve.y[k])
    return out


def transform_curve(curve: Curve, chart: ChartMap) -> Curve:
    """Push a sampled curve through a jet chart map sample by sample."""
    ts = np.empty(len(curve))
    xs = np.empty_like(curve.x)
    ys = np.empty_like(curve.y)
    for k in range(len(curve)):
        p = transform_point(chart, curve.point(k))
        ts[k] = p.t
        xs[k] = p.x
        ys[k] = p.y
    return Curve(t=ts, x=xs, y=ys, step=curve.step)
