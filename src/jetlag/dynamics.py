"""Second-order curves of the time-dependent spray and the energy action.

The curve equation solved here is h^11 { d2x/dt2 + 2 Gspat + 2 Htemp } = 0;
since h^11 never vanishes on a regular space the integrated form is simply
d2x/dt2 = -2 Gspat - 2 Htemp.  A fixed-step classical Runge-Kutta scheme
keeps convergence studies reproducible.

The integrator and ``el_residual`` read each point's geometry once, through
``geometry_at``, and leave the space's geometry cache as they found it (see
``LagrangeSpace._read_once``): no later read meets those points, so the
cache keeps none of them, and a curve costs its samples alone.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expr import evaluate_fields
from .geometry import LagrangeSpace, NonRegularError

__all__ = [
    "Curve",
    "harmonic_rhs",
    "integrate_harmonic",
    "action",
    "el_acceleration",
    "el_residual",
]

# step-count cap of integrate_harmonic: every sample is kept in memory, at
# 8 (2n + 1) bytes a step (4 MB at the cap for n = 2; the geometry cache
# keeps none of a step's four stage points), and at 0.12-0.16 ms per step
# (n = 2 builtins, best of five 1,000-step runs on a 2-core x86-64 VM) the
# cap is under a minute of work
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
    # point (t, s + c k) is written in place into one reused buffer z, and
    # each new state into its row of the samples: a geometry keeps a copy
    # of any point it holds on to
    n = sp.n
    z = np.empty(2 * n + 1)
    stage_s = z[1:]
    k = np.empty((4, 2 * n))            # the four stage slopes
    ts = np.empty(count + 1)
    states = np.empty((count + 1, 2 * n))

    def slope(stage, t, s, c):
        """k[stage], the slope at (t, s + c k[stage - 1]); stage 0 reads s."""
        z[0] = t
        if stage:
            np.multiply(k[stage - 1], c, out=stage_s)
            np.add(s, stage_s, out=stage_s)
        else:
            stage_s[:] = s
        if not all(map(math.isfinite, z.tolist())):
            raise NonRegularError(f"non-finite state at t = {t:.6g}",
                                  point=tuple(z))
        k[stage, :n] = stage_s[n:]
        try:
            k[stage, n:] = sp._read_once(harmonic_rhs, z)
        except NonRegularError as err:
            raise NonRegularError(
                f"{err} (reached at t = {t:.6g} along the curve)",
                point=err.point, det=err.det) from err

    t = ts[0] = t0
    states[0, :n], states[0, n:] = x0, y0
    # a state that leaves the floats raises at its check: no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(count):
            s, new = states[i], states[i + 1]
            h = min(step, t1 - t)
            slope(0, t, s, None)
            slope(1, t + 0.5 * h, s, 0.5 * h)
            slope(2, t + 0.5 * h, s, 0.5 * h)
            slope(3, t + h, s, h)
            # new = s + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed in that order
            k[1:3] *= 2.0
            np.add(k[0], k[1], out=new)
            np.add(new, k[2], out=new)
            np.add(new, k[3], out=new)
            np.multiply(new, h / 6.0, out=new)
            np.add(s, new, out=new)
            t = ts[i + 1] = t1 if i == count - 1 else t + h
    # the last state starts no step, so the stage points' check is here
    z[0], stage_s[:] = t, states[-1]
    if not all(map(math.isfinite, z.tolist())):
        raise NonRegularError(f"non-finite state at t = {t:.6g}",
                              point=tuple(z))
    return Curve(t=ts, x=states[:, :n], y=states[:, n:], step=step)


def action(sp: LagrangeSpace, curve: Curve) -> float:
    """Energy functional of the curve: integral of L sqrt(|h11|) dt.

    Composite Simpson on uniformly spaced samples with an even interval
    count; anything else falls back to the trapezoid rule with a warning.
    """
    m = len(curve)
    vals = np.empty(m)
    # every sample point (t, x, y) as a row of one array
    for k, z in enumerate(np.column_stack((curve.t, curve.x, curve.y))):
        h11, L = evaluate_fields(sp._action, z)
        vals[k] = L * math.sqrt(abs(h11))
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
        geo = sp._read_once(LagrangeSpace.geometry_at, curve.point(k))
        out[k - 1] = geo.Lyy @ xdd + _el_source(geo, curve.y[k])
    return out

