"""Identity sweeps over sampled jet points.

Each suite measures one family of structural identities and reports the
worst absolute residual against a tolerance.  run_checks() is the engine
behind the command-line check/report verbs; everything here is pure and
deterministic for a fixed point sample, so repeated runs agree bit for
bit.  The corrupt_connection hook deliberately damages the spatial
connection block inside the metricity suite, giving the failure path an
honest end-to-end exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dtensor import (
    SlotKind,
    add_connection_terms,
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
)
from .dual import einsum
from .dynamics import el_acceleration, harmonic_rhs
from .expr import EvalDomainError
from .fields import (
    conservation_residuals,
    deflection_identities,
    maxwell_residuals,
    maxwell_simple_residuals,
    worst_residual,
)
from .geometry import (
    LagrangeSpace,
    NonRegularError,
    bianchi_residuals,
    canonical_nonlinear_connection,
    canonical_spray,
    curvature,
    transformed_space,
)

__all__ = [
    "CheckResult",
    "default_tolerances",
    "sample_points",
    "run_checks",
    "worst_offender",
    "random_affine_chart",
]

# residual level treated as "the metric does not depend on t" (or on y)
TIME_INDEPENDENT_CUTOFF = 1e-10

# sample_points gives up after this many draws per requested point
MAX_TRIES_PER_POINT = 64

# heavier suites read the first `budget` points of the sample, and the
# cheap algebraic ones read every point.  The draws are i.i.d., so a
# prefix is a fair subsample; and the budgets nest, so what a suite
# builds at a point (jets, torsion, curvature) is cached for every suite
# with a smaller budget
_BUDGETS = {
    "antisymmetry": 40,
    "bianchi": 25,
    "deflection": 6,
    "maxwell": 8,
    "maxwell-simple": 8,
    "gauge": 6,
    "conservation": 4,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite: worst residual, tolerance, verdict."""

    name: str
    worst: float
    tol: float
    passed: bool
    points: int
    note: str = ""

    @property
    def ratio(self) -> float:
        """worst / tol; a NaN residual ranks as infinitely bad."""
        if self.tol > 0 and not math.isnan(self.worst):
            return self.worst / self.tol
        return float("inf")


def default_tolerances(_family=None) -> dict:
    """Per-suite residual bounds, the same for every space.  The argument
    is ignored; it stays only for callers that still pass a family tag."""
    return {
        "metricity": 1e-8,
        "h-metricity": 1e-12,
        "el-spray": 1e-9,
        "antisymmetry": 1e-8,
        "bianchi": 1e-6,
        "deflection": 1e-6,
        "maxwell": 1e-6,
        "maxwell-simple": 1e-8,
        "gauge": 1e-8,
        "conservation": 1e-4,
    }


def sample_points(sp: LagrangeSpace, ranges, count: int,
                  seed: int) -> np.ndarray:
    """Uniform draws from the per-coordinate boxes, keeping only points
    where the space is regular and defined.  Deterministic for a fixed seed.

    ranges: (2n+1, 2) array of [low, high] rows ordered t, x^i, y^i.
    """
    box = np.asarray(ranges, dtype=float)
    if box.shape != (2 * sp.n + 1, 2):
        raise ValueError(f"ranges must have shape ({2 * sp.n + 1}, 2), "
                         f"got {box.shape}")
    if np.any(box[:, 1] < box[:, 0]):
        raise ValueError("every range needs low <= high")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, span = box[:, 0], box[:, 1] - box[:, 0]
    out = []
    for _ in range(MAX_TRIES_PER_POINT * count):
        z = lo + span * rng.random(2 * sp.n + 1)
        try:
            sp.geometry_at(z)
        except (NonRegularError, EvalDomainError):
            continue
        out.append(z)
        if len(out) == count:
            return np.array(out)
    raise NonRegularError(
        f"could not draw {count} regular points from the given ranges "
        f"(got {len(out)})")


def random_affine_chart(sp: LagrangeSpace, seed: int):
    """t~ = e^t plus a seeded affine spatial map with |det| above 0.3."""
    from .dtensor import ChartMap
    from .expr import parse

    rng = np.random.default_rng(seed)
    n = sp.n
    for _ in range(64):
        A = rng.uniform(-1, 1, (n, n))
        A += np.sign(np.linalg.det(A) or 1.0) * 1.2 * np.eye(n)
        if abs(np.linalg.det(A)) > 0.3:
            break
    else:  # pragma: no cover - vanishing draw probability
        raise ValueError("could not draw a well-conditioned affine map")
    c = rng.uniform(-1, 1, n)
    return ChartMap(parse("exp(t)", n), A, c, t_inverse=parse("log(t)", n))


def _metric_dependence(sp: LagrangeSpace, points) -> tuple:
    """Which of "t" and "y" the metric moves with over the sample: its
    dg_t or dg_y reaches the cutoff somewhere, or is not a number."""
    geos = [sp.geometry_at(z) for z in points]
    return tuple(v for v in ("t", "y")
                 if not worst_residual(getattr(geo, f"dg_{v}")
                                       for geo in geos)
                 < TIME_INDEPENDENT_CUTOFF)


# -- individual suites: each returns the worst residual over its points -------

_G_SLOTS = (SlotKind.SPACE_DOWN, SlotKind.SPACE_DOWN)


def _metricity_residuals(geo, corrupt=False) -> list:
    """Spatial, vertical and time covariant derivatives of g at one point,
    derivative axis last; corrupt bumps the spatial block L by 1e-3."""
    cart = geo.cartan
    bumped = replace(cart, L=cart.L + 1e-3) if corrupt else cart
    return [add_connection_terms(geo.del_x_g, geo.g, _G_SLOTS, bumped,
                                 "space"),
            add_connection_terms(geo.dg_y, geo.g, _G_SLOTS, cart, "vert"),
            add_connection_terms(geo.del_t_g[..., np.newaxis], geo.g,
                                 _G_SLOTS, cart, "time")]


def _metricity_worst(sp, points, corrupt):
    return worst_residual(
        r for z in points
        for r in _metricity_residuals(sp.geometry_at(z), corrupt))


def _h_metricity_worst(sp, points):
    # h11 depends on t alone, so the space and vertical derivatives are
    # identically zero; only the time direction carries a residual
    geos = map(sp.geometry_at, points)
    return worst_residual(geo.hdot - 2.0 * geo.H * geo.h11 for geo in geos)


def _el_spray_worst(sp, points):
    return worst_residual(el_acceleration(sp, z) - harmonic_rhs(sp, z)
                          for z in points)


def _antisymmetry_worst(sp, points):
    res = []
    for z in points:
        g = sp.geometry_at(z).g
        cur = curvature(sp, z)
        low1 = einsum("ip,pjk->ijk", g, cur.R_i1k)
        res.append(low1 + low1.transpose(1, 0, 2))
        for block in (cur.R_ijk, cur.P_ijk, cur.S_ijk):
            low = einsum("ip,pmjk->imjk", g, block)
            res.append(low + low.transpose(1, 0, 2, 3))
    return worst_residual(res)


def _bianchi_worst(sp, points):
    return worst_residual(v for z in points
                          for v in bianchi_residuals(sp, z).values())


def _deflection_worst(sp, points):
    return worst_residual(v for z in points
                          for v in deflection_identities(sp, z).values())


def _maxwell_worst(sp, points, simple):
    fn = maxwell_simple_residuals if simple else maxwell_residuals
    return worst_residual(v for z in points for v in fn(sp, z).values())


def _conservation_worst(sp, points):
    return worst_residual(v for z in points
                          for v in conservation_residuals(sp, z).values())


def _gauge_worst(sp, points, seed):
    # each pushed quantity against the moved space's, relative to
    # max(1, its largest entry there)
    chart = random_affine_chart(sp, seed)
    moved = transformed_space(sp, chart)
    res = []
    for z in points:
        q = transform_point(chart, z)
        s, nl = canonical_spray(sp, z), canonical_nonlinear_connection(sp, z)
        s2 = canonical_spray(moved, q)
        nl2 = canonical_nonlinear_connection(moved, q)
        pushed_nl = transform_nonlinear(nl, chart, z)
        pairs = ((transform_temporal_spray(s.Htemp, chart, z), s2.Htemp),
                 (transform_spatial_spray(s.Gspat, chart, z), s2.Gspat),
                 (pushed_nl.M, nl2.M), (pushed_nl.N, nl2.N))
        res += [(a - b) / max(1.0, np.max(np.abs(b))) for a, b in pairs]
    return worst_residual(res)


# -- driver ------------------------------------------------------------------

def run_checks(sp: LagrangeSpace, points, *, tolerances=None,
               tol_scale: float = 1.0, gauge_seed: int = 0,
               corrupt_connection: bool = False) -> list:
    """Run every identity suite over the sampled points.

    tolerances overrides individual suite bounds before tol_scale is
    applied.  Two rows hold only for a metric g(x), and which of t and y
    the metric moves with is read off the sample: maxwell-simple runs only
    when it moves with neither, and conservation gates only then.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 * sp.n + 1:
        raise ValueError("points must be (count, 2n+1)")
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and positive, "
                         f"got {tol_scale!r}")
    tols = default_tolerances()
    unknown = set(tolerances or ()) - set(tols)
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    tols.update(tolerances or {})
    # an inf bound would pass any residual, and a NaN, zero or negative one
    # would fail every residual, whether given so or scaled into it
    for key, bound in tols.items():
        tols[key] = bound * tol_scale
        if not (math.isfinite(tols[key]) and tols[key] > 0):
            raise ValueError(f"tolerance {key!r} must be finite and positive, "
                             f"got {bound!r} times tol_scale {tol_scale!r}")

    deps = _metric_dependence(sp, points)
    note = f"metric depends on {' and '.join(deps)}; reported only"

    # the suite functions are read at call time, so a wrapper installed
    # on the module (the benchmark's tracer) sees every call
    suites = [
        ("metricity", lambda p: _metricity_worst(sp, p, corrupt_connection)),
        ("h-metricity", lambda p: _h_metricity_worst(sp, p)),
        ("el-spray", lambda p: _el_spray_worst(sp, p)),
        ("antisymmetry", lambda p: _antisymmetry_worst(sp, p)),
        ("bianchi", lambda p: _bianchi_worst(sp, p)),
        ("deflection", lambda p: _deflection_worst(sp, p)),
        ("maxwell", lambda p: _maxwell_worst(sp, p, simple=False)),
        ("maxwell-simple", lambda p: _maxwell_worst(sp, p, simple=True)),
        ("gauge", lambda p: _gauge_worst(sp, p, gauge_seed)),
        ("conservation", lambda p: _conservation_worst(sp, p)),
    ]
    out = []
    for name, call in suites:
        if name == "maxwell-simple" and deps:
            continue
        pts = points[:_BUDGETS.get(name, len(points))]
        worst = call(pts)
        gated = not deps or name != "conservation"
        # a report-only row still fails on a residual that is not a number
        passed = worst < tols[name] if gated else math.isfinite(worst)
        out.append(CheckResult(name, worst, tols[name], bool(passed),
                               len(pts), "" if gated else note))
    return out


def worst_offender(results) -> CheckResult | None:
    """The failed suite with the largest residual-to-tolerance ratio."""
    failed = [r for r in results if not r.passed]
    if not failed:
        return None
    return max(failed, key=lambda r: r.ratio)
