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
from dataclasses import dataclass

import numpy as np

from .dtensor import (
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
)
from .dynamics import el_acceleration, harmonic_rhs
from .expr import EvalDomainError
from .fields import (
    conservation_residuals,
    deflection_identities,
    maxwell_residuals,
    maxwell_simple_residuals,
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
    "metric_time_invariant",
    "conservation_applicable",
]

# residual level treated as "the metric does not depend on t"
TIME_INDEPENDENT_CUTOFF = 1e-10

# sample_points gives up after this many draws per requested point
MAX_TRIES_PER_POINT = 64

# heavier suites run on a spread subset of the sample; the cheap
# algebraic ones use every point
_BUDGETS = {
    "antisymmetry": 40,
    "bianchi": 25,
    "deflection": 6,
    "maxwell": 8,
    "maxwell-simple": 8,
    "gauge": 6,
    "conservation": 4,
}

_FAMILY_SIMPLE_FORM = ("quadratic", "electrodynamics")


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


def _worst(residuals) -> float:
    """Largest |entry| over an iterable of residual arrays and scalars.

    np.max propagates NaN where the builtin max drops it, so one NaN
    residual makes the result NaN, and NaN fails every `worst < tol`
    gate.  The leading zero keeps an empty sweep at 0.
    """
    flat = [np.zeros(1)] + [np.ravel(r) for r in residuals]
    return float(np.max(np.abs(np.concatenate(flat))))


def default_tolerances(family: str) -> dict:
    """Per-suite residual bounds; the cyclic closure equations get a
    looser bound when the metric carries explicit time dependence."""
    return {
        "metricity": 1e-8,
        "h-metricity": 1e-12,
        "el-spray": 1e-9,
        "antisymmetry": 1e-8,
        "bianchi": 1e-6,
        "deflection": 1e-6,
        "maxwell": 1e-5 if family == "nonautonomous" else 1e-6,
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


def _subset(points: np.ndarray, budget: int) -> np.ndarray:
    if len(points) <= budget:
        return points
    idx = np.unique(np.linspace(0, len(points) - 1, budget).round().astype(int))
    return points[idx]


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


def metric_time_invariant(sp: LagrangeSpace, points) -> bool:
    """True when dg/dt stays at round-off level over the sample."""
    return _worst(sp.geometry_at(z).dg_t for z in points) \
        < TIME_INDEPENDENT_CUTOFF


def conservation_applicable(sp: LagrangeSpace, points) -> tuple:
    """(gate, note): the divergence identities of the field equations
    close only for metrics g(x); explicit t or y dependence each adds a
    structural remainder, so those spaces get report-only treatment."""
    geos = [sp.geometry_at(z) for z in points]
    deps = [v for v in ("t", "y")
            if not _worst(getattr(geo, f"dg_{v}") for geo in geos)
            < TIME_INDEPENDENT_CUTOFF]
    if not deps:
        return True, ""
    return False, f"metric depends on {' and '.join(deps)}; reported only"


# -- individual suites: each returns the worst residual over its points -------

def _metricity_worst(sp, points, corrupt):
    res = []
    for z in points:
        geo = sp.geometry_at(z)
        g, cart = geo.g, geo.cartan
        Lb = cart.L + 1e-3 if corrupt else cart.L
        del_x_g = geo.dg_x - np.einsum("ijm,mk->kij", geo.dg_y, geo.N)
        cov_s = (del_x_g
                 - np.einsum("mik,mj->kij", Lb, g)
                 - np.einsum("mjk,im->kij", Lb, g))
        cov_v = (geo.dg_y
                 - np.einsum("mik,mj->ijk", cart.C, g)
                 - np.einsum("mjk,im->ijk", cart.C, g))
        del_t_g = geo.dg_t - np.einsum("ijm,m->ij", geo.dg_y, geo.M)
        cov_t = del_t_g - cart.Gt.T @ g - g @ cart.Gt
        res += [cov_s, cov_v, cov_t]
    return _worst(res)


def _h_metricity_worst(sp, points):
    # h11 depends on t alone, so the space and vertical derivatives are
    # identically zero; only the time direction carries a residual
    idx = (1,) + (0,) * (2 * sp.n)
    hdot = sp.h11.differentiate(idx)
    res = []
    for z in points:
        geo = sp.geometry_at(z)
        res.append(hdot.evaluate(z) - 2.0 * geo.H * geo.h11)
    return _worst(res)


def _el_spray_worst(sp, points):
    return _worst(el_acceleration(sp, z) - harmonic_rhs(sp, z) for z in points)


def _antisymmetry_worst(sp, points):
    res = []
    for z in points:
        g = sp.geometry_at(z).g
        cur = curvature(sp, z)
        low1 = np.einsum("ip,pjk->ijk", g, cur.R_i1k)
        res.append(low1 + low1.transpose(1, 0, 2))
        for block in (cur.R_ijk, cur.P_ijk, cur.S_ijk):
            low = np.einsum("ip,pmjk->imjk", g, block)
            res.append(low + low.transpose(1, 0, 2, 3))
    return _worst(res)


def _bianchi_worst(sp, points):
    return _worst(v for z in points for v in bianchi_residuals(sp, z).values())


def _deflection_worst(sp, points):
    return _worst(v for z in points
                  for v in deflection_identities(sp, z).values())


def _maxwell_worst(sp, points, simple):
    fn = maxwell_simple_residuals if simple else maxwell_residuals
    return _worst(v for z in points for v in fn(sp, z).worst().values())


def _conservation_worst(sp, points):
    return _worst(v for z in points
                  for v in conservation_residuals(sp, z).values())


def _gauge_worst(sp, points, seed):
    chart = random_affine_chart(sp, seed)
    moved = transformed_space(sp, chart)
    res = []
    for z in points:
        q = transform_point(chart, z)
        s, nl = canonical_spray(sp, z), canonical_nonlinear_connection(sp, z)
        s2 = canonical_spray(moved, q)
        nl2 = canonical_nonlinear_connection(moved, q)
        pushed_nl = transform_nonlinear(nl, chart, z)
        res += [transform_temporal_spray(s.Htemp, chart, z) - s2.Htemp,
                transform_spatial_spray(s.Gspat, chart, z) - s2.Gspat,
                pushed_nl.M - nl2.M, pushed_nl.N - nl2.N]
    return _worst(res)


# -- driver ------------------------------------------------------------------

def run_checks(sp: LagrangeSpace, points, *, tolerances=None,
               tol_scale: float = 1.0, gauge_seed: int = 0,
               corrupt_connection: bool = False,
               conservation_gate: bool | None = None) -> list:
    """Run every identity suite over the sampled points.

    tolerances overrides individual suite bounds before tol_scale is
    applied.  conservation_gate=None gates the conservation suite on
    whether the metric is time independent over the sample; True or
    False forces the verdict to count or to be report-only.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 * sp.n + 1:
        raise ValueError("points must be (count, 2n+1)")
    if not np.isfinite(tol_scale) or tol_scale <= 0:
        raise ValueError("tol_scale must be positive")
    tols = default_tolerances(sp.family)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        tols.update(tolerances)
    tols = {k: v * tol_scale for k, v in tols.items()}

    def result(name, worst, count, note=""):
        return CheckResult(name=name, worst=float(worst), tol=tols[name],
                           passed=bool(worst < tols[name]), points=count,
                           note=note)

    out = [
        result("metricity",
               _metricity_worst(sp, points, corrupt_connection), len(points)),
        result("h-metricity", _h_metricity_worst(sp, points), len(points)),
        result("el-spray", _el_spray_worst(sp, points), len(points)),
    ]

    pts = _subset(points, _BUDGETS["antisymmetry"])
    out.append(result("antisymmetry", _antisymmetry_worst(sp, pts), len(pts)))

    pts = _subset(points, _BUDGETS["bianchi"])
    out.append(result("bianchi", _bianchi_worst(sp, pts), len(pts)))

    pts = _subset(points, _BUDGETS["deflection"])
    out.append(result("deflection", _deflection_worst(sp, pts), len(pts)))

    pts = _subset(points, _BUDGETS["maxwell"])
    out.append(result("maxwell", _maxwell_worst(sp, pts, simple=False),
                      len(pts)))
    if sp.family in _FAMILY_SIMPLE_FORM:
        out.append(result("maxwell-simple",
                          _maxwell_worst(sp, pts, simple=True), len(pts)))

    pts = _subset(points, _BUDGETS["gauge"])
    out.append(result("gauge", _gauge_worst(sp, pts, gauge_seed), len(pts)))

    pts = _subset(points, _BUDGETS["conservation"])
    worst = _conservation_worst(sp, pts)
    if conservation_gate is None:
        gate, note = conservation_applicable(sp, points)
    else:
        gate, note = conservation_gate, "" if conservation_gate else \
            "forced report-only"
    if gate:
        out.append(result("conservation", worst, len(pts)))
    else:
        # report-only still fails on a residual that is not a number
        out.append(CheckResult(name="conservation", worst=worst,
                               tol=tols["conservation"],
                               passed=math.isfinite(worst), points=len(pts),
                               note=note))
    return out


def worst_offender(results) -> CheckResult | None:
    """The failed suite with the largest residual-to-tolerance ratio."""
    failed = [r for r in results if not r.passed]
    if not failed:
        return None
    return max(failed, key=lambda r: r.ratio)
