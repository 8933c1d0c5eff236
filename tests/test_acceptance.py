"""Acceptance gate: nine criteria, one test and one verdict line each.

Every tolerance below is pinned; loosening any of them is a contract
change, not a test fix.  The shipped problem files drive everything:
sphere_l1 and electrodynamics_l2 sit on the unit 2-sphere, which gives
closed-form targets for curvature, Ricci, and geodesics.
"""

import functools
import random

import numpy as np

from helpers import (
    berwald_connection,
    covariant_derivative,
    fd_partial,
    great_circle,
    random_ast,
    riemann_oracle,
    usable_test_points,
)
from jetlag.checks import random_affine_chart, sample_points
from jetlag.cli import load_config
from jetlag.dtensor import (
    SlotKind,
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
)
from jetlag.dynamics import (
    Curve,
    action,
    el_residual,
    harmonic_rhs,
    integrate_harmonic,
)
from jetlag.expr import JetPoint, ScalarField
from jetlag.fields import (
    conservation_residuals,
    einstein_system,
    maxwell_residuals,
    maxwell_simple_residuals,
    ricci_and_scalar,
    worst_residual,
)
from jetlag.geometry import (
    canonical_nonlinear_connection,
    canonical_spray,
    cartan_connection,
    curvature,
    torsion,
    transformed_space,
)

ALL_CONFIGS = ("flat", "sphere_l1", "electrodynamics_l2",
               "nonautonomous_l3", "exp_time")


@functools.lru_cache(maxsize=None)
def cfg(name):
    return load_config(name)


@functools.lru_cache(maxsize=None)
def points_for(name, count):
    c = cfg(name)
    return sample_points(c.space, c.ranges, count, c.seed)


def verdict(num, label, ok, detail):
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def engine_cov_g(sp, z, kind):
    return covariant_derivative(
        lambda q: sp.geometry_at(q).g,
        (SlotKind.SPACE_DOWN, SlotKind.SPACE_DOWN), z,
        cartan_connection(sp, z), canonical_nonlinear_connection(sp, z), kind)


def engine_cov_h(sp, z, kind):
    return covariant_derivative(
        lambda q: sp.h11.evaluate(q) * np.ones((1, 1)),
        (SlotKind.TIME_DOWN, SlotKind.TIME_DOWN), z,
        cartan_connection(sp, z), canonical_nonlinear_connection(sp, z), kind)


def test_criterion_1_cartan_metricity():
    # spatial and vertical covariant derivatives of g vanish, and the
    # time metric is parallel, measured through the generic finite
    # difference engine rather than the closed-form construction
    worst_g = worst_h = 0.0
    for name in ("sphere_l1", "electrodynamics_l2", "nonautonomous_l3"):
        sp = cfg(name).space
        for z in points_for(name, 100):
            for kind in ("space", "vert"):
                worst_g = max(worst_g,
                              float(np.max(np.abs(engine_cov_g(sp, z, kind)))))
            worst_h = max(worst_h,
                          float(np.max(np.abs(engine_cov_h(sp, z, "time")))))
    verdict(1, "Cartan metricity", worst_g < 1e-8 and worst_h < 1e-12,
            f"g worst {worst_g:.3e} < 1e-8, h worst {worst_h:.3e} < 1e-12")


def test_criterion_2_berwald_reduction():
    # with a velocity- and time-independent spatial metric the four
    # connection blocks collapse to (temporal coefficient, 0, gamma, 0)
    sp = cfg("electrodynamics_l2").space
    worst = 0.0
    for z in points_for("electrodynamics_l2", 100):
        cart = cartan_connection(sp, z)
        ber = berwald_connection(sp.h11, sp.g_fields, z)
        worst = max(worst,
                    abs(cart.H - ber.H),
                    float(np.max(np.abs(cart.Gt))),
                    float(np.max(np.abs(cart.L - ber.L))),
                    float(np.max(np.abs(cart.C))))
    verdict(2, "Berwald reduction", worst < 1e-9, f"worst {worst:.3e} < 1e-9")


def test_criterion_3_torsion_curvature_specialization():
    sp = cfg("electrodynamics_l2").space
    pts = points_for("electrodynamics_l2", 40)
    worst_zero = 0.0
    for z in pts:
        tor = torsion(sp, z)
        cur = curvature(sp, z)
        for block in (tor.T_1j, tor.T_ij, tor.P_1, tor.P_c, tor.P_i, tor.S,
                      cur.R_i1k, cur.P_i1k, cur.P_ijk, cur.S_ijk):
            worst_zero = max(worst_zero, float(np.max(np.abs(block))))
    worst_riemann = worst_sphere = 0.0
    for z in pts[:10]:
        cur = curvature(sp, z)
        worst_riemann = max(worst_riemann, float(np.max(np.abs(
            cur.R_ijk - riemann_oracle(sp.g_fields, z)))))
        g = sp.geometry_at(z).g
        low = np.einsum("ip,pmjk->mijk", g, cur.R_ijk)
        worst_sphere = max(worst_sphere,
                           abs(low[0, 1, 0, 1] - np.sin(z[1]) ** 2))
    ok = worst_zero < 1e-8 and worst_riemann < 1e-6 and worst_sphere < 1e-6
    verdict(3, "torsion/curvature specialization", ok,
            f"spurious blocks {worst_zero:.3e} < 1e-8, "
            f"Riemann {worst_riemann:.3e} < 1e-6, "
            f"R_1212-sin^2 {worst_sphere:.3e} < 1e-6")


def test_criterion_4_maxwell_equations():
    worst = {}
    for name, count in (("electrodynamics_l2", 10), ("nonautonomous_l3", 10)):
        sp = cfg(name).space
        worst[name] = worst_residual(v for z in points_for(name, count)
                                     for v in maxwell_residuals(sp, z).values())
    sp = cfg("electrodynamics_l2").space
    worst_simple = worst_residual(
        v for z in points_for("electrodynamics_l2", 10)
        for v in maxwell_simple_residuals(sp, z).values())
    ok = (worst["electrodynamics_l2"] < 1e-6
          and worst["nonautonomous_l3"] < 1e-5
          and worst_simple < 1e-8)
    verdict(4, "Maxwell equations", ok,
            f"general {worst['electrodynamics_l2']:.3e} < 1e-6, "
            f"nonautonomous {worst['nonautonomous_l3']:.3e} < 1e-5, "
            f"simple {worst_simple:.3e} < 1e-8")


def test_criterion_5_einstein_ricci_specialization():
    sp = cfg("electrodynamics_l2").space
    pts = points_for("electrodynamics_l2", 8)
    worst_ric = worst_sc = worst_e2 = 0.0
    for z in pts:
        ric = ricci_and_scalar(sp, z)
        g = sp.geometry_at(z).g
        worst_ric = max(worst_ric, float(np.max(np.abs(ric.R_ij - g))))
        worst_sc = max(worst_sc, abs(ric.Sc - 2.0))
        ein = einstein_system(sp, z)
        worst_e2 = max(worst_e2, *(float(np.max(np.abs(v)))
                                   for v in ein.e2.values()))
    worst_cons = 0.0
    for z in pts[:4]:
        worst_cons = max(worst_cons,
                         *(float(np.max(np.abs(v)))
                           for v in conservation_residuals(sp, z).values()))
    ok = (worst_ric < 1e-6 and worst_sc < 1e-6 and worst_e2 < 1e-8
          and worst_cons < 1e-4)
    verdict(5, "Einstein/Ricci specialization", ok,
            f"R_ij-g {worst_ric:.3e} < 1e-6, Sc-2 {worst_sc:.3e} < 1e-6, "
            f"mixed eqs {worst_e2:.3e} < 1e-8, "
            f"conservation {worst_cons:.3e} < 1e-4")


def test_criterion_6_harmonic_curve_recovery():
    # tilted great circle: closed-form endpoint and measured RK4 order
    sp = cfg("sphere_l1").space
    x0 = np.array([1.0, 0.2])
    raw = np.array([0.3, 0.8])
    speed = np.sqrt(raw[0] ** 2 + np.sin(x0[0]) ** 2 * raw[1] ** 2)
    y0 = raw / speed

    curve = integrate_harmonic(sp, x0, y0, 0.0, 1.0, 1e-3)
    err = float(np.max(np.abs(curve.x[-1] - great_circle(x0, y0, 1.0))))

    errors = []
    for step in (0.02, 0.01):
        c = integrate_harmonic(sp, x0, y0, 0.0, 1.0, step)
        errors.append(float(np.max(np.abs(c.x[-1] - great_circle(x0, y0,
                                                                 1.0)))))
    order = float(np.log2(errors[0] / errors[1]))
    ok = err < 1e-6 and order >= 3.9
    verdict(6, "harmonic-curve recovery", ok,
            f"endpoint {err:.3e} < 1e-6, order {order:.3f} >= 3.9")


def test_criterion_7_gauge_covariance():
    worst = 0.0
    for name in ALL_CONFIGS:
        sp = cfg(name).space
        chart = random_affine_chart(sp, seed=cfg(name).seed + 17)
        moved = transformed_space(sp, chart)
        n = sp.n
        for z in points_for(name, 5):
            p = JetPoint(z[0], tuple(z[1:n + 1]), tuple(z[n + 1:]))
            q = transform_point(chart, p)
            s, nl = canonical_spray(sp, p), canonical_nonlinear_connection(sp, p)
            s2 = canonical_spray(moved, q)
            nl2 = canonical_nonlinear_connection(moved, q)
            pushed = transform_nonlinear(nl, chart, p)
            worst = max(
                worst,
                float(np.max(np.abs(transform_temporal_spray(s.Htemp, chart, p)
                                    - s2.Htemp))),
                float(np.max(np.abs(transform_spatial_spray(s.Gspat, chart, p)
                                    - s2.Gspat))),
                float(np.max(np.abs(pushed.M - nl2.M))),
                float(np.max(np.abs(pushed.N - nl2.N))))
    verdict(7, "gauge covariance", worst < 1e-8,
            f"two-path worst {worst:.3e} < 1e-8 on {len(ALL_CONFIGS)} configs")


def test_criterion_8_el_spray_equivalence():
    # algebraic route: the variational acceleration the curves integrate
    # equals the spray route -2 Gspat - 2 Htemp at 100 points spread
    # across every shipped problem
    worst_alg = 0.0
    for name in ALL_CONFIGS:
        sp = cfg(name).space
        for z in points_for(name, 20):
            geo = sp.geometry_at(z)
            worst_alg = max(worst_alg, float(np.max(np.abs(
                harmonic_rhs(sp, z) + 2.0 * geo.Gspat + 2.0 * geo.Htemp))))

    # integrated route: a geodesic satisfies the stationarity equations
    # and beats endpoint-fixed perturbations of itself
    sp = cfg("sphere_l1").space
    x0 = np.array([1.0, 0.2])
    raw = np.array([0.3, 0.8])
    y0 = raw / np.sqrt(raw[0] ** 2 + np.sin(x0[0]) ** 2 * raw[1] ** 2)
    curve = integrate_harmonic(sp, x0, y0, 0.0, 1.0, 2e-3)
    worst_el = float(np.max(np.abs(el_residual(sp, curve))))

    base = action(sp, curve)
    rng = np.random.default_rng(20260815)
    beaten = 0
    span = curve.t[-1] - curve.t[0]
    phase = np.pi * (curve.t - curve.t[0]) / span
    for _ in range(20):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        eps = rng.uniform(0.01, 0.05)
        bump_x = eps * np.sin(phase)[:, None] * direction
        bump_y = eps * (np.pi / span) * np.cos(phase)[:, None] * direction
        pert = Curve(t=curve.t, x=curve.x + bump_x, y=curve.y + bump_y,
                     step=curve.step)
        if action(sp, pert) > base:
            beaten += 1
    ok = worst_alg < 1e-9 and worst_el < 1e-5 and beaten == 20
    verdict(8, "variational/spray equivalence", ok,
            f"algebraic {worst_alg:.3e} < 1e-9, curve residual "
            f"{worst_el:.3e} < 1e-5, perturbations beaten {beaten}/20")


def test_criterion_9_derivative_oracle():
    rng = random.Random(907117)
    n = 2
    asts = 0
    worst = 0.0
    while asts < 1000:
        field = ScalarField(random_ast(rng, n, depth=4), n)
        points = usable_test_points(field, rng, 1)
        if not points:
            continue
        asts += 1
        z = points[0]
        for axis in range(2 * n + 1):
            idx = tuple(1 if a == axis else 0 for a in range(2 * n + 1))
            sym = field.differentiate(idx).evaluate(z)
            fd = fd_partial(field.evaluate, z, axis)
            worst = max(worst, abs(sym - fd) / (1.0 + abs(sym)))
    verdict(9, "derivative oracle", worst < 1e-6,
            f"worst relative error {worst:.3e} < 1e-6 over {asts} ASTs")
