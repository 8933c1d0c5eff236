"""Core geometry: metric, sprays, connections, torsion, curvature, gauge laws.

Numeric oracles come from tests/helpers.py and use finite differences
(3-point + one Richardson level, relative step 1e-4), where the production
code differentiates exactly by forward mode, so agreement is evidence rather
than tautology.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    berwald_connection,
    christoffel_oracle,
    collector_off,
    connection_levels,
    count_calls,
    covariant_derivative,
    fd_partial,
    riemann_oracle,
    sphere_gamma_closed,
    temporal_christoffel,
)
from jetlag.dtensor import (
    ChartMap,
    SlotKind,
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
    transform_tensor,
)
from jetlag import cli, dual, expr, geometry
from jetlag.checks import random_affine_chart, sample_points
from jetlag.cli import BUILTIN_CONFIGS, load_config
from jetlag.dual import Dual
from jetlag.dynamics import el_acceleration, el_residual, integrate_harmonic
from jetlag.expr import (
    Const,
    Div,
    EvalDomainError,
    FieldGroup,
    JetPoint,
    evaluate_fields,
    parse,
)
from jetlag.geometry import (
    LagrangeSpace,
    NonRegularError,
    bianchi_residuals,
    canonical_nonlinear_connection,
    canonical_spray,
    cartan_connection,
    curvature,
    metric_signature,
    torsion,
    transformed_space,
)

N = 2
RNG = np.random.default_rng(20240819)


# ---------------------------------------------------------------------------
# space builders (module level: LagrangeSpace caches make sharing cheap)
# ---------------------------------------------------------------------------

def const_one():
    return parse("1", N)


def flat_space():
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    return LagrangeSpace.from_family("quadratic", N, const_one(), g)


def sphere_space():
    g = [[parse("1", N), parse("0", N)],
         [parse("0", N), parse("sin(x1)^2", N)]]
    return LagrangeSpace.from_family("quadratic", N, const_one(), g)


def sphere_g_fields():
    return [[parse("1", N), parse("0", N)],
            [parse("0", N), parse("sin(x1)^2", N)]]


def edyn_space():
    # autonomous metric, linear velocity term: the classic reduction case
    g = sphere_g_fields()
    U = [parse("0", N), parse("x1", N)]
    return LagrangeSpace.from_family("electrodynamics", N, const_one(), g,
                                     U_fields=U)


def edyn_rich_space():
    # time-dependent potentials and scalar term, h(t) nonconstant; the
    # metric itself stays autonomous, which is what the family requires
    g = [[parse("2 + 0.3*sin(x1 + 0.5*x2)", N), parse("0.2*x1*x2", N)],
         [parse("0.2*x1*x2", N), parse("1.5 + 0.25*cos(x2)", N)]]
    U = [parse("0.3*t*x2", N), parse("x1", N)]
    F = parse("x1*x2", N)
    return LagrangeSpace.from_family("electrodynamics", N, parse("1 + t/2", N),
                                     g, U_fields=U, F_field=F)


def nonaut_space():
    g = [[parse("1 + 0.1*t", N), parse("0", N)],
         [parse("0", N), parse("(1 + 0.1*t)*sin(x1)^2", N)]]
    U = [parse("0", N), parse("t*x1", N)]
    return LagrangeSpace.from_family("nonautonomous", N, parse("1 + t/2", N),
                                     g, U_fields=U)


def quartic_space():
    # genuinely velocity-dependent metric: C block is nonzero everywhere
    L = parse("(1/(1 + t/2))*((1 + 0.1*x2)*y1^2 + sin(x1)^2*y2^2"
              " + 0.05*(y1^2 + y2^2)^2)", N)
    return LagrangeSpace(N, L, parse("1 + t/2", N))


def exp_time_space():
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    return LagrangeSpace.from_family("quadratic", N, parse("exp(2*t)", N), g)


SPHERE_Z = np.array([0.0, np.pi / 4, 0.3, 0.0, 1.0])
GEN_Z = np.array([0.3, 0.9, -0.4, 0.7, 1.2])


def random_points(count, t_lo=0.0, t_hi=1.0):
    pts = []
    for _ in range(count):
        t = RNG.uniform(t_lo, t_hi)
        x = RNG.uniform((0.6, -1.0), (1.2, 1.0))
        y = RNG.uniform(-1.5, 1.5, N)
        pts.append(np.concatenate([[t], x, y]))
    return pts


# ---------------------------------------------------------------------------
# fundamental metric
# ---------------------------------------------------------------------------

class TestFundamentalMetric:
    def test_flat_identity(self):
        geo = flat_space().geometry_at(GEN_Z)
        g, g_inv, h11, h_inv = geo.g, geo.g_inv, geo.h11, geo.h_inv
        assert np.allclose(g, np.eye(N), atol=1e-14)
        assert np.allclose(g_inv, np.eye(N), atol=1e-14)
        assert h11 == 1.0 and h_inv == 1.0

    def test_sphere_values(self):
        g = sphere_space().geometry_at(SPHERE_Z).g
        assert np.allclose(g, np.diag([1.0, 0.5]), atol=1e-12)

    def test_constant_h_cancels(self):
        # L carries 1/h11 and g carries h11/2 * L_yy: constant h drops out
        g = sphere_g_fields()
        sp2 = LagrangeSpace.from_family("quadratic", N, parse("2", N), g)
        g1 = sphere_space().geometry_at(SPHERE_Z).g
        g2 = sp2.geometry_at(SPHERE_Z).g
        assert np.allclose(g1, g2, atol=1e-12)

    def test_symmetry_exact(self):
        g = quartic_space().geometry_at(GEN_Z).g
        assert np.array_equal(g, g.T)

    def test_velocity_term_drops_out(self):
        # a term linear in y has vanishing second vertical derivative
        g1 = sphere_space().geometry_at(SPHERE_Z).g
        g2 = edyn_space().geometry_at(SPHERE_Z).g
        assert np.allclose(g1, g2, atol=1e-14)

    def test_degenerate_raises(self):
        sp = LagrangeSpace(N, parse("y1^3 + y2^3", N), const_one())
        z = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        with pytest.raises(NonRegularError) as err:
            sp.geometry_at(z)
        assert err.value.det is not None
        assert abs(err.value.det) < 1e-10

    def test_vanishing_h_raises(self):
        sp = LagrangeSpace(N, parse("y1^2 + y2^2", N), parse("t", N))
        z = np.zeros(2 * N + 1)
        with pytest.raises(NonRegularError):
            sp.geometry_at(z)


class TestRegularity:
    """Regularity is the existence of g^-1, decided by one inversion and a
    scale-free condition estimate."""

    L4 = "(2 + sin(x1))*y1^2 + y2^2 + y3^2 + y4^2 + y1*y2"

    def test_scaled_lagrangian_stays_regular(self):
        # g = 1e-3 g0 has det ~ 1e-12, but it is as well conditioned as g0,
        # and scaling L leaves the spray as it is
        z = np.full(9, 0.3)
        geo0 = LagrangeSpace(4, parse(self.L4, 4),
                             parse("1", 4)).geometry_at(z)
        geo = LagrangeSpace(4, parse(f"0.001*({self.L4})", 4),
                            parse("1", 4)).geometry_at(z)
        assert abs(np.linalg.det(geo.g)) < 1e-10
        assert np.allclose(geo.g_inv @ geo.g, np.eye(4), atol=1e-12)
        assert np.allclose(geo.Gspat, geo0.Gspat, rtol=1e-12, atol=1e-15)

    def test_ill_conditioned_metric_raises(self):
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        LagrangeSpace(N, parse("y1^2 + 1e-9*y2^2", N),
                      const_one()).geometry_at(z)       # cond ~ 1e9
        sp = LagrangeSpace(N, parse("y1^2 + 1e-11*y2^2", N), const_one())
        with pytest.raises(NonRegularError) as err:
            sp.geometry_at(z)
        assert "(cond ~ 1.0e+11, det = 1.000e-11)" in str(err.value)
        assert err.value.det == pytest.approx(1e-11)
        assert err.value.point == tuple(z)

    @pytest.mark.parametrize("dual", [False, True])
    def test_singular_metric_raises_no_linalg_error(self, dual):
        # g = [[1, 1], [1, 1]] exactly: the inversion itself fails
        sp = LagrangeSpace(N, parse("(y1 + y2)^2", N), const_one())
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        with pytest.raises(NonRegularError, match="cond ~ inf") as err:
            sp.geometry_at(Dual(z, np.eye(5)) if dual else z)
        assert err.value.det == 0.0
        assert err.value.point == tuple(z)

    def test_non_finite_entries_are_named(self):
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NonRegularError,
                           match="^non-finite metric entries$"):
            geometry._regular_inverse(nan, 1.0, z, "degenerate")

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_metric_raises_no_numpy_warning(self):
        # g = h11 L_yy / 2 overflows to inf; it is formed in the error
        # state of its inversion, so the NonRegularError is all that shows
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        sp = LagrangeSpace(N, parse("1e200*(y1^2 + y2^2)", N),
                           parse("1e200", N))
        for _ in range(2):
            with pytest.raises(NonRegularError,
                               match="^non-finite metric entries$"):
                sp.geometry_at(z)

    @pytest.mark.filterwarnings("error")
    def test_a_singular_metric_raises_no_numpy_warning(self):
        z = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        with pytest.raises(NonRegularError,
                           match=r"^degenerate \(cond ~ inf, det = 0"):
            geometry._regular_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]),
                                      1.0, z, "degenerate")
        sp = LagrangeSpace(N, parse("(y1 + y2)^2", N), parse("1", N))
        with pytest.raises(NonRegularError, match="^vertical Hessian metric "
                                                  r"is degenerate \(cond ~ inf"):
            sp.geometry_at(z)

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_one_inversion_and_no_determinant_per_build(self, monkeypatch,
                                                         name):
        # every inverse goes through jetlag.dual.inv, never numpy's wrapper
        cfg = load_config(name)
        inv = count_calls(monkeypatch, dual.inv, geometry)
        np_inv = count_calls(monkeypatch, np.linalg.inv, np.linalg)
        det = count_calls(monkeypatch, np.linalg.det, np.linalg)
        for z in sample_points(cfg.space, cfg.ranges, 3, seed=5):
            before = len(inv)
            cfg.space._compute_geo(z)
            assert (len(inv) - before, len(np_inv), len(det)) == (1, 0, 0)


class TestMetricSignature:
    def test_flat_positive(self):
        g = flat_space().geometry_at(GEN_Z).g
        assert metric_signature(g) == (2, 0)

    def test_indefinite(self):
        sp = LagrangeSpace(N, parse("y1^2 - y2^2", N), const_one())
        g = sp.geometry_at(GEN_Z).g
        assert metric_signature(g) == (1, 1)

    def test_near_singular_raises(self):
        with pytest.raises(NonRegularError):
            metric_signature(np.diag([1.0, 1e-13]))


# ---------------------------------------------------------------------------
# temporal Christoffel coefficient
# ---------------------------------------------------------------------------

class TestTemporalChristoffel:
    def test_constant_h(self):
        assert temporal_christoffel(const_one(), 0.7) == 0.0

    def test_exponential(self):
        # h = exp(2t): (1/2) h^-1 h' = 1 for every t
        h = parse("exp(2*t)", N)
        for t in (-1.0, 0.0, 2.5):
            assert temporal_christoffel(h, t) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert temporal_christoffel(parse("t", N), 2.0) == pytest.approx(0.25)

    def test_spatial_dependence_rejected(self):
        with pytest.raises(ValueError):
            temporal_christoffel(parse("t + x1", N), 0.0)

    def test_zero_h_raises(self):
        with pytest.raises(NonRegularError):
            temporal_christoffel(parse("t", N), 0.0)


# ---------------------------------------------------------------------------
# canonical spray
# ---------------------------------------------------------------------------

class TestCanonicalSpray:
    def test_sphere_value(self):
        # geodesic spray of the unit sphere at x1 = pi/4, y = (0, 1):
        # 2 G^1 = gamma^1_22 y^2 y^2 = -sin cos = -1/2
        s = canonical_spray(sphere_space(), SPHERE_Z)
        assert s.Gspat == pytest.approx([-0.25, 0.0], abs=1e-12)
        assert np.array_equal(s.Htemp, np.zeros(N))

    def test_nonautonomous_closed_form(self):
        # hand-expanded B for quadratic L with g(t, x): the H terms cancel
        # and a (1/2) g^-1 dg/dt y term joins the Christoffel contraction
        sp = nonaut_space()
        for z in random_points(5):
            gamma = christoffel_oracle(sp.g_fields, z)
            y = z[N + 1:]
            geo = sp.geometry_at(z)
            g_mat, g_inv, h11 = geo.g, geo.g_inv, geo.h11
            dg_t = fd_partial(lambda q: sp.geometry_at(q).g, z, 0)
            pure = (0.5 * np.einsum("ijk,j,k->i", gamma, y, y)
                    + 0.5 * g_inv @ dg_t @ y)
            U = sp.U_fields
            Uv = np.array([u.evaluate(z) for u in U])
            dU_x = np.array([[fd_partial(lambda q, uu=U[l]: uu.evaluate(q),
                                         z, 1 + j) for j in range(N)]
                             for l in range(N)])
            dU_t = np.array([fd_partial(lambda q, uu=U[l]: uu.evaluate(q), z, 0)
                             for l in range(N)])
            two_form = dU_x - dU_x.T  # U_(l)j
            H = temporal_christoffel(sp.h11, z[0])
            pot = 0.25 * h11 * (g_inv @ (two_form @ y + dU_t + Uv * H))
            s = canonical_spray(sp, z)
            assert np.allclose(s.Gspat, pure + pot, atol=1e-7)

    def test_reduced_formula_electrodynamics(self):
        sp = edyn_rich_space()
        for z in random_points(5):
            y = z[N + 1:]
            gamma = christoffel_oracle(sp.g_fields, z)
            geo = sp.geometry_at(z)
            g_mat, g_inv, h11 = geo.g, geo.g_inv, geo.h11
            U = sp.U_fields
            Uv = np.array([u.evaluate(z) for u in U])
            dU_x = np.array([[fd_partial(lambda q, uu=U[l]: uu.evaluate(q),
                                         z, 1 + j) for j in range(N)]
                             for l in range(N)])
            dU_t = np.array([fd_partial(lambda q, uu=U[l]: uu.evaluate(q), z, 0)
                             for l in range(N)])
            dF_x = np.array([fd_partial(lambda q: sp.F_field.evaluate(q),
                                        z, 1 + l) for l in range(N)])
            H = temporal_christoffel(sp.h11, z[0])
            two_form = dU_x - dU_x.T
            expect = (0.5 * np.einsum("ijk,j,k->i", gamma, y, y)
                      + 0.25 * h11 * (g_inv @ (two_form @ y + dU_t
                                               + Uv * H - dF_x)))
            s = canonical_spray(sp, z)
            assert np.allclose(s.Gspat, expect, atol=1e-7)

    def test_flat_potential_value(self):
        # g = id, U = (0, x1), y = (1, 0): G = (0, 1/4)
        g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
        sp = LagrangeSpace.from_family("electrodynamics", N, const_one(), g,
                                       U_fields=[parse("0", N), parse("x1", N)])
        z = np.array([0.0, 0.3, -0.2, 1.0, 0.0])
        s = canonical_spray(sp, z)
        assert s.Gspat == pytest.approx([0.0, 0.25], abs=1e-12)

    def test_temporal_component(self):
        # Htemp = -H/2 y on every space
        sp = exp_time_space()
        for z in random_points(3):
            s = canonical_spray(sp, z)
            assert np.allclose(s.Htemp, -0.5 * z[N + 1:], atol=1e-12)

    def test_overflow_at_a_finite_point_is_non_regular(self):
        # L_y = 2y overflows, and L_y * H = inf * 0 in the spray source
        z = (0.0, 0.0, 0.0, 1e308, 1e308)
        with np.errstate(invalid="ignore"), pytest.raises(
                NonRegularError, match=r"non-finite spray coefficients at "
                                       r"point \(0\.0, 0\.0, 0\.0, 1e\+308, "
                                       r"1e\+308\)"):
            canonical_spray(flat_space(), z)


# ---------------------------------------------------------------------------
# canonical nonlinear connection
# ---------------------------------------------------------------------------

class TestNonlinearConnection:
    def test_N_is_vertical_gradient_of_G(self):
        # the defining relation, cross-checked with the independent stencil
        for sp in (quartic_space(), nonaut_space()):
            for z in random_points(3):
                nl = canonical_nonlinear_connection(sp, z)
                fd = np.empty((N, N))
                for j in range(N):
                    fd[:, j] = fd_partial(
                        lambda q: canonical_spray(sp, q).Gspat, z, 1 + N + j)
                assert np.max(np.abs(nl.N - fd)) < 1e-6

    def test_reduced_formula_electrodynamics(self):
        sp = edyn_rich_space()
        for z in random_points(4):
            y = z[N + 1:]
            gamma = christoffel_oracle(sp.g_fields, z)
            geo = sp.geometry_at(z)
            g_inv, h11 = geo.g_inv, geo.h11
            U = sp.U_fields
            dU_x = np.array([[fd_partial(lambda q, uu=U[k]: uu.evaluate(q),
                                         z, 1 + j) for j in range(N)]
                             for k in range(N)])
            two_form = dU_x - dU_x.T
            expect = (np.einsum("ijk,k->ij", gamma, y)
                      + 0.25 * h11 * (g_inv @ two_form))
            nl = canonical_nonlinear_connection(sp, z)
            assert np.allclose(nl.N, expect, atol=1e-7)

    def test_flat_potential_value(self):
        g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
        sp = LagrangeSpace.from_family("electrodynamics", N, const_one(), g,
                                       U_fields=[parse("0", N), parse("x1", N)])
        z = np.array([0.0, 0.3, -0.2, 1.0, 0.0])
        nl = canonical_nonlinear_connection(sp, z)
        assert nl.N == pytest.approx(np.array([[0.0, -0.25], [0.25, 0.0]]),
                                     abs=1e-12)

    def test_temporal_component(self):
        # M = -H y; with h = exp(2t) the coefficient H is exactly 1
        sp = exp_time_space()
        z = GEN_Z
        nl = canonical_nonlinear_connection(sp, z)
        assert np.allclose(nl.M, -z[N + 1:], atol=1e-12)


# ---------------------------------------------------------------------------
# Cartan connection
# ---------------------------------------------------------------------------

SD, TD = SlotKind.SPACE_DOWN, SlotKind.TIME_DOWN


def engine_metric_derivative(sp, z, kind, cart=None):
    return covariant_derivative(lambda q: sp.geometry_at(q).g, (SD, SD), z,
                                cart or cartan_connection(sp, z),
                                canonical_nonlinear_connection(sp, z), kind)


def engine_h_derivative(sp, z, kind):
    return covariant_derivative(
        lambda q: sp.h11.evaluate(q) * np.ones((1, 1)), (TD, TD), z,
        cartan_connection(sp, z), canonical_nonlinear_connection(sp, z),
        kind)


class TestCartanConnection:
    def test_sphere_blocks(self):
        cart = cartan_connection(sphere_space(), SPHERE_Z)
        assert cart.L[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
        assert cart.L[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert cart.L[1, 1, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(cart.Gt, np.zeros((N, N)))
        assert np.array_equal(cart.C, np.zeros((N, N, N)))
        assert cart.H == 0.0

    def test_sphere_closed_form(self):
        x1 = float(SPHERE_Z[1])
        cart = cartan_connection(sphere_space(), SPHERE_Z)
        assert np.allclose(cart.L, sphere_gamma_closed(x1), atol=1e-12)

    def test_quadratic_equals_christoffel(self):
        sp = nonaut_space()
        for z in random_points(4):
            cart = cartan_connection(sp, z)
            gamma = christoffel_oracle(sp.g_fields, z)
            assert np.allclose(cart.L, gamma, atol=1e-7)

    def test_time_block_nonautonomous(self):
        # Gt = (1/2) g^-1 dg/dt for a velocity-independent metric
        sp = nonaut_space()
        for z in random_points(3):
            geo = sp.geometry_at(z)
            g_mat, g_inv = geo.g, geo.g_inv
            dg_t = fd_partial(lambda q: sp.geometry_at(q).g, z, 0)
            cart = cartan_connection(sp, z)
            assert np.allclose(cart.Gt, 0.5 * g_inv @ dg_t, atol=1e-7)

    def test_lower_index_symmetry(self):
        cart = cartan_connection(quartic_space(), GEN_Z)
        assert np.array_equal(cart.L, np.swapaxes(cart.L, 1, 2))
        assert np.array_equal(cart.C, np.swapaxes(cart.C, 1, 2))

    @pytest.mark.parametrize("kind,tol", [("space", 1e-9), ("vert", 1e-9),
                                          ("time", 1e-10)])
    def test_metric_covariant_derivatives_vanish(self, kind, tol):
        for sp in (sphere_space(), edyn_rich_space(), nonaut_space(),
                   quartic_space()):
            for z in random_points(2):
                out = engine_metric_derivative(sp, z, kind)
                assert np.max(np.abs(out)) < tol

    @pytest.mark.parametrize("kind", ["time", "space", "vert"])
    def test_h_metricity(self, kind):
        for sp in (nonaut_space(), exp_time_space()):
            for z in random_points(2):
                out = engine_h_derivative(sp, z, kind)
                assert np.max(np.abs(out)) < 1e-12

    def test_uniqueness_probe_spatial(self):
        # any other symmetric L block breaks horizontal metricity
        sp = quartic_space()
        z = GEN_Z
        base = cartan_connection(sp, z)
        bumped = type(base)(base.H, base.Gt, base.L + 1e-3, base.C)
        out = engine_metric_derivative(sp, z, "space", bumped)
        assert np.max(np.abs(out)) > 1e-4

    def test_uniqueness_probe_vertical(self):
        sp = quartic_space()
        z = GEN_Z
        base = cartan_connection(sp, z)
        bumped = type(base)(base.H, base.Gt, base.L, base.C + 1e-3)
        out = engine_metric_derivative(sp, z, "vert", bumped)
        assert np.max(np.abs(out)) > 1e-4


class TestBerwald:
    def test_electrodynamics_reduction(self):
        # velocity-linear term leaves the metric untouched, so the Cartan
        # connection collapses onto the pair (H, 0, gamma, 0)
        sp = edyn_rich_space()
        for z in random_points(3):
            cart = cartan_connection(sp, z)
            ber = berwald_connection(sp.h11, sp.g_fields, z)
            assert cart.H == pytest.approx(ber.H, abs=1e-12)
            assert np.allclose(cart.L, ber.L, atol=1e-12)
            # dg/dt cancels only analytically when h depends on t, so the
            # time block carries rounding residue rather than exact zeros
            assert np.max(np.abs(cart.Gt)) < 1e-12
            assert np.array_equal(cart.C, np.zeros((N, N, N)))

    def test_sphere_gamma(self):
        ber = berwald_connection(const_one(), sphere_g_fields(), SPHERE_Z)
        assert np.allclose(ber.L, sphere_gamma_closed(float(SPHERE_Z[1])),
                           atol=1e-12)

    def test_degenerate_metric_raises(self):
        g = [[parse("1", N), parse("1", N)], [parse("1", N), parse("1", N)]]
        with pytest.raises(NonRegularError):
            berwald_connection(const_one(), g, SPHERE_Z)


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

class TestTorsion:
    def test_cartan_structural_zeros(self):
        # symmetry of L and C kills the pure horizontal and vertical blocks
        for sp in (sphere_space(), edyn_rich_space(), quartic_space()):
            tor = torsion(sp, GEN_Z)
            assert np.array_equal(tor.T_ij, np.zeros((N, N, N)))
            assert np.array_equal(tor.S, np.zeros((N, N, N)))

    def test_autonomous_time_blocks_vanish(self):
        # h = 1 and autonomous metric: H = 0, M = 0, Gt = 0
        tor = torsion(sphere_space(), SPHERE_Z)
        assert np.max(np.abs(tor.T_1j)) < 1e-12
        assert np.max(np.abs(tor.P_1)) < 1e-12
        assert np.max(np.abs(tor.R_1j)) < 1e-12

    def test_sphere_curvature_cell(self):
        tor = torsion(sphere_space(), SPHERE_Z)
        # R block contracts the Riemann tensor with y: r^1_{221} y^2 = sin^2
        assert tor.R_ij[0, 1, 0] == pytest.approx(0.5, abs=1e-9)

    def test_R_block_matches_riemann(self):
        sp = sphere_space()
        for z in random_points(4):
            tor = torsion(sp, z)
            r = riemann_oracle(sp.g_fields, z)
            expect = np.einsum("mkij,k->mij", r, z[N + 1:])
            assert np.allclose(tor.R_ij, expect, atol=1e-6)

    def test_electrodynamics_R_1j(self):
        # time-space mixed block: -(h11 g^mk / 4)(H U_(k)j + dU_(k)j/dt)
        sp = edyn_rich_space()
        for z in random_points(3):
            geo = sp.geometry_at(z)
            g_inv, h11 = geo.g_inv, geo.h11
            H = temporal_christoffel(sp.h11, z[0])
            U = sp.U_fields

            def two_form(q):
                dU = np.array([[fd_partial(
                    lambda w, uu=U[k]: uu.evaluate(w), q, 1 + j)
                    for j in range(N)] for k in range(N)])
                return dU - dU.T

            tf = two_form(z)
            dtf = fd_partial(two_form, z, 0)
            expect = -0.25 * h11 * g_inv @ (H * tf + dtf)
            tor = torsion(sp, z)
            assert np.allclose(tor.R_1j, expect, atol=1e-6)

    def test_electrodynamics_R_ij(self):
        # spatial block: riemann contraction plus the antisymmetrized
        # covariant derivative of the potential two-form (the block is
        # antisymmetric in (i, j) by definition, so only that part survives)
        sp = edyn_rich_space()
        for z in random_points(3):
            y = z[N + 1:]
            geo = sp.geometry_at(z)
            g_inv, h11 = geo.g_inv, geo.h11
            gamma = christoffel_oracle(sp.g_fields, z)
            r = riemann_oracle(sp.g_fields, z)
            U = sp.U_fields
            dU = np.array([[fd_partial(lambda w, uu=U[k]: uu.evaluate(w),
                                       z, 1 + j) for j in range(N)]
                           for k in range(N)])
            tf = dU - dU.T
            dtf = np.array([fd_partial(lambda w: (lambda d: d - d.T)(
                np.array([[fd_partial(lambda v, uu=U[k]: uu.evaluate(v),
                                      w, 1 + j) for j in range(N)]
                          for k in range(N)])), z, 1 + p) for p in range(N)])
            # cov[k, i, j] = U_(k)i | j with the spatial Christoffel symbols
            cov = np.empty((N, N, N))
            for k in range(N):
                for i in range(N):
                    for j in range(N):
                        v = dtf[j][k, i]
                        for m in range(N):
                            v -= gamma[m, k, j] * tf[m, i]
                            v -= gamma[m, i, j] * tf[k, m]
                        cov[k, i, j] = v
            acov = cov - cov.transpose(0, 2, 1)
            expect = (np.einsum("mkij,k->mij", r, y)
                      + 0.25 * h11 * np.einsum("mk,kij->mij", g_inv, acov))
            tor = torsion(sp, z)
            assert np.allclose(tor.R_ij, expect, atol=1e-5)

    def test_P_block_cross_check(self):
        # P compares the vertical gradient of N against the L block
        sp = quartic_space()
        z = GEN_Z
        tor = torsion(sp, z)
        cart = cartan_connection(sp, z)
        fd = np.empty((N, N, N))
        for j in range(N):
            fd[:, :, j] = fd_partial(
                lambda q: canonical_nonlinear_connection(sp, q).N, z, 1 + N + j)
        expect = fd - np.transpose(cart.L, (0, 2, 1))
        assert np.allclose(tor.P_i, expect, atol=1e-6)

    def test_vertical_space_block_is_C(self):
        cart = cartan_connection(quartic_space(), GEN_Z)
        tor = torsion(quartic_space(), GEN_Z)
        assert np.allclose(tor.P_c, cart.C, atol=1e-12)

    def test_cells_inventory(self):
        tor = torsion(sphere_space(), SPHERE_Z)
        cells = tor.cells()
        assert len(cells) == 8
        assert ("space-space", "vert") in cells


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

class TestCurvature:
    def test_sphere_values(self):
        cur = curvature(sphere_space(), SPHERE_Z)
        # r^2_{112} = 1 everywhere on the unit sphere
        assert cur.R_ijk[1, 0, 0, 1] == pytest.approx(1.0, abs=1e-9)
        g = sphere_space().geometry_at(SPHERE_Z).g
        # lowered[m, i, j, k] = g_ip R^p_mjk; cell (1,2,1,2) is sin^2(x1)
        lowered = np.einsum("ip,pmjk->mijk", g, cur.R_ijk)
        assert lowered[0, 1, 0, 1] == pytest.approx(0.5, abs=1e-9)

    def test_matches_riemann_oracle(self):
        for sp in (sphere_space(), edyn_rich_space()):
            for z in random_points(3):
                cur = curvature(sp, z)
                r = riemann_oracle(sp.g_fields, z)
                assert np.allclose(cur.R_ijk, r, atol=1e-6)

    def test_electrodynamics_other_blocks_vanish(self):
        sp = edyn_rich_space()
        for z in random_points(3):
            cur = curvature(sp, z)
            assert np.max(np.abs(cur.R_i1k)) < 1e-9
            assert np.max(np.abs(cur.P_i1k)) < 1e-9
            assert np.max(np.abs(cur.P_ijk)) < 1e-9
            assert np.max(np.abs(cur.S_ijk)) < 1e-9

    def test_last_pair_antisymmetry(self):
        cur = curvature(quartic_space(), GEN_Z)
        assert np.max(np.abs(cur.R_ijk + cur.R_ijk.transpose(0, 1, 3, 2))) \
            < 1e-15
        assert np.max(np.abs(cur.S_ijk + cur.S_ijk.transpose(0, 1, 3, 2))) \
            < 1e-15

    def test_lowered_antisymmetries(self):
        # metricity forces antisymmetry in the first lowered index pair
        sp = quartic_space()
        for z in random_points(3):
            cur = curvature(sp, z)
            g = sp.geometry_at(z).g
            low_R1 = np.einsum("ip,pmk->imk", g, cur.R_i1k)
            low_R = np.einsum("ip,pmjk->imjk", g, cur.R_ijk)
            low_P = np.einsum("ip,pmjk->imjk", g, cur.P_ijk)
            assert np.max(np.abs(low_R1 + low_R1.transpose(1, 0, 2))) < 1e-8
            assert np.max(np.abs(low_R + low_R.transpose(1, 0, 2, 3))) < 1e-8
            assert np.max(np.abs(low_P + low_P.transpose(1, 0, 2, 3))) < 1e-8

    def test_vertical_curvature_nonzero_when_y_dependent(self):
        cur = curvature(quartic_space(), GEN_Z)
        assert np.max(np.abs(cur.S_ijk)) > 1e-4

    def test_cells_inventory(self):
        cur = curvature(sphere_space(), SPHERE_Z)
        assert len(cur.cells()) == 5


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def _engine_bianchi(sp, z):
    # same residuals assembled through the generic d-tensor engine instead
    # of the adapted connection jets; cross-validates both routes
    cart = cartan_connection(sp, z)
    nl = canonical_nonlinear_connection(sp, z)
    C = cart.C
    tor = torsion(sp, z)
    cur = curvature(sp, z)

    T1_cov = covariant_derivative(
        lambda q: torsion(sp, q).T_1j[:, None, :],
        (SlotKind.SPACE_UP, TD, SD), z, cart, nl, "space")[:, 0, :, :]
    term = cur.R_i1k + T1_cov + np.einsum("lkm,mj->ljk", C, tor.R_1j)
    b1 = term - np.transpose(term, (0, 2, 1))

    t2 = cur.R_ijk - np.einsum("lkm,mij->lijk", C, tor.R_ij)
    b2 = (t2 + np.transpose(t2, (0, 2, 3, 1))
          + np.transpose(t2, (0, 3, 1, 2)))

    C_cov = covariant_derivative(lambda q: cartan_connection(sp, q).C,
                                 (SlotKind.SPACE_UP, SD, SlotKind.VERT_DOWN),
                                 z, cart, nl, "space")
    t3 = (cur.P_ijk + np.transpose(C_cov, (0, 1, 3, 2))
          + np.einsum("lkm,mjp->ljkp", C, tor.P_i))
    b3 = t3 - np.transpose(t3, (0, 2, 1, 3))
    return {"b1": b1, "b2": b2, "b3": b3}


class TestBianchi:
    @pytest.mark.parametrize("builder", [nonaut_space, edyn_rich_space,
                                         quartic_space])
    def test_identities(self, builder):
        res = bianchi_residuals(builder(), GEN_Z)
        assert np.max(np.abs(res["b1"])) < 1e-6
        assert np.max(np.abs(res["b2"])) < 1e-6
        assert np.max(np.abs(res["b3"])) < 1e-6

    def test_matches_tensor_engine_assembly(self):
        sp = quartic_space()
        lib = bianchi_residuals(sp, GEN_Z)
        eng = _engine_bianchi(sp, GEN_Z)
        for key in ("b1", "b2", "b3"):
            assert np.max(np.abs(lib[key] - eng[key])) < 1e-8

    def test_quartic_blocks_have_scale(self):
        # guard against the identities passing vacuously
        cur = curvature(quartic_space(), GEN_Z)
        assert np.max(np.abs(cur.R_i1k)) > 1e-3
        assert np.max(np.abs(cur.R_ijk)) > 1e-2
        assert np.max(np.abs(cur.P_ijk)) > 1e-2


# ---------------------------------------------------------------------------
# gauge behaviour
# ---------------------------------------------------------------------------

def random_chart(rng):
    A = rng.uniform(-1, 1, (N, N))
    A += np.sign(np.linalg.det(A) or 1.0) * 1.2 * np.eye(N)
    assert abs(np.linalg.det(A)) > 0.3
    c = rng.uniform(-1, 1, N)
    return ChartMap(parse("exp(t)", N), A, c, t_inverse=parse("log(t)", N))


class TestGaugeTwoPath:
    @pytest.mark.parametrize("builder", [nonaut_space, quartic_space])
    def test_spray_and_connection(self, builder):
        sp = builder()
        ch = random_chart(np.random.default_rng(7))
        sp_t = transformed_space(sp, ch)
        for z in random_points(2):
            p = JetPoint(z[0], tuple(z[1:N + 1]), tuple(z[N + 1:]))
            q = transform_point(ch, p)
            s = canonical_spray(sp, p)
            nl = canonical_nonlinear_connection(sp, p)
            s2 = canonical_spray(sp_t, q)
            nl2 = canonical_nonlinear_connection(sp_t, q)
            assert np.allclose(transform_temporal_spray(s.Htemp, ch, p),
                               s2.Htemp, atol=1e-8)
            assert np.allclose(transform_spatial_spray(s.Gspat, ch, p),
                               s2.Gspat, atol=1e-8)
            moved = transform_nonlinear(nl, ch, p)
            assert np.allclose(moved.M, nl2.M, atol=1e-8)
            assert np.allclose(moved.N, nl2.N, atol=1e-8)

    def test_metric_two_path(self):
        sp = nonaut_space()
        ch = random_chart(np.random.default_rng(9))
        sp_t = transformed_space(sp, ch)
        z = GEN_Z
        p = JetPoint(z[0], tuple(z[1:N + 1]), tuple(z[N + 1:]))
        q = transform_point(ch, p)
        geo, moved = sp.geometry_at(p), sp_t.geometry_at(q)
        assert np.allclose(transform_tensor(geo.g, (SD, SD), ch, p), moved.g,
                           atol=1e-10)
        assert np.allclose(transform_tensor(np.array([[geo.h11]]), (TD, TD),
                                            ch, p),
                           np.array([[moved.h11]]), atol=1e-10)

    def test_requires_inverse(self):
        ch = ChartMap(parse("exp(t)", N), np.eye(N), np.zeros(N))
        with pytest.raises(ValueError):
            transformed_space(nonaut_space(), ch)

    def test_dimension_mismatch(self):
        ch = ChartMap(parse("t", 3), np.eye(3), np.zeros(3),
                      t_inverse=parse("t", 3))
        with pytest.raises(ValueError):
            transformed_space(nonaut_space(), ch)


# ---------------------------------------------------------------------------
# the table of L-partials behind geometry_at
# ---------------------------------------------------------------------------

class TestPartialTable:
    def test_regularity_check_runs_before_other_partials(self):
        # L_y1y1 = 2 x1 vanishes at x1 = 0, where L_x1 = 1/x1 ... has a
        # pole: the degenerate metric must be reported, not the pole
        sp = LagrangeSpace(1, parse("x1*y1^2 + x1^(-1)", 1), parse("1", 1))
        with pytest.raises(NonRegularError):
            sp.geometry_at([0.0, 0.0, 1.0])

    def test_every_block_entry_is_its_partial(self):
        n = 3
        L = parse("x1*y2 + t*y1*y3^2 + y1*y2*y3 + (2+sin(x2))*y1^2"
                  " + y2^2 + y3^2", n)
        sp = LagrangeSpace(n, L, parse("1", n))
        z = np.array([0.3, 0.2, -0.4, 0.7, 0.5, -0.2, 0.9])
        geo = sp.geometry_at(z)

        def partial(*axes):
            idx = [0] * (2 * n + 1)
            for a in axes:
                idx[a] += 1
            return L.differentiate(idx).evaluate(z)

        x = lambda i: 1 + i
        y = lambda i: 1 + n + i
        # L_xy is not symmetric here, so a transposed wiring shows
        assert np.max(np.abs(geo.Lxy - geo.Lxy.T)) > 0.05
        for i in range(n):
            assert geo.Ly[i] == partial(y(i))
            assert geo.Lx[i] == partial(x(i))
            assert geo.Lty[i] == partial(0, y(i))
            for j in range(n):
                assert geo.Lxy[i, j] == partial(x(i), y(j))
                assert geo.Lyy[i, j] == partial(y(i), y(j))
                for k in range(n):
                    assert geo.Lyyy[i, j, k] == partial(y(i), y(j), y(k))
        Lxyy = np.array([[[partial(x(m), y(i), y(j)) for j in range(n)]
                          for i in range(n)] for m in range(n)])
        Ltyy = np.array([[partial(0, y(i), y(j)) for j in range(n)]
                         for i in range(n)])
        assert np.array_equal(geo.dg_x, 0.5 * Lxyy)     # h11 = 1, hdot = 0
        assert np.array_equal(geo.dg_t, 0.5 * Ltyy)

    @pytest.mark.parametrize("name", ["sphere_l1", "electrodynamics_l2",
                                      "nonautonomous_l3"])
    def test_fused_values_are_the_per_field_values(self, name):
        cfg = load_config(name)
        chart = random_affine_chart(cfg.space, seed=3)
        moved = transformed_space(cfg.space, chart)
        for sp, points in ((cfg.space, sample_points(cfg.space, cfg.ranges,
                                                     4, seed=5)),
                           (moved, [transform_point(chart, z) for z in
                                    sample_points(cfg.space, cfg.ranges,
                                                  2, seed=6)])):
            for z in points:
                fused = evaluate_fields(sp._group, z)
                alone = [f.evaluate(z) for f in sp._fields]
                assert [v.hex() for v in fused] == [v.hex() for v in alone]
            # at a dual point each value is a Taylor value of its own field
            q = expr._point_array(points[0], sp.n)
            for depth in (1, 2):
                q = Dual(q, np.eye(2 * sp.n + 1))
                fused = evaluate_fields(sp._group, q)
                for k, f in enumerate(sp._fields):
                    assert fused[k].depth == depth
                    assert fused[k].tobytes() == f.evaluate(q).tobytes(), f

    def test_tail_domain_error_names_the_failing_partial(self):
        # L_y and L_yy are regular at x1 = 0; L_x1 = -x1^(-2) has a pole
        # there
        L = parse("y1^2 + x1^(-1)", 1)
        sp = LagrangeSpace(1, L, parse("1", 1))
        z = [0.0, 0.0, 1.0]
        with pytest.raises(EvalDomainError) as alone:
            L.differentiate((0, 1, 0)).evaluate(z)
        with pytest.raises(EvalDomainError) as fused:
            sp.geometry_at(z)
        assert str(fused.value) == str(alone.value)
        assert "x1^(-2)" in str(fused.value)

    def test_pole_of_the_lagrangian_is_reported_by_its_x_partial(self):
        # the zero numerators of the quotient rule fold, so L_y1y1 = 2 is
        # defined at x1 = 0 and the pole of 1/x1 surfaces through L_x1
        L = parse("y1^2 + 1/x1", 1)
        sp = LagrangeSpace(1, L, parse("1", 1))
        z = [0.0, 0.0, 1.0]
        assert L.differentiate((0, 0, 2)).evaluate(z) == 2.0
        with pytest.raises(EvalDomainError) as alone:
            L.differentiate((0, 1, 0)).evaluate(z)
        with pytest.raises(EvalDomainError) as fused:
            sp.geometry_at(z)
        assert str(fused.value) == str(alone.value)

    @pytest.mark.parametrize("name", ["sphere_l1", "electrodynamics_l2",
                                      "nonautonomous_l3"])
    def test_transformed_partials_hold_no_zero_quotient(self, name):
        cfg = load_config(name)
        moved = transformed_space(cfg.space,
                                  random_affine_chart(cfg.space, seed=3))
        for f in moved._fields:
            for node in f.ast.walk():
                assert not (isinstance(node, Div)
                            and isinstance(node.num, Const)
                            and node.num.value == 0.0), f

    def test_singular_h11_is_reported_before_a_pole_of_its_derivative(self):
        # h11 = t sqrt(t) vanishes at t = 0, where its derivative divides
        # by sqrt(t); h11 and its derivative are evaluated in one call
        sp = LagrangeSpace(1, parse("y1^2", 1), parse("t*sqrt(t)", 1))
        with pytest.raises(NonRegularError, match="h11 = 0.0 at t = 0.0"):
            sp.geometry_at([0.0, 0.3, 1.0])

    @pytest.mark.parametrize("dual", [False, True])
    def test_a_pole_of_hdot_is_reported_before_a_pole_of_lyy(self, dual):
        # h11 = 1 + sqrt(t) is 1 at t = 0, where its derivative divides by
        # sqrt(t); L_y1y1 = 2/x1 has a pole at x1 = 0; all are one group
        sp = LagrangeSpace(1, parse("y1^2/x1", 1), parse("1 + sqrt(t)", 1))
        z = np.array([0.0, 0.0, 1.0])
        with pytest.raises(EvalDomainError) as err:
            sp.geometry_at(Dual(z, np.eye(3)) if dual else z)
        assert "'1/(2*sqrt(t))'" in str(err.value)

    def test_transformed_table_compiles_each_subexpression_once(
            self, monkeypatch):
        # the chart-transformed nonautonomous_l3 partials hold about 4.4k
        # tree nodes; fused into the one group of the space, with h11 and
        # its derivative, its function has under two hundred locals, and
        # a float read compiles no other group
        cfg = load_config("nonautonomous_l3")
        chart = random_affine_chart(cfg.space, seed=3)
        moved = transformed_space(cfg.space, chart)
        z = transform_point(chart, cfg.midpoint())
        compiled = []
        compile_fn = expr.compile_node
        monkeypatch.setattr(expr, "compile_node", lambda *a: compiled.append(
            fn := compile_fn(*a)) or fn)
        moved.geometry_at(z)
        assert compiled == [moved._group._fn]
        assert compiled[0].__code__.co_nlocals < 200

    def test_spaces_that_share_h11_keep_no_group_of_each_other(self):
        # each space owns its groups, so with the collector off a dropped
        # space's compiled code and its own field's table go with it at
        # once, and the field 20 spaces shared, h11 or L, keeps no group
        h11, L = parse("1 + t^2", N), parse("y1^2 + y2^2 + x1*y1", N)
        with collector_off():
            for shared, pair in (
                    (h11, lambda k: (parse(f"y1^2 + y2^2 + {k}*x1*y1", N),
                                     h11)),
                    (L, lambda k: (L, parse(f"{k} + t^2", N)))):
                refs = []
                for k in range(1, 21):
                    sp = LagrangeSpace(N, *pair(k))
                    sp.geometry_at(SPHERE_Z)
                    sp.geometry_at(Dual(SPHERE_Z, np.eye(5)))
                    own = sp.L if shared is h11 else sp.h11
                    refs += map(weakref.ref, (sp._group, sp._group._fn,
                                              own._table))
                    del sp, own
                assert [r() for r in refs] == [None] * 60
                assert shared._group is None


# ---------------------------------------------------------------------------
# the two connection levels of a point, each built on its first read
# ---------------------------------------------------------------------------

def _is_set(geo, slot) -> bool:
    """Whether a slot of the geometry is set, without building it."""
    try:
        getattr(type(geo), slot).__get__(geo)
    except AttributeError:
        return False
    return True


class TestConnectionLevel:
    def test_spray_readers_build_no_connection(self, monkeypatch):
        sp = load_config("sphere_l1").space
        christoffel = count_calls(monkeypatch, geometry._christoffel,
                                  geometry)
        built = connection_levels(monkeypatch)
        curve = integrate_harmonic(sp, [np.pi / 2, 0.0], [0.0, 1.0],
                                   0.0, 0.2, 0.01)
        assert len(curve) == 21
        z = np.array([0.3, 1.2, 0.4, 0.5, -0.7])
        canonical_spray(sp, z)
        sp.geometry_at(z + 0.01)
        el_acceleration(sp, z + 0.02)
        el_residual(sp, curve)
        assert christoffel == built == []

    @pytest.mark.parametrize("attr", ["N", "cartan", "dg_y", "Ltyy", "Lxyy",
                                      "Lyyy", "dg_t", "dg_x", "del_t_g",
                                      "del_x_g"])
    def test_first_read_builds_the_level_once(self, monkeypatch, attr):
        # a slot of the nonlinear level builds it alone, with no
        # Christoffel; a slot of the Cartan level builds the nonlinear
        # level once, then its own two Christoffels
        sp = load_config("electrodynamics_l2").space
        geo = sp.geometry_at([0.3, 0.2, -0.4, 0.7, 0.5])
        evals = count_calls(monkeypatch, expr.evaluate_fields, expr,
                            geometry)
        christoffel = count_calls(monkeypatch, geometry._christoffel,
                                  geometry)
        built = connection_levels(monkeypatch)
        level = geometry._LAZY[attr]
        want = (0, 0, [("nonlinear", 0)]) if level == "_nonlinear" \
            else (0, 2, [("cartan", 0), ("nonlinear", 0)])
        first = getattr(geo, attr)
        assert (len(evals), len(christoffel), built) == want
        for name, build in geometry._LAZY.items():
            if build == level:
                getattr(geo, name)
        assert getattr(geo, attr) is first
        assert (len(evals), len(christoffel), built) == want
        assert _is_set(geo, "cartan") == (level == "_cartan")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_dual_read_of_N_builds_no_cartan(self, monkeypatch, depth):
        sp = load_config("electrodynamics_l2").space
        z = np.array([0.3, 0.2, -0.4, 0.7, 0.5])
        for _ in range(depth):
            z = Dual(z, np.eye(5))
        geo = sp.geometry_at(z)
        christoffel = count_calls(monkeypatch, geometry._christoffel,
                                  geometry)
        built = connection_levels(monkeypatch)
        canonical_nonlinear_connection(sp, z)
        assert (christoffel, built) == ([], [("nonlinear", depth)])
        assert not _is_set(geo, "cartan")
        geo.cartan
        assert (len(christoffel), built) \
            == (2, [("nonlinear", depth), ("cartan", depth)])

    def test_overflow_raises_at_each_level(self):
        # L_y = 2y overflows and meets H = 0 in B, so N is NaN: the
        # nonlinear level raises and sets nothing, so it raises again on
        # the next read of N (a NaN N kept from the first read used to
        # fail NonlinearConnectionValue's own check with a ValueError) and
        # when the Cartan level reads it
        sp = flat_space()
        z = (0.0, 0.0, 0.0, 1e308, 1e308)
        message = (r"non-finite connection coefficients at point "
                   r"\(0\.0, 0\.0, 0\.0, 1e\+308, 1e\+308\)")
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(2):
                with pytest.raises(NonRegularError, match=message):
                    canonical_nonlinear_connection(sp, z)
            geo = sp.geometry_at(z)
            assert not any(_is_set(geo, slot) for slot in geometry._LAZY)
            with pytest.raises(NonRegularError, match=message):
                geo.cartan
            with pytest.raises(NonRegularError, match=message):
                cartan_connection(sp, z)

    @pytest.mark.parametrize("name", ["sphere_l1", "electrodynamics_l2",
                                      "nonautonomous_l3"])
    def test_read_order_leaves_every_block_bitwise_equal(self, name):
        # on the space and on a chart-moved one, whichever slot is read
        # first; N read alone, with no Cartan level, has the same bits
        cfg = load_config(name)
        chart = random_affine_chart(cfg.space, seed=3)
        moved = transformed_space(cfg.space, chart)
        points = sample_points(cfg.space, cfg.ranges, 3, seed=5)
        for sp, zs in ((cfg.space, points),
                       (moved, [transform_point(chart, z) for z in points])):
            for z in zs:
                z = expr._point_array(z, sp.n)
                alone = sp._compute_geo(z)    # a fresh, uncached bundle
                n_alone = alone.N.tobytes()
                assert not _is_set(alone, "cartan")
                seen = set()
                for first in ("N", "cartan", "dg_t", "Lyyy", "del_x_g"):
                    geo = sp._compute_geo(z)
                    getattr(geo, first)
                    c = geo.cartan
                    seen.add(tuple(a.tobytes() for a in (
                        geo.N, c.Gt, c.L, c.C, geo.dg_t, geo.dg_x,
                        geo.dg_y, geo.Ltyy, geo.Lxyy, geo.Lyyy,
                        geo.del_t_g, geo.del_x_g)))
                assert len(seen) == 1
                assert seen.pop()[0] == n_alone

    def test_reusing_the_point_array_leaves_the_level(self):
        z = SPHERE_Z.copy()
        geo = sphere_space().geometry_at(z)
        z[1 + N:] = [2.0, -3.0]         # the caller moves to its next point
        assert np.array_equal(geo.N, sphere_space()._compute_geo(SPHERE_Z).N)

    @pytest.mark.parametrize("order", [
        ("curvature", "torsion", "jets", "N", "Ltyy", "Lxyy", "Lyyy"),
        ("N", "jets", "torsion", "curvature", "Lyyy", "Lxyy", "Ltyy"),
        ("Lyyy", "curvature", "Ltyy", "torsion", "jets", "N", "Lxyy")])
    def test_each_lazy_level_is_built_once_per_geometry(self, monkeypatch,
                                                        order):
        # the float geometry and the dual one its jets read: each builder
        # runs once per geometry, whichever slot is read first
        sp = load_config("electrodynamics_l2").space
        built = []
        for owner, name in ((geometry._Geo, "_nonlinear"),
                            (geometry._Geo, "_cartan"),
                            (geometry._Geo, "_torsion"),
                            (geometry._Geo, "_curvature"),
                            (LagrangeSpace, "connection_jets")):
            def recorded(self, *args, name=name, run=getattr(owner, name)):
                built.append((name, id(self)))
                return run(self, *args)
            monkeypatch.setattr(owner, name, recorded)
        geo = sp.geometry_at([0.3, 0.2, -0.4, 0.7, 0.5])
        first = [getattr(geo, slot) for slot in order]
        assert all(getattr(geo, slot) is value
                   for slot, value in zip(order, first))
        assert len(set(built)) == len(built)
        assert sorted(name for name, owner in built if owner == id(geo)) \
            == ["_cartan", "_curvature", "_nonlinear", "_torsion"]
        names = [name for name, _ in built]
        assert names.count("connection_jets") == 1
        assert names.count("_nonlinear") == names.count("_cartan") == 2

    def test_unknown_attribute_raises(self):
        geo = sphere_space().geometry_at(SPHERE_Z)
        for _ in range(2):              # before and after the level is built
            with pytest.raises(AttributeError, match="nope"):
                geo.nope
            assert not hasattr(geo, "nope")
            geo.N


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def _table_bytes(table) -> dict:
    """The bytes of every array of a table or residual dict, by name."""
    items = table.items() if isinstance(table, dict) else vars(table).items()
    return {k: v.tobytes() for k, v in items}


class TestCaching:
    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_call_order_leaves_every_table_bitwise_equal(self, name):
        # two cold spaces, the per-point tables asked for in opposite
        # orders, over float points and a first-order dual point at one of
        # them, also taken in opposite orders
        cfg = load_config(name)
        points = sample_points(cfg.space, cfg.ranges, 3, seed=5)
        points = list(points) + [Dual(points[0], np.eye(len(points[0])))]
        forward, backward = load_config(name).space, load_config(name).space
        want = [[curvature(forward, z), torsion(forward, z),
                 bianchi_residuals(forward, z)] for z in points]
        got = []
        for z in reversed(points):
            bia = bianchi_residuals(backward, z)
            tor = torsion(backward, z)
            got.insert(0, [curvature(backward, z), tor, bia])
        assert [[_table_bytes(t) for t in tables] for tables in got] \
            == [[_table_bytes(t) for t in tables] for tables in want]

    def test_geometry_cache_hit(self):
        sp = sphere_space()
        a = sp.geometry_at(SPHERE_Z)
        b = sp.geometry_at(SPHERE_Z.copy())
        assert a is b

    def test_distinct_points_distinct_entries(self):
        sp = sphere_space()
        a = sp.geometry_at(SPHERE_Z)
        z2 = SPHERE_Z.copy()
        z2[3] = 0.5
        assert sp.geometry_at(z2) is not a

    def test_a_full_sweep_builds_each_float_point_once(self, monkeypatch):
        # every suite reads the sampled points back, so a cache smaller
        # than the sweep would rebuild each float geometry per suite
        built = []
        compute = LagrangeSpace._compute_geo

        def counted(self, z):
            if type(z) is not Dual:
                built.append((id(self), z.tobytes()))
            return compute(self, z)

        monkeypatch.setattr(LagrangeSpace, "_compute_geo", counted)
        assert cli.main(["check", "--config", "flat", "--points", "4200"]) == 0
        assert len(built) == len(set(built)) > 4200

    def test_dropped_space_is_freed_without_the_collector(self):
        # the cache holds each geometry, so a geometry holds its space
        # weakly: with the cycle collector off, del frees the space, and a
        # geometry kept after it still builds its jets, bit for bit
        cfg = load_config("sphere_l1")
        z = cfg.midpoint()
        with collector_off():
            sp = load_config("sphere_l1").space
            sp.geometry_at(z).curvature      # float and dual geometries
            kept = sp.geometry_at(z + 0.01)
            ref = weakref.ref(sp)
            del sp
            assert ref() is None
        want = cfg.space.geometry_at(z + 0.01).curvature
        assert _table_bytes(kept.curvature) == _table_bytes(want)


# ---------------------------------------------------------------------------
# flat-space property: constant metric has no geometry
# ---------------------------------------------------------------------------

@given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(0.2, 2.0),
       st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_constant_metric_is_flat(a, b, scale, seed):
    g11 = scale + a * a
    g22 = scale + b * b
    g12 = a * b * 0.5  # dominated by the diagonal, so SPD
    g = [[parse(f"{g11!r}", N), parse(f"{g12!r}", N)],
         [parse(f"{g12!r}", N), parse(f"{g22!r}", N)]]
    sp = LagrangeSpace.from_family("quadratic", N, parse("1", N), g)
    rng = np.random.default_rng(seed)
    z = np.concatenate([[rng.uniform(0, 1)], rng.uniform(-1, 1, 2 * N)])
    s = canonical_spray(sp, z)
    assert np.max(np.abs(s.Gspat)) < 1e-12
    assert np.max(np.abs(canonical_nonlinear_connection(sp, z).N)) < 1e-9
    cur = curvature(sp, z)
    for block in (cur.R_i1k, cur.R_ijk, cur.P_i1k, cur.P_ijk, cur.S_ijk):
        assert np.max(np.abs(block)) < 1e-9
