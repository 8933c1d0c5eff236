"""Curve integration, the energy action, and extremal-equation checks."""

import io
import tracemalloc

import numpy as np
import pytest

from helpers import (christoffel_oracle, count_calls, fd_gradient,
                     great_circle, rk4_two_arrays, transform_curve)
from jetlag import dynamics, expr, geometry
from jetlag.checks import random_affine_chart, run_checks, sample_points
from jetlag.cli import BUILTIN_CONFIGS, load_config
from jetlag.dtensor import ChartMap, transform_point
from jetlag.dual import Dual
from jetlag.dynamics import (
    MAX_STEPS,
    Curve,
    action,
    el_residual,
    harmonic_rhs,
    integrate_harmonic,
)
from jetlag.expr import EvalDomainError, parse
from jetlag.geometry import (LagrangeSpace, NonRegularError,
                             canonical_nonlinear_connection, canonical_spray,
                             transformed_space)

N = 2
RNG = np.random.default_rng(41120355)


def one(n=N):
    return parse("1", n)


def flat_space():
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    return LagrangeSpace.from_family("quadratic", N, one(), g)


def sphere_space():
    g = [[parse("1", N), parse("0", N)],
         [parse("0", N), parse("sin(x1)^2", N)]]
    return LagrangeSpace.from_family("quadratic", N, one(), g)


def exp_time_space():
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    return LagrangeSpace.from_family("quadratic", N, parse("exp(2*t)", N), g)


def quartic_space():
    L = parse("(1/(1 + t/2))*((1 + 0.1*x2)*y1^2 + sin(x1)^2*y2^2"
              " + 0.05*(y1^2 + y2^2)^2)", N)
    return LagrangeSpace(N, L, parse("1 + t/2", N))


def unit_speed(x0, direction):
    # scale a direction to unit sphere-metric speed so arc length is time
    d = np.asarray(direction, dtype=float)
    speed = np.sqrt(d[0] ** 2 + np.sin(x0[0]) ** 2 * d[1] ** 2)
    return d / speed


TILT_X0 = np.array([1.0, 0.2])
TILT_Y0 = unit_speed(TILT_X0, [0.3, 0.8])


def random_points(count):
    pts = []
    for _ in range(count):
        t = RNG.uniform(0.0, 1.0)
        x = RNG.uniform((0.6, -1.0), (1.2, 1.0))
        y = RNG.uniform(-1.5, 1.5, N)
        pts.append(np.concatenate([[t], x, y]))
    return pts


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

class TestHarmonicRhs:
    def test_flat_zero(self):
        z = np.array([0.3, 0.2, -0.4, 1.1, 0.7])
        assert np.allclose(harmonic_rhs(flat_space(), z), 0.0, atol=1e-14)

    def test_unit_temporal_metric_is_geodesic_equation(self):
        sp = sphere_space()
        for z in random_points(5):
            gamma = christoffel_oracle(sp.g_fields, z)
            y = z[N + 1:]
            expect = -np.einsum("ijk,j,k->i", gamma, y, y)
            assert np.allclose(harmonic_rhs(sp, z), expect, atol=1e-6)

    def test_exponential_time_reparametrization(self):
        # h = e^{2t} on a flat metric: acceleration equals the velocity,
        # giving x(t) = x0 + y0 (e^t - 1)
        sp = exp_time_space()
        for z in random_points(3):
            assert np.allclose(harmonic_rhs(sp, z), z[N + 1:], atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_a_huge_velocity_on_flat_is_still_a_straight_line(self):
        # L_y = 2e308 leaves the floats, but b = 0 reads no L_y when H = 0
        z = np.array([0.0, 0.0, 0.0, 1e308, 0.0])
        assert harmonic_rhs(flat_space(), z).tolist() == [0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_an_acceleration_that_overflows_raises(self):
        # g = 1e-300 I and b = (-1e10, 0): g^-1 b leaves the floats, with
        # no numpy warning on the way
        sp = LagrangeSpace(N, parse("1e-300*(y1^2 + y2^2) + 1e10*x1", N),
                           one())
        z = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        with pytest.raises(NonRegularError, match=r"^non-finite harmonic "
                           r"acceleration at point \(0.0, 0.0, 0.0, 1.0, "
                           r"0.0\)$"):
            harmonic_rhs(sp, z)
        with pytest.raises(NonRegularError, match=r"\(reached at t = 0 "):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0, 0.5)


class TestExtremalGroup:
    """harmonic_rhs reads -(h11/2) g^-1 b off one fused call on the space's
    extremal group (h11, L_yy, b), with no geometry; the spray route
    -2 Gspat - 2 Htemp of the geometry is its oracle."""

    @staticmethod
    def space_and_points(name):
        """A builtin space and 100 of its sampled points; "moved" is
        electrodynamics_l2 in a random affine chart, with its points."""
        cfg = load_config("electrodynamics_l2" if name == "moved" else name)
        points = sample_points(cfg.space, cfg.ranges, 100, seed=cfg.seed)
        if name != "moved":
            return cfg.space, points
        chart = random_affine_chart(cfg.space, cfg.seed)
        return (transformed_space(cfg.space, chart),
                [transform_point(chart, z) for z in points])

    @pytest.mark.parametrize("name", [*BUILTIN_CONFIGS, "moved"])
    def test_the_spray_route_agrees(self, name):
        # the two routes differ in their H terms, which cancel symbolically
        # in b and in floating point in the spray, so a wrong H shows here
        sp, points = self.space_and_points(name)
        for z in points:
            geo = sp.geometry_at(z)
            spray = -2.0 * geo.Gspat - 2.0 * geo.Htemp
            gap = np.max(np.abs(harmonic_rhs(sp, z) - spray))
            assert gap <= 1e-13 * max(1.0, np.max(np.abs(spray))), z

    @pytest.mark.parametrize("name", ["sphere_l1", "electrodynamics_l2",
                                      "nonautonomous_l3"])
    def test_a_dual_point_carries_the_derivative(self, name):
        sp, points = self.space_and_points(name)
        for z in points[:3]:
            out = harmonic_rhs(sp, Dual(z, np.eye(len(z))))
            assert out.val.tobytes() == harmonic_rhs(sp, z).tobytes()
            fd = fd_gradient(lambda q: harmonic_rhs(sp, q), z)
            assert np.max(np.abs(out.tan - fd)) <= 1e-9

    @pytest.mark.parametrize("L, h11, z", [
        ("y1^2 + y2^2", "1 - t", [1.0, 0.2, 0.3, 0.5, 0.4]),
        ("y1^3 + y2^3", "1", [0.0, 0.5, 0.5, 0.0, 0.0]),
        ("log(x1)*y1 + y1^2 + y2^2", "1", [0.0, 0.0, 0.3, 0.5, 0.4]),
    ], ids=["h11 = 0", "degenerate g", "log pole"])
    def test_errors_are_those_of_geometry_at(self, L, h11, z):
        sp = LagrangeSpace(N, parse(L, N), parse(h11, N))
        with pytest.raises(Exception) as want:
            sp.geometry_at(z)
        with pytest.raises(Exception) as got:
            harmonic_rhs(sp, z)
        assert isinstance(want.value, (NonRegularError, EvalDomainError))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_the_group_is_built_on_its_first_read(self, monkeypatch):
        # neither a space's set-up nor a chart comparison builds the
        # extremal group; a check compiles it once, for its el-spray
        # suite, and curves read it after that with no compile.  On a
        # fresh space the first curve compiles it once
        compiled = []
        compile_fn = expr.compile_node
        monkeypatch.setattr(expr, "compile_node", lambda nodes, n:
                            compiled.append(nodes) or compile_fn(nodes, n))

        def el_compiles(sp):
            roots = [id(f.ast) for f in sp._el_group.fields]
            return sum(list(map(id, nodes)) == roots for nodes in compiled)

        def curves(sp):
            for _ in range(2):
                c = integrate_harmonic(sp, [1.2, 0.1], [0.3, 0.8], 0.0, 0.5,
                                       0.1)
                el_residual(sp, c)

        cfg = load_config("electrodynamics_l2")
        sp = cfg.space
        points = sample_points(sp, cfg.ranges, 10, seed=cfg.seed)
        chart = random_affine_chart(sp, cfg.seed)
        moved = transformed_space(sp, chart)
        for z in points:
            for space, q in ((sp, z), (moved, transform_point(chart, z))):
                canonical_spray(space, q)
                canonical_nonlinear_connection(space, q)
        assert "_el_group" not in vars(sp) and "_el_group" not in vars(moved)
        run_checks(sp, points)
        assert el_compiles(sp) == 1
        before = len(compiled)
        curves(sp)
        assert len(compiled) == before

        sp = load_config("electrodynamics_l2").space
        before = len(compiled)
        curves(sp)
        assert len(compiled) == before + 1 and el_compiles(sp) == 1


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

class TestIntegrate:
    def test_flat_straight_line(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 1e-3)
        assert np.max(np.abs(c.x[-1] - [1.0, 0.0])) < 1e-12
        assert np.max(np.abs(c.y[-1] - [1.0, 0.0])) < 1e-12

    def test_exp_time_closed_form(self):
        c = integrate_harmonic(exp_time_space(), [0.0, 0.0], [1.0, 0.5],
                               0.0, 1.0, 1e-3)
        expect = (np.e - 1.0) * np.array([1.0, 0.5])
        assert np.max(np.abs(c.x[-1] - expect)) < 1e-9

    def test_sphere_equator(self):
        c = integrate_harmonic(sphere_space(), [np.pi / 2, 0.0], [0.0, 1.0],
                               0.0, 1.0, 1e-3)
        assert np.max(np.abs(c.x[-1] - [np.pi / 2, 1.0])) < 1e-6

    def test_sphere_tilted_great_circle(self):
        c = integrate_harmonic(sphere_space(), TILT_X0, TILT_Y0,
                               0.0, 1.0, 1e-3)
        assert np.max(np.abs(c.x[-1] - great_circle(TILT_X0, TILT_Y0, 1.0))) \
            < 1e-6

    def test_rk4_convergence_order(self):
        ref = great_circle(TILT_X0, TILT_Y0, 1.0)

        def endpoint_error(step):
            c = integrate_harmonic(sphere_space(), TILT_X0, TILT_Y0,
                                   0.0, 1.0, step)
            return np.max(np.abs(c.x[-1] - ref))

        order = np.log2(endpoint_error(0.02) / endpoint_error(0.01))
        assert order >= 3.9

    def test_lands_exactly_on_t1(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 0.3)
        assert c.t[-1] == 1.0
        assert len(c) == 5

    def test_bad_arguments(self):
        sp = flat_space()
        with pytest.raises(ValueError):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            integrate_harmonic(sp, [0.0], [1.0, 0.0], 0.0, 1.0, 0.1)

    def test_step_count_capped_before_the_first_step(self, monkeypatch):
        def first_step(sp, z):
            raise LookupError("first step")

        monkeypatch.setattr(dynamics, "harmonic_rhs", first_step)
        sp = flat_space()
        message = f"^{10**18} steps exceed the cap of {MAX_STEPS}$"
        with pytest.raises(ValueError, match=message):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 0.0, 1e9, 1e-9)
        with pytest.raises(ValueError, match=f"^{MAX_STEPS + 1} steps"):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0],
                               0.0, MAX_STEPS + 1.0, 1.0)
        with pytest.raises(LookupError):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0],
                               0.0, float(MAX_STEPS), 1.0)

    def test_singular_time_reported_with_t(self):
        # h11 = 1 - t collapses at t = 1, inside the integration window
        g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
        sp = LagrangeSpace.from_family("quadratic", N, parse("1 - t", N), g)
        with pytest.raises(NonRegularError, match="t = 1"):
            integrate_harmonic(sp, [0.0, 0.0], [1.0, 0.0], 0.0, 2.0, 0.125)

    @pytest.mark.filterwarnings("error")
    def test_a_stage_state_that_overflows_is_named(self):
        # on the flat space x moves at the speed 1e307 from 1.7e308, so
        # the last stage of the first unit step, x0 + 1 * y, leaves the
        # floats (the midpoint stages, x0 + y / 2, do not), with no numpy
        # warning on the way
        with pytest.raises(
                NonRegularError, match=r"^non-finite state at t = 1$") as err:
            integrate_harmonic(flat_space(), [1.7e308, 0.0], [1e307, 0.0],
                               0.0, 2.0, 1.0)
        assert err.value.point == (1.0, np.inf, 0.0, 1e307, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_a_last_state_that_turns_nan_is_named(self, monkeypatch):
        # a spray that turns NaN only at the last stage of the last step
        # leaves only the final state non-finite, which starts no step
        monkeypatch.setattr(dynamics, "harmonic_rhs", lambda sp, z:
                            np.full(N, np.nan if z[0] == 1.0 else 0.0))
        with pytest.raises(NonRegularError,
                           match=r"^non-finite state at t = 1$") as err:
            integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 0.5)
        assert err.value.point[:3] == (1.0, 1.0, 0.0)
        assert np.isnan(err.value.point[3:]).all()

    def test_a_stage_state_that_turns_nan_is_named(self, monkeypatch):
        # a spray that leaves the floats without raising: the next stage
        # state is NaN, and the step stops there
        monkeypatch.setattr(dynamics, "harmonic_rhs",
                            lambda sp, z: np.full(N, np.nan))
        with pytest.raises(NonRegularError,
                           match=r"^non-finite state at t = 0.25$") as err:
            integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 0.5)
        assert err.value.point[:3] == (0.25, 0.25, 0.0)
        assert np.isnan(err.value.point[3:]).all()


class TestStateVector:
    """integrate_harmonic runs RK4 on one state vector (x, y), written into
    one reused point buffer; the samples are those of the loop on two
    arrays, bit for bit, and each stage costs one fused call."""

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    @pytest.mark.parametrize("step, steps", [(1.0 / 32, 16), (0.07, 8)])
    def test_samples_match_the_two_array_loop_bit_for_bit(self, name, step,
                                                          steps):
        cfg = load_config(name)
        lo, hi = cfg.ranges[:, 0], cfg.ranges[:, 1]
        z = lo + np.array([0.25, 0.55, 0.45, 0.6, 0.35]) * (hi - lo)
        t0 = float(z[0])
        t, x, y = rk4_two_arrays(cfg.space, z[1:3], z[3:], t0, t0 + 0.5,
                                 step)
        c = integrate_harmonic(cfg.space, z[1:3], z[3:], t0, t0 + 0.5, step)
        assert len(c) == len(t) == steps + 1
        # 0.5 / 0.07 is not whole, so that curve ends on a short step
        assert (c.t[-1] - c.t[-2] < step) == (step == 0.07)
        for got, want in ((c.t, t), (c.x, x), (c.y, y)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_cold_step_costs_four_fused_calls_and_no_geometry(
            self, monkeypatch):
        geo = count_calls(monkeypatch, LagrangeSpace.geometry_at,
                          LagrangeSpace)
        evals = count_calls(monkeypatch, expr.evaluate_fields, expr,
                            geometry)
        christoffel = count_calls(monkeypatch, geometry._christoffel,
                                  geometry)
        sp = load_config("sphere_l1").space
        c = integrate_harmonic(sp, [1.2, 0.1], [0.3, 0.8], 0.0, 0.1, 0.1)
        assert len(c) == 2
        # one fused evaluation of the extremal group per stage (h11, L_yy
        # and b), no geometry and no connection level
        assert (len(geo), len(evals), len(christoffel)) == (0, 4, 0)

    def test_a_curve_and_its_residual_keep_no_geometry(self):
        # the stage points and samples are read without a geometry, so the
        # cache is left as the curve found it: a point cached before stays
        # (here the first stage point), and the traced peak is little more
        # than the samples, where 4,001 stage geometries would take 9.9 MB
        cfg = load_config("electrodynamics_l2")
        sp, z = cfg.space, cfg.midpoint()
        kept = sp.geometry_at(z)
        sp.geometry_at(z + 0.01)
        before = dict(sp._geo_cache)
        tracemalloc.start()
        try:
            c = integrate_harmonic(sp, z[1:3], z[3:], z[0], z[0] + 1.0, 1e-3)
            el_residual(sp, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c) == 1001
        assert dict(sp._geo_cache) == before
        assert sp.geometry_at(z) is kept
        assert peak < 1_000_000

    def test_a_curve_through_a_full_cache_evicts_nothing(self, monkeypatch):
        # no stage point or sample is inserted, so nothing is evicted
        monkeypatch.setattr(geometry, "GEO_CACHE_SIZE", 3)
        cfg = load_config("sphere_l1")
        sp, z = cfg.space, cfg.midpoint()
        for shift in (0.01, 0.02, 0.03):
            sp.geometry_at(z + shift)
        before = list(sp._geo_cache.items())
        c = integrate_harmonic(sp, z[1:3], z[3:], z[0], z[0] + 0.1, 0.01)
        el_residual(sp, c)
        assert list(sp._geo_cache.items()) == before

    def test_group_lookup_is_bounded_by_distinct_groups(self, monkeypatch):
        # a field evaluated alone holds its own group, so a held field
        # compiles once however often it is read, and its derivative
        # table, which keeps ASTs and diff memos only, keeps nothing per call
        compiles = count_calls(monkeypatch, expr.compile_node, expr)
        L = parse("sin(x1)*y1^2 + t*x2*y2^3", N)
        fields = [L.differentiate(idx) for idx in
                  [(0, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 2),
                   (1, 0, 1, 0, 1)]]
        z = np.array([0.2, 0.7, -0.3, 1.1, 0.4])

        def table_state():
            t = L._table
            return sorted(vars(t)), len(t._asts), [len(m) for m in t._memos]

        for f in fields:
            f.evaluate(z)
        before = table_state()
        for k in range(1000):
            fields[k % len(fields)].evaluate(z)
        assert len(compiles) == len(fields)
        assert table_state() == before
        assert before[0] == ["_asts", "_memos", "n"]
        # the group holds a field equal to its owner, never the owner
        assert fields[0]._group.fields == (fields[0],)
        assert fields[0]._group.fields[0] is not fields[0]


class TestCurveType:
    def test_monotone_time_required(self):
        t = np.array([0.0, 0.2, 0.1])
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            Curve(t=t, x=x, y=x, step=0.1)

    def test_two_samples_minimum(self):
        with pytest.raises(ValueError):
            Curve(t=np.array([0.0]), x=np.zeros((1, 2)), y=np.zeros((1, 2)),
                  step=0.1)

    def test_csv_round_trip(self, tmp_path):
        c = integrate_harmonic(sphere_space(), TILT_X0, TILT_Y0,
                               0.0, 0.5, 0.01)
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,y1,y2"
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back.shape == (len(c), 5)
        # %.17g preserves doubles exactly
        assert np.array_equal(back[:, 0], c.t)
        assert np.array_equal(back[:, 1:3], c.x)
        assert np.array_equal(back[:, 3:5], c.y)

    def test_csv_to_stream(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 0.5)
        buf = io.StringIO()
        c.to_csv(buf)
        assert buf.getvalue().startswith("t,x1,x2,y1,y2\n0,")


# ---------------------------------------------------------------------------
# action functional
# ---------------------------------------------------------------------------

class TestAction:
    def test_samples_are_read_as_the_curve_points(self):
        # the stacked samples give each point's values bit for bit
        sp = sphere_space()
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 0.5, 1e-2)
        vals = np.array([sp.L.evaluate(c.point(k))
                         * np.sqrt(abs(sp.h11.evaluate(c.point(k))))
                         for k in range(len(c))])
        w = np.ones(len(c))
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        assert action(sp, c) == float((c.t[1] - c.t[0]) / 3.0 * (w @ vals))

    def test_one_compiled_call_per_sample(self, monkeypatch):
        # h11 and L come from the space's one (h11, L) group, h11 first, so
        # a sample where both leave their domain names h11, as before
        sp = sphere_space()
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 0.5, 1e-2)
        calls = count_calls(monkeypatch, expr.FieldGroup.values,
                            expr.FieldGroup)
        action(sp, c)
        assert len(calls) == len(c)
        sp = LagrangeSpace(1, parse("y1^2 + 1/x1", 1), parse("sqrt(t)", 1))
        t = np.array([-1.0, -0.5, 0.0])
        c = Curve(t=t, x=np.zeros((3, 1)), y=np.ones((3, 1)), step=0.5)
        with pytest.raises(EvalDomainError, match="'sqrt\\(t\\)'"):
            action(sp, c)

    def test_straight_line_unit(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 1e-3)
        assert abs(action(flat_space(), c) - 1.0) < 1e-12

    def test_quadratic_path(self):
        # x(t) = t^2 on L = y1^2: integrand 4t^2, integral 4/3; Simpson is
        # exact on polynomials of this degree
        t = np.linspace(0.0, 1.0, 101)
        x = np.stack([t ** 2, np.zeros_like(t)], axis=1)
        y = np.stack([2.0 * t, np.zeros_like(t)], axis=1)
        c = Curve(t=t, x=x, y=y, step=t[1] - t[0])
        assert abs(action(flat_space(), c) - 4.0 / 3.0) < 1e-12

    def test_sphere_geodesic_unit_action(self):
        c = integrate_harmonic(sphere_space(), TILT_X0, TILT_Y0,
                               0.0, 1.0, 1e-3)
        assert abs(action(sphere_space(), c) - 1.0) < 1e-9

    def test_even_sample_count_falls_back(self):
        t = np.linspace(0.0, 1.0, 100)
        x = np.stack([t, np.zeros_like(t)], axis=1)
        y = np.stack([np.ones_like(t), np.zeros_like(t)], axis=1)
        c = Curve(t=t, x=x, y=y, step=t[1] - t[0])
        with pytest.warns(UserWarning, match="trapezoid"):
            val = action(flat_space(), c)
        assert abs(val - 1.0) < 1e-12

    def test_minimal_among_perturbations(self):
        sp = sphere_space()
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 1.0, 1e-3)
        base = action(sp, c)
        t = c.t
        for _ in range(20):
            amp = RNG.uniform(0.005, 0.05, N)
            freq = RNG.uniform(1.0, 4.0, N)
            # C1 bump vanishing at both endpoints, with exact derivative
            bump = np.sin(np.pi * t)[:, None] * amp * np.sin(freq * t[:, None])
            dbump = (np.pi * np.cos(np.pi * t)[:, None] * amp
                     * np.sin(freq * t[:, None])
                     + np.sin(np.pi * t)[:, None] * amp * freq
                     * np.cos(freq * t[:, None]))
            pert = Curve(t=t, x=c.x + bump, y=c.y + dbump, step=c.step)
            assert action(sp, pert) > base


# ---------------------------------------------------------------------------
# extremal equations
# ---------------------------------------------------------------------------

class TestExtremalEquations:
    @pytest.mark.parametrize("build", [flat_space, sphere_space,
                                       exp_time_space, quartic_space])
    def test_algebraic_equivalence_with_spray(self, build):
        # the curves' acceleration, solved from the stationarity condition,
        # must coincide with the spray route -2 Gspat - 2 Htemp everywhere;
        # quartic_space's C is not zero
        sp = build()
        for z in random_points(25):
            geo = sp.geometry_at(z)
            spray = -2.0 * geo.Gspat - 2.0 * geo.Htemp
            assert np.max(np.abs(harmonic_rhs(sp, z) - spray)) < 1e-9

    def test_flat_line_residual(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.0],
                               0.0, 1.0, 0.01)
        assert np.max(np.abs(el_residual(flat_space(), c))) < 1e-10

    def test_integrated_geodesic_residual(self):
        sp = sphere_space()
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 1.0, 1e-3)
        assert np.max(np.abs(el_residual(sp, c))) < 1e-5

    def test_perturbed_curve_fails(self):
        sp = sphere_space()
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 1.0, 1e-3)
        t = c.t
        bump = 0.01 * np.sin(np.pi * t)
        x = c.x.copy()
        x[:, 0] += bump
        y = c.y.copy()
        y[:, 0] += 0.01 * np.pi * np.cos(np.pi * t)
        pert = Curve(t=t, x=x, y=y, step=c.step)
        assert np.max(np.abs(el_residual(sp, pert))) > 1e-2
        assert action(sp, pert) > action(sp, c)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 4)
        x = np.stack([t, t], axis=1)
        y = np.ones_like(x)
        c = Curve(t=t, x=x, y=y, step=t[1] - t[0])
        with pytest.raises(ValueError):
            el_residual(flat_space(), c)


# ---------------------------------------------------------------------------
# gauge behavior
# ---------------------------------------------------------------------------

class TestCurveGauge:
    def test_integrate_commutes_with_chart_change(self):
        # transform-then-integrate against integrate-then-transform
        sp = sphere_space()
        chart = ChartMap(parse("exp(t)", N),
                         np.array([[1.3, 0.2], [-0.4, 0.9]]),
                         np.array([0.1, -0.2]),
                         t_inverse=parse("log(t)", N))
        c = integrate_harmonic(sp, TILT_X0, TILT_Y0, 0.0, 1.0, 1e-3)
        pushed = transform_curve(c, chart)
        sp_t = transformed_space(sp, chart)
        z0 = pushed.point(0)
        direct = integrate_harmonic(sp_t, z0[1:N + 1], z0[N + 1:],
                                    pushed.t[0], pushed.t[-1], 1e-3)
        assert np.max(np.abs(direct.x[-1] - pushed.x[-1])) < 1e-6

    def test_transform_preserves_sample_count(self):
        c = integrate_harmonic(flat_space(), [0.0, 0.0], [1.0, 0.5],
                               0.0, 1.0, 0.1)
        chart = ChartMap(parse("2*t + 1", N), np.eye(N), np.zeros(N),
                         t_inverse=parse("(t - 1)/2", N))
        moved = transform_curve(c, chart)
        assert len(moved) == len(c)
        assert moved.t[0] == 1.0 and abs(moved.t[-1] - 3.0) < 1e-12
