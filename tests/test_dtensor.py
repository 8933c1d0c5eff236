"""Tests for the typed-slot tensor layer: algebra, derivatives, chart laws."""

import numpy as np
import pytest

from jetlag.dtensor import (
    CartanCoefficients,
    ChartError,
    ChartMap,
    DTensorField,
    DTensorValue,
    NonlinearConnectionValue,
    SlotKind,
    adapted_derivative,
    contract,
    covariant_derivative,
    lower_slot,
    raise_slot,
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
    transform_tensor,
)
from jetlag.expr import JetPoint, parse

N = 2
RNG = np.random.default_rng(20240817)


def rand_point():
    z = RNG.uniform(-1.0, 1.0, size=2 * N + 1)
    return JetPoint(float(z[0]), tuple(z[1 : N + 1]), tuple(z[N + 1 :]))


def zero_cartan(n=N):
    return CartanCoefficients(0.0, np.zeros((n, n)), np.zeros((n, n, n)), np.zeros((n, n, n)))


def zero_nl(n=N):
    return NonlinearConnectionValue(np.zeros(n), np.zeros((n, n)))


def rand_cartan(n=N):
    L = RNG.uniform(-1, 1, size=(n, n, n))
    C = RNG.uniform(-1, 1, size=(n, n, n))
    # metric connections are symmetric in the two lower slots; keep that here
    L = 0.5 * (L + np.swapaxes(L, 1, 2))
    C = 0.5 * (C + np.swapaxes(C, 1, 2))
    return CartanCoefficients(
        float(RNG.uniform(-1, 1)), RNG.uniform(-1, 1, size=(n, n)), L, C
    )


def rand_nl(n=N):
    return NonlinearConnectionValue(
        RNG.uniform(-1, 1, size=n), RNG.uniform(-1, 1, size=(n, n))
    )


class TestSlotKind:
    def test_extents_and_families(self):
        assert SlotKind.TIME_UP.extent(5) == 1
        assert SlotKind.TIME_DOWN.extent(5) == 1
        assert SlotKind.SPACE_UP.extent(5) == 5
        assert SlotKind.VERT_DOWN.extent(3) == 3
        assert SlotKind.TIME_UP.family == "time"
        assert SlotKind.SPACE_DOWN.family == "space"
        assert SlotKind.VERT_UP.family == "vert"

    def test_variance_and_flip(self):
        for kind in SlotKind:
            assert kind.flipped.family == kind.family
            assert kind.flipped.is_up != kind.is_up
            assert kind.flipped.flipped is kind

    def test_wire_names(self):
        assert SlotKind.TIME_UP.value == "TimeUp"
        assert SlotKind.VERT_DOWN.value == "VertDown"


class TestDTensorValue:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DTensorValue((SlotKind.TIME_UP,), np.zeros(2), n=2)
        with pytest.raises(ValueError):
            DTensorValue((SlotKind.SPACE_UP,), np.zeros((2, 2)), n=2)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DTensorValue((SlotKind.SPACE_UP,), np.array([1.0, np.nan]), n=2)


class TestContract:
    def test_matrix_trace(self):
        A = RNG.uniform(-1, 1, size=(N, N))
        v = DTensorValue((SlotKind.SPACE_UP, SlotKind.SPACE_DOWN), A, N)
        out = contract(v, 0, 1)
        assert out.signature == ()
        assert out.components == pytest.approx(np.trace(A))

    def test_middle_slots(self):
        T = RNG.uniform(-1, 1, size=(N, N, N, N))
        sig = (SlotKind.SPACE_DOWN, SlotKind.VERT_UP, SlotKind.VERT_DOWN, SlotKind.SPACE_DOWN)
        out = contract(DTensorValue(sig, T, N), 1, 2)
        expect = np.einsum("immk->ik", T)
        assert out.signature == (SlotKind.SPACE_DOWN, SlotKind.SPACE_DOWN)
        np.testing.assert_allclose(out.components, expect)

    def test_variance_checked(self):
        A = np.eye(N)
        v = DTensorValue((SlotKind.SPACE_UP, SlotKind.SPACE_DOWN), A, N)
        with pytest.raises(ValueError):
            contract(v, 1, 0)
        with pytest.raises(ValueError):
            contract(v, 0, 0)

    def test_extent_mismatch(self):
        arr = np.zeros((1, N))
        v = DTensorValue((SlotKind.TIME_UP, SlotKind.SPACE_DOWN), arr, N)
        with pytest.raises(ValueError):
            contract(v, 0, 1)

    def test_cross_family_same_extent_allowed(self):
        # spatial-against-vertical traces appear in curvature contractions
        arr = RNG.uniform(-1, 1, size=(N, N))
        v = DTensorValue((SlotKind.VERT_UP, SlotKind.SPACE_DOWN), arr, N)
        assert contract(v, 0, 1).components == pytest.approx(np.trace(arr))


class TestRaiseLower:
    def setup_method(self):
        B = RNG.uniform(-1, 1, size=(N, N))
        self.g = B @ B.T + 2.0 * np.eye(N)
        self.g_inv = np.linalg.inv(self.g)
        self.h11 = 1.7

    def test_space_round_trip(self):
        v = DTensorValue((SlotKind.SPACE_UP,), RNG.uniform(-1, 1, N), N)
        low = lower_slot(v, 0, g=self.g)
        assert low.signature == (SlotKind.SPACE_DOWN,)
        np.testing.assert_allclose(low.components, self.g @ v.components)
        back = raise_slot(low, 0, g_inv=self.g_inv)
        np.testing.assert_allclose(back.components, v.components, atol=1e-12)

    def test_time_slot_uses_h(self):
        v = DTensorValue((SlotKind.TIME_UP,), np.array([3.0]), N)
        low = lower_slot(v, 0, h11=self.h11)
        assert low.components[0] == pytest.approx(3.0 * self.h11)
        back = raise_slot(low, 0, h11=self.h11)
        assert back.components[0] == pytest.approx(3.0)

    def test_vert_slot_mixes_g_and_h(self):
        v = DTensorValue((SlotKind.VERT_UP,), RNG.uniform(-1, 1, N), N)
        low = lower_slot(v, 0, g=self.g, h11=self.h11)
        np.testing.assert_allclose(low.components, (self.g / self.h11) @ v.components)
        back = raise_slot(low, 0, g_inv=self.g_inv, h11=self.h11)
        np.testing.assert_allclose(back.components, v.components, atol=1e-12)

    def test_second_axis_of_matrix(self):
        T = RNG.uniform(-1, 1, size=(N, N))
        v = DTensorValue((SlotKind.SPACE_DOWN, SlotKind.SPACE_UP), T, N)
        low = lower_slot(v, 1, g=self.g)
        np.testing.assert_allclose(low.components, T @ self.g.T)

    def test_errors(self):
        v = DTensorValue((SlotKind.SPACE_UP,), np.ones(N), N)
        with pytest.raises(ValueError):
            raise_slot(v, 0, g_inv=self.g_inv)
        with pytest.raises(ValueError):
            lower_slot(v, 0)  # missing g
        w = DTensorValue((SlotKind.VERT_UP,), np.ones(N), N)
        with pytest.raises(ValueError):
            lower_slot(w, 0, g=self.g)  # missing h11


def scalar_field(expr_src):
    f = parse(expr_src, N)
    return DTensorField((), N, lambda z: np.asarray(f.evaluate(z)))


class TestAdaptedDerivative:
    def test_time_direction(self):
        # F = t * y1: dF/dt - M.grad_y F = y1 - M1 * t
        field = scalar_field("t * y1")
        nl = NonlinearConnectionValue(np.array([0.4, -0.9]), np.zeros((N, N)))
        p = JetPoint(0.7, (0.2, -0.1), (1.3, 0.5))
        out = adapted_derivative(field, p, nl, "T")
        assert out.signature == ()
        assert out.components == pytest.approx(1.3 - 0.4 * 0.7, abs=1e-9)

    def test_spatial_direction(self):
        # F = x1^2 * y2: delta F / delta x1 = 2 x1 y2 - N^2_1 x1^2
        field = scalar_field("x1^2 * y2")
        Nmat = np.array([[0.3, -0.2], [0.8, 0.1]])
        nl = NonlinearConnectionValue(np.zeros(N), Nmat)
        p = JetPoint(0.0, (1.5, 0.3), (0.2, -0.7))
        out = adapted_derivative(field, p, nl, ("M", 0))
        expect = 2 * 1.5 * (-0.7) - Nmat[1, 0] * 1.5**2
        assert out.components == pytest.approx(expect, abs=1e-9)

    def test_vertical_direction_ignores_connection(self):
        field = scalar_field("y1^2 + x2 * y2")
        p = rand_point()
        out = adapted_derivative(field, p, rand_nl(), ("V", 0))
        assert out.components == pytest.approx(2 * p.y[0], abs=1e-9)

    def test_bad_direction(self):
        # an index must be an integer in [0, n): a negative one would wrap
        # to d/dy^n and a fractional one would be truncated
        field = scalar_field("x2*7 + y1^2")
        for direction in [("Q", 0), ("V", -1), ("V", 1.7), ("M", N), ("V", N)]:
            with pytest.raises(ValueError, match="direction must be"):
                adapted_derivative(field, rand_point(), zero_nl(), direction)


def vector_field_poly():
    """V^i = (t * x1 + y2^2, x2 * y1); exact partials are hand-computable."""

    def fn(z):
        t, x1, x2, y1, y2 = z
        return np.array([t * x1 + y2**2, x2 * y1])

    def dt(z):
        return np.array([z[1], 0.0])

    def dx(z):
        # dx[p][i] = dV^i/dx^p
        t, x1, x2, y1, y2 = z
        return np.array([[t, 0.0], [0.0, y1]])

    def dy(z):
        t, x1, x2, y1, y2 = z
        return np.array([[0.0, x2], [2 * y2, 0.0]])

    return DTensorField((SlotKind.SPACE_UP,), N, fn), dt, dx, dy


class TestCovariantDerivative:
    def test_zero_connection_time_is_plain_dt(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, p, zero_cartan(), zero_nl(), "time")
        assert out.signature == (SlotKind.SPACE_UP, SlotKind.TIME_DOWN)
        np.testing.assert_allclose(out.components[:, 0], dt(p.as_array()), atol=1e-9)

    def test_zero_connection_space_is_plain_dx(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, p, zero_cartan(), zero_nl(), "space")
        # components[i, p] = dV^i/dx^p
        np.testing.assert_allclose(out.components, dx(p.as_array()).T, atol=1e-9)

    def test_zero_connection_vert_is_plain_dy(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, p, zero_cartan(), zero_nl(), "vert")
        assert out.signature == (SlotKind.SPACE_UP, SlotKind.VERT_DOWN)
        np.testing.assert_allclose(out.components, dy(p.as_array()).T, atol=1e-9)

    def test_vector_space_kind_matches_hand_formula(self):
        field, dt, dx, dy = vector_field_poly()
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        out = covariant_derivative(field, p, cart, nl, "space")
        V, dxV, dyV = field.components_at(z), dx(z), dy(z)
        # V^i_{|p} = dV^i/dx^p - N^j_p dV^i/dy^j + L^i_{mp} V^m
        expect = np.empty((N, N))
        for i in range(N):
            for q in range(N):
                delta = dxV[q, i] - sum(nl.N[j, q] * dyV[j, i] for j in range(N))
                corr = sum(cart.L[i, m, q] * V[m] for m in range(N))
                expect[i, q] = delta + corr
        np.testing.assert_allclose(out.components, expect, atol=1e-8)

    def test_one_form_space_kind_subtracts(self):
        def fn(z):
            t, x1, x2, y1, y2 = z
            return np.array([x1 * y1, t + x2**2])

        field = DTensorField((SlotKind.SPACE_DOWN,), N, fn)
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        t, x1, x2, y1, y2 = z
        dxW = np.array([[y1, 0.0], [0.0, 2 * x2]])  # dxW[p][l]
        dyW = np.array([[x1, 0.0], [0.0, 0.0]])
        W = fn(z)
        out = covariant_derivative(field, p, cart, nl, "space")
        expect = np.empty((N, N))
        for l in range(N):
            for q in range(N):
                delta = dxW[q, l] - sum(nl.N[j, q] * dyW[j, l] for j in range(N))
                corr = -sum(cart.L[m, l, q] * W[m] for m in range(N))
                expect[l, q] = delta + corr
        np.testing.assert_allclose(out.components, expect, atol=1e-8)

    def test_mixed_tensor_time_kind(self):
        def fn(z):
            t, x1, x2, y1, y2 = z
            return np.array([[t * y1, x1], [y2, t**2]])

        field = DTensorField((SlotKind.SPACE_UP, SlotKind.VERT_DOWN), N, fn)
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        t, x1, x2, y1, y2 = z
        T = fn(z)
        dtT = np.array([[y1, 0.0], [0.0, 2 * t]])
        dyT = [np.array([[t, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
        delta = dtT - sum(nl.M[j] * dyT[j] for j in range(N))
        vt = cart.vert_time()
        expect = delta + np.einsum("im,mj->ij", cart.Gt, T) - np.einsum("mj,im->ij", vt, T)
        out = covariant_derivative(field, p, cart, nl, "time")
        np.testing.assert_allclose(out.components[:, :, 0], expect, atol=1e-8)

    def test_time_slot_corrections(self):
        # K^1_1 with one temporal covariant slot: /1 adds -H K, |p and |(p) add 0
        def fn(z):
            return np.array([z[0] ** 2 + z[3]])

        field = DTensorField((SlotKind.TIME_DOWN,), N, fn)
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        out_t = covariant_derivative(field, p, cart, nl, "time")
        expect = (2 * z[0] - nl.M[0] * 1.0) - cart.H * fn(z)[0]
        assert out_t.components[0, 0] == pytest.approx(expect, abs=1e-8)
        out_s = covariant_derivative(field, p, cart, nl, "space")
        expect_s = -nl.N[0, :] * 1.0  # dK/dx = 0, dK/dy1 = 1
        np.testing.assert_allclose(out_s.components[0], expect_s, atol=1e-8)

    def test_leibniz_product_rule(self):
        # (f V)^i derivatives must satisfy the product rule in every kind
        f_ast = parse("sin(x1) + t * y2", N)

        def vfn(z):
            t, x1, x2, y1, y2 = z
            return np.array([x2 + y1**2, t * x1])

        vec = DTensorField((SlotKind.SPACE_UP,), N, vfn)
        scal = DTensorField((), N, lambda z: np.asarray(f_ast.evaluate(z)))
        prod = DTensorField((SlotKind.SPACE_UP,), N, lambda z: f_ast.evaluate(z) * vfn(z))
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        for kind in ("time", "space", "vert"):
            lhs = covariant_derivative(prod, p, cart, nl, kind).components
            df = covariant_derivative(scal, p, cart, nl, kind).components
            dv = covariant_derivative(vec, p, cart, nl, kind).components
            rhs = np.einsum("p,i->ip", df, vfn(z)) + f_ast.evaluate(z) * dv
            np.testing.assert_allclose(lhs, rhs, atol=1e-7)

    def test_scalar_space_matches_adapted(self):
        # a scalar takes no connection correction in any kind
        field = scalar_field("t * sin(x1) * y2")
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        cov = covariant_derivative(field, p, cart, nl, "time")
        assert cov.signature == (SlotKind.TIME_DOWN,)
        ad = adapted_derivative(field, p, nl, "T")
        assert cov.components[0] == pytest.approx(float(ad.components), abs=1e-10)
        for kind, letter in (("space", "M"), ("vert", "V")):
            cov = covariant_derivative(field, p, cart, nl, kind)
            for q in range(N):
                ad = adapted_derivative(field, p, nl, (letter, q))
                assert cov.components[q] == pytest.approx(float(ad.components), abs=1e-10)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            covariant_derivative(scalar_field("t"), rand_point(), zero_cartan(), zero_nl(), "??")


def exp_chart(n=N, seed=7):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.uniform(-1, 1, size=(n, n))
        if abs(np.linalg.det(A)) > 0.3:
            break
    c = rng.uniform(-1, 1, size=n)
    return ChartMap(parse("exp(t)", n), A, c, t_inverse=parse("log(t)", n))


class TestChartMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChartMap(parse("t", N), np.zeros((N, N)), np.zeros(N))
        with pytest.raises(ValueError):
            ChartMap(parse("t + x1", N), np.eye(N), np.zeros(N))
        with pytest.raises(ValueError):
            ChartMap(parse("t", N), np.eye(N), np.zeros(N), t_inverse=parse("y1", N))

    def test_derivatives(self):
        ch = exp_chart()
        assert ch.tprime(0.5) == pytest.approx(np.exp(0.5))
        assert ch.tsecond(0.5) == pytest.approx(np.exp(0.5))
        assert ch.t_new(1.2) == pytest.approx(np.exp(1.2))
        assert ch.t_old(np.exp(1.2)) == pytest.approx(1.2)

    def test_degenerate_tprime(self):
        ch = ChartMap(parse("t^2", N), np.eye(N), np.zeros(N))
        with pytest.raises(ChartError):
            ch.tprime(0.0)

    def test_missing_inverse(self):
        ch = ChartMap(parse("2 * t", N), np.eye(N), np.zeros(N))
        with pytest.raises(ChartError):
            ch.t_old(1.0)


class TestTransforms:
    def test_point_law(self):
        ch = exp_chart()
        p = JetPoint(0.3, (1.0, -2.0), (0.5, 0.25))
        q = transform_point(ch, p)
        tp = np.exp(0.3)
        assert q.t == pytest.approx(tp)
        np.testing.assert_allclose(q.x, ch.A @ np.array(p.x) + ch.c)
        np.testing.assert_allclose(q.y, (ch.A @ np.array(p.y)) / tp)

    def test_identity_chart_fixes_everything(self):
        ch = ChartMap(parse("t", N), np.eye(N), np.zeros(N))
        p = rand_point()
        q = transform_point(ch, p)
        np.testing.assert_allclose(q.as_array(), p.as_array(), atol=1e-14)
        H = RNG.uniform(-1, 1, N)
        np.testing.assert_allclose(transform_temporal_spray(H, ch, p), H, atol=1e-14)
        nl = rand_nl()
        out = transform_nonlinear(nl, ch, p)
        np.testing.assert_allclose(out.M, nl.M, atol=1e-14)
        np.testing.assert_allclose(out.N, nl.N, atol=1e-14)

    def test_affine_time_scaling(self):
        # t~ = 2t + 1 has tau'' = 0: pure power-of-two scalings
        ch = ChartMap(parse("2 * t + 1", N), np.eye(N), np.zeros(N))
        p = rand_point()
        H = RNG.uniform(-1, 1, N)
        G = RNG.uniform(-1, 1, N)
        nl = rand_nl()
        np.testing.assert_allclose(transform_temporal_spray(H, ch, p), H / 4.0)
        np.testing.assert_allclose(transform_spatial_spray(G, ch, p), G / 4.0)
        out = transform_nonlinear(nl, ch, p)
        np.testing.assert_allclose(out.M, nl.M / 4.0)
        np.testing.assert_allclose(out.N, nl.N / 2.0)

    def test_pairing_invariance(self):
        # full contractions are chart scalars: T_ij U^i V^j and W_(i) X^(i)
        ch = exp_chart(seed=13)
        p = rand_point()
        T = DTensorValue((SlotKind.SPACE_DOWN, SlotKind.SPACE_DOWN),
                         RNG.uniform(-1, 1, (N, N)), N)
        U = DTensorValue((SlotKind.SPACE_UP,), RNG.uniform(-1, 1, N), N)
        V = DTensorValue((SlotKind.SPACE_UP,), RNG.uniform(-1, 1, N), N)
        before = np.einsum("ij,i,j->", T.components, U.components, V.components)
        after = np.einsum(
            "ij,i,j->",
            transform_tensor(T, ch, p).components,
            transform_tensor(U, ch, p).components,
            transform_tensor(V, ch, p).components,
        )
        assert after == pytest.approx(before, rel=1e-12)

        Wd = DTensorValue((SlotKind.VERT_DOWN,), RNG.uniform(-1, 1, N), N)
        Xu = DTensorValue((SlotKind.VERT_UP,), RNG.uniform(-1, 1, N), N)
        s0 = Wd.components @ Xu.components
        s1 = (transform_tensor(Wd, ch, p).components
              @ transform_tensor(Xu, ch, p).components)
        assert s1 == pytest.approx(s0, rel=1e-12)

    def test_time_slots_scale(self):
        ch = exp_chart(seed=5)
        p = rand_point()
        tp = ch.tprime(p.t)
        up = DTensorValue((SlotKind.TIME_UP,), np.array([2.0]), N)
        dn = DTensorValue((SlotKind.TIME_DOWN,), np.array([2.0]), N)
        assert transform_tensor(up, ch, p).components[0] == pytest.approx(2.0 * tp)
        assert transform_tensor(dn, ch, p).components[0] == pytest.approx(2.0 / tp)

    def test_round_trip_through_inverse_chart(self):
        ch = exp_chart(seed=29)
        inv = ChartMap(parse("log(t)", N), ch.A_inv, -ch.A_inv @ ch.c,
                       t_inverse=parse("exp(t)", N))
        p = rand_point()
        q = transform_point(ch, p)
        back = transform_point(inv, q)
        np.testing.assert_allclose(back.as_array(), p.as_array(), atol=1e-12)
        sig = (SlotKind.SPACE_UP, SlotKind.VERT_DOWN, SlotKind.TIME_UP)
        v = DTensorValue(sig, RNG.uniform(-1, 1, (N, N, 1)), N)
        there = transform_tensor(v, ch, p)
        home = transform_tensor(there, inv, q)
        np.testing.assert_allclose(home.components, v.components, atol=1e-12)


class TestCartanCoefficients:
    def test_vert_time_block(self):
        cart = rand_cartan()
        expect = cart.Gt - cart.H * np.eye(N)
        np.testing.assert_allclose(cart.vert_time(), expect)

    def test_symmetry_residual(self):
        cart = rand_cartan()
        assert cart.symmetry_residual() < 1e-15
        L = cart.L.copy()
        L[0, 0, 1] += 1e-3
        bumped = CartanCoefficients(cart.H, cart.Gt, L, cart.C)
        assert bumped.symmetry_residual() >= 1e-3 / 2
