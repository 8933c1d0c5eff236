"""Tests for the typed-slot tensor layer: algebra, derivatives, chart laws."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

import jetlag
from helpers import count_calls, covariant_derivative
from jetlag import dtensor
from jetlag.dtensor import (
    CartanCoefficients,
    ChartError,
    ChartMap,
    NonlinearConnectionValue,
    SlotKind,
    adapted_gradient,
    add_connection_terms,
    transform_nonlinear,
    transform_point,
    transform_spatial_spray,
    transform_temporal_spray,
    transform_tensor,
)
from jetlag.dual import CONTRACT, Dual
from jetlag.expr import JetPoint, ScalarField, evaluate_fields, parse

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
        # the wire name is the family, then the variance: the other
        # variance of a family is a kind of its own
        for kind in SlotKind:
            assert kind.is_up == kind.value.endswith("Up")
            flipped = SlotKind(kind.family.capitalize()
                               + ("Down" if kind.is_up else "Up"))
            assert flipped.family == kind.family
            assert flipped.is_up != kind.is_up

    def test_wire_names(self):
        assert SlotKind.TIME_UP.value == "TimeUp"
        assert SlotKind.VERT_DOWN.value == "VertDown"


def scalar_field(expr_src):
    f = parse(expr_src, N)
    return lambda z: f.evaluate(z)


KINDS = ("time", "space", "vert")


def adapted(fn, point, nl, kind):
    """The adapted derivatives of one kind of the field fn at the point,
    derivative axis last."""
    ((_, derivs),) = adapted_gradient(lambda q: (fn(q),), point.as_array(),
                                      nl)
    return derivs[KINDS.index(kind)]


class TestAdaptedDerivative:
    def test_time_direction(self):
        # F = t * y1: dF/dt - M.grad_y F = y1 - M1 * t
        field = scalar_field("t * y1")
        nl = NonlinearConnectionValue(np.array([0.4, -0.9]), np.zeros((N, N)))
        p = JetPoint(0.7, (0.2, -0.1), (1.3, 0.5))
        out = adapted(field, p, nl, "time")
        assert out.shape == (1,)
        assert out[0] == pytest.approx(1.3 - 0.4 * 0.7, abs=1e-9)

    def test_spatial_direction(self):
        # F = x1^2 * y2: delta F / delta x1 = 2 x1 y2 - N^2_1 x1^2
        field = scalar_field("x1^2 * y2")
        Nmat = np.array([[0.3, -0.2], [0.8, 0.1]])
        nl = NonlinearConnectionValue(np.zeros(N), Nmat)
        p = JetPoint(0.0, (1.5, 0.3), (0.2, -0.7))
        out = adapted(field, p, nl, "space")
        expect = 2 * 1.5 * (-0.7) - Nmat[1, 0] * 1.5**2
        assert out[0] == pytest.approx(expect, abs=1e-9)

    def test_vertical_direction_ignores_connection(self):
        field = scalar_field("y1^2 + x2 * y2")
        p = rand_point()
        out = adapted(field, p, rand_nl(), "vert")
        assert out[0] == pytest.approx(2 * p.y[0], abs=1e-9)


class TestAdaptedGradient:
    def test_one_dual_point_for_the_union_of_kinds(self):
        # fn runs once, at z seeded with the identity tangent, and gives
        # the time, space and vertical derivatives together
        field, _, _, _ = vector_field_poly()
        seen = []

        def fn(q):
            seen.append(q)
            return (field(q),)

        z, nl = RNG.uniform(-1.0, 1.0, 2 * N + 1), rand_nl()
        ((value, derivs),) = adapted_gradient(fn, z, nl)
        (q,) = seen
        assert isinstance(q, Dual) and q.depth == 1
        assert q.val.tobytes() == z.tobytes()
        assert q.tan.tobytes() == np.eye(2 * N + 1).tobytes()
        assert value.tobytes() == field(z).tobytes()
        assert [d.shape for d in derivs] == [(N, 1), (N, N), (N, N)]

    def test_several_arrays_keep_the_bits_of_their_own_calls(self):
        # a scalar, a vector and three rank-2 arrays share one dual point,
        # and each comes back as it would from a call of its own
        vec, _, _, _ = vector_field_poly()
        scal = scalar_field("t * y1 + x2^2 * y2")
        parts = [scal, vec,
                 lambda q: vec(q)[:, None] * q[N + 1:],
                 lambda q: q[1:N + 1][:, None] * q[N + 1:],
                 lambda q: q[N + 1:][:, None] * vec(q)]
        z, nl = RNG.uniform(-1.0, 1.0, 2 * N + 1), rand_nl()
        alone = [adapted_gradient(lambda q, f=f: (f(q),), z, nl)[0][1]
                 for f in parts]
        calls = []

        def fn(q):
            calls.append(q)
            return [f(q) for f in parts]

        together = [d for _, d in adapted_gradient(fn, z, nl)]
        assert len(calls) == 1
        assert len(together) == len(parts)
        for own, shared in zip(alone, together, strict=True):
            for a, b in zip(own, shared, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_corrections_round_each_entry_by_itself(self, n):
        # the M and N corrections are plain einsums, so a field's
        # derivative has the same bits alone, inside a tuple and as a
        # column block of a wider array (a BLAS product rounds a column by
        # its position and width)
        rng = np.random.default_rng(n)
        z = rng.uniform(-1.0, 1.0, 2 * n + 1)
        nl = NonlinearConnectionValue(rng.uniform(-1, 1, n),
                                      rng.uniform(-1, 1, (n, n)))

        def f(q):
            x, y = q[1:n + 1], q[n + 1:]
            return q[0] * x * y + y * y * x[::-1]

        def wide(q):
            # f(q) times 1.0 is f(q) bit for bit, in column 1 of 4
            return f(q)[:, None] * np.array([0.5, 1.0, -2.0, 3.0])

        ((_, alone),) = adapted_gradient(lambda q: (f(q),), z, nl)
        _, (_, in_tuple), _ = adapted_gradient(
            lambda q: (q[1:n + 1], f(q), q[:, None] * q), z, nl)
        ((_, block),) = adapted_gradient(lambda q: (wide(q),), z, nl)
        for a, b, c in zip(alone, in_tuple, block, strict=True):
            assert a.tobytes() == b.tobytes() == c[:, 1].tobytes()

    def test_a_field_that_drops_the_tangent_names_the_contract(self):
        # np.array([...]) of dual entries, float(), a math function and a
        # plain result all lose the derivative; each raises a TypeError
        # naming the contract (a ufunc raises numpy's own TypeError)
        z, nl = RNG.uniform(-1.0, 1.0, 2 * N + 1), rand_nl()
        for fn in (lambda q: (np.array([q[0], q[1]]),),
                   lambda q: (float(q[0]) * np.ones(2),),
                   lambda q: (math.sin(q[0]) * np.ones(2),),
                   lambda q: (np.asarray(q, dtype=float),)):
            with pytest.raises(TypeError, match="dual-transparent"):
                adapted_gradient(fn, z, nl)
        with pytest.raises(TypeError, match="does not support ufuncs"):
            adapted_gradient(lambda q: (np.sin(q),), z, nl)
        assert "dual-transparent" in CONTRACT

    def test_no_src_module_imports_numdiff(self):
        # finite differences are the tests' oracle only, and the module
        # stays importable for that oracle and the benchmark's tracer
        importers = set()
        for path in Path(jetlag.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(name.rsplit(".", 1)[-1] == "numdiff" for name in names):
                    importers.add(path.name)
        assert importers == set()
        assert callable(importlib.import_module("jetlag.numdiff").partial)


def stacked(*parts):
    """np.stack(parts) for float or dual parts of one shape; a Dual has no
    np.stack, so each part scales its unit vector."""
    eye = np.eye(len(parts))
    return sum(u.reshape(u.shape + (1,) * len(getattr(p, "shape", ()))) * p
               for u, p in zip(eye, parts))


def vector_field_poly():
    """V^i = (t * x1 + y2^2, x2 * y1); exact partials are hand-computable."""

    def fn(z):
        t, x1, x2, y1, y2 = z
        return stacked(t * x1 + y2 * y2, x2 * y1)

    def dt(z):
        return np.array([z[1], 0.0])

    def dx(z):
        # dx[p][i] = dV^i/dx^p
        t, x1, x2, y1, y2 = z
        return np.array([[t, 0.0], [0.0, y1]])

    def dy(z):
        t, x1, x2, y1, y2 = z
        return np.array([[0.0, x2], [2 * y2, 0.0]])

    return fn, dt, dx, dy


SU, SD, TD, VD = (SlotKind.SPACE_UP, SlotKind.SPACE_DOWN, SlotKind.TIME_DOWN,
                  SlotKind.VERT_DOWN)


class TestCovariantDerivative:
    def test_zero_connection_time_is_plain_dt(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, (SU,), p, zero_cartan(), zero_nl(),
                                   "time")
        assert out.shape == (N, 1)
        np.testing.assert_allclose(out[:, 0], dt(p.as_array()), atol=1e-9)

    def test_zero_connection_space_is_plain_dx(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, (SU,), p, zero_cartan(), zero_nl(),
                                   "space")
        # out[i, p] = dV^i/dx^p
        np.testing.assert_allclose(out, dx(p.as_array()).T, atol=1e-9)

    def test_zero_connection_vert_is_plain_dy(self):
        field, dt, dx, dy = vector_field_poly()
        p = rand_point()
        out = covariant_derivative(field, (SU,), p, zero_cartan(), zero_nl(),
                                   "vert")
        assert out.shape == (N, N)
        np.testing.assert_allclose(out, dy(p.as_array()).T, atol=1e-9)

    def test_vector_space_kind_matches_hand_formula(self):
        field, dt, dx, dy = vector_field_poly()
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        out = covariant_derivative(field, (SU,), p, cart, nl, "space")
        V, dxV, dyV = field(z), dx(z), dy(z)
        # V^i_{|p} = dV^i/dx^p - N^j_p dV^i/dy^j + L^i_{mp} V^m
        expect = np.empty((N, N))
        for i in range(N):
            for q in range(N):
                delta = dxV[q, i] - sum(nl.N[j, q] * dyV[j, i] for j in range(N))
                corr = sum(cart.L[i, m, q] * V[m] for m in range(N))
                expect[i, q] = delta + corr
        np.testing.assert_allclose(out, expect, atol=1e-8)

    def test_one_form_space_kind_subtracts(self):
        def fn(z):
            t, x1, x2, y1, y2 = z
            return stacked(x1 * y1, t + x2 * x2)

        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        t, x1, x2, y1, y2 = z
        dxW = np.array([[y1, 0.0], [0.0, 2 * x2]])  # dxW[p][l]
        dyW = np.array([[x1, 0.0], [0.0, 0.0]])
        W = fn(z)
        out = covariant_derivative(fn, (SD,), p, cart, nl, "space")
        expect = np.empty((N, N))
        for l in range(N):
            for q in range(N):
                delta = dxW[q, l] - sum(nl.N[j, q] * dyW[j, l] for j in range(N))
                corr = -sum(cart.L[m, l, q] * W[m] for m in range(N))
                expect[l, q] = delta + corr
        np.testing.assert_allclose(out, expect, atol=1e-8)

    def test_mixed_tensor_time_kind(self):
        def fn(z):
            t, x1, x2, y1, y2 = z
            return stacked(stacked(t * y1, x1), stacked(y2, t * t))

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
        out = covariant_derivative(fn, (SU, VD), p, cart, nl, "time")
        np.testing.assert_allclose(out[:, :, 0], expect, atol=1e-8)

    def test_time_slot_corrections(self):
        # K^1_1 with one temporal covariant slot: /1 adds -H K, |p and |(p) add 0
        def fn(z):
            return stacked(z[0] * z[0] + z[3])

        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        out_t = covariant_derivative(fn, (TD,), p, cart, nl, "time")
        expect = (2 * z[0] - nl.M[0] * 1.0) - cart.H * fn(z)[0]
        assert out_t[0, 0] == pytest.approx(expect, abs=1e-8)
        out_s = covariant_derivative(fn, (TD,), p, cart, nl, "space")
        expect_s = -nl.N[0, :] * 1.0  # dK/dx = 0, dK/dy1 = 1
        np.testing.assert_allclose(out_s[0], expect_s, atol=1e-8)

    def test_leibniz_product_rule(self):
        # (f V)^i derivatives must satisfy the product rule in every kind
        f_ast = parse("sin(x1) + t * y2", N)

        def vfn(z):
            t, x1, x2, y1, y2 = z
            return stacked(x2 + y1 * y1, t * x1)

        def scal(z):
            return f_ast.evaluate(z)

        def prod(z):
            return f_ast.evaluate(z) * vfn(z)

        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        z = p.as_array()
        for kind in ("time", "space", "vert"):
            lhs = covariant_derivative(prod, (SU,), p, cart, nl, kind)
            df = covariant_derivative(scal, (), p, cart, nl, kind)
            dv = covariant_derivative(vfn, (SU,), p, cart, nl, kind)
            rhs = np.einsum("p,i->ip", df, vfn(z)) + f_ast.evaluate(z) * dv
            np.testing.assert_allclose(lhs, rhs, atol=1e-7)

    def test_scalar_space_matches_adapted(self):
        # a scalar takes no connection correction in any kind
        field = scalar_field("t * sin(x1) * y2")
        cart, nl = rand_cartan(), rand_nl()
        p = rand_point()
        for kind in KINDS:
            cov = covariant_derivative(field, (), p, cart, nl, kind)
            np.testing.assert_allclose(cov, adapted(field, p, nl, kind),
                                       rtol=0, atol=1e-10)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            add_connection_terms(np.zeros(1), np.zeros(()), (), zero_cartan(),
                                 "??")


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
        _, tp, ts = ch.t_jet(0.5)
        assert tp == pytest.approx(np.exp(0.5))
        assert ts == pytest.approx(np.exp(0.5))
        assert ch.t_jet(1.2)[0] == pytest.approx(np.exp(1.2))

    def test_degenerate_tprime(self):
        ch = ChartMap(parse("t^2", N), np.eye(N), np.zeros(N))
        with pytest.raises(ChartError, match="dt~/dt = 0.0 at t = 0.0"):
            ch.t_jet(0.0)


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
        T = RNG.uniform(-1, 1, (N, N))
        U = RNG.uniform(-1, 1, N)
        V = RNG.uniform(-1, 1, N)
        before = np.einsum("ij,i,j->", T, U, V)
        after = np.einsum(
            "ij,i,j->",
            transform_tensor(T, (SD, SD), ch, p),
            transform_tensor(U, (SU,), ch, p),
            transform_tensor(V, (SU,), ch, p),
        )
        assert after == pytest.approx(before, rel=1e-12)

        Wd = RNG.uniform(-1, 1, N)
        Xu = RNG.uniform(-1, 1, N)
        s1 = (transform_tensor(Wd, (VD,), ch, p)
              @ transform_tensor(Xu, (SlotKind.VERT_UP,), ch, p))
        assert s1 == pytest.approx(Wd @ Xu, rel=1e-12)

    @pytest.mark.parametrize("law", [
        lambda ch, p: transform_point(ch, p),
        lambda ch, p: transform_temporal_spray(np.ones(N), ch, p),
        lambda ch, p: transform_spatial_spray(np.ones(N), ch, p),
        lambda ch, p: transform_nonlinear(zero_nl(), ch, p),
        lambda ch, p: transform_tensor(np.ones((N, 1)), (SU, TD), ch, p),
    ], ids=["point", "temporal_spray", "spatial_spray", "nonlinear",
            "tensor"])
    def test_each_law_makes_one_fused_evaluation(self, monkeypatch, law):
        # tau, tau' and tau'' are one field group, built with the chart
        ch = exp_chart(seed=11)
        evals = count_calls(monkeypatch, evaluate_fields, dtensor)
        derivs = count_calls(monkeypatch, ScalarField.differentiate,
                             ScalarField)
        for k in range(3):
            law(ch, rand_point())
            assert (len(evals), len(derivs)) == (k + 1, 0)

    def test_time_slots_scale(self):
        ch = exp_chart(seed=5)
        p = rand_point()
        tp = ch.t_jet(p.t)[1]
        up = transform_tensor(np.array([2.0]), (SlotKind.TIME_UP,), ch, p)
        dn = transform_tensor(np.array([2.0]), (TD,), ch, p)
        assert up[0] == pytest.approx(2.0 * tp)
        assert dn[0] == pytest.approx(2.0 / tp)

    def test_round_trip_through_inverse_chart(self):
        ch = exp_chart(seed=29)
        inv = ChartMap(parse("log(t)", N), ch.A_inv, -ch.A_inv @ ch.c,
                       t_inverse=parse("exp(t)", N))
        p = rand_point()
        q = transform_point(ch, p)
        back = transform_point(inv, q)
        np.testing.assert_allclose(back.as_array(), p.as_array(), atol=1e-12)
        sig = (SU, VD, SlotKind.TIME_UP)
        v = RNG.uniform(-1, 1, (N, N, 1))
        there = transform_tensor(v, sig, ch, p)
        home = transform_tensor(there, sig, inv, q)
        np.testing.assert_allclose(home, v, atol=1e-12)


    def test_components_must_match_the_signature(self):
        ch = exp_chart()
        for arr, sig in ((np.zeros(2), (SlotKind.TIME_UP,)),
                         (np.zeros((2, 2)), (SU,))):
            with pytest.raises(ValueError, match="does not match"):
                transform_tensor(arr, sig, ch, rand_point())


class TestCartanCoefficients:
    def test_vert_time_block(self):
        cart = rand_cartan()
        expect = cart.Gt - cart.H * np.eye(N)
        np.testing.assert_allclose(cart.vert_time(), expect)
