"""The dual type against floats and finite differences of the same code.

Each case is a function of a point built only from operations a Dual
supports, and together the cases run every operation of the contract
(``jetlag.dual.CONTRACT``, plus ``reshape``, ``copy``, ``.T`` and
negation).  At a seeded point of depth 1 or 2 the value part must be the
float result bit for bit; at depth 1 the tangent must be the
finite-difference gradient, and at depth 2 the tangent of the tangent the
finite-difference Hessian.  The cases mix shapes so that broadcasting,
vector operands of @ and constants of a shallower level are exercised.
"""

import operator

import numpy as np
import pytest

from helpers import fd_partial
from jetlag import cli, dual, expr, fields
from jetlag.dual import Dual

Z = np.array([0.3, -0.7, 0.5, 1.1])
A0 = np.array([[1.5, 0.2], [-0.3, 0.9]])
C = np.array([0.4, -1.2])
EYE = np.eye(len(Z))

CASES = {
    "scalar plus matrix": lambda q: q[0] * q[1] + A0,
    "matrix minus scalar": lambda q: A0 - q[2] * q[2],
    "sum and difference": lambda q: (q[0:2] + q[2:4]) - q[1:3] * q[3],
    "negation": lambda q: -(q[0:2] * q[1]) - 1.0,
    "matrix times vector": lambda q: (A0 * q[0]) @ q[1:3],
    "vector times matrix": lambda q: q[2:4] @ (A0 + q[3]),
    "vector dot vector": lambda q: q[0:2] @ q[2:4],
    "constant matrix times vector": lambda q: A0 @ q[1:3] + q[0:2] @ A0,
    "matrix times constant vector": lambda q: (A0 * q[0]) @ C + q[0:2] @ C,
    "constant vector times matrix": lambda q: C @ (A0 * q[1]) + C @ q[2:4],
    "batched matmul": lambda q: (q[0:2][:, None, None] * A0) @ (A0 * q[2]),
    "quotient": lambda q: q[0:2] / (2.0 + q[2] * q[3]),
    "quotient by a constant": lambda q: (q[0:2] * q[3]) / A0,
    "reciprocal": lambda q: 1.0 / (1.5 + q[0:2] * q[1]),
    "inverse": lambda q: np.linalg.inv(A0 + q[0:2][:, None] * q[2:4]),
    "inverse through dual.inv": lambda q: dual.inv(A0 * q[1] + q[0:2]),
    "scaled inverse": lambda q: dual.inv(A0 + q[0:2], q[3])[1],
    "einsum": lambda q: np.einsum("i,ij,j->", q[0:2], A0 * q[3], q[2:4]),
    "einsum trace": lambda q: np.einsum("ii->i", q[0:2][:, None] * q[1:3]),
    "einsum with a constant": lambda q: np.einsum("ij,jk->ik", A0,
                                                  q[0:2][:, None] * q[2:4]),
    "transpose and swapaxes": lambda q: np.swapaxes(
        q[0:2][:, None, None] * (A0 * q[1]).T + q[2:4][:, None] * q[0:2],
        0, 2),
    "transposes": lambda q: np.transpose(
        (q[0:2][:, None, None] * (A0 * q[1])).transpose((1, 2, 0)), (2, 0, 1)),
    "indexing": lambda q: (q[:, None] * q)[[0, 2], 1:][..., None],
    "reshape and copy": lambda q: ((q[:, None] * q).reshape(-1)[3:9]
                                   .reshape(2, 3).copy() * q[1]),
    "power": lambda q: q[0:3] * q[0:3] * q[0:3] - 2.0 * q[3] * q[3],
}


def _point(depth):
    q = Z
    for _ in range(depth):
        q = Dual(q, EYE)
    return q


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", CASES)
def test_value_part_is_the_float_result_bit_for_bit(name, depth):
    fn = CASES[name]
    out = fn(_point(depth))
    assert out.depth == depth
    assert _bits(out) == _bits(fn(Z))


@pytest.mark.parametrize("name", CASES)
def test_first_order_tangent_is_the_gradient(name):
    fn = CASES[name]
    out = fn(_point(1))
    fd = np.stack([fd_partial(fn, Z, a) for a in range(len(Z))])
    np.testing.assert_allclose(out.tan, fd, rtol=1e-8, atol=1e-9)


def _grad(fn, q):
    return fn(Dual(q, EYE)).tan


@pytest.mark.parametrize("name", CASES)
def test_nested_tangent_is_the_hessian(name):
    fn = CASES[name]
    out = fn(_point(2))
    np.testing.assert_allclose(out.val.tan, _grad(fn, Z), rtol=1e-14,
                               atol=1e-14)
    np.testing.assert_allclose(out.tan.val, _grad(fn, Z), rtol=1e-14,
                               atol=1e-14)
    fd = np.stack([fd_partial(lambda q: _grad(fn, q), Z, a)
                   for a in range(len(Z))])
    np.testing.assert_allclose(out.tan.tan, fd, rtol=1e-7, atol=1e-8)


BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "@": operator.matmul,
    "einsum": lambda a, b: np.einsum("ij,jk->ik", a, b),
}


def _outer(q):
    return A0 + q[0:2][:, None] * q[2:4]


def _inner(q):
    return A0 * q[3] + q[1]


@pytest.mark.parametrize("inner_first", [False, True])
@pytest.mark.parametrize("op", BINARY)
def test_a_depth1_operand_inside_a_depth2_operation(op, inner_first):
    # the level-1 point is a constant for the level-2 point seeded on top
    # of it: the outer tangent moves only the level-2 operand
    apply = BINARY[op]

    def fn(outer, inner):
        return apply(inner, outer) if inner_first else apply(outer, inner)

    inner = Dual(Z, EYE)
    out = fn(_outer(Dual(inner, EYE)), _inner(inner))
    assert out.depth == 2
    assert _bits(out) == _bits(fn(_outer(Z), _inner(Z)))

    def outer_grad(q):
        # the derivative along the outer directions with the inner point q
        return fn(_outer(Dual(q, EYE)), _inner(q)).tan

    np.testing.assert_allclose(out.tan.val, outer_grad(Z), rtol=1e-14,
                               atol=1e-14)
    np.testing.assert_allclose(out.val.tan,
                               _grad(lambda q: fn(_outer(q), _inner(q)), Z),
                               rtol=1e-14, atol=1e-14)
    fd = np.stack([fd_partial(outer_grad, Z, a) for a in range(len(Z))])
    np.testing.assert_allclose(out.tan.tan, fd, rtol=1e-7, atol=1e-8)


def test_a_shallower_operand_is_a_constant():
    # the level-1 point is a constant inside a function of the level-2
    # point seeded on top of it: only the outer tangent moves
    inner = Dual(Z, EYE)
    outer = Dual(inner, EYE)
    out = outer[0] * inner[1]
    np.testing.assert_array_equal(out.tan.val, EYE[0] * Z[1])
    np.testing.assert_array_equal(out.val.tan, inner.tan[:, 0] * Z[1]
                                  + Z[0] * inner.tan[:, 1])


def test_the_float_tangent_seed_at_a_dual_point():
    # adapted_gradient seeds Dual(q, eye) at a dual point q (the nested
    # point of the conservation laws): the eye is the outer tangent, whose
    # own inner derivatives are zero
    inner = Dual(Z, EYE)
    point = Dual(inner, EYE)
    assert point.depth == 2 and point.stack.shape == (5, 5, 4)
    assert _bits(point.stack[0]) == _bits(inner.stack)
    assert _bits(point.stack[1:, 0]) == _bits(EYE)
    assert not point.stack[1:, 1:].any()
    np.testing.assert_array_equal(point.tan.val, EYE)
    np.testing.assert_array_equal(point.tan.tan, np.zeros((4, 4, 4)))


@pytest.mark.parametrize("depth", [1, 2])
def test_val_and_tan_are_read_only_views_of_the_stack(depth):
    out = CASES["batched matmul"](_point(depth))
    parts = (out.val, out.tan)
    arrays = [p.stack if isinstance(p, Dual) else p for p in parts]
    for a in arrays:
        assert np.shares_memory(a, out.stack)
        with pytest.raises(ValueError):
            a[...] = 0.0
    # the tangent puts the seeded directions first, then the value's shape
    tan = out.tan.val if depth == 2 else out.tan
    np.testing.assert_array_equal(tan, out.stack[(slice(1, None),)
                                                 + (0,) * (depth - 1)])


def test_only_an_explicit_dtype_converts_to_the_base_point():
    point = _point(2)
    np.testing.assert_array_equal(np.asarray(point, dtype=float), Z)
    for convert in (np.asarray, float, bool):
        with pytest.raises(TypeError, match="dual-transparent"):
            convert(point if convert is np.asarray else point[0])
    with pytest.raises(TypeError, match="dual-transparent"):
        np.concatenate([point, point])


def test_operations_the_engine_does_not_run_are_refused():
    point = _point(1)
    for op in (lambda q: np.moveaxis(q, 0, -1),
               lambda q: np.outer(q, q),
               lambda q: np.stack([q, q]),
               lambda q: q ** 3):
        with pytest.raises(TypeError, match="dual-transparent"):
            op(point)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_float_inverse_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    block = rng.standard_normal((n, n)) + n * np.eye(n)
    batch = rng.standard_normal((3, n, n)) + n * np.eye(n)
    for a in (block, batch):
        assert _bits(dual.inv(a)) == _bits(np.linalg.inv(a))
    scaled, inverse = dual.inv(block, 0.7)
    assert _bits(scaled) == _bits(0.7 * block)
    assert _bits(inverse) == _bits(np.linalg.inv(0.7 * block))


@pytest.mark.filterwarnings("error")
def test_a_singular_float_block_raises_numpys_error():
    for a in (np.zeros((2, 2)), np.ones((3, 3))):
        with pytest.raises(np.linalg.LinAlgError) as want:
            np.linalg.inv(a)
        with pytest.raises(np.linalg.LinAlgError) as got:
            dual.inv(a)
        assert str(got.value) == str(want.value)
    # a scaled product that overflows is an inf, with no warning
    scaled, inverse = dual.inv(np.full((2, 2), 1e300), 1e300)
    assert np.isinf(scaled).all()
    assert _bits(inverse) == _bits(np.linalg.inv(scaled))


@pytest.mark.parametrize("depth", [1, 2])
def test_the_dual_inverse_is_the_level_rule(depth):
    a = A0 * _point(depth)[1] + _point(depth)[0:2]
    got = dual.inv(a)
    assert got.depth == depth
    assert _bits(got.stack) == _bits(np.linalg.inv(a).stack)
    if depth == 1:
        # -A^-1 dA A^-1 on the tangents, with the value part A^-1
        value = np.linalg.inv(a.stack[0])
        want = -(value @ a.stack @ value)
        want[0] = value
        assert _bits(got.stack) == _bits(want)


def test_dual_work_counts_are_pinned(monkeypatch):
    # Dual objects made and numpy einsum kernel calls, deterministic counts
    # of the layer's work (the timings on a shared machine are not): one
    # connection-jets build and one conservation point of electrodynamics_l2
    # at its range midpoint, each on a fresh space whose float geometry is
    # already built.  The connection and curvature levels contract by @,
    # one product per jet level, so the jets make no einsum call; those
    # left at a conservation point are the slot rule's and the traces'
    made, kernel = [], []
    wrap, init, c_einsum = dual._wrap, Dual.__init__, dual._c_einsum

    def counted_wrap(stack, level):
        made.append(level)
        return wrap(stack, level)

    def counted_init(self, val, tan):
        made.append(None)
        init(self, val, tan)

    def counted_einsum(*args):
        kernel.append(None)
        return c_einsum(*args)

    monkeypatch.setattr(dual, "_wrap", counted_wrap)
    monkeypatch.setattr(expr, "_wrap", counted_wrap)
    monkeypatch.setattr(Dual, "__init__", counted_init)
    monkeypatch.setattr(dual, "_c_einsum", counted_einsum)

    def fresh():
        cfg = cli.load_config("electrodynamics_l2")
        z = cfg.ranges.mean(axis=1)
        cfg.space.geometry_at(z).cartan
        made.clear()
        kernel.clear()
        return cfg.space, z

    sp, z = fresh()
    sp.connection_jets(z)
    assert (len(made), len(kernel)) == (91, 0)
    sp, z = fresh()
    fields.conservation_residuals(sp, z)
    assert (len(made), len(kernel)) == (369, 76)
