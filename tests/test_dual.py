"""The dual type against finite differences of the same numpy code.

Each case is a function of a point built only from operations a Dual
supports; its tangent at a seeded point must be the finite-difference
gradient, and the tangent of its tangent at a nested point the
finite-difference Hessian.  The cases mix shapes so that broadcasting,
vector operands of @ and constants of a shallower level are exercised.
"""

import numpy as np
import pytest

from helpers import fd_partial
from jetlag.dual import Dual

Z = np.array([0.3, -0.7, 0.5, 1.1])
A0 = np.array([[1.5, 0.2], [-0.3, 0.9]])

CASES = {
    "scalar plus matrix": lambda q: q[0] * q[1] + A0,
    "matrix minus scalar": lambda q: A0 - q[2] * q[2],
    "matrix times vector": lambda q: (A0 * q[0]) @ q[1:3],
    "vector times matrix": lambda q: q[2:4] @ (A0 + q[3]),
    "vector dot vector": lambda q: q[0:2] @ q[2:4],
    "batched matmul": lambda q: (q[0:2][:, None, None] * A0) @ (A0 * q[2]),
    "quotient": lambda q: q[0:2] / (2.0 + q[2] * q[3]),
    "reciprocal": lambda q: 1.0 / (1.5 + q[0:2] * q[1]),
    "inverse": lambda q: np.linalg.inv(A0 + q[0:2][:, None] * q[2:4]),
    "einsum": lambda q: np.einsum("i,ij,j->", q[0:2], A0 * q[3], q[2:4]),
    "einsum trace": lambda q: np.einsum("ii->i", q[0:2][:, None] * q[1:3]),
    "transpose and swapaxes": lambda q: np.swapaxes(
        q[0:2][:, None, None] * (A0 * q[1]).T + q[2:4][:, None] * q[0:2],
        0, 2),
    "indexing": lambda q: (q[:, None] * q)[[0, 2], 1:][..., None],
    "power": lambda q: q[0:3] * q[0:3] * q[0:3] - 2.0 * q[3] * q[3],
}


def _point(depth):
    q = Z
    for _ in range(depth):
        q = Dual(q, np.eye(len(Z)))
    return q


@pytest.mark.parametrize("name", CASES)
def test_first_order_tangent_is_the_gradient(name):
    fn = CASES[name]
    out = fn(_point(1))
    assert out.depth == 1
    np.testing.assert_array_equal(out.val, fn(Z))
    fd = np.stack([fd_partial(fn, Z, a) for a in range(len(Z))])
    np.testing.assert_allclose(out.tan, fd, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("name", CASES)
def test_nested_tangent_is_the_hessian(name):
    fn = CASES[name]
    out = fn(_point(2))
    assert out.depth == 2

    def grad(q):
        return fn(Dual(q, np.eye(len(Z)))).tan

    # a tangent that no operation touched at the inner level stays a
    # plain array: its own derivative is zero
    tan = out.tan if isinstance(out.tan, Dual) \
        else Dual(out.tan, np.zeros((len(Z),) + out.tan.shape))
    np.testing.assert_allclose(out.val.tan, grad(Z), rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(tan.val, grad(Z), rtol=1e-14, atol=1e-14)
    fd = np.stack([fd_partial(grad, Z, a) for a in range(len(Z))])
    np.testing.assert_allclose(tan.tan, fd, rtol=1e-7, atol=1e-8)


def test_a_shallower_operand_is_a_constant():
    # the level-1 point is a constant inside a function of the level-2
    # point seeded on top of it: only the outer tangent moves
    inner = Dual(Z, np.eye(len(Z)))
    outer = Dual(inner, np.eye(len(Z)))
    out = outer[0] * inner[1]
    np.testing.assert_array_equal(out.tan.val, np.eye(len(Z))[0] * Z[1])
    np.testing.assert_array_equal(out.val.tan, inner.tan[:, 0] * Z[1]
                                  + Z[0] * inner.tan[:, 1])


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
