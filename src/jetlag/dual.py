"""Forward-mode dual numbers over numpy arrays.

A :class:`Dual` holds a value and a tangent: ``tan`` has a leading axis
over the seeded directions, then the value's shape, so ``tan[i]`` is the
derivative of the value along direction i.  ``dtensor.adapted_gradient``
seeds a point with the identity tangent, calls its point function once and
reads the tangents off what it returns (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008).

Duals nest: the value and tangent of a Dual may be Duals themselves, so a
dual of duals carries second derivatives.  Each Dual has a depth, one more
than the deepest of its parts; in an operation, the operands of the
highest depth are differentiated and any shallower operand is a constant
at that level.

The dual-transparency contract: a function differentiated this way must
build its arrays from the point it is given using only arithmetic
(+, -, *, /, @), indexing, ``reshape``, ``transpose``, ``swapaxes``,
``copy`` and ``.T``, and the numpy functions ``einsum``, ``transpose``,
``swapaxes`` and ``linalg.inv``.  ``float()``, ``np.array([...])`` of
entries and ``math`` functions would drop the tangent, so they raise a
TypeError that names this contract, as ``**`` and any other numpy
function do; a ufunc (``np.sin``) raises numpy's own TypeError.  Only
``np.asarray(dual, dtype=...)`` converts, to the innermost value, for
callers that want the base point.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["Dual", "CONTRACT", "depth", "base", "as_array", "scalar"]

CONTRACT = ("a differentiated point function must be dual-transparent: "
            "build its arrays from the point with +, -, *, /, @, indexing, "
            "einsum, transpose, swapaxes and linalg.inv only, and return "
            "arrays that carry the point's tangent (see jetlag.dual)")


def depth(x) -> int:
    """Nesting depth of x: 0 for anything that is not a Dual."""
    return x.depth if isinstance(x, Dual) else 0


def base(x):
    """The innermost value of x (x itself when it is not a Dual)."""
    while isinstance(x, Dual):
        x = x.val
    return x


_FLOAT = np.dtype(float)


def as_array(x):
    """x as a float array, or x itself when it is a Dual.  A sequence of
    Duals raises through ``Dual.__array__``: it asks for no dtype."""
    if isinstance(x, Dual):
        return x
    a = np.asarray(x)
    return a if a.dtype is _FLOAT else a.astype(float)


def scalar(x):
    """x as a float, or x itself when it is a Dual."""
    return x if isinstance(x, Dual) else float(x)


def _refuse(*args, **kwargs):
    raise TypeError(CONTRACT)


def _shape(x) -> tuple:
    return getattr(x, "shape", ())


def _split(x, level: int):
    """(value, tangent) of x at this depth; the tangent is None for an
    operand that is constant there."""
    if isinstance(x, Dual) and x.depth == level:
        return x.val, x.tan
    return x, None


def _lift(t, ndim: int):
    """Tangent t with singleton axes after its leading one, so that it
    broadcasts against a value of ndim axes."""
    extra = ndim + 1 - t.ndim
    if extra <= 0:
        return t
    return t.reshape((t.shape[0],) + (1,) * extra + t.shape[1:])


def _broadcast(x, shape: tuple):
    """x, an array or a Dual, broadcast to shape."""
    if x.shape == shape:
        return x
    if isinstance(x, Dual):
        return Dual(_broadcast(x.val, shape),
                    _broadcast(x.tan, x.tan.shape[:1] + shape), x.depth)
    return np.broadcast_to(x, shape)


def _add(x, y, sign: float):
    if type(x) is Dual and type(y) is Dual and x.depth == y.depth \
            and x.shape == y.shape:
        # the direct route: both differentiated, nothing to broadcast
        if sign > 0:
            return Dual(x.val + y.val, x.tan + y.tan, x.depth)
        return Dual(x.val - y.val, x.tan - y.tan, x.depth)
    level = max(depth(x), depth(y))
    xv, xt = _split(x, level)
    yv, yt = _split(y, level)
    val = xv + yv if sign > 0 else xv - yv
    nd = len(_shape(val))
    if yt is not None:
        yt = _lift(yt, nd) if sign > 0 else -_lift(yt, nd)
    if xt is None:
        tan = yt
    elif yt is None:
        tan = _lift(xt, nd)
    else:
        tan = _lift(xt, nd) + yt
    return Dual(val, _broadcast(tan, tan.shape[:1] + _shape(val)), level)


def _mul(x, y):
    # the direct route for a Python float scaling a Dual
    if type(x) is float:
        return Dual(x * y.val, x * y.tan, y.depth)
    if type(y) is float:
        return Dual(x.val * y, x.tan * y, x.depth)
    level = max(depth(x), depth(y))
    xv, xt = _split(x, level)
    yv, yt = _split(y, level)
    val = xv * yv
    nd = len(_shape(val))
    tan = None if xt is None else _lift(xt, nd) * yv
    if yt is not None:
        term = xv * _lift(yt, nd)
        tan = term if tan is None else tan + term
    return Dual(val, tan, level)


def _div(x, y):
    level = max(depth(x), depth(y))
    xv, xt = _split(x, level)
    yv, yt = _split(y, level)
    val = xv / yv
    nd = len(_shape(val))
    tan = None if xt is None else _lift(xt, nd) / yv
    if yt is not None:
        term = (val * _lift(yt, nd)) / yv
        tan = -term if tan is None else tan - term
    return Dual(val, tan, level)


def _matmul(x, y):
    level = max(depth(x), depth(y))
    xv, xt = _split(x, level)
    yv, yt = _split(y, level)
    val = xv @ yv
    # the tangents take a vector operand as a one-row or one-column matrix,
    # so that the leading tangent axis batches like any other
    vx, vy = len(_shape(xv)) == 1, len(_shape(yv)) == 1
    if vx:
        xv, xt = xv[None], (None if xt is None else xt[:, None])
    if vy:
        yv, yt = yv[:, None], (None if yt is None else yt[..., None])
    nd = max(len(_shape(xv)), len(_shape(yv)))
    tan = None if xt is None else _lift(xt, nd) @ yv
    if yt is not None:
        term = xv @ _lift(yt, nd)
        tan = term if tan is None else tan + term
    if vx:
        tan = tan[..., 0, :]
    if vy:
        tan = tan[..., 0]
    return Dual(val, tan, level)


class Dual:
    """A value with a tangent of shape (k,) + value shape; see the module
    docstring for the operations it supports."""

    __slots__ = ("val", "tan", "depth")
    # numpy defers every binary operator to the Dual's reflected method
    __array_ufunc__ = None

    def __init__(self, val, tan, level=None):
        self.val = val
        self.tan = tan
        # an operation passes the depth it already knows
        self.depth = 1 + max(depth(val), depth(tan)) if level is None \
            else level

    # -- array protocol ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return _shape(self.val)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self):
        return len(self.val)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return Dual(self.val[key], self.tan[(slice(None),) + key],
                    self.depth)

    def reshape(self, *shape):
        shape = shape[0] if len(shape) == 1 else shape
        val = self.val.reshape(shape)
        return Dual(val, self.tan.reshape((self.tan.shape[0],) + _shape(val)),
                    self.depth)

    def transpose(self, *axes):
        axes = axes[0] if len(axes) == 1 else axes
        nd = self.ndim
        axes = tuple(reversed(range(nd))) if axes in (None, ()) \
            else tuple(a % nd for a in axes)
        return Dual(self.val.transpose(axes),
                    self.tan.transpose((0,) + tuple(a + 1 for a in axes)),
                    self.depth)

    @property
    def T(self):
        return self.transpose()

    def swapaxes(self, a, b):
        nd = self.ndim
        return Dual(self.val.swapaxes(a, b),
                    self.tan.swapaxes(a % nd + 1, b % nd + 1), self.depth)

    def copy(self):
        return Dual(self.val.copy(), self.tan.copy(), self.depth)

    def tobytes(self) -> bytes:
        """The bytes of every leaf, value first: a cache key."""
        return self.val.tobytes() + self.tan.tobytes()

    def __array__(self, dtype=None, copy=None):
        # only an explicit request for a dtype converts, to the base value
        if dtype is None:
            raise TypeError(CONTRACT)
        return np.asarray(base(self), dtype=dtype)

    def __array_function__(self, func, types, args, kwargs):
        impl = _FUNCTIONS.get(func)
        if impl is None:
            raise TypeError(f"numpy.{func.__name__} on a Dual: {CONTRACT}")
        return impl(*args, **kwargs)

    __float__ = __int__ = __index__ = __bool__ = __pow__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = None

    def __repr__(self):
        return f"Dual(depth={self.depth}, base={base(self)!r})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        return _add(self, other, 1.0)

    def __radd__(self, other):
        return _add(other, self, 1.0)

    def __sub__(self, other):
        return _add(self, other, -1.0)

    def __rsub__(self, other):
        return _add(other, self, -1.0)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(other, self)

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __neg__(self):
        return Dual(-self.val, -self.tan, self.depth)


# -- the numpy functions a Dual supports --------------------------------------


@functools.lru_cache(maxsize=None)
def _tangent_subscripts(subscripts: str) -> tuple:
    """Per operand, the subscripts of the einsum that carries its tangent:
    the tangent axis takes a letter the subscripts do not use."""
    inputs, output = subscripts.replace(" ", "").split("->")
    specs = inputs.split(",")
    axis = next(c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ" if c not in subscripts)
    return tuple(",".join(axis + s if j == i else s
                          for j, s in enumerate(specs)) + f"->{axis}{output}"
                 for i in range(len(specs)))


def _einsum(subscripts, *operands):
    level = max(depth(op) for op in operands)
    parts = [_split(op, level) for op in operands]
    vals = [v for v, _ in parts]
    tan = None
    for i, ((_, t), spec) in enumerate(zip(parts,
                                           _tangent_subscripts(subscripts))):
        if t is None:
            continue
        term = np.einsum(spec, *vals[:i], t, *vals[i + 1:])
        tan = term if tan is None else tan + term
    return Dual(np.einsum(subscripts, *vals), tan, level)


def _inv(a):
    # d(A^-1) = -A^-1 dA A^-1
    level = depth(a)
    av, at = _split(a, level)
    inv = np.linalg.inv(av)
    return Dual(inv, -(inv @ at @ inv), level)


_FUNCTIONS = {
    np.einsum: _einsum,
    np.transpose: lambda a, axes=None: a.transpose(axes),
    np.swapaxes: lambda a, axis1, axis2: a.swapaxes(axis1, axis2),
    np.linalg.inv: _inv,
}
