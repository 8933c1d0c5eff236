"""Forward-mode dual numbers over numpy arrays.

A :class:`Dual` is one float array, ``stack``, whose leading ``depth``
axes are jet axes, outermost level first, and whose other axes are the
value's shape.  Along a jet axis, index 0 is the value part of that level
and 1..k are its k seeded directions.  So at depth 1 ``stack[0]`` is the
value and ``stack[1 + i]`` its derivative along direction i; at depth 2
``stack[0, 0]`` is the value, ``stack[1 + i, 0]`` and ``stack[0, 1 + j]``
its first derivatives along the outer and the inner directions, and
``stack[1 + i, 1 + j]`` the second derivative.  ``val`` and ``tan`` are
read-only views of the stack: the value part, and the tangent, with the
outer direction axis first and then the value's shape, each a Dual one
level shallower when nested.  ``dtensor.adapted_gradient`` seeds a point
as ``Dual(z, eye)``, calls its point function once and reads the tangents
off what it returns (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., SIAM 2008).

Each operation works on the stacks: a sum, a scaling, indexing,
``reshape``, ``transpose`` and ``copy`` are one numpy call each; a product
(``*``, ``/``, ``@``, ``linalg.inv``) applies its rule level by level, each
jet axis of an outer level acting as a batch axis of the inner ones.  The
Dual operands of an operation are differentiated and have one depth, and
a plain array is a constant.  Every value part comes from the operation
that computes it without the Dual, elementwise or as one matrix of a
batched matmul, so it has the same bits; an ``einsum`` takes its value
part and each operand's tangent term in separate calls, since an einsum
with an extra axis may sum in another order.  The package's own einsums,
float or dual, go through :func:`einsum`, and its inverses through
:func:`inv`.

The dual-transparency contract: a function differentiated this way must
build its arrays from the point it is given using only arithmetic
(+, -, *, /, @), indexing, ``reshape``, ``transpose``, ``copy`` and
``.T``, and the numpy functions ``einsum``, ``transpose``, ``swapaxes``
and ``linalg.inv``, on Duals of one depth.  ``float()``, ``np.array([...])``
of entries and ``math`` functions would drop the tangent, so they raise
a TypeError that names this contract, as ``**``, any other numpy
function and Duals of two depths in one operation do; a ufunc
(``np.sin``) raises numpy's own TypeError.  Only ``np.asarray(dual,
dtype=...)`` converts, to the innermost value, for callers that want the
base point.
"""

from __future__ import annotations

import functools

import numpy as np

try:
    # what np.einsum runs (its default is optimize=False), without the
    # Python wrapper and dispatch that cost as much as the contraction on
    # arrays of a few entries
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:     # numpy 1.x
    _c_einsum = np.einsum

try:
    # the LAPACK kernel np.linalg.inv runs and the callback with which its
    # error state raises LinAlgError, without the wrapper's checks and
    # casts, which cost as much as the kernel on a block of a few entries
    from numpy.linalg._linalg import _raise_linalgerror_singular
    from numpy.linalg._umath_linalg import inv as _inv_kernel
except ImportError:     # another numpy layout: np.linalg.inv, which sets
    _inv_kernel = np.linalg.inv     # its own error state inside this one
    _INV_STATE = {"over": "ignore", "divide": "ignore", "under": "ignore"}
else:
    # np.linalg.inv's error state: a singular block raises LinAlgError, and
    # an overflow, a division by zero or an underflow is silent
    _INV_STATE = {"call": _raise_linalgerror_singular, "invalid": "call",
                  "over": "ignore", "divide": "ignore", "under": "ignore"}

try:
    # _error_state(**kwargs) is the function that enters
    # np.errstate(**kwargs) and returns what _exit_state takes to leave it:
    # numpy's error-state object, made once and set and reset around each
    # use, since building an np.errstate per call costs half as much as
    # the inverse kernel on a block of a few entries
    from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
except ImportError:     # another numpy layout: an np.errstate per call
    def _error_state(**kwargs):
        def enter():
            state = np.errstate(**kwargs)
            state.__enter__()
            return state
        return enter

    def _exit_state(state):
        state.__exit__(None, None, None)
else:
    def _error_state(**kwargs):
        return functools.partial(_extobj_contextvar.set,
                                 _make_extobj(**kwargs))

    _exit_state = _extobj_contextvar.reset

_enter_inv_state = _error_state(**_INV_STATE)
# for arithmetic whose caller checks its result for overflow itself
_enter_quiet_state = _error_state(over="ignore", invalid="ignore")

__all__ = ["Dual", "CONTRACT", "depth", "base", "as_array", "scalar",
           "einsum", "inv"]

CONTRACT = ("a differentiated point function must be dual-transparent: "
            "build its arrays from the point with +, -, *, /, @, indexing, "
            "einsum, transpose, swapaxes and linalg.inv only, and return "
            "arrays that carry the point's tangent (see jetlag.dual)")


def depth(x) -> int:
    """Nesting depth of x: 0 for anything that is not a Dual."""
    return x.depth if isinstance(x, Dual) else 0


def base(x):
    """The innermost value of x (x itself when it is not a Dual)."""
    return x.stack[(0,) * x.depth] if isinstance(x, Dual) else x


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


_ALL = slice(None)


def _wrap(stack, level: int) -> "Dual":
    """The Dual of depth level over stack; the one constructor of the
    operations."""
    x = object.__new__(Dual)
    x.stack = stack
    x.depth = level
    return x


def _lift(stack, level: int, nd: int):
    """stack with singleton value axes after its jet axes, so that it
    broadcasts against a value of nd axes."""
    extra = nd + level - stack.ndim
    if extra <= 0:
        return stack
    return stack.reshape(stack.shape[:level] + (1,) * extra
                         + stack.shape[level:])


def _ndim(c) -> int:
    """The number of axes of a plain operand (np.ndim is slow on floats)."""
    return 0 if type(c) is float else np.ndim(c)


def _common(*operands) -> int:
    """The one depth of the Dual operands, or the contract's TypeError
    when they have two."""
    level = 0
    for op in operands:
        if type(op) is Dual:
            if level and op.depth != level:
                raise TypeError(f"Duals of depths {level} and {op.depth} "
                                f"in one operation: {CONTRACT}")
            level = op.depth
    return level


def _align(x, y):
    """The stacks of two Duals of one depth, lifted to one value rank."""
    xs, ys, d = x.stack, y.stack, x.depth
    if xs.ndim < ys.ndim:
        xs = _lift(xs, d, ys.ndim - d)
    elif ys.ndim < xs.ndim:
        ys = _lift(ys, d, xs.ndim - d)
    return xs, ys


@functools.lru_cache(maxsize=None)
def _slices(level: int, top: int) -> tuple:
    """The indices of the value slot and of the tangent slots of jet axis
    level of a stack with top jet axes.  The value slot keeps its axis, as
    the batch axes of the levels below need; at depth 1 it drops it, so
    that a scalar's value is a numpy scalar."""
    if top == 1:
        return 0, slice(1, None)
    head = (_ALL,) * level
    return head + (slice(0, 1),), head + (slice(1, None),)


def _rule(op, x, y, level: int, top: int):
    """The bilinear op (multiply or matmul) of the stacks x and y by the
    product rule over their jet axes level..top-1; the axes before level
    are batch axes.  Per level, one call gives the value and the first
    operand's tangent, and the second operand's tangent is added."""
    if level == top:
        return op(x, y)
    value, tangent = _slices(level, top)
    out = _rule(op, x, y[value], level + 1, top)
    tan = out[tangent]
    tan += _rule(op, x[value], y[tangent], level + 1, top)
    return out


def _quotient(x, y, level: int, top: int):
    """x / y of the stacks by the quotient rule: the derivative of x / y
    is dx / y - (x / y) dy / y."""
    if level == top:
        return x / y
    value, tangent = _slices(level, top)
    y0 = y[value]
    out = _quotient(x, y0, level + 1, top)
    tan = out[tangent]
    tan -= _quotient(_rule(np.multiply, out[value], y[tangent], level + 1,
                           top), y0, level + 1, top)
    return out


def _reciprocal(c, y, level: int, top: int):
    """c / y for a constant c and the stack y: the derivative is
    -(c / y) dy / y.  The rule runs over the whole stack, and the value
    slot it fills is then overwritten."""
    if level == top:
        return c / y
    value = _slices(level, top)[0]
    y0 = y[value]
    val = _reciprocal(c, y0, level + 1, top)
    out = _quotient(_rule(np.multiply, val, y, level + 1, top), y0,
                    level + 1, top)
    np.negative(out, out=out)
    out[value] = val
    return out


def _inverse(a, level: int, top: int):
    """The matrix inverse of the stack a: the derivative of A^-1 is
    -A^-1 dA A^-1, taken over the whole stack as in _reciprocal."""
    if level == top:
        return inv(a)
    value = _slices(level, top)[0]
    a_inv = _inverse(a[value], level + 1, top)
    out = _rule(np.matmul, _rule(np.matmul, a_inv, a, level + 1, top), a_inv,
                level + 1, top)
    np.negative(out, out=out)
    out[value] = a_inv
    return out


def _add(x, y, sign: float = 1.0):
    if type(x) is not Dual or type(y) is not Dual or x.depth != y.depth:
        return _add_constant(x, y, sign, _common(x, y))
    xs, ys = x.stack, y.stack
    if xs.ndim != ys.ndim:
        xs, ys = _align(x, y)
    return _wrap(xs + ys if sign > 0 else xs - ys, x.depth)


def _add_constant(x, y, sign: float, level: int):
    """x + y or x - y where one operand is plain: it moves the value part
    only, which is computed as on floats."""
    dual, const = (x, y) if type(x) is Dual else (y, x)
    s, v = dual.stack, dual.stack[(0,) * level]
    if sign > 0:
        value = v + const if dual is x else const + v
    else:
        value = v - const if dual is x else const - v
        s = s if dual is x else -s
    out = np.empty(s.shape[:level] + np.shape(value))
    out[...] = _lift(s, level, np.ndim(value))
    out[(0,) * level] = value
    return _wrap(out, level)


def _mul(x, y):
    if type(x) is Dual and type(y) is Dual and x.depth == y.depth:
        xs, ys = _align(x, y)
        return _wrap(_rule(np.multiply, xs, ys, 0, x.depth), x.depth)
    # the direct route for a Python float scaling a Dual
    if type(x) is float:
        return _wrap(x * y.stack, y.depth)
    if type(y) is float:
        return _wrap(x.stack * y, x.depth)
    level = _common(x, y)
    if type(x) is not Dual:
        return _wrap(x * _lift(y.stack, level, _ndim(x)), level)
    return _wrap(_lift(x.stack, level, _ndim(y)) * y, level)


def _div(x, y):
    level = _common(x, y)
    if type(y) is not Dual:
        return _wrap(_lift(x.stack, level, _ndim(y)) / y, level)
    if type(x) is not Dual:
        return _wrap(_reciprocal(x, _lift(y.stack, level, _ndim(x)),
                                 0, level), level)
    xs, ys = _align(x, y)
    return _wrap(_quotient(xs, ys, 0, level), level)


def _matmul(x, y):
    level = _common(x, y)
    xs = x.stack if type(x) is Dual else x
    ys = y.stack if type(y) is Dual else y
    nx = _ndim(x) if xs is x else x.ndim
    ny = _ndim(y) if ys is y else y.ndim
    # a vector operand is a one-row or one-column matrix, so that the jet
    # axes batch like any other
    vx, vy = nx == 1, ny == 1
    if vx:
        xs, nx = xs[..., None, :], 2
    if vy:
        ys, ny = ys[..., None], 2
    # only a stack has jet axes to keep clear of the other's value axes
    if type(x) is Dual:
        xs = _lift(xs, level, ny)
    if type(y) is Dual:
        ys = _lift(ys, level, nx)
    if type(x) is Dual and type(y) is Dual:
        out = _rule(np.matmul, xs, ys, 0, level)
    else:
        out = xs @ ys
    if vx:
        out = out[..., 0, :]
    if vy:
        out = out[..., 0]
    return _wrap(out, level)


class Dual:
    """One array of jet axes, then the value's shape; see the module
    docstring for the layout and the operations it supports."""

    __slots__ = ("stack", "depth")
    # numpy defers every binary operator to the Dual's reflected method
    __array_ufunc__ = None

    def __init__(self, val, tan):
        """The Dual with value part val and tangent tan, a plain array whose
        leading axis runs over the seeded directions; when val is a Dual,
        tan is a constant at its levels (its derivatives there are zero)."""
        inner = depth(val)
        stack = np.zeros((1 + len(tan),) + (val.stack.shape if inner
                                            else np.shape(val)))
        stack[0] = val.stack if inner else val
        stack[(slice(1, None),) + (0,) * inner] = tan
        self.stack = stack
        self.depth = inner + 1

    # -- array protocol ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.stack.shape[self.depth:]

    @property
    def ndim(self) -> int:
        return self.stack.ndim - self.depth

    @property
    def val(self):
        """The value part: a read-only view of the stack."""
        return _read_only(_part(self.stack, self.depth, False))

    @property
    def tan(self):
        """The tangent, seeded directions first: a read-only view of the
        stack."""
        return _read_only(_part(self.stack, self.depth, True))

    def __len__(self):
        return len(base(self))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return _wrap(self.stack[(_ALL,) * self.depth + key], self.depth)

    def reshape(self, *shape):
        shape = shape[0] if len(shape) == 1 else shape
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return _wrap(self.stack.reshape(self.stack.shape[:self.depth]
                                        + shape), self.depth)

    def transpose(self, *axes):
        axes = axes[0] if len(axes) == 1 else axes
        nd, d = self.ndim, self.depth
        axes = reversed(range(nd)) if axes in (None, ()) \
            else (a % nd for a in axes)
        return _wrap(self.stack.transpose((*range(d), *(a + d for a in axes))),
                     d)

    @property
    def T(self):
        return self.transpose()

    def copy(self):
        return _wrap(self.stack.copy(), self.depth)

    def tobytes(self) -> bytes:
        """The bytes of the stack: a cache key."""
        return self.stack.tobytes()

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

    __add__ = _add

    def __radd__(self, other):
        return _add(other, self, 1.0)

    def __sub__(self, other):
        return _add(self, other, -1.0)

    def __rsub__(self, other):
        return _add(other, self, -1.0)

    __mul__ = _mul

    def __rmul__(self, other):
        return _mul(other, self)

    __truediv__ = _div

    def __rtruediv__(self, other):
        return _div(other, self)

    __matmul__ = _matmul

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __neg__(self):
        return _wrap(-self.stack, self.depth)


def _move(a: np.ndarray, source: int, target: int) -> np.ndarray:
    """a with its axis source moved to target (a view)."""
    if source == target:
        return a
    axes = list(range(a.ndim))
    axes.insert(target, axes.pop(source))
    return a.transpose(axes)


def _join(val, tan, level: int) -> np.ndarray:
    """The stack of the given level with value part val and tangent tan,
    arrays at level 1 and Duals one level shallower above it."""
    if level > 1:
        val, tan = val.stack, _move(tan.stack, level - 1, 0)
    return np.concatenate((val[None], tan))


def _part(stack: np.ndarray, level: int, tangent: bool):
    """The value part or the tangent of a stack of this level, as ``val``
    and ``tan`` return them: an array at level 1, a Dual one level
    shallower above it."""
    part = _move(stack[1:], 0, level - 1) if tangent else stack[0, ...]
    return _wrap(part, level - 1) if level > 1 else part


def _read_only(part):
    """part, an array or a Dual over a view of a stack, made read-only."""
    (part.stack if type(part) is Dual else part).setflags(write=False)
    return part


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
    """The value part and each operand's tangent term as separate einsums:
    an einsum with an extra axis may sum in another order."""
    level = _common(*operands)
    # a nested operand's parts are Duals, one level shallower
    einsum = _einsum if level > 1 else _c_einsum
    vals = [_part(op.stack, level, False) if type(op) is Dual else op
            for op in operands]
    tan = None
    for i, (op, spec) in enumerate(zip(operands,
                                       _tangent_subscripts(subscripts))):
        if type(op) is Dual:
            term = einsum(spec, *vals[:i], _part(op.stack, level, True),
                          *vals[i + 1:])
            if tan is None:
                tan = term
            else:
                tan += term
    return _wrap(_join(einsum(subscripts, *vals), tan, level), level)


def einsum(subscripts, *operands):
    """``np.einsum(subscripts, *operands)`` with its bits: a Dual operand
    takes the product rule, and plain operands go straight to numpy's own
    ``optimize=False`` kernel, without the wrapper and the dispatch."""
    for op in operands:
        if type(op) is Dual:
            return _einsum(subscripts, *operands)
    return _c_einsum(subscripts, *operands)


def _swapaxes(a, axis1, axis2):
    nd, d = a.ndim, a.depth
    return _wrap(a.stack.swapaxes(axis1 % nd + d, axis2 % nd + d), d)


def inv(a, scale=None):
    """``np.linalg.inv(a)`` with its bits and its LinAlgError.  A float
    block goes straight to numpy's LAPACK kernel, in the error state that
    np.linalg.inv sets, and a Dual takes the rule of ``_inverse``, whose
    innermost level is that float inverse.  Given a scale, it returns the
    pair (scale * a, its inverse): at a float block the product is formed
    in the same error state, so that an entry that overflows is an inf
    and no numpy warning, and the scale costs the product alone."""
    if type(a) is Dual or type(scale) is Dual:
        if scale is not None:
            a = scale * a
        inverse = _wrap(_inverse(a.stack, 0, a.depth), a.depth)
    else:
        state = _enter_inv_state()
        try:
            if scale is not None:
                a = scale * a
            inverse = _inv_kernel(a)
        finally:
            _exit_state(state)
    return inverse if scale is None else (a, inverse)


_FUNCTIONS = {
    np.einsum: _einsum,
    np.transpose: lambda a, axes=None: a.transpose(axes),
    np.swapaxes: _swapaxes,
    np.linalg.inv: inv,
}
