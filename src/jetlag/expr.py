"""Symbolic scalar expressions on jet coordinates (t, x1..xn, y1..yn).

A deliberately small expression language: the variables are the jet
coordinates of a curve (one time variable, n positions, n velocities),
the functions are a fixed whitelist, and differentiation is exact and
cached.  Nothing here knows about tensors; the rest of the package
builds on ScalarField evaluation and ScalarField.differentiate.

Variable indexing convention used throughout the package:
index 0 is t, indices 1..n are x1..xn, indices n+1..2n are y1..yn.
A multi-index is a tuple of 2n+1 derivative orders in that same order.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JetPoint",
    "ScalarField",
    "PartialTable",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "DerivativeOrderError",
    "parse",
    "differentiate",
    "jet_partials",
    "FUNCTIONS",
    "DEFAULT_MAX_ORDER",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
DEFAULT_MAX_ORDER = 5
_MAX_ORDER_ENV = "JETLAG_MAX_DERIV_ORDER"


def _max_order_default() -> int:
    raw = os.environ.get(_MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise ExprError(f"{_MAX_ORDER_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ExprError(f"{_MAX_ORDER_ENV} must be >= 1, got {value}")
    return value


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or name error, carrying 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class EvalDomainError(ExprError):
    """Evaluation left the function's domain; names the offending subexpression."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


class DerivativeOrderError(ExprError):
    """Requested derivative order exceeds the configured cap."""


# ---------------------------------------------------------------------------
# jet points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JetPoint:
    """A point (t, x^i, y^i) of the 1-jet space of curves in n dimensions."""

    t: float
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "t", float(self.t))
        if len(self.x) != len(self.y):
            raise ValueError(f"x has {len(self.x)} entries but y has {len(self.y)}")
        for v in (self.t, *self.x, *self.y):
            if not math.isfinite(v):
                raise ValueError("jet point coordinates must be finite")

    @property
    def n(self) -> int:
        return len(self.x)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, *self.x, *self.y], dtype=float)

    @classmethod
    def from_array(cls, z, n: int) -> "JetPoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * n + 1,):
            raise ValueError(f"expected {2 * n + 1} coordinates, got shape {z.shape}")
        return cls(float(z[0]), tuple(z[1 : n + 1]), tuple(z[n + 1 :]))


def _point_array(point, n: int) -> np.ndarray:
    """The (2n+1,) coordinate array of a JetPoint or array-like point."""
    if isinstance(point, JetPoint):
        if point.n != n:
            raise ValueError(f"point has n={point.n}, expected n={n}")
        return point.as_array()
    z = np.asarray(point, dtype=float)
    if z.shape != (2 * n + 1,):
        raise ValueError(f"expected {2 * n + 1} coordinates, got shape {z.shape}")
    return z


# ---------------------------------------------------------------------------
# AST nodes and conservative simplification
# ---------------------------------------------------------------------------


class Node:
    """Expression tree node.  Instances are immutable and never mutated."""

    __slots__ = ()

    def diff(self, var: int) -> "Node":
        raise NotImplementedError

    def substitute(self, mapping: dict[int, "Node"]) -> "Node":
        raise NotImplementedError

    def max_var(self) -> int:
        return -1

    def variables(self) -> set[int]:
        out: set[int] = set()
        self._collect_vars(out)
        return out

    def _collect_vars(self, out: set[int]) -> None:
        pass

    # operator sugar, used when assembling Lagrangians programmatically
    def __add__(self, other):
        return add(self, _as_node(other))

    def __radd__(self, other):
        return add(_as_node(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_node(other)))

    def __rsub__(self, other):
        return add(_as_node(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_node(other))

    def __rmul__(self, other):
        return mul(_as_node(other), self)

    def __truediv__(self, other):
        return div(self, _as_node(other))

    def __rtruediv__(self, other):
        return div(_as_node(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return power(self, exponent)


def _as_node(value) -> Node:
    if isinstance(value, Node):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TypeError(f"cannot use {type(value).__name__} in an expression")


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Const is immutable")

    def __eq__(self, other):
        return isinstance(other, Const) and (
            self.value == other.value
            or (math.isnan(self.value) and math.isnan(other.value))
        )

    def __hash__(self):
        return hash(("const", self.value))

    def diff(self, var):
        return Const(0.0)

    def substitute(self, mapping):
        return self


class Var(Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be nonnegative")
        object.__setattr__(self, "index", int(index))

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def __eq__(self, other):
        return isinstance(other, Var) and self.index == other.index

    def __hash__(self):
        return hash(("var", self.index))

    def diff(self, var):
        return Const(1.0) if var == self.index else Const(0.0)

    def substitute(self, mapping):
        return mapping.get(self.index, self)

    def max_var(self):
        return self.index

    def _collect_vars(self, out):
        out.add(self.index)


class Neg(Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Node):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Neg is immutable")

    def __eq__(self, other):
        return isinstance(other, Neg) and self.arg == other.arg

    def __hash__(self):
        return hash(("neg", self.arg))

    def diff(self, var):
        return neg(self.arg.diff(var))

    def substitute(self, mapping):
        return neg(self.arg.substitute(mapping))

    def max_var(self):
        return self.arg.max_var()

    def _collect_vars(self, out):
        self.arg._collect_vars(out)


class Add(Node):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Node, ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Add is immutable")

    def __eq__(self, other):
        return isinstance(other, Add) and self.terms == other.terms

    def __hash__(self):
        return hash(("add", self.terms))

    def diff(self, var):
        return add(*(tm.diff(var) for tm in self.terms))

    def substitute(self, mapping):
        return add(*(tm.substitute(mapping) for tm in self.terms))

    def max_var(self):
        return max(tm.max_var() for tm in self.terms)

    def _collect_vars(self, out):
        for tm in self.terms:
            tm._collect_vars(out)


class Mul(Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Node, ...]):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Mul is immutable")

    def __eq__(self, other):
        return isinstance(other, Mul) and self.factors == other.factors

    def __hash__(self):
        return hash(("mul", self.factors))

    def diff(self, var):
        # product rule over an n-ary product
        pieces = []
        for i, f in enumerate(self.factors):
            df = f.diff(var)
            pieces.append(mul(*self.factors[:i], df, *self.factors[i + 1 :]))
        return add(*pieces)

    def substitute(self, mapping):
        return mul(*(f.substitute(mapping) for f in self.factors))

    def max_var(self):
        return max(f.max_var() for f in self.factors)

    def _collect_vars(self, out):
        for f in self.factors:
            f._collect_vars(out)


class Div(Node):
    __slots__ = ("num", "den")

    def __init__(self, num: Node, den: Node):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Div is immutable")

    def __eq__(self, other):
        return isinstance(other, Div) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("div", self.num, self.den))

    def diff(self, var):
        du = self.num.diff(var)
        dv = self.den.diff(var)
        return div(add(mul(du, self.den), neg(mul(self.num, dv))), power(self.den, 2))

    def substitute(self, mapping):
        return div(self.num.substitute(mapping), self.den.substitute(mapping))

    def max_var(self):
        return max(self.num.max_var(), self.den.max_var())

    def _collect_vars(self, out):
        self.num._collect_vars(out)
        self.den._collect_vars(out)


class Pow(Node):
    """base ^ exponent with a *constant* real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", float(exponent))

    def __setattr__(self, name, value):
        raise AttributeError("Pow is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self.base == other.base
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(("pow", self.base, self.exponent))

    def diff(self, var):
        db = self.base.diff(var)
        return mul(Const(self.exponent), power(self.base, self.exponent - 1.0), db)

    def substitute(self, mapping):
        return power(self.base.substitute(mapping), self.exponent)

    def max_var(self):
        return self.base.max_var()

    def _collect_vars(self, out):
        self.base._collect_vars(out)


class Call(Node):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Node):
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        raise AttributeError("Call is immutable")

    def __eq__(self, other):
        return isinstance(other, Call) and self.func == other.func and self.arg == other.arg

    def __hash__(self):
        return hash(("call", self.func, self.arg))

    def diff(self, var):
        u = self.arg
        du = u.diff(var)
        if self.func == "sin":
            outer = call("cos", u)
        elif self.func == "cos":
            outer = neg(call("sin", u))
        elif self.func == "tan":
            outer = add(Const(1.0), power(call("tan", u), 2))
        elif self.func == "exp":
            outer = call("exp", u)
        elif self.func == "log":
            return div(du, u)
        elif self.func == "sqrt":
            return div(du, mul(Const(2.0), call("sqrt", u)))
        elif self.func == "abs":
            # d|u| = u/|u| * du; the quotient raises the appropriate
            # domain error at u = 0 instead of silently picking a sign
            outer = div(u, call("abs", u))
        else:  # pragma: no cover
            raise AssertionError(self.func)
        return mul(outer, du)

    def substitute(self, mapping):
        return call(self.func, self.arg.substitute(mapping))

    def max_var(self):
        return self.arg.max_var()

    def _collect_vars(self, out):
        self.arg._collect_vars(out)


# -- smart constructors: constant folding, 0/1 identities, flattening -------


def add(*terms: Node) -> Node:
    flat: list[Node] = []
    csum = 0.0
    for tm in terms:
        if isinstance(tm, Add):
            for sub in tm.terms:
                if isinstance(sub, Const):
                    csum += sub.value
                else:
                    flat.append(sub)
        elif isinstance(tm, Const):
            csum += tm.value
        else:
            flat.append(tm)
    if csum != 0.0:
        flat.append(Const(csum))
    if not flat:
        return Const(0.0)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Node) -> Node:
    flat: list[Node] = []
    cprod = 1.0
    negate = False
    for f in factors:
        if isinstance(f, Neg):
            negate = not negate
            f = f.arg
        if isinstance(f, Mul):
            for sub in f.factors:
                if isinstance(sub, Neg):
                    negate = not negate
                    sub = sub.arg
                if isinstance(sub, Const):
                    cprod *= sub.value
                else:
                    flat.append(sub)
        elif isinstance(f, Const):
            cprod *= f.value
        else:
            flat.append(f)
    if cprod == 0.0:
        return Const(0.0)
    if negate:
        cprod = -cprod
    if cprod != 1.0:
        if cprod == -1.0 and flat:
            body = flat[0] if len(flat) == 1 else Mul(tuple(flat))
            return Neg(body)
        flat.insert(0, Const(cprod))
    if not flat:
        return Const(1.0)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(arg: Node) -> Node:
    if isinstance(arg, Const):
        return Const(-arg.value)
    if isinstance(arg, Neg):
        return arg.arg
    return Neg(arg)


def div(num: Node, den: Node) -> Node:
    if isinstance(den, Const):
        if den.value == 1.0:
            return num
        if den.value != 0.0:
            if isinstance(num, Const):
                return Const(num.value / den.value)
            if den.value == -1.0:
                return neg(num)
    return Div(num, den)


def power(base: Node, exponent) -> Node:
    e = float(exponent)
    if e == 0.0:
        return Const(1.0)
    if e == 1.0:
        return base
    if isinstance(base, Const):
        v = base.value
        if v > 0.0 or e == int(e):
            try:
                return Const(v**e)
            except (ValueError, ZeroDivisionError, OverflowError):
                pass  # leave as a node; evaluation will raise with context
    return Pow(base, e)


def call(func: str, arg: Node) -> Node:
    if isinstance(arg, Const):
        try:
            return Const(_apply_function(func, arg.value))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return Call(func, arg)


def _apply_function(func: str, v: float) -> float:
    if func == "abs":
        return abs(v)
    return getattr(math, func)(v)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _var_name(index: int, n: int) -> str:
    if index == 0:
        return "t"
    if 1 <= index <= n:
        return f"x{index}"
    return f"y{index - n}"


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: Node, n: int) -> str:
    """Render a node back into parseable DSL text."""

    def go(nd: Node, parent_prec: int) -> str:
        if isinstance(nd, Const):
            s = _fmt_const(nd.value)
            if nd.value < 0 and parent_prec > _PREC_ADD:
                return f"({s})"
            return s
        if isinstance(nd, Var):
            return _var_name(nd.index, n)
        if isinstance(nd, Neg):
            body = go(nd.arg, _PREC_NEG)
            s = f"-{body}"
            return f"({s})" if parent_prec > _PREC_ADD else s
        if isinstance(nd, Add):
            parts = [go(nd.terms[0], _PREC_ADD)]
            for tm in nd.terms[1:]:
                if isinstance(tm, Neg):
                    parts.append(f" - {go(tm.arg, _PREC_MUL)}")
                elif isinstance(tm, Const) and tm.value < 0:
                    parts.append(f" - {_fmt_const(-tm.value)}")
                else:
                    parts.append(f" + {go(tm, _PREC_ADD)}")
            s = "".join(parts)
            return f"({s})" if parent_prec > _PREC_ADD else s
        if isinstance(nd, Mul):
            s = "*".join(go(f, _PREC_MUL + 1) for f in nd.factors)
            return f"({s})" if parent_prec > _PREC_MUL else s
        if isinstance(nd, Div):
            s = f"{go(nd.num, _PREC_MUL + 1)}/{go(nd.den, _PREC_MUL + 1)}"
            return f"({s})" if parent_prec > _PREC_MUL else s
        if isinstance(nd, Pow):
            base = go(nd.base, _PREC_ATOM)
            e = nd.exponent
            expo = _fmt_const(e) if e >= 0 else f"({_fmt_const(e)})"
            s = f"{base}^{expo}"
            return f"({s})" if parent_prec > _PREC_POW else s
        if isinstance(nd, Call):
            return f"{nd.func}({go(nd.arg, _PREC_ADD)})"
        raise AssertionError(type(nd))

    return go(node, _PREC_ADD)


# ---------------------------------------------------------------------------
# evaluation: compiled fast path, tree-walking slow path for rich errors
# ---------------------------------------------------------------------------


def _checked_pow(base: float, exponent: float) -> float:
    if base <= 0.0:
        raise ValueError("non-integer power needs a positive base")
    return base**exponent


_EVAL_GLOBALS = {
    "__builtins__": {},
    "_sin": math.sin,
    "_cos": math.cos,
    "_tan": math.tan,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_abs": abs,
    "_pw": _checked_pow,
}


def _emit(node: Node, n: int) -> str:
    if isinstance(node, Const):
        v = node.value
        return f"({v!r})" if v < 0 else repr(v)
    if isinstance(node, Var):
        i = node.index
        if i == 0:
            return "t"
        if i <= n:
            return f"x[{i - 1}]"
        return f"y[{i - n - 1}]"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg, n)})"
    if isinstance(node, Add):
        return "(" + "+".join(_emit(tm, n) for tm in node.terms) + ")"
    if isinstance(node, Mul):
        return "(" + "*".join(_emit(f, n) for f in node.factors) + ")"
    if isinstance(node, Div):
        return f"({_emit(node.num, n)}/{_emit(node.den, n)})"
    if isinstance(node, Pow):
        e = node.exponent
        if e == int(e) and abs(e) < 1e9:
            return f"({_emit(node.base, n)}**{int(e)})"
        return f"_pw({_emit(node.base, n)},{e!r})"
    if isinstance(node, Call):
        return f"_{node.func}({_emit(node.arg, n)})"
    raise AssertionError(type(node))


def compile_node(node: Node, n: int):
    """Compile a node into a fast ``f(t, x, y) -> float`` callable."""
    src = f"lambda t, x, y: {_emit(node, n)}"
    return eval(compile(src, "<jetlag-expr>", "eval"), _EVAL_GLOBALS)


def _walk_eval(node: Node, t, x, y, n: int) -> float:
    """Reference evaluator; raises EvalDomainError at the failing node."""
    try:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            i = node.index
            if i == 0:
                return float(t)
            if i <= n:
                return float(x[i - 1])
            return float(y[i - n - 1])
        if isinstance(node, Neg):
            return -_walk_eval(node.arg, t, x, y, n)
        if isinstance(node, Add):
            return math.fsum(_walk_eval(tm, t, x, y, n) for tm in node.terms)
        if isinstance(node, Mul):
            out = 1.0
            for f in node.factors:
                out *= _walk_eval(f, t, x, y, n)
            return out
        if isinstance(node, Div):
            num = _walk_eval(node.num, t, x, y, n)
            den = _walk_eval(node.den, t, x, y, n)
            try:
                return num / den
            except ZeroDivisionError:
                raise EvalDomainError("division by zero", to_source(node, n)) from None
        if isinstance(node, Pow):
            base = _walk_eval(node.base, t, x, y, n)
            e = node.exponent
            try:
                if e == int(e):
                    return base ** int(e)
                return _checked_pow(base, e)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalDomainError(str(exc), to_source(node, n)) from None
        if isinstance(node, Call):
            arg = _walk_eval(node.arg, t, x, y, n)
            try:
                return _apply_function(node.func, arg)
            except (ValueError, OverflowError) as exc:
                raise EvalDomainError(
                    f"{node.func} domain error: {exc}", to_source(node, n)
                ) from None
        raise AssertionError(type(node))
    except EvalDomainError:
        raise
    except OverflowError:
        raise EvalDomainError("overflow", to_source(node, n)) from None


# ---------------------------------------------------------------------------
# derivative tables and scalar fields
# ---------------------------------------------------------------------------


class _DerivTable:
    """Shared per-root cache of derivative ASTs and compiled evaluators.

    Derivatives are always built in a canonical order (highest variable
    index peeled off first), so any request order converges onto the same
    cached AST objects; mixed partials are identical by construction.
    """

    def __init__(self, ast: Node, n: int, max_order: int):
        self.n = n
        self.max_order = max_order
        self._asts: dict[tuple[int, ...], Node] = {(0,) * (2 * n + 1): ast}
        self._fns: dict[tuple[int, ...], object] = {}
        self._lock = threading.Lock()

    def ast_for(self, idx: tuple[int, ...]) -> Node:
        with self._lock:
            return self._ast_locked(idx)

    def _ast_locked(self, idx: tuple[int, ...]) -> Node:
        node = self._asts.get(idx)
        if node is not None:
            return node
        # peel the highest-indexed variable with a nonzero order
        var = max(i for i, o in enumerate(idx) if o > 0)
        parent_idx = tuple(o - 1 if i == var else o for i, o in enumerate(idx))
        parent = self._ast_locked(parent_idx)
        node = parent.diff(var)
        self._asts[idx] = node
        return node

    def fn_for(self, idx: tuple[int, ...]):
        fn = self._fns.get(idx)
        if fn is None:
            node = self.ast_for(idx)
            fn = compile_node(node, self.n)
            with self._lock:
                self._fns[idx] = fn
        return fn


def _validate_multi_index(idx, n: int) -> tuple[int, ...]:
    idx = tuple(int(o) for o in idx)
    if len(idx) != 2 * n + 1:
        raise ValueError(f"multi-index must have {2 * n + 1} entries, got {len(idx)}")
    if any(o < 0 for o in idx):
        raise ValueError("multi-index orders must be nonnegative")
    return idx


class ScalarField:
    """A scalar function of a jet point with exact cached derivatives.

    Fields returned by :meth:`differentiate` share the root's cache, so a
    given mixed partial is represented by one AST no matter how it was
    reached.
    """

    def __init__(self, ast: Node, n: int, max_order: int | None = None, *, _table=None, _offset=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if _table is not None:
            self._table = _table
            self._offset = _offset
            return
        if not isinstance(ast, Node):
            raise TypeError("ast must be an expression Node (see parse())")
        if ast.max_var() >= 2 * n + 1:
            raise ValueError(
                f"expression references variable index {ast.max_var()}, "
                f"but n={n} allows at most {2 * n}"
            )
        if max_order is None:
            max_order = _max_order_default()
        self._table = _DerivTable(ast, n, max_order)
        self._offset = (0,) * (2 * n + 1)

    @property
    def n(self) -> int:
        return self._table.n

    @property
    def max_order(self) -> int:
        return self._table.max_order

    @property
    def order(self) -> int:
        return sum(self._offset)

    @property
    def ast(self) -> Node:
        return self._table.ast_for(self._offset)

    def evaluate(self, point) -> float:
        # plain Python floats, whatever the point type: float arithmetic
        # raises on a domain error where numpy scalars return inf or nan
        n = self.n
        z = _point_array(point, n).tolist()
        t, x, y = z[0], z[1 : n + 1], z[n + 1 :]
        fn = self._table.fn_for(self._offset)
        try:
            return float(fn(t, x, y))
        except (ValueError, ZeroDivisionError, OverflowError):
            # re-run on the reference evaluator to name the subexpression
            _walk_eval(self.ast, t, x, y, self.n)
            raise  # pragma: no cover - walk_eval raises first

    __call__ = evaluate

    def callable(self):
        """Return the raw compiled ``f(t, x, y)`` (fast path, bare errors)."""
        return self._table.fn_for(self._offset)

    def differentiate(self, idx) -> "ScalarField":
        idx = _validate_multi_index(idx, self.n)
        total = sum(idx) + sum(self._offset)
        if total > self.max_order:
            raise DerivativeOrderError(
                f"total derivative order {total} exceeds cap {self.max_order} "
                f"(set {_MAX_ORDER_ENV} or max_order to raise it)"
            )
        new_offset = tuple(a + b for a, b in zip(self._offset, idx))
        return ScalarField(None, self.n, _table=self._table, _offset=new_offset)

    def substitute(self, mapping: dict[int, Node]) -> "ScalarField":
        """New field with variables replaced by expression nodes."""
        new_ast = self.ast.substitute(mapping)
        return ScalarField(new_ast, self.n, self.max_order)

    def to_source(self) -> str:
        return to_source(self.ast, self.n)

    def variables(self) -> set[int]:
        return self.ast.variables()

    def __repr__(self):
        return f"ScalarField({self.to_source()!r}, n={self.n})"


@dataclass(frozen=True)
class PartialTable:
    """All mixed partials of one field at one point, up to a total order."""

    n: int
    max_order: int
    point: JetPoint
    entries: dict = field(repr=False)

    def __getitem__(self, idx) -> float:
        idx = _validate_multi_index(idx, self.n)
        if sum(idx) > self.max_order:
            raise KeyError(f"order {sum(idx)} exceeds table order {self.max_order}")
        return self.entries[idx]

    @property
    def value(self) -> float:
        return self.entries[(0,) * (2 * self.n + 1)]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _multi_indices(nvars: int, max_total: int):
    """Yield all derivative multi-indices with total order <= max_total."""

    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for o in range(remaining + 1):
            yield from rec(prefix + [o], remaining - o, slots - 1)

    yield from rec([], max_total, nvars)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, line=None, col=None):
        raise ParseError(message, self.line if line is None else line, self.col if col is None else col)

    def _advance(self, count: int):
        for _ in range(count):
            if self.pos < len(self.src) and self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t\r\n":
            self._advance(1)

    def peek(self) -> str:
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            got = repr(self.peek()) if self.peek() else "end of input"
            self.error(f"expected {ch!r}, found {got}")
        self._advance(1)

    def parse(self) -> Node:
        node = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.src):
            self.error(f"unexpected trailing input {self.src[self.pos:][:10]!r}")
        return node

    def parse_expr(self) -> Node:
        terms = [self.parse_term()]
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self._advance(1)
                terms.append(self.parse_term())
            elif ch == "-":
                self._advance(1)
                terms.append(neg(self.parse_term()))
            else:
                break
        return add(*terms)

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "*":
                self._advance(1)
                node = mul(node, self.parse_factor())
            elif ch == "/":
                self._advance(1)
                node = div(node, self.parse_factor())
            else:
                break
        return node

    def parse_factor(self) -> Node:
        self.skip_ws()
        if self.peek() == "-":
            self._advance(1)
            return neg(self.parse_factor())
        base = self.parse_base()
        self.skip_ws()
        if self.peek() == "^":
            self._advance(1)
            expo = self.parse_exponent()
            return power(base, expo)
        return base

    def parse_exponent(self) -> float:
        self.skip_ws()
        line, col = self.line, self.col
        sign = 1.0
        if self.peek() == "-":
            sign = -1.0
            self._advance(1)
            self.skip_ws()
        if self.peek() == "(":
            self._advance(1)
            inner = self.parse_expr()
            self.expect(")")
            if not isinstance(inner, Const):
                self.error("exponent must be a constant", line, col)
            return sign * inner.value
        if self.peek().isdigit() or self.peek() == ".":
            return sign * self.parse_number()
        self.error("exponent must be a number or a parenthesized constant", line, col)

    def parse_number(self) -> float:
        start = self.pos
        line, col = self.line, self.col
        seen_digit = False
        while self.peek().isdigit():
            seen_digit = True
            self._advance(1)
        if self.peek() == ".":
            self._advance(1)
            while self.peek().isdigit():
                seen_digit = True
                self._advance(1)
        if not seen_digit:
            self.error("malformed number", line, col)
        if self.peek() in ("e", "E"):
            mark = self.pos
            self._advance(1)
            if self.peek() in ("+", "-"):
                self._advance(1)
            if self.peek().isdigit():
                while self.peek().isdigit():
                    self._advance(1)
            else:
                # not an exponent after all (e.g. "2*exp(t)" tokenized wrong);
                # numbers and identifiers are space-separated by the grammar,
                # so treat this as malformed
                self.error("malformed number exponent", line, col)
        return float(self.src[start : self.pos])

    def parse_base(self) -> Node:
        self.skip_ws()
        ch = self.peek()
        line, col = self.line, self.col
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            self._advance(1)
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Const(self.parse_number())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.peek().isalnum() or self.peek() == "_":
                self._advance(1)
            name = self.src[start : self.pos]
            self.skip_ws()
            if self.peek() == "(":
                if name not in FUNCTIONS:
                    self.error(f"unknown function {name!r}", line, col)
                self._advance(1)
                arg = self.parse_expr()
                self.expect(")")
                return call(name, arg)
            return self.make_var(name, line, col)
        self.error(f"unexpected character {ch!r}")

    def make_var(self, name: str, line: int, col: int) -> Node:
        if name == "t":
            return Var(0)
        if len(name) >= 2 and name[0] in ("x", "y") and name[1:].isdigit():
            k = int(name[1:])
            if not 1 <= k <= self.n:
                self.error(
                    f"coordinate index out of range: {name} with n={self.n}", line, col
                )
            return Var(k if name[0] == "x" else self.n + k)
        if name in FUNCTIONS:
            self.error(f"function {name!r} needs an argument list", line, col)
        self.error(f"unknown identifier {name!r}", line, col)


# ---------------------------------------------------------------------------
# module-level API
# ---------------------------------------------------------------------------


def parse(source: str, n: int, max_order: int | None = None) -> ScalarField:
    """Parse DSL text into a ScalarField over jet coordinates for dimension n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ast = _Parser(source, n).parse()
    return ScalarField(ast, n, max_order)


def differentiate(f: ScalarField, idx) -> ScalarField:
    """Exact partial derivative of f by a multi-index over (t, x1.., y1..)."""
    return f.differentiate(idx)


def jet_partials(f: ScalarField, point, max_order: int) -> PartialTable:
    """Evaluate every mixed partial of total order <= max_order at one point."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if max_order + f.order > f.max_order:
        raise DerivativeOrderError(
            f"requested table order {max_order} on a field of order {f.order} "
            f"exceeds cap {f.max_order}"
        )
    z = _point_array(point, f.n)
    entries = {}
    for idx in _multi_indices(2 * f.n + 1, max_order):
        entries[idx] = f.differentiate(idx).evaluate(z)
    return PartialTable(n=f.n, max_order=max_order,
                        point=JetPoint.from_array(z, f.n), entries=entries)
