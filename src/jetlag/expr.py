"""Symbolic scalar expressions on jet coordinates (t, x1..xn, y1..yn).

A deliberately small expression language: the variables are the jet
coordinates of a curve (one time variable, n positions, n velocities),
the functions are a fixed whitelist, and differentiation is exact and
cached: a derivative table keeps the ASTs of one root's partials and
differentiates each shared subtree once per variable.  Compiled code
belongs to a FieldGroup, held by whoever holds its fields (a space, a
chart map, a field evaluated alone): its fused function, and the Taylor
plans of its dual points, which compile each partial once.  Nothing here
knows about tensors; the rest of the package builds on evaluate_fields
(a group's values in one compiled call) and ScalarField.differentiate.
Every value comes from one evaluator, the function compile_node emits,
and a domain error is named from the line of that function that raised.

Variable indexing convention used throughout the package:
index 0 is t, indices 1..n are x1..xn, indices n+1..2n are y1..yn.
A multi-index is a tuple of 2n+1 derivative orders in that same order.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from jetlag.dual import _FLOAT, Dual, _wrap, base

__all__ = [
    "JetPoint",
    "ScalarField",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "DerivativeOrderError",
    "parse",
    "FieldGroup",
    "evaluate_fields",
    "FUNCTIONS",
    "DEFAULT_MAX_ORDER",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
DEFAULT_MAX_ORDER = 5
MAX_NESTING = 50    # parser depth cap, well inside Python's recursion limit


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
    """Requested total derivative order exceeds DEFAULT_MAX_ORDER."""


# ---------------------------------------------------------------------------
# jet points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JetPoint:
    """A point (t, x^i, y^i) of the 1-jet space of curves in n dimensions.
    Its coordinates are validated and laid out once, in a read-only
    (2n+1,) array that the package's point functions read in place."""

    t: float
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        x = tuple(map(float, self.x))
        y = tuple(map(float, self.y))
        t = float(self.t)
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} entries but y has {len(y)}")
        coords = (t, *x, *y)
        if not all(map(math.isfinite, coords)):
            raise ValueError("jet point coordinates must be finite")
        z = np.array(coords)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_z", z)

    @property
    def n(self) -> int:
        return len(self.x)

    def as_array(self) -> np.ndarray:
        """A fresh, writable copy of the coordinate array."""
        return self._z.copy()


def _point_array(point, n: int) -> np.ndarray:
    """The (2n+1,) coordinate array of a JetPoint (its own read-only
    array) or array-like point; a dual point passes through."""
    if isinstance(point, Dual):
        if point.shape != (2 * n + 1,):
            raise ValueError(f"expected {2 * n + 1} coordinates, "
                             f"got shape {point.shape}")
        return point
    if isinstance(point, JetPoint):
        if point.n != n:
            raise ValueError(f"point has n={point.n}, expected n={n}")
        return point._z
    z = np.asarray(point, dtype=float)
    if z.shape != (2 * n + 1,):
        raise ValueError(f"expected {2 * n + 1} coordinates, got shape {z.shape}")
    return z


# ---------------------------------------------------------------------------
# AST nodes and conservative simplification
#
# Nodes are immutable and compare by identity: nothing needs structural
# equality, since the compiler memoises on node identity and numbers
# subexpressions on their emitted text.  The smart constructors below fold
# constants, 0 and 1 identities, nested sums and products, and double
# negation.  A zero factor or a zero numerator folds to 0 even where the
# rest is not finite, so derivatives carry no 0/den terms from the
# quotient rule; a pole of the expression itself still raises.
# ---------------------------------------------------------------------------


class Node:
    """Expression tree node.  Instances are immutable and never mutated."""

    __slots__ = ()

    def __setattr__(self, name, value=None):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def children(self) -> tuple:
        return ()

    def diff(self, var: int, memo: dict | None = None) -> "Node":
        """The derivative in variable var.  memo maps id(node) to the node
        and its derivative for each subtree already taken, so a shared
        subtree is differentiated once (a chain of k quotients would cost
        O(k^r) at order r).  A table keeps one memo per variable for its
        life; holding each node keeps its id from being reused."""
        if memo is None:
            memo = {}
        got = memo.get(id(self))
        if got is None:
            got = memo[id(self)] = (self, self._diff(var, memo))
        return got[1]

    def _diff(self, var: int, memo: dict) -> "Node":
        raise NotImplementedError

    def substitute(self, mapping: dict[int, "Node"]) -> "Node":
        raise NotImplementedError

    def walk(self):
        """Yield each distinct node object of the tree once, without recursion."""
        seen = {id(self)}
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for child in node.children():
                if id(child) not in seen:
                    seen.add(id(child))
                    stack.append(child)

    def variables(self) -> set[int]:
        return {nd.index for nd in self.walk() if isinstance(nd, Var)}


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def _diff(self, var, memo):
        return Const(0.0)

    def substitute(self, mapping):
        return self


class Var(Node):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be nonnegative")
        object.__setattr__(self, "index", int(index))

    def _diff(self, var, memo):
        return Const(1.0) if var == self.index else Const(0.0)

    def substitute(self, mapping):
        return mapping.get(self.index, self)


class Neg(Node):
    __slots__ = ("arg",)

    def __init__(self, arg: Node):
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)

    def _diff(self, var, memo):
        return neg(self.arg.diff(var, memo))

    def substitute(self, mapping):
        return neg(self.arg.substitute(mapping))


class Add(Node):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Node, ...]):
        object.__setattr__(self, "terms", terms)

    def children(self):
        return self.terms

    def _diff(self, var, memo):
        return add(*(tm.diff(var, memo) for tm in self.terms))

    def substitute(self, mapping):
        return add(*(tm.substitute(mapping) for tm in self.terms))


class Mul(Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Node, ...]):
        object.__setattr__(self, "factors", factors)

    def children(self):
        return self.factors

    def _diff(self, var, memo):
        # product rule over an n-ary product, less the pieces mul folds to 0
        pieces = []
        for i, f in enumerate(self.factors):
            df = f.diff(var, memo)
            if not (isinstance(df, Const) and df.value == 0.0):
                pieces.append(mul(*self.factors[:i], df, *self.factors[i + 1 :]))
        return add(*pieces)

    def substitute(self, mapping):
        return mul(*(f.substitute(mapping) for f in self.factors))


class Div(Node):
    __slots__ = ("num", "den")

    def __init__(self, num: Node, den: Node):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def children(self):
        return (self.num, self.den)

    def _diff(self, var, memo):
        du = self.num.diff(var, memo)
        dv = self.den.diff(var, memo)
        return div(add(mul(du, self.den), neg(mul(self.num, dv))), power(self.den, 2))

    def substitute(self, mapping):
        return div(self.num.substitute(mapping), self.den.substitute(mapping))


class Pow(Node):
    """base ^ exponent with a *constant* real exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: float):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", float(exponent))

    def children(self):
        return (self.base,)

    def _diff(self, var, memo):
        db = self.base.diff(var, memo)
        return mul(Const(self.exponent), power(self.base, self.exponent - 1.0), db)

    def substitute(self, mapping):
        return power(self.base.substitute(mapping), self.exponent)


class Call(Node):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Node):
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)

    def _diff(self, var, memo):
        u = self.arg
        du = u.diff(var, memo)
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
            # a zero factor folds to 0 before it can meet an inf, so a
            # partial that is identically 0 is never nan
            if f.value == 0.0:
                return Const(0.0)
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
    if isinstance(num, Const) and num.value == 0.0:
        return Const(0.0)
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
        if v > 0.0 or e.is_integer():
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
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node: Node, n: int, prec: int = _PREC_ADD) -> str:
    """Render a node back into parseable DSL text, as an operand of an
    operator of precedence prec."""
    if isinstance(node, Const):
        s = _fmt_const(node.value)
        return f"({s})" if node.value < 0 and prec > _PREC_ADD else s
    if isinstance(node, Var):
        return _var_name(node.index, n)
    if isinstance(node, Neg):
        s = f"-{to_source(node.arg, n, _PREC_NEG)}"
        return f"({s})" if prec > _PREC_ADD else s
    if isinstance(node, Add):
        parts = [to_source(node.terms[0], n)]
        for tm in node.terms[1:]:
            if isinstance(tm, Neg):
                parts.append(f" - {to_source(tm.arg, n, _PREC_MUL)}")
            elif isinstance(tm, Const) and tm.value < 0:
                parts.append(f" - {_fmt_const(-tm.value)}")
            else:
                parts.append(f" + {to_source(tm, n)}")
        s = "".join(parts)
        return f"({s})" if prec > _PREC_ADD else s
    if isinstance(node, (Mul, Div)):
        s = ("*" if isinstance(node, Mul) else "/").join(
            to_source(k, n, _PREC_MUL + 1) for k in node.children())
        return f"({s})" if prec > _PREC_MUL else s
    if isinstance(node, Pow):
        e = node.exponent
        expo = _fmt_const(e) if e >= 0 else f"({_fmt_const(e)})"
        s = f"{to_source(node.base, n, _PREC_ATOM)}^{expo}"
        return f"({s})" if prec > _PREC_POW else s
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg, n)})"
    raise AssertionError(type(node))


# ---------------------------------------------------------------------------
# evaluation: one compiled function per field group
# ---------------------------------------------------------------------------


def _checked_pow(base: float, exponent: float) -> float:
    if base <= 0.0:
        raise ValueError("non-integer power needs a positive base")
    return base**exponent


_EVAL_GLOBALS = {
    "__builtins__": {},
    "inf": math.inf,        # folded constants may overflow; repr gives inf
    "nan": math.nan,
    "_sin": math.sin,
    "_cos": math.cos,
    "_tan": math.tan,
    "_exp": math.exp,
    "_log": math.log,
    "_sqrt": math.sqrt,
    "_abs": abs,
    "_pw": _checked_pow,
}


def compile_node(nodes, n: int):
    """Compile nodes into one ``f(t, x, y)`` returning the tuple of their values.

    Each distinct non-leaf node becomes one temporary, so a subexpression
    shared between the nodes, or repeated inside one, is computed once.
    Nodes are numbered on their emitted text with children referenced by
    temporary, so equal subtrees share one whether or not they are the same
    object.  Every temporary keeps its node's operation (n-ary sums and
    products left to right), so each value is bit-identical to evaluating
    its tree alone.  The function's ``nodes`` attribute holds the node
    behind each temporary: line k + 2 of its source computes ``nodes[k]``.
    """
    memo: dict = {}     # id(node) -> its reference: a literal or a temporary
    temps: dict = {}    # emitted text -> temporary
    lines: list = []
    origins: list = []  # the node each line computes

    def ref(node: Node) -> str:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            text = repr(node.value)
            if text[0] == "-":      # so that -0.0**2 cannot parse as -(0.0**2)
                text = f"({text})"
        elif isinstance(node, Var):
            i = node.index
            text = ("t" if i == 0 else f"x[{i - 1}]" if i <= n
                    else f"y[{i - n - 1}]")
        else:
            if isinstance(node, Neg):
                op = f"-{ref(node.arg)}"
            elif isinstance(node, Add):
                op = "+".join(ref(tm) for tm in node.terms)
            elif isinstance(node, Mul):
                op = "*".join(ref(f) for f in node.factors)
            elif isinstance(node, Div):
                op = f"{ref(node.num)}/{ref(node.den)}"
            elif isinstance(node, Pow):
                e = node.exponent
                if e.is_integer():
                    op = f"{ref(node.base)}**{int(e)}"
                else:
                    op = f"_pw({ref(node.base)},{e!r})"
            elif isinstance(node, Call):
                op = f"_{node.func}({ref(node.arg)})"
            else:
                raise AssertionError(type(node))
            text = temps.get(op)
            if text is None:
                text = temps[op] = f"_{len(temps)}"
                lines.append(f" {text} = {op}\n")
                origins.append(node)
        memo[id(node)] = text
        return text

    try:
        out = [ref(node) for node in nodes]
        src = ("def f(t, x, y):\n" + "".join(lines)
               + " return (" + "".join(f"{r}, " for r in out) + ")\n")
        code = compile(src, "<jetlag-expr>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        # the emitter recurses once per level of nesting
        raise ExprError("expression nested too deeply to compile") from None
    finally:
        ref = None      # ref holds itself through its cell, and every node
    scope: dict = {}
    eval(code, _EVAL_GLOBALS, scope)
    fn = scope["f"]
    fn.nodes = tuple(origins)
    return fn


# ---------------------------------------------------------------------------
# derivative tables, field groups and scalar fields
# ---------------------------------------------------------------------------


class _DerivTable:
    """Shared per-root cache of derivative ASTs, holding no field (fields
    compare by table and offset) and nothing compiled.  Derivatives are
    always built in a canonical order (highest variable index peeled off
    first), so any request order converges onto the same cached AST
    objects; mixed partials are identical by construction.  A subtree
    shared by several partials is differentiated once per variable.
    """

    def __init__(self, ast: Node, n: int):
        self.n = n
        zero = (0,) * (2 * n + 1)
        self._asts: dict[tuple[int, ...], Node] = {zero: ast}
        self._memos = [{} for _ in zero]    # per variable, see Node.diff

    def field(self, offset: tuple[int, ...]) -> "ScalarField":
        """The field at an offset: a new object, equal to any other there."""
        total = sum(offset)
        if total > DEFAULT_MAX_ORDER:
            raise DerivativeOrderError(
                f"total derivative order {total} exceeds cap {DEFAULT_MAX_ORDER}")
        f = object.__new__(ScalarField)
        f._table, f._offset, f._group = self, offset, None
        return f

    def ast_for(self, idx: tuple[int, ...]) -> Node:
        node = self._asts.get(idx)
        if node is not None:
            return node
        # peel the highest-indexed variable with a nonzero order
        var = max(i for i, o in enumerate(idx) if o > 0)
        parent_idx = tuple(o - 1 if i == var else o for i, o in enumerate(idx))
        try:    # diff recurses per level, and a/b/c/... nests past MAX_NESTING
            node = self.ast_for(parent_idx).diff(var, self._memos[var])
        except RecursionError:
            raise ExprError("expression nested too deeply to differentiate") from None
        return self._asts.setdefault(idx, node)


class FieldGroup:
    """Fields of one n evaluated together, and the one owner of their
    compiled code: the fused function (compiled on first use) and the
    chain of Taylor plans of its dual points.  Whoever holds the fields
    holds the group: a space, a chart map, a field evaluated alone.  The
    chain holds the groups of higher partials, never the group itself.
    """

    def __init__(self, fields):
        self.fields = tuple(fields)
        ns = {f.n for f in self.fields}
        if len(ns) != 1:
            raise ValueError("a field group needs one or more fields of one n")
        (self.n,) = ns
        self._fn, self._higher, self._orders = None, [], []     # see taylor_plan

    def values(self, z: list) -> tuple:
        """The fields' values at the float coordinates z (a list): the only
        place a compiled function is called.  A domain error raises
        EvalDomainError naming the node of the line that failed: the first
        failing subexpression of the first failing field, the one that
        field evaluated alone names."""
        fn = self._fn
        if fn is None:
            fn = self._fn = compile_node([f.ast for f in self.fields], self.n)
        n = self.n
        try:
            return fn(z[0], z[1:n + 1], z[n + 1:])
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise _domain_error(fn, exc, n) from None

    def taylor_plan(self, order: int):
        """How to take the fields' Taylor polynomials to this order: (per
        order r the group of the partials of order r no earlier group
        holds, which deeper plans share; and per order r the coefficient
        indices [field, monomial] into the values of this group and then
        those groups, read in order, the 1/alpha! weights, and each
        monomial of order r as one of order r - 1 times a variable)."""
        higher, orders = self._higher, self._orders
        if len(orders) < order:
            # field -> a place of it in the groups' values, read in order
            ahead = [self.fields, *(g.fields for g in higher)]
            slots = {f: i for i, f in enumerate(itertools.chain(*ahead))}
            count = itertools.count(sum(map(len, ahead)))
            axes = range(2 * self.n + 1)
            for r in range(len(orders) + 1, order + 1):
                prev = {m: i for i, m in enumerate(
                    itertools.combinations_with_replacement(axes, r - 1))}
                monos = list(itertools.combinations_with_replacement(axes, r))
                steps = [tuple(map(m.count, axes)) for m in monos]
                parts = [[f._table.field(tuple(map(operator.add, f._offset, step)))
                          for step in steps] for f in self.fields]
                new = dict.fromkeys(p for row in parts for p in row if p not in slots)
                slots.update(zip(new, count))
                higher.append(FieldGroup(new))
                orders.append((np.array([[slots[p] for p in row] for row in parts]),
                               np.array([1.0 / math.prod(map(math.factorial, s))
                                         for s in steps]),
                               np.array([prev[m[:-1]] for m in monos]),
                               np.array([m[-1] for m in monos])))
        return higher[:order], orders[:order]


class ScalarField:
    """A scalar function of a jet point with exact cached derivatives.

    Fields returned by :meth:`differentiate` share the root's table, so a
    given mixed partial is one AST however it was reached, and its fields
    compare equal.  A field evaluated alone holds its own one-field group,
    so a held field compiles once.
    """

    def __init__(self, ast: Node, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not isinstance(ast, Node):
            raise TypeError("ast must be an expression Node (see parse())")
        top = max(ast.variables(), default=-1)
        if top >= 2 * n + 1:
            raise ValueError(
                f"expression references variable index {top}, "
                f"but n={n} allows at most {2 * n}"
            )
        self._table = _DerivTable(ast, n)
        self._offset = (0,) * (2 * n + 1)
        self._group = None

    def __eq__(self, other):
        return (isinstance(other, ScalarField) and self._table is other._table
                and self._offset == other._offset)

    def __hash__(self):
        return hash((id(self._table), self._offset))

    @property
    def n(self) -> int:
        return self._table.n

    @property
    def ast(self) -> Node:
        return self._table.ast_for(self._offset)

    def evaluate(self, point) -> float:
        if self._group is None:     # of an equal field: self would be a cycle
            self._group = FieldGroup((self._table.field(self._offset),))
        return evaluate_fields(self._group, point)[0]

    __call__ = evaluate

    def differentiate(self, idx) -> "ScalarField":
        idx = tuple(int(o) for o in idx)
        if len(idx) != 2 * self.n + 1:
            raise ValueError(f"multi-index must have {2 * self.n + 1} entries, "
                             f"got {len(idx)}")
        if any(o < 0 for o in idx):
            raise ValueError("multi-index orders must be nonnegative")
        return self._table.field(tuple(map(operator.add, self._offset, idx)))

    def to_source(self) -> str:
        return to_source(self.ast, self.n)

    def variables(self) -> set[int]:
        return self.ast.variables()

    def __repr__(self):
        return f"ScalarField({self.to_source()!r}, n={self.n})"


def evaluate_fields(group: FieldGroup, point) -> tuple:
    """Values of a group's fields at one point, in order, from one call of
    its fused function (see FieldGroup.values).

    At a dual point of depth d (see jetlag.dual) the values come back as
    one Dual of shape (len(group.fields),): each field's Taylor polynomial
    to order d about the base point, from the exact partials up to d orders
    above the field's own, evaluated on the point's perturbation.  That is
    exact, since a perturbation of depth d vanishes at power d + 1.
    """
    n = group.n
    if not (type(point) is np.ndarray and point.dtype is _FLOAT
            and point.shape == (2 * n + 1,)):
        point = _point_array(point, n)
        if isinstance(point, Dual):
            return _taylor_values(group, point)
    # plain Python floats, whatever the point type: float arithmetic
    # raises on a domain error where numpy scalars return inf or nan
    return group.values(point.tolist())


def _taylor_values(group: FieldGroup, point: Dual) -> Dual:
    level = point.depth
    higher, orders = group.taylor_plan(level)
    z = base(point)
    partials = np.fromiter(itertools.chain.from_iterable(
        g.values(z.tolist()) for g in (group, *higher)), float)
    # the perturbation point - z: the point's stack with a zero value part
    v = (0,) * level
    delta = point.copy()
    delta.stack[v] -= z
    out = mono = None
    for idx, weight, prefix, var in orders:
        mono = delta[var] if mono is None else mono[prefix] * delta[var]
        # every jet slot of the monomials in one matmul, a column each
        term = ((partials[idx] * weight) @ mono.stack[..., None])[..., 0]
        if out is None:
            out = term
            out[v] += partials[:len(group.fields)]
        else:
            out += term
    return _wrap(out, level)


def _domain_error(fn, exc: Exception, n: int) -> EvalDomainError:
    """The EvalDomainError naming the node of the line of fn that raised."""
    tb = exc.__traceback__
    while tb.tb_frame.f_code.co_filename != "<jetlag-expr>":
        tb = tb.tb_next
    node = fn.nodes[tb.tb_lineno - 2]   # line 1 is the def
    if isinstance(node, Pow):
        message = str(exc)
    elif isinstance(node, Call):
        message = f"{node.func} domain error: {exc}"
    elif isinstance(exc, ZeroDivisionError):
        message = "division by zero"
    else:
        message = "overflow"
    return EvalDomainError(message, to_source(node, n))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# A token is a number, a name or one other non-blank character, and the
# blanks between tokens are space, tab, CR and LF.  A number takes any e or
# E after its digits, so "2exp(t)" is a malformed number, not 2*exp(t).
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d*)(?:[eE][+-]?\d*)?|\w+|[^ \t\r\n]")


class _Parser:
    def __init__(self, source: str, n: int):
        self.src = source
        self.n = n
        self.tokens = [(m.start(), m.group()) for m in _TOKEN.finditer(source)]
        self.tokens.append((len(source), ""))   # end of input
        self.i = 0
        self.depth = 1      # the whole input is the first level

    def error(self, message: str, offset=None):
        """Raise at a source offset, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.i][0]
        line = self.src.count("\n", 0, offset) + 1
        column = offset - self.src.rfind("\n", 0, offset)  # rfind is -1 on line 1
        raise ParseError(message, line, column)

    def peek(self) -> str:
        return self.tokens[self.i][1]

    def take(self) -> str:
        self.i += 1
        return self.tokens[self.i - 1][1]

    def parenthesized(self) -> Node:
        """The expression in the parentheses that open at the next token."""
        offset = self.tokens[self.i][0] + 1     # just inside the "("
        self.i += 1
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nested more than {MAX_NESTING} levels deep", offset)
        node = self.parse_expr()
        if self.peek() != ")":
            got = repr(self.peek()[0]) if self.peek() else "end of input"
            self.error(f"expected ')', found {got}")
        self.i += 1
        self.depth -= 1
        return node

    def parse(self) -> Node:
        node = self.parse_expr()
        if self.peek():
            offset = self.tokens[self.i][0]
            self.error(f"unexpected trailing input {self.src[offset:offset + 10]!r}")
        return node

    def parse_expr(self) -> Node:
        terms = [self.parse_term()]
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                terms.append(self.parse_term())
            else:
                terms.append(neg(self.parse_term()))
        return add(*terms)

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                node = mul(node, self.parse_factor())
            else:
                node = div(node, self.parse_factor())
        return node

    def parse_factor(self) -> Node:
        # a run of unary minus signs, counted in a loop: neg is an involution
        negate = False
        while self.peek() == "-":
            self.i += 1
            negate = not negate
        node = self.parse_base()
        if self.peek() == "^":
            self.i += 1
            node = power(node, self.parse_exponent())
        return neg(node) if negate else node

    def parse_exponent(self) -> float:
        offset = self.tokens[self.i][0]
        sign = 1.0
        if self.peek() == "-":
            sign = -1.0
            self.i += 1
        if self.peek() == "(":
            inner = self.parenthesized()
            if not isinstance(inner, Const):
                self.error("exponent must be a constant", offset)
            return sign * inner.value
        if _is_number(self.peek()):
            return sign * self.parse_number()
        self.error("exponent must be a number or a parenthesized constant", offset)

    def parse_number(self) -> float:
        offset, text = self.tokens[self.i]
        self.i += 1
        if text[0] == "." and not text[1:2].isdecimal():
            self.error("malformed number", offset)
        if text[-1] in "eE+-":
            self.error("malformed number exponent", offset)
        value = float(text)
        if not math.isfinite(value):
            self.error("number out of range", offset)
        return value

    def parse_base(self) -> Node:
        offset, text = self.tokens[self.i]
        if not text:
            self.error("unexpected end of input")
        if text == "(":
            return self.parenthesized()
        if _is_number(text):
            return Const(self.parse_number())
        if not (text[0].isalpha() or text[0] == "_"):
            self.error(f"unexpected character {text[0]!r}")
        self.i += 1
        if self.peek() == "(":
            if text not in FUNCTIONS:
                self.error(f"unknown function {text!r}", offset)
            return call(text, self.parenthesized())
        return self.make_var(text, offset)

    def make_var(self, name: str, offset: int) -> Node:
        if name == "t":
            return Var(0)
        if len(name) >= 2 and name[0] in ("x", "y") and name[1:].isdecimal():
            # longer than n is out of range; int() refuses over 4300 digits
            digits = name[1:].lstrip("0") or "0"
            k = int(digits) if len(digits) <= len(str(self.n)) else 0
            if not 1 <= k <= self.n:
                self.error(f"coordinate index out of range: {name} "
                           f"with n={self.n}", offset)
            return Var(k if name[0] == "x" else self.n + k)
        if name in FUNCTIONS:
            self.error(f"function {name!r} needs an argument list", offset)
        self.error(f"unknown identifier {name!r}", offset)


def _is_number(token: str) -> bool:
    return token[:1].isdecimal() or token[:1] == "."


# ---------------------------------------------------------------------------
# module-level API
# ---------------------------------------------------------------------------


def parse(source: str, n: int) -> ScalarField:
    """Parse DSL text into a ScalarField over jet coordinates for dimension n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ast = _Parser(source, n).parse()
    return ScalarField(ast, n)

