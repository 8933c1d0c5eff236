"""Expression language: parsing, printing, evaluation, exact derivatives."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (fd_partial, jet_partials, jet_point, random_ast,
                     usable_test_points)
from jetlag import expr
from jetlag.cli import load_config
from jetlag.dual import Dual
from jetlag.expr import (
    MAX_NESTING,
    Add,
    Call,
    Const,
    DerivativeOrderError,
    Div,
    EvalDomainError,
    ExprError,
    JetPoint,
    Mul,
    Neg,
    ParseError,
    Pow,
    ScalarField,
    Var,
    compile_node,
    parse,
    to_source,
)


def pt(t, x, y):
    return JetPoint(t, tuple(np.atleast_1d(x)), tuple(np.atleast_1d(y)))


# ---------------------------------------------------------------------------
# parsing and evaluation
# ---------------------------------------------------------------------------


class TestParseEvaluate:
    def test_polynomial_in_velocities(self):
        f = parse("y1^2 + 2*y1*y2", n=2)
        assert f.evaluate(pt(0.0, (0.0, 0.0), (1.0, 2.0))) == pytest.approx(5.0)

    def test_trig_metric_like_expression(self):
        f = parse("sin(x1)^2 * y2^2 + y1^2", n=2)
        val = f.evaluate(pt(0.0, (math.pi / 2, 0.0), (0.0, 3.0)))
        assert val == pytest.approx(9.0)

    def test_time_dependence(self):
        f = parse("exp(2*t)", n=1)
        assert f.evaluate(pt(0.5, 0.0, 0.0)) == pytest.approx(math.e)

    def test_unary_minus_and_precedence(self):
        f = parse("-x1^2", n=1)
        assert f.evaluate(pt(0.0, 3.0, 0.0)) == pytest.approx(-9.0)
        g = parse("2 - -3", n=1)
        assert g.evaluate(pt(0, 0, 0)) == pytest.approx(5.0)
        h = parse("2*-3", n=1)
        assert h.evaluate(pt(0, 0, 0)) == pytest.approx(-6.0)

    def test_division_chain_left_associative(self):
        f = parse("8/4/2", n=1)
        assert f.evaluate(pt(0, 0, 0)) == pytest.approx(1.0)

    def test_power_binds_tighter_than_mul(self):
        f = parse("2*y1^3", n=1)
        assert f.evaluate(pt(0, 0, 2.0)) == pytest.approx(16.0)

    def test_negative_and_fractional_exponents(self):
        f = parse("x1^-2", n=1)
        assert f.evaluate(pt(0, 2.0, 0)) == pytest.approx(0.25)
        g = parse("x1^(1.5)", n=1)
        assert g.evaluate(pt(0, 4.0, 0)) == pytest.approx(8.0)

    def test_scientific_notation(self):
        f = parse("1.5e2 + 2E-1", n=1)
        assert f.evaluate(pt(0, 0, 0)) == pytest.approx(150.2)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse("y3", n=2)
        assert "out of range" in str(err.value)

    def test_huge_index_is_out_of_range_at_its_position(self):
        # int() of over 4300 digits raises a bare ValueError
        with pytest.raises(ParseError,
                           match="coordinate index out of range") as err:
            parse("y1 + x" + "1" * 5000, n=2)
        assert (err.value.line, err.value.column) == (1, 6)
        assert parse("x" + "0" * 5000 + "2", n=2).variables() == {2}

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + foo", n=1)
        assert "foo" in str(err.value)

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sinh(x1)", n=1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("y1 +\n* y1", n=1)
        assert err.value.line == 2
        assert err.value.column == 1

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("y1 y1", n=1)

    def test_chained_power_rejected(self):
        with pytest.raises(ParseError):
            parse("y1^2^3", n=1)

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("y1^(x1)", n=1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("", n=1)


class TestDomainErrors:
    def test_division_by_zero_names_subexpression(self):
        f = parse("1/x1", n=1)
        with pytest.raises(EvalDomainError) as err:
            f.evaluate(pt(0.0, 0.0, 0.0))
        assert "1/x1" in str(err.value)

    def test_log_of_nonpositive(self):
        f = parse("log(x1 - 2)", n=1)
        with pytest.raises(EvalDomainError) as err:
            f.evaluate(pt(0.0, 1.0, 0.0))
        assert "log" in str(err.value)

    def test_sqrt_of_negative(self):
        f = parse("sqrt(x1)", n=1)
        with pytest.raises(EvalDomainError):
            f.evaluate(pt(0.0, -1.0, 0.0))

    def test_fractional_power_of_negative_base(self):
        f = parse("x1^0.5", n=1)
        with pytest.raises(EvalDomainError):
            f.evaluate(pt(0.0, -2.0, 0.0))
        with pytest.raises(EvalDomainError):
            f.evaluate(pt(0.0, 0.0, 0.0))  # zero base is out too

    def test_integer_power_of_negative_base_is_fine(self):
        f = parse("x1^3", n=1)
        assert f.evaluate(pt(0.0, -2.0, 0.0)) == pytest.approx(-8.0)
        # however large the integer exponent
        f = parse("x1^10000000000", n=1)
        assert f.evaluate(pt(0.0, -1.0, 0.0)) == 1.0

    @pytest.mark.parametrize("source,x1,message", [
        ("1/x1", 0.0, "division by zero in subexpression '1/x1'"),
        ("log(x1)", -1.0,
         "log domain error: math domain error in subexpression 'log(x1)'"),
        ("log(x1)", 0.0,
         "log domain error: math domain error in subexpression 'log(x1)'"),
        ("sqrt(x1)", -1.0,
         "sqrt domain error: math domain error in subexpression 'sqrt(x1)'"),
        ("x1^0.5", -1.0, "non-integer power needs a positive base"
         " in subexpression 'x1^0.5'"),
        ("x1^0.5", 0.0, "non-integer power needs a positive base"
         " in subexpression 'x1^0.5'"),
        ("x1^(-2)", 0.0, "0.0 cannot be raised to a negative power"
         " in subexpression 'x1^(-2)'"),
        ("exp(x1)^2", 400.0, "(34, 'Numerical result out of range')"
         " in subexpression 'exp(x1)^2'"),
    ])
    def test_message_text(self, source, x1, message):
        with pytest.raises(EvalDomainError) as err:
            parse(source, n=1).evaluate(pt(0.0, x1, 0.0))
        assert str(err.value) == message


class TestHostileInput:
    @pytest.mark.parametrize("source", ["1e999*y1^2", "y1^2 + x1^1e400",
                                        "-1e400"])
    def test_non_finite_literal_rejected(self, source):
        with pytest.raises(ParseError, match="number out of range"):
            parse(source, n=1)

    def test_overflowing_constant_compiles(self):
        # constant folding may overflow; the compiled code must still run
        f = parse("1e200*1e200*y1^2", n=1)
        assert f.evaluate(pt(0.0, 0.0, 1.0)) == math.inf
        assert f.differentiate((0, 0, 3)).evaluate(pt(0.0, 0.0, 1.0)) == 0.0

    def test_nesting_limit(self):
        ok = "(" * (MAX_NESTING - 1) + "y1" + ")" * (MAX_NESTING - 1)
        assert parse(ok, n=1).evaluate(pt(0.0, 0.0, 2.0)) == 2.0
        deep = "(" + ok + ")"
        with pytest.raises(ParseError, match="nested more than"):
            parse(deep, n=1)
        with pytest.raises(ParseError, match="nested more than"):
            parse("sin(" * 1500 + "y1" + ")" * 1500, n=1)

    def test_long_unary_minus_run(self):
        f = parse("-" * 3001 + "y1^2", n=1)
        assert f.evaluate(pt(0.0, 0.0, 3.0)) == -9.0

    @pytest.mark.parametrize("source", ["x\u00b2", "1\u00b2", "y1^\u00b2",
                                        "\u00b3"])
    def test_digit_like_characters_are_parse_errors(self, source):
        # superscript digits pass str.isdigit but not float() or int()
        with pytest.raises(ParseError):
            parse(source, n=1)

    def test_too_deep_to_compile_is_an_expr_error(self):
        # one temporary per node: a 300-deep chain compiles, bit for bit
        node = Var(1)
        for _ in range(300):
            node = Call("sin", node)
        (value,) = compile_node([node], 1)(0.0, [0.7], [0.0])
        expected = 0.7
        for _ in range(300):
            expected = math.sin(expected)
        assert value.hex() == expected.hex()
        # the emitter recurses once per level; past the recursion limit it
        # must raise ExprError, never RecursionError
        for _ in range(sys.getrecursionlimit()):
            node = Call("sin", node)
        with pytest.raises(ExprError, match="too deeply to compile"):
            compile_node([node], 1)

    def test_long_division_chain_is_an_expr_error(self):
        # a/b/c/... nests one level per operand without any parentheses,
        # so the parser accepts it and differentiation must not overflow
        f = parse("y1^2 + " + "/".join(["x1"] * 3000), n=1)
        with pytest.raises(ExprError, match="too deeply to differentiate"):
            f.differentiate((0, 1, 0)).evaluate(pt(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("source,message", [
        ("", "unexpected end of input (line 1, column 1)"),
        ("   ", "unexpected end of input (line 1, column 4)"),
        ("y1 +\n* y1", "unexpected character '*' (line 2, column 1)"),
        ("y1^2^3", "unexpected trailing input '^3' (line 1, column 5)"),
        ("y1^(x1)", "exponent must be a constant (line 1, column 4)"),
        ("sin + 1",
         "function 'sin' needs an argument list (line 1, column 1)"),
        ("2exp(t)", "malformed number exponent (line 1, column 1)"),
        (".", "malformed number (line 1, column 1)"),
        ("(y1", "expected ')', found end of input (line 1, column 4)"),
        ("x²", "unknown identifier 'x²' (line 1, column 1)"),
        ("\ty1 @", "unexpected trailing input '@' (line 1, column 5)"),
        ("x1 +\n  (y1 *\n   )",
         "unexpected character ')' (line 3, column 4)"),
    ])
    def test_parse_error_text_and_position(self, source, message):
        with pytest.raises(ParseError) as exc:
            parse(source, n=1)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


class TestDifferentiate:
    def test_third_mixed_partial(self):
        # d^3 (t * x1 * y1^2) / dt dy1^2 = 2 * x1
        f = parse("t * x1 * y1^2", n=1)
        d = f.differentiate((1, 0, 2))
        assert d.evaluate(pt(0.7, 3.0, -2.0)) == pytest.approx(6.0)

    def test_exponential_time_derivative(self):
        f = parse("exp(2*t)", n=1)
        d = f.differentiate((1, 0, 0))
        assert d.evaluate(pt(0.0, 0.0, 0.0)) == pytest.approx(2.0)

    def test_metric_coefficient_derivative(self):
        f = parse("sin(x1)^2*y2^2", n=2)
        d = f.differentiate((0, 1, 0, 0, 0))
        val = d.evaluate(pt(0.0, (math.pi / 4, 0.0), (0.0, 1.0)))
        assert val == pytest.approx(1.0)  # 2 sin cos = sin(pi/2)

    def test_quotient_rule(self):
        f = parse("y1/(1+x1^2)", n=1)
        d = f.differentiate((0, 1, 0))
        x1 = 0.5
        expected = -2 * x1 * 1.3 / (1 + x1**2) ** 2
        assert d.evaluate(pt(0.0, x1, 1.3)) == pytest.approx(expected)

    def test_abs_derivative_away_from_zero(self):
        f = parse("abs(x1)", n=1)
        d = f.differentiate((0, 1, 0))
        assert d.evaluate(pt(0, 2.5, 0)) == pytest.approx(1.0)
        assert d.evaluate(pt(0, -2.5, 0)) == pytest.approx(-1.0)

    def test_abs_derivative_at_zero_is_domain_error(self):
        f = parse("abs(x1)", n=1)
        d = f.differentiate((0, 1, 0))
        with pytest.raises(EvalDomainError):
            d.evaluate(pt(0, 0.0, 0))

    def test_mixed_partials_are_the_same_object(self):
        f = parse("sin(x1*y1) * exp(t*y1)", n=1)
        d_xy = f.differentiate((0, 1, 0)).differentiate((0, 0, 1))
        d_yx = f.differentiate((0, 0, 1)).differentiate((0, 1, 0))
        assert d_xy.ast is d_yx.ast  # canonical cache ordering
        p = pt(0.3, 0.7, -0.4)
        assert d_xy.evaluate(p) == d_yx.evaluate(p)  # bitwise equal

    def test_order_cap_enforced(self):
        f = parse("y1^2", n=1)
        with pytest.raises(DerivativeOrderError):
            f.differentiate((2, 2, 2))

    def test_chained_differentiate_respects_cap(self):
        f = parse("y1^6", n=1)
        d3 = f.differentiate((0, 0, 3))
        with pytest.raises(DerivativeOrderError):
            d3.differentiate((0, 0, 3))

    def test_shared_subtrees_are_differentiated_once(self):
        # each derivative of a chain of k quotients reuses the subtrees
        # below it; taking each shared subtree's derivative once keeps the
        # third derivative near k^2 nodes (165,507 objects at k = 40 when
        # every appearance was differentiated anew)
        f = parse("/".join(["x1"] * 40), n=1)
        d = f.differentiate((0, 3, 0))
        assert sum(1 for _ in d.ast.walk()) < 4000
        assert d.evaluate(pt(0.0, 0.7, 0.0)) \
            == pytest.approx(-38 * -39 * -40 * 0.7 ** -41)

    def test_product_rule_leaves_out_only_pieces_mul_folds_to_zero(self):
        # a piece whose factor derivative is 0 is left out, as mul folds it
        # to 0; beside an overflowed constant inf*0 is nan, so it stays
        f = parse("1e308*y1^5*cos(y2) + 3*x1*y1^2*sin(t*y2) + y2", 2)
        trees = [f.ast, f.differentiate((0, 0, 0, 1, 0)).ast]
        products = [nd for tree in trees for nd in tree.walk()
                    if isinstance(nd, Mul)]
        assert any(isinstance(c, Const) and math.isinf(c.value)
                   for nd in products for c in nd.factors)
        for nd in products:
            for var in range(5):
                every = expr.add(*(
                    expr.mul(*nd.factors[:i], fi.diff(var), *nd.factors[i + 1:])
                    for i, fi in enumerate(nd.factors)))
                assert to_source(nd.diff(var), 2) == to_source(every, 2)

    def test_derivative_cache_is_thread_safe(self):
        f = parse("sin(x1*y1)*exp(t) + y1^4/(2+x1^2)", n=1)
        results = []

        def worker():
            d = f.differentiate((1, 1, 1))
            results.append(d.evaluate(pt(0.2, 0.4, 0.6)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(set(results)) == 1


class TestDualPoints:
    """At a dual point a field's value is its Taylor polynomial, from the
    exact partials, to the point's depth."""

    F = "sin(x1)*y2^3 + t*x2*y1^2 + exp(t*x1)"
    Z = np.array([0.3, 0.5, -0.2, 0.7, 1.1])

    def partial(self, f, *axes):
        idx = [0] * 5
        for a in axes:
            idx[a] += 1
        return f.differentiate(tuple(idx)).evaluate(self.Z)

    def test_first_order_tangent_is_the_gradient(self):
        f = parse(self.F, n=2)
        v = f.evaluate(Dual(self.Z, np.eye(5)))
        assert v.depth == 1 and v.val == f.evaluate(self.Z)
        grad = [self.partial(f, a) for a in range(5)]
        assert v.tan.tolist() == grad

    def test_nested_point_carries_the_hessian(self):
        f = parse(self.F, n=2)
        first = Dual(self.Z, np.eye(5))
        v = f.evaluate(Dual(first, np.eye(5)))
        assert v.depth == 2
        hess = [[self.partial(f, a, b) for b in range(5)] for a in range(5)]
        np.testing.assert_allclose(v.tan.tan, hess, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(v.tan.val, v.val.tan)

    def test_order_above_the_cap_is_refused(self):
        # the order-1 partials of the order-4 field pass the cap, and its
        # order-2 ones are the first past it, beside a field of order 0
        f = parse("y1^6", n=1).differentiate((0, 0, 4))
        point = Dual(Dual(np.zeros(3), np.eye(3)), np.eye(3))
        for fields in ((f,), (parse("y1^6", n=1), f)):
            with pytest.raises(DerivativeOrderError,
                               match="^total derivative order 6 exceeds cap 5$"):
                expr.evaluate_fields(fields, point)

    def test_tables_compile_on_the_first_dual_read(self, monkeypatch):
        from jetlag.geometry import LagrangeSpace, curvature
        compiles = []
        compile_fn = expr.compile_node
        monkeypatch.setattr(expr, "compile_node",
                            lambda *a: compiles.append(a) or compile_fn(*a))
        sp = LagrangeSpace(2, parse("(1 + x1^2)*y1^2 + y2^2*exp(t)", 2),
                           parse("1 + t", 2))
        assert compiles == []
        sp.geometry_at(self.Z)
        at_first_point = len(compiles)
        curvature(sp, self.Z)
        assert len(compiles) > at_first_point
        after_dual = len(compiles)
        curvature(sp, self.Z + 0.01)
        assert len(compiles) == after_dual


class TestFieldGroups:
    """A field group is any tuple of fields of one n, in one compiled call."""

    def test_mixed_fields_keep_their_own_bits(self):
        # partials of L with h11 and its derivative, as a space reads them
        L = parse(TestDualPoints.F, n=2)
        h11 = parse("1 + t^2*sqrt(t)", n=2)
        fields = (L.differentiate((0, 0, 0, 2, 0)), h11,
                  h11.differentiate((1, 0, 0, 0, 0)), L,
                  L.differentiate((1, 0, 1, 0, 1)))
        q = TestDualPoints.Z
        fused = expr.evaluate_fields(fields, q)
        assert [v.hex() for v in fused] == [f.evaluate(q).hex()
                                            for f in fields]
        for depth in (1, 2):
            q = Dual(q, np.eye(5))
            fused = expr.evaluate_fields(fields, q)
            for k, f in enumerate(fields):
                assert fused[k].depth == depth
                assert fused[k].tobytes() == f.evaluate(q).tobytes(), f

    def test_fields_of_different_n_are_refused(self):
        fields = (parse("y1^2", n=1), parse("y1^2", n=2))
        with pytest.raises(ValueError, match="fields of one n"):
            expr.evaluate_fields(fields, [0.0, 1.0, 1.0])


class TestTaylorPlans:
    """A depth-d plan is a chain of groups, the fields' own and then the
    new partials of each order, so each partial is derived and compiled
    once however many depths read it."""

    @staticmethod
    def count_diffs(monkeypatch) -> list:
        calls = []
        for cls in (Const, Var, Neg, Add, Mul, Div, Pow, Call):
            monkeypatch.setattr(cls, "_diff", lambda self, var, memo, _d=cls._diff:
                                calls.append(var) or _d(self, var, memo))
        return calls

    @staticmethod
    def partials(sp) -> list:
        groups = []
        for depth in (1, 2):
            groups, _ = sp.L._table.taylor_plan(sp._fields, depth)
        return [f for g in groups for f in g[0]]

    def test_each_partial_is_derived_once(self, monkeypatch):
        # one diff memo per table and variable: 786 _diff calls, where a
        # fresh memo per derivative took 1,543
        sp = load_config("electrodynamics_l2").space
        calls = self.count_diffs(monkeypatch)
        fields = self.partials(sp)
        asts = [f.ast for f in fields]
        assert len(calls) == 786
        assert len(set(fields)) == len(fields)
        # a second request meets the same plan and builds nothing
        assert self.partials(sp) == fields
        assert [f.ast for f in fields] == asts and len(calls) == 786
        # each tree is the one a fresh memo per diff call derives along the
        # same canonical path, the lowest variable first
        for f in fields:
            node = f._table.field((0,) * len(f._offset)).ast
            for var, order in enumerate(f._offset):
                for _ in range(order):
                    node = node.diff(var)
            assert to_source(node, f.n) == f.to_source(), f._offset

    @pytest.mark.parametrize("depth, x1", [(1, 1e-200), (2, 1e-120)])
    def test_a_higher_segment_names_the_error_of_one_group(self, depth, x1):
        # 1/x1 and its partials up to depth - 1 are finite at x1, and the
        # next one divides by x1^(2 depth), which underflows to 0
        fields = (parse("sin(x1)*y1", 1), parse("1/x1 + y1^2", 1))
        z = point = np.array([0.0, x1, 0.5])
        for _ in range(depth):      # every lower segment is in its domain
            expr.evaluate_fields(fields, point)
            lower, point = point, Dual(point, np.eye(3))
        with pytest.raises(EvalDomainError) as got:
            expr.evaluate_fields(fields, point)
        expr.evaluate_fields(fields, lower)     # which reads no higher one
        table = fields[-1]._table
        groups, _ = table.taylor_plan(fields, depth)
        assert len(groups) == depth + 1
        one = [tuple(f for g in groups for f in g[0]), None]
        with pytest.raises(EvalDomainError) as want:
            table.values(one, z.tolist())
        assert str(got.value) == str(want.value)
        assert "division by zero" in str(got.value)


class TestJetPartials:
    def test_table_of_second_order(self):
        f = parse("y1^2", n=1)
        table = jet_partials(f, pt(0.0, 0.0, 3.0), 2)
        assert table[(0, 0, 0)] == pytest.approx(9.0)
        assert table[(0, 0, 1)] == pytest.approx(6.0)
        assert table[(0, 0, 2)] == pytest.approx(2.0)
        assert table[(1, 0, 0)] == 0.0

    def test_entry_count(self):
        f = parse("y1 + x1 + t", n=1)
        table = jet_partials(f, pt(0, 0, 0), 2)
        # multi-indices over 3 vars with total <= 2: C(3,0)+..: 1+3+6 = 10
        assert len(table) == 10

    def test_domain_error_reports_subexpression(self):
        f = parse("log(x1)", n=1)
        with pytest.raises(EvalDomainError) as err:
            jet_partials(f, pt(0.0, -1.0, 0.0), 1)
        assert "log(x1)" in str(err.value) or "x1" in str(err.value)

    def test_order_beyond_cap(self):
        f = parse("y1^2", n=1)
        with pytest.raises(DerivativeOrderError):
            jet_partials(f, pt(0, 0, 0), 6)


# ---------------------------------------------------------------------------
# properties: FD oracle, mixed-partial symmetry, round trip
# ---------------------------------------------------------------------------


class TestDerivativeOracle:
    def test_against_fd_on_random_asts(self):
        """Symbolic first partials track an independent FD oracle."""
        rng = random.Random(20260815)
        n = 2
        checked = 0
        asts = 0
        while asts < 300:
            node = random_ast(rng, n, depth=5)
            field = ScalarField(node, n)
            points = usable_test_points(field, rng, 3)
            if not points:
                continue
            asts += 1
            for z in points:
                for axis in range(2 * n + 1):
                    idx = tuple(1 if a == axis else 0 for a in range(2 * n + 1))
                    sym = field.differentiate(idx).evaluate(z)
                    fd = fd_partial(field.evaluate, z, axis)
                    assert abs(sym - fd) / (1.0 + abs(sym)) < 1e-6, (
                        f"axis {axis} of {field.to_source()}"
                    )
                    checked += 1
        assert checked > 1000

    def test_every_builtin_function_is_covered(self):
        rng = random.Random(7)
        z = np.array([0.3, -0.4, 0.7])
        for src in (
            "sin(x1*y1)",
            "cos(x1+t)",
            "tan(0.4*sin(y1))",
            "exp(sin(x1))",
            "log(2+x1^2)",
            "sqrt(1.5+y1^2)",
            "abs(1.2+x1^2)",
        ):
            field = parse(src, n=1)
            for axis in range(3):
                idx = tuple(1 if a == axis else 0 for a in range(3))
                sym = field.differentiate(idx).evaluate(z)
                fd = fd_partial(field.evaluate, z, axis)
                assert abs(sym - fd) / (1.0 + abs(sym)) < 1e-6, src
        _ = rng  # seed reserved for future widening


class TestRoundTrip:
    def test_print_parse_round_trip_random(self):
        rng = random.Random(99)
        n = 2
        done = 0
        while done < 200:
            node = random_ast(rng, n, depth=5)
            f1 = ScalarField(node, n)
            f2 = parse(f1.to_source(), n)
            points = usable_test_points(f1, rng, 3)
            if not points:
                continue
            done += 1
            for z in points:
                a, b = f1.evaluate(z), f2.evaluate(z)
                assert abs(a - b) <= 1e-12 * (1.0 + abs(a))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_hypothesis_seeds(self, seed):
        rng = random.Random(seed)
        node = random_ast(rng, 1, depth=4)
        f1 = ScalarField(node, 1)
        f2 = parse(f1.to_source(), 1)
        z = np.array([0.37, -0.21, 0.55])
        try:
            a = f1.evaluate(z)
        except EvalDomainError:
            return
        assert f2.evaluate(z) == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_specific_layouts(self):
        for src in (
            "y1^2 + 2*y1*y2",
            "-x1^2 - -y1",
            "(t + x1)*(t - x1)",
            "x1^(-2) + y2/(1 + t^2)",
            "sin(x1)^2*y2^2 + cos(x2)*y1",
        ):
            f1 = parse(src, n=2)
            f2 = parse(f1.to_source(), n=2)
            z = np.array([0.3, 0.8, -0.6, 1.1, 0.9])
            assert f1.evaluate(z) == pytest.approx(f2.evaluate(z), rel=1e-14)


class TestSimplification:
    def test_constant_folding(self):
        f = parse("2*3 + 4", n=1)
        assert f.to_source() == "10"

    def test_zero_and_one_identities(self):
        assert parse("0*y1 + x1*1", n=1).to_source() == "x1"
        assert parse("y1^1", n=1).to_source() == "y1"
        assert parse("y1^0", n=1).to_source() == "1"

    def test_zero_derivative_collapses(self):
        f = parse("x1*y1 + 7", n=1)
        d = f.differentiate((1, 0, 0))
        assert d.to_source() == "0"


    def test_zero_numerator_folds(self):
        assert parse("0/x1", n=1).to_source() == "0"
        # the quotient rule leaves no 0/x1 terms in L_y1y1
        f = parse("y1^2 + 1/x1", n=1)
        assert f.differentiate((0, 0, 2)).to_source() == "2"


# ---------------------------------------------------------------------------
# nodes: immutable, compared by identity, walked without recursion
# ---------------------------------------------------------------------------


class TestNodes:
    @pytest.mark.parametrize("node", [
        Const(1.0), Var(1), Neg(Var(1)), Add((Var(1), Var(2))),
        Mul((Var(1), Var(2))), Div(Var(1), Var(2)), Pow(Var(1), 3.0),
        Call("sin", Var(1))], ids=lambda nd: type(nd).__name__)
    def test_nodes_are_immutable(self, node):
        message = f"{type(node).__name__} is immutable"
        for name in (*type(node).__slots__, "extra"):
            with pytest.raises(AttributeError, match=message):
                setattr(node, name, Var(0))
        for name in type(node).__slots__:
            with pytest.raises(AttributeError, match=message):
                delattr(node, name)

    def test_walk_yields_each_node_object_once(self):
        x, y = Var(1), Var(2)
        s = Add((x, y))
        root = Div(Mul((s, s, x)), Pow(s, 2.0))
        nodes = list(root.walk())
        assert len(nodes) == 6
        assert {id(nd) for nd in nodes} == {
            id(nd) for nd in (root, root.num, root.den, s, x, y)}
        # equal but distinct objects are distinct nodes
        twins = Add((Var(1), Var(1)))
        assert len(list(twins.walk())) == 3
        assert twins.variables() == {1}

    def test_field_deeper_than_the_recursion_limit(self):
        node = Var(2)
        for _ in range(sys.getrecursionlimit() + 100):
            node = Call("sin", node)
        f = ScalarField(node, 1)
        assert f.variables() == {2}
        with pytest.raises(ExprError, match="too deeply to compile"):
            f.evaluate(pt(0.0, 0.0, 0.5))
        with pytest.raises(ValueError, match="variable index 5"):
            ScalarField(Add((node, Var(5))), 2)


class TestJetPoint:
    def test_round_trip_array(self):
        p = JetPoint(0.5, (1.0, 2.0), (3.0, 4.0))
        q = jet_point(p.as_array(), 2)
        assert p == q

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JetPoint(float("nan"), (0.0,), (0.0,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            JetPoint(0.0, (0.0, 1.0), (0.0,))


def test_to_source_module_function_matches_method():
    f = parse("y1^2/(1+x1^2)", n=1)
    assert to_source(f.ast, 1) == f.to_source()
