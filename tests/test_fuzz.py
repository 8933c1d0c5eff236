"""Fuzzing of the two text front ends, the expression parser and the
problem-file loader, and of expression evaluation.

Whatever the text, each front end either succeeds or raises its own error
type (ParseError/ExprError from the parser, ConfigError from the loader),
which the command line reports with exit 2.  Whatever the expression and
the point, evaluation returns floats or raises EvalDomainError.  Draws are
derandomized, so the suite stays deterministic.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetlag.cli import ConfigError, load_config
from jetlag.expr import (EvalDomainError, ExprError, FieldGroup,
                         evaluate_fields, parse)

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)

# pieces of the DSL (and near misses), so most draws get past the first
# character; raw text covers the rest
TOKENS = ["t", "x1", "y1", "x2", "y2", "x3", "y9", "1", "0", "2.5", ".5",
          "1e3", "1e999", "1e-400", "e", "+", "-", "*", "/", "^", "(", ")",
          " ", "sin", "cos", "tan", "exp", "log", "sqrt", "abs", "foo", "_",
          ",", "#", '"', "²", "١", "\n", "(" * 60, ")" * 60]

dsl_text = st.one_of(st.text(max_size=40),
                     st.lists(st.sampled_from(TOKENS), max_size=30)
                     .map("".join))


@FUZZ
@given(dsl_text, st.integers(1, 3))
def test_parse_succeeds_or_raises_expr_error(source, n):
    try:
        parse(source, n)
    except ExprError:
        pass


SECTIONS = {
    "problem": ["name", "n", "h11", "lagrangian", "family", "seed", "kappa",
                "bogus"],
    "ranges": ["t", "x1", "y1", "x2", "y2"],
    "metric": ["g11", "g12", "g22", "g21"],
    "potential": ["u1", "u2"],
    "scalar": ["f"],
    "tolerances": ["maxwell", "gauge", "bogus"],
}
PLAIN_VALUES = ["0", "1", "2", "-1", "one", "2.0", "nan", "inf", "1e999",
                "0.0 1.0", "-1 1", "1 0", "0.5 nan", "L1", "l2", "L3",
                "quadratic", '"', '""', '"1"', '"t"', '"y1^2 + y2^2"',
                '"y1^2" # note', "4.7"]

value = st.one_of(st.sampled_from(PLAIN_VALUES),
                  dsl_text.map(lambda s: f'"{s}"'),
                  st.text(max_size=12))


# well-formed expressions that leave their domain at some of the points:
# poles, logs and roots of nonpositive numbers, overflowing powers
dsl_expr = st.recursive(
    st.sampled_from(["t", "x1", "y1", "0", "1", "-1", "2.5", "400", "1e200"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(sub, st.sampled_from(["2", "3", "(-2)", "0.5", "(-0.5)",
                                        "10000000000"])).map(
            lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log",
                                   "sqrt", "abs"]), sub).map(
            lambda p: f"{p[0]}({p[1]})")),
    max_leaves=8)
PARTIALS = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 2, 0),
            (0, 1, 1)]
COORDS = st.sampled_from([0.0, -1.0, 0.5, 2.0, 400.0, 1e200])


@FUZZ
@given(dsl_expr, st.tuples(COORDS, COORDS, COORDS))
@example("(x1)^10000000000", (0.0, -1.0, 0.0))
def test_evaluation_returns_floats_or_raises_domain_error(source, z):
    f = parse(source, 1)
    partials = [f.differentiate(idx) for idx in PARTIALS]
    values, failed = [], []
    for p in partials:
        try:
            value = p.evaluate(z)
        except EvalDomainError as exc:
            failed.append(str(exc))
        else:
            assert type(value) is float
            values.append(value.hex())
    try:
        fused = evaluate_fields(FieldGroup(partials), z)
    except EvalDomainError as exc:
        # the text of the first partial that fails alone
        assert failed and str(exc) == failed[0]
    else:
        assert not failed
        assert [v.hex() for v in fused] == values


@st.composite
def config_text(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)),
                                 max_size=5)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(SECTIONS[section]),
                                 max_size=6)):
            lines.append(f"{key} = {draw(value)}")
        if draw(st.booleans()):
            lines.append(draw(st.text(max_size=20)))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"


def _load(path, text):
    path.write_text(text, encoding="utf-8")
    try:
        load_config(str(path))
    except (ConfigError, ExprError):
        pass


@FUZZ
@given(config_text())
def test_load_config_succeeds_or_raises_config_error(cfg_path, text):
    _load(cfg_path, text)


VALID = """[problem]
n = 2
h11 = "1"
lagrangian = "(1 + x1^2)*y1^2 + y2^2 + t*y1"
seed = 3

[ranges]
t = 0.0 1.0
x1 = -1.0 1.0
x2 = -1.0 1.0
y1 = 0.5 1.5
y2 = -1.0 1.0
"""


@FUZZ
@given(st.lists(st.tuples(st.integers(0, len(VALID)), st.integers(0, 3),
                          st.sampled_from(TOKENS + ["=", "[", "]", "n"])),
                max_size=4))
def test_load_config_of_an_edited_valid_file(cfg_path, edits):
    text = VALID
    for at, cut, insert in edits:
        text = text[:at] + insert + text[at + cut:]
    _load(cfg_path, text)
