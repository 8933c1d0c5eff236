"""The benchmark's span tracer still finds every hook it wraps.

perfbench/spans.py wraps package functions by name: the module bindings
of public functions, LagrangeSpace.geometry_at and connection_jets (looked
up with vars(cls)[name]), numdiff.partial (the stencil count) and the
checks._*_worst suite functions.  A renamed hook makes the tracer fail to
install or count zero, and a geometry_at miss with no traced call inside
it reads as a hit; this test shows both in the main suite, which does not
collect perfbench/selftest.py.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from jetlag import checks, geometry, numdiff
from jetlag.cli import BUILTIN_CONFIGS, load_config
from jetlag.expr import parse
from jetlag.geometry import LagrangeSpace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_counts_every_hook_then_restores_the_package():
    spans = _spans_module()
    before = (geometry.LagrangeSpace.geometry_at,
              geometry.LagrangeSpace.connection_jets, numdiff.partial,
              checks._bianchi_worst, checks.bianchi_residuals)
    sp = LagrangeSpace(1, parse("(1 + x1^2)*y1^2", 1), parse("1", 1))
    points = np.array([[0.1, 0.2, 0.7], [0.4, -0.3, 1.1]])
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.on = True
        checks.run_checks(sp, points)
        tracer.on = False
        calls = {k: v["calls"] for k, v in tracer.table().items()}
        metrics = tracer.analyse()
    finally:
        tracer.uninstall()
    assert (geometry.LagrangeSpace.geometry_at,
            geometry.LagrangeSpace.connection_jets, numdiff.partial,
            checks._bianchi_worst, checks.bianchi_residuals) == before
    for name in (spans.GEO, spans.JETS, spans.STENCIL, spans.EVAL,
                 spans.COMPILE, "expr.evaluate_fields", "checks.run_checks"):
        assert calls.get(name, 0) > 0, name
    # a geometry_at miss counts only when it has traced children, so the
    # fused evaluation inside it must be a traced call
    assert metrics["geometry.geo_misses"] \
        == metrics["geometry.geo_distinct"] > 0
    for suite in set(spans.SUITES.values()):
        assert calls.get(f"suite.{suite}", 0) == 1, suite
    # the metric moves with x alone, so the simple form runs too, and the
    # tracer tells it from the full form by the simple= argument
    assert calls["suite.maxwell-simple"] == 1


def _repeat_count(node, memo):
    """Tree size with shared subtrees counted at each appearance."""
    if id(node) not in memo:
        memo[id(node)] = 1 + sum(_repeat_count(k, memo)
                                 for k in node.children())
    return memo[id(node)]


def test_tree_size_counts_every_node_field():
    # spans._tree_size reads node fields by name for expr.compile_nodes; a
    # renamed field would make it undercount without failing
    spans = _spans_module()
    for name in BUILTIN_CONFIGS:
        sp = load_config(name).space
        for f in [sp.L] + sp._partials + [sp.h11, sp._hdot]:
            assert spans._tree_size(f.ast, {}) == _repeat_count(f.ast, {}), \
                (name, f)
