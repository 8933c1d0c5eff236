"""The benchmark's span tracer still finds every hook it wraps.

perfbench/spans.py wraps package functions by name: the module bindings
of public functions, LagrangeSpace.geometry_at and connection_jets (looked
up with vars(cls)[name]), numdiff.partial (the stencil count, which reads
0 since the package differentiates by forward mode) and the
checks._*_worst suite functions.  A renamed hook makes the tracer fail to
install or count zero, and a geometry_at miss with no traced call inside
it reads as a hit; this test shows both in the main suite, which does not
collect perfbench/selftest.py.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

from jetlag import checks, dynamics, fields, geometry, numdiff
from jetlag.cli import BUILTIN_CONFIGS, load_config
from jetlag.expr import parse
from jetlag.dual import Dual
from jetlag.geometry import LagrangeSpace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_counts_every_hook_then_restores_the_package(monkeypatch):
    spans = _spans_module()
    # every geometry computed, counted outside the tracer
    computed = []
    compute = LagrangeSpace._compute_geo

    def counted(self, z):
        computed.append(isinstance(z, Dual))
        return compute(self, z)

    monkeypatch.setattr(LagrangeSpace, "_compute_geo", counted)
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
        calls = {k: v["calls"] for k, v in tracer.table().items()}
        metrics = tracer.analyse()
        in_checks = list(computed)
        # the report-only deflection route and a one-field evaluation are
        # traced hooks, yet no suite calls them
        fields.deflection_route(sp, points[0])
        sp.L.evaluate(points[0])
        tracer.on = False
        after = {k: v["calls"] for k, v in tracer.table().items()}
    finally:
        tracer.uninstall()
    assert (geometry.LagrangeSpace.geometry_at,
            geometry.LagrangeSpace.connection_jets, numdiff.partial,
            checks._bianchi_worst, checks.bianchi_residuals) == before
    for name in (spans.GEO, spans.JETS,
                 spans.COMPILE, "expr.evaluate_fields", "checks.run_checks"):
        assert calls.get(name, 0) > 0, name
    assert spans.STENCIL not in calls
    # a geometry_at miss counts only when it has traced children, so the
    # fused evaluation inside it must be a traced call; the tracer keys a
    # dual point on its base point, so only float points count as distinct
    assert metrics["geometry.geo_misses"] == len(in_checks)
    assert metrics["geometry.geo_distinct"] == in_checks.count(False) > 0
    assert in_checks.count(True) > 0
    for suite in set(spans.SUITES.values()):
        assert calls.get(f"suite.{suite}", 0) == 1, suite
    # the metric moves with x alone, so the simple form runs too, and the
    # tracer tells it from the full form by the simple= argument
    assert calls["suite.maxwell-simple"] == 1
    for name in ("fields.deflection_route", spans.EVAL):
        assert name not in calls and after[name] == 1, name


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
        for f in (sp.L,) + sp._fields:
            assert spans._tree_size(f.ast, {}) == _repeat_count(f.ast, {}), \
                (name, f)


def test_traced_check_times_curvature_and_the_jets():
    # curvature reads its table off the cached geometry; a first read
    # builds it, and the jets by one connection_jets call, inside the
    # curvature span, so curvature's own time (curvature_s) reads > 0
    spans = _spans_module()
    cfg = load_config("electrodynamics_l2")
    points = checks.sample_points(cfg.space, cfg.ranges, 10, seed=cfg.seed)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.on = True
        checks.run_checks(cfg.space, points, gauge_seed=cfg.seed)
        tracer.on = False
        calls = {k: v["calls"] for k, v in tracer.table().items()}
        metrics = tracer.analyse()
    finally:
        tracer.uninstall()
    assert calls.get("geometry.curvature", 0) > 0
    assert calls.get(spans.JETS, 0) > 0
    assert metrics["geometry.curvature_s"] > 0
    assert metrics["geometry.jets_calls"] == calls[spans.JETS]


def test_traced_curve_sees_every_stage_and_its_fused_evaluations():
    # integrate_harmonic reaches geometry_at through the module's
    # harmonic_rhs once per stage, and a miss reaches the compiled partials
    # through geometry's binding of evaluate_fields: both are traced, so
    # the tracer counts the stages and tells every miss from a hit
    spans = _spans_module()
    sp = load_config("sphere_l1").space
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.on = True
        dynamics.integrate_harmonic(sp, [1.2, 0.1], [0.3, 0.8], 0.0, 1.0, 0.1)
        tracer.on = False
        calls = {k: v["calls"] for k, v in tracer.table().items()}
        metrics = tracer.analyse()
        a = tracer.arrays()
    finally:
        tracer.uninstall()
    assert calls["dynamics.harmonic_rhs"] == 40
    assert metrics["dynamics.rk4_steps"] == 10
    assert metrics["geometry.geo_misses"] == calls[spans.GEO] == 40
    names = list(a["names"])
    geo = np.flatnonzero(a["name"] == names.index(spans.GEO))
    fused = a["parent"][a["name"] == names.index("expr.evaluate_fields")]
    assert np.isin(geo, fused).all()
