"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the package's public functions from outside: every
module-level binding of each function in a module's ``__all__`` (a module
that imports ``maxwell_residuals`` by name holds its own binding, so each
binding is replaced), plus ``expr.compile_node``, the ScalarField and
LagrangeSpace methods the layers meet at, and the private per-suite
functions of ``checks`` that are the only boundary of a suite.  Each call
records one span (name, start, end, parent) in flat in-memory arrays;
``analyse`` turns them into self times, counts and ratios after the round.
"""

from __future__ import annotations

import functools
import json
import types
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import jetlag
from jetlag import checks, cli, dtensor, dynamics, expr, fields, geometry
from jetlag import numdiff
from jetlag.expr import JetPoint

MODULES = (jetlag, expr, numdiff, dtensor, geometry, fields, dynamics,
           checks, cli)

METHODS = ((expr.ScalarField, ("evaluate", "__call__")),
           (geometry.LagrangeSpace, ("geometry_at", "connection_jets")))

SUITES = {
    "_metricity_worst": "metricity",
    "_h_metricity_worst": "h-metricity",
    "_el_spray_worst": "el-spray",
    "_antisymmetry_worst": "antisymmetry",
    "_bianchi_worst": "bianchi",
    "_deflection_worst": "deflection",
    "_conservation_worst": "conservation",
    "_gauge_worst": "gauge",
    "_maxwell_worst": "maxwell",    # or maxwell-simple, by its argument
}
REPORTED_SUITES = ("antisymmetry", "bianchi", "deflection", "maxwell",
                   "maxwell-simple", "conservation", "gauge")

GEO = "geometry.LagrangeSpace.geometry_at"
JETS = "geometry.LagrangeSpace.connection_jets"
EVAL = "expr.ScalarField.evaluate"
COMPILE = "expr.compile_node"
STENCIL = "numdiff.partial"

# (metric, unit); the order is the order they are printed in
PER_LAYER = (
    [("expr.compile_calls", "count"), ("expr.compile_nodes", "count"),
     ("expr.compile_s", "s"), ("expr.eval_calls", "count"),
     ("expr.eval_s", "s"),
     ("numdiff.stencil_calls", "count"), ("numdiff.stencil_s", "s"),
     ("geometry.geo_calls", "count"), ("geometry.geo_distinct", "count"),
     ("geometry.geo_misses", "count"), ("geometry.geo_hit_ratio", "ratio"),
     ("geometry.geo_s", "s"),
     ("geometry.builtin_ms_per_point", "ms"),
     ("geometry.transformed_ms_per_point", "ms"),
     ("geometry.jets_calls", "count"), ("geometry.jets_s", "s"),
     ("geometry.curvature_s", "s"),
     ("dtensor.covd_calls", "count"), ("dtensor.covd_s", "s"),
     ("dtensor.transform_s", "s"),
     ("fields.maxwell_s", "s"), ("fields.deflection_s", "s"),
     ("fields.conservation_s", "s"), ("fields.ricci_s", "s")]
    + [(f"checks.{s}.{m}", u) for s in REPORTED_SUITES
       for m, u in (("ms_per_point", "ms"), ("geo_per_point", "count"))]
    + [("dynamics.rk4_steps", "count"), ("dynamics.step_ms", "ms"),
       ("dynamics.action_s", "s"), ("cli.load_config_s", "s"),
       ("trace.spans", "count"), ("trace.round_s", "s"),
       ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")])

COUNT_METRICS = tuple(m for m, u in PER_LAYER if u == "count")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _targets() -> dict:
    """Original function -> span name, for every function to be wrapped."""
    out = {}
    for mod in MODULES[1:]:
        public = getattr(mod, "__all__", None)
        if public is None:
            public = [k for k in vars(mod) if not k.startswith("_")]
        for key in public:
            fn = getattr(mod, key)
            if isinstance(fn, types.FunctionType) \
                    and fn.__module__ == mod.__name__:
                out[fn] = _span_name(fn)
    out[expr.compile_node] = COMPILE
    for key, suite in SUITES.items():
        out[getattr(checks, key)] = f"suite.{suite}"
    return out


def _tree_size(root, memo: dict) -> int:
    """Node count of an expression tree, shared subtrees counted each time
    they appear (what the emitter walks); memoised on node identity."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = [k for attr in ("arg", "base", "num", "den")
                if (k := getattr(node, attr, None)) is not None]
        kids += list(getattr(node, "terms", ())) \
            + list(getattr(node, "factors", ()))
        todo = [k for k in kids if id(k) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        memo[id(node)] = (1 + sum(memo[id(k)][0] for k in kids), node)
    return memo[id(root)][0]


class Tracer:
    """Records spans while installed and switched on; one thread only."""

    def __init__(self):
        self._patches = []      # (owner, attribute, original)
        self.on = False
        self._names: list = []
        self._name_id: dict = {}
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.geo_span = array("i")      # span index of each geometry_at call
        self.geo_key = array("i")       # interned (space, point) key
        self._keys: dict = {}
        self._spaces: dict = {}         # id(space) -> (serial, space)
        self.transformed: set = set()   # serials of chart-transformed spaces
        self.suite_points: dict = {}    # span index -> points swept
        self.compiled: list = []        # (span index, node) per compile

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self._names)
            self._names.append(name)
        return self._name_id[name]

    def _serial(self, space) -> int:
        got = self._spaces.get(id(space))
        if got is None:
            # keep the space alive so its id cannot be reused this round
            got = self._spaces[id(space)] = (len(self._spaces), space)
        return got[0]

    def _wrap(self, fn, name: str, after=None, pick=None):
        """``pick(args, kwargs)``, when given, chooses the span name id."""
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(tracer.name)
            tracer.name.append(nid if pick is None else pick(args, kwargs))
            tracer.parent.append(tracer._stack[-1])
            tracer._stack.append(i)
            tracer.end.append(0.0)
            out = None
            tracer.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer.end[i] = perf_counter()
                tracer._stack.pop()
                if after is not None:
                    after(i, args, out)

        return functools.wraps(fn)(traced)

    def _after_geo(self, i, args, out):
        space, point = args[0], args[1]
        z = point.as_array() if isinstance(point, JetPoint) \
            else np.asarray(point, dtype=float)
        key = (self._serial(space), z.tobytes())
        self.geo_span.append(i)
        self.geo_key.append(self._keys.setdefault(key, len(self._keys)))

    def _after_transformed(self, i, args, out):
        if out is not None:
            self.transformed.add(self._serial(out))

    def _after_compile(self, i, args, out):
        self.compiled.append((i, args[0]))

    def _after_suite(self, i, args, out):
        self.suite_points[i] = len(args[1])

    def install(self):
        """Replace every binding of every target; idempotent per tracer."""
        if self._patches:
            return
        after = {GEO: self._after_geo, COMPILE: self._after_compile,
                 "geometry.transformed_space": self._after_transformed}
        simple = self._id("suite.maxwell-simple")
        plain = self._id("suite.maxwell")

        def maxwell_kind(args, kwargs):
            flag = args[2] if len(args) > 2 else kwargs["simple"]
            return simple if flag else plain

        wrapped = {}
        for fn, name in _targets().items():
            if name.startswith("suite."):
                wrapped[fn] = self._wrap(
                    fn, name, self._after_suite,
                    maxwell_kind if name == "suite.maxwell" else None)
            else:
                wrapped[fn] = self._wrap(fn, name, after.get(name))
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped[value])
        for cls, attrs in METHODS:
            for attr in attrs:
                fn = vars(cls)[attr]
                name = _span_name(fn)
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, name, after.get(name)))

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []
        self.on = False

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self._names),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}

    def _tables(self):
        """Span arrays plus duration, self time, child count, and calls,
        self and inclusive seconds per name id."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        kids = parent >= 0
        self_s = dur - np.bincount(parent[kids], weights=dur[kids],
                                   minlength=len(name))
        n_kids = np.bincount(parent[kids], minlength=len(name))
        width = len(self._names)
        per_name = (np.bincount(name, minlength=width),
                    np.bincount(name, weights=self_s, minlength=width),
                    np.bincount(name, weights=dur, minlength=width))
        return name, parent, dur, n_kids, per_name

    def table(self) -> dict:
        """Calls, self and inclusive seconds per span name."""
        calls, selft, incl = self._tables()[-1]
        return {n: {"calls": int(calls[i]), "self_s": float(selft[i]),
                    "incl_s": float(incl[i])}
                for i, n in enumerate(self._names) if calls[i]}

    def analyse(self) -> dict:
        """Per-layer metrics of everything recorded since the last reset.

        ``_s`` metrics are self times (a span's duration less its
        children's); per-point and per-step metrics, ``action_s`` and
        ``load_config_s`` use the inclusive time of the named span."""
        name, parent, dur, n_kids, (calls, selft, incl) = self._tables()
        size = len(name)

        def nid(n):
            return self._name_id.get(n, -1)

        def count(n):
            return int(calls[nid(n)]) if nid(n) >= 0 else 0

        def own(*names):
            return float(sum(selft[nid(n)] for n in names if nid(n) >= 0))

        def total(n):
            return float(incl[nid(n)]) if nid(n) >= 0 else 0.0

        def is_(n):
            return name == nid(n)

        def nearest(mask):
            """Index of the nearest ancestor-or-self span in mask, or -1."""
            near = np.where(mask, np.arange(size), parent)
            while True:
                todo = near >= 0
                todo[todo] = ~mask[near[todo]]
                if not todo.any():
                    return near
                near[todo] = parent[near[todo]]

        # geometry_at: a miss computes, so it has child spans (evaluate)
        geo_span = np.frombuffer(self.geo_span, dtype=np.int32)
        geo_key = np.frombuffer(self.geo_key, dtype=np.int32)
        miss = n_kids[geo_span] > 0
        key_space = np.array([k[0] for k in self._keys], dtype=int)
        moved = np.zeros(size, dtype=bool)
        moved[geo_span] = np.isin(key_space[geo_key], list(self.transformed))

        # cost of a miss, less the compiles nested in it
        comp = np.array([i for i, _ in self.compiled], dtype=int)
        in_geo = nearest(is_(GEO))[comp]
        comp_time = np.bincount(in_geo[in_geo >= 0],
                                weights=dur[comp[in_geo >= 0]],
                                minlength=size)

        def ms_per_point(on_moved):
            """Median over misses, so one-time derivative building on a
            space's first point does not count."""
            spans = geo_span[miss & (moved[geo_span] == on_moved)]
            if not len(spans):
                return 0.0
            return 1e3 * float(np.median(dur[spans] - comp_time[spans]))

        memo: dict = {}
        out = {
            "expr.compile_calls": count(COMPILE),
            "expr.compile_nodes": sum(_tree_size(node, memo)
                                      for _, node in self.compiled),
            "expr.compile_s": own(COMPILE),
            "expr.eval_calls": count(EVAL),
            "expr.eval_s": own(EVAL),
            "numdiff.stencil_calls": count(STENCIL),
            "numdiff.stencil_s": own(STENCIL),
            "geometry.geo_calls": len(geo_span),
            "geometry.geo_distinct": len(self._keys),
            "geometry.geo_misses": int(miss.sum()),
            "geometry.geo_hit_ratio":
                1.0 - float(miss.sum()) / len(geo_span) if len(geo_span)
                else 0.0,
            "geometry.geo_s": own(GEO),
            "geometry.builtin_ms_per_point": ms_per_point(False),
            "geometry.transformed_ms_per_point": ms_per_point(True),
            "geometry.jets_calls": count(JETS),
            "geometry.jets_s": own(JETS),
            "geometry.curvature_s": own("geometry.curvature"),
            "dtensor.covd_calls": count("dtensor.covariant_derivative"),
            "dtensor.covd_s": own("dtensor.covariant_derivative"),
            "dtensor.transform_s": own(
                "dtensor.transform_point", "dtensor.transform_temporal_spray",
                "dtensor.transform_spatial_spray",
                "dtensor.transform_nonlinear", "dtensor.transform_tensor",
                "dtensor.gauge_transform"),
            "fields.maxwell_s": own("fields.maxwell_residuals",
                                    "fields.maxwell_simple_residuals"),
            "fields.deflection_s": own("fields.deflections",
                                       "fields.deflection_identities"),
            "fields.conservation_s": own("fields.conservation_residuals"),
            "fields.ricci_s": own("fields.ricci_and_scalar"),
        }

        # suites: inclusive time per swept point, distinct geometries per
        # point (what the suite would evaluate on cold caches)
        suite_of = nearest(np.isin(name, [nid(f"suite.{s}")
                                          for s in REPORTED_SUITES]))
        geo_suite = suite_of[geo_span]
        for s in REPORTED_SUITES:
            spans = np.flatnonzero(is_(f"suite.{s}"))
            points = sum(self.suite_points[i] for i in spans)
            distinct = sum(len(np.unique(geo_key[geo_suite == i]))
                           for i in spans)
            out[f"checks.{s}.ms_per_point"] = \
                1e3 * float(dur[spans].sum()) / points if points else 0.0
            out[f"checks.{s}.geo_per_point"] = \
                distinct / points if points else 0.0

        integ = is_("dynamics.integrate_harmonic")
        rhs = is_("dynamics.harmonic_rhs") & (nearest(integ) >= 0)
        steps = int(rhs.sum()) // 4
        out["dynamics.rk4_steps"] = steps
        out["dynamics.step_ms"] = \
            1e3 * float(dur[integ].sum()) / steps if steps else 0.0
        out["dynamics.action_s"] = total("dynamics.action")
        out["cli.load_config_s"] = total("cli.load_config")
        out["trace.spans"] = size
        return out

    def write(self, directory: Path, stem: str, report: dict) -> None:
        """Spans as .npz (name ids index `names`; parent -1 is a root) and
        the report plus the per-name table as .json."""
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / f"{stem}.npz", **self.arrays())
        report = dict(report, spans_by_name=self.table())
        (directory / f"{stem}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
