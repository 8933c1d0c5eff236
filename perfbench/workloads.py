"""The three benchmark workloads: seeded inputs, one cold invocation per
builtin, and the checks that decide whether an invocation's output is right.

An invocation is what one ``jetlag`` command line call on one builtin does:
a fresh ``cli.load_config`` (so every cache and every compiled derivative
starts empty), the set-up that ends when each space the work uses directly
has returned its first ``geometry_at``, then the timed work.  Every call
into the package goes through a module attribute (``checks.run_checks``,
never a name imported from it), so the tracer's wrappers see it.
"""

from __future__ import annotations

import math

import numpy as np

from jetlag import checks, cli, dtensor, dynamics, geometry
from jetlag.expr import JetPoint

BUILTINS = ("sphere_l1", "electrodynamics_l2", "nonautonomous_l3")

CHECK_POINTS = 100          # the `jetlag check` default
CURVE_STEPS = 1000
CURVE_STEP = 1e-3
CHART_POINTS = 100

# The sphere_l1 curve is the README's equator example.
EQUATOR_X0 = (1.5707963, 0.0)
EQUATOR_Y0 = (0.0, 1.0)
EQUATOR_END = (math.pi / 2, 1.0)
EQUATOR_END_TOL = 1e-7      # x0 above is pi/2 to 8 digits
EQUATOR_ACTION_TOL = 1e-10  # "1.0 to ten digits"

# Largest |el_residual| over seeds 0-39 on the seed code: 8.1e-6
# (electrodynamics_l2; a 3-point second difference at step 1e-3 leaves an
# O(step^2) remainder).  The bound leaves 12x headroom and still catches
# a spray or integrator that is wrong by more than truncation.
EL_RESIDUAL_BOUND = 1e-4

# Suites run_checks reports per builtin (maxwell-simple only for the L1
# and L2 families), and those that are report-only.
_SUITES = ("metricity", "h-metricity", "el-spray", "antisymmetry", "bianchi",
           "deflection", "maxwell", "maxwell-simple", "gauge", "conservation")
EXPECTED_SUITES = {
    "sphere_l1": _SUITES,
    "electrodynamics_l2": _SUITES,
    "nonautonomous_l3": tuple(s for s in _SUITES if s != "maxwell-simple"),
}
REPORT_ONLY = {"nonautonomous_l3": {"conservation"}}


def _sub_seed(seed: int, index: int, stream: int) -> int:
    """A package-facing integer seed for one builtin and one input stream."""
    return int(np.random.SeedSequence([seed, index, stream])
               .generate_state(1)[0])


def make_inputs(workload: str, seed: int) -> dict:
    """Per-builtin inputs drawn from the run seed; the same seed gives the
    same inputs.  Curve initial data comes from the middle half of each
    configured range, so the 1000-step curves stay clear of the sphere
    poles; t0 is a multiple of 1/64 so that t1 - t0 is exactly 1."""
    out = {}
    for i, name in enumerate(BUILTINS):
        if workload == "curve":
            if name == "sphere_l1":
                out[name] = {"x0": np.array(EQUATOR_X0),
                             "y0": np.array(EQUATOR_Y0), "t0": 0.0}
                continue
            ranges = cli.load_config(name).ranges
            rng = np.random.default_rng(_sub_seed(seed, i, 0))
            lo, span = ranges[:, 0], ranges[:, 1] - ranges[:, 0]
            z = lo + span * (0.25 + 0.5 * rng.random(len(lo)))
            n = (len(lo) - 1) // 2
            t0 = math.ceil(lo[0] * 64) / 64
            t0 += math.floor(rng.random() * (ranges[0, 1] - t0) * 64) / 64
            out[name] = {"x0": z[1:n + 1], "y0": z[n + 1:], "t0": t0}
        else:
            out[name] = {"point_seed": _sub_seed(seed, i, 1),
                         "chart_seed": _sub_seed(seed, i, 2)}
    return out


# -- set-up: fresh config until each directly used space has its first
#    geometry (for chart also the chart and the moved space) ---------------

def setup(workload: str, name: str, inputs: dict) -> dict:
    cfg = cli.load_config(name)
    mid = cfg.midpoint()
    cfg.space.geometry_at(mid)
    state = {"cfg": cfg}
    if workload == "chart":
        chart = checks.random_affine_chart(cfg.space, inputs["chart_seed"])
        moved = geometry.transformed_space(cfg.space, chart)
        moved.geometry_at(dtensor.transform_point(chart, mid))
        state.update(chart=chart, moved=moved)
    return state


# -- timed work ---------------------------------------------------------------

def _work_check(state, inputs):
    cfg = state["cfg"]
    pts = checks.sample_points(cfg.space, cfg.ranges, CHECK_POINTS,
                               inputs["point_seed"])
    return checks.run_checks(cfg.space, pts, tolerances=cfg.tolerances,
                             gauge_seed=inputs["point_seed"])


def _work_curve(state, inputs):
    sp = state["cfg"].space
    t0 = inputs["t0"]
    curve = dynamics.integrate_harmonic(sp, inputs["x0"], inputs["y0"], t0,
                                        t0 + CURVE_STEPS * CURVE_STEP,
                                        CURVE_STEP)
    return curve, dynamics.action(sp, curve)


def _work_chart(state, inputs):
    """Push spray and nonlinear connection through the chart at every
    sampled point and compare with the moved space's own values."""
    cfg, chart, moved = state["cfg"], state["chart"], state["moved"]
    sp, n = cfg.space, cfg.n
    pts = checks.sample_points(sp, cfg.ranges, CHART_POINTS,
                               inputs["point_seed"])
    worst = []
    for z in pts:
        p = JetPoint(z[0], tuple(z[1:n + 1]), tuple(z[n + 1:]))
        q = dtensor.transform_point(chart, p)
        s = geometry.canonical_spray(sp, p)
        nl = geometry.canonical_nonlinear_connection(sp, p)
        s2 = geometry.canonical_spray(moved, q)
        nl2 = geometry.canonical_nonlinear_connection(moved, q)
        pushed = dtensor.transform_nonlinear(nl, chart, p)
        # np.max, unlike max(), lets a NaN residual through to the check
        worst.append(np.max(np.abs(np.concatenate([
            dtensor.transform_temporal_spray(s.Htemp, chart, p) - s2.Htemp,
            dtensor.transform_spatial_spray(s.Gspat, chart, p) - s2.Gspat,
            pushed.M - nl2.M,
            (pushed.N - nl2.N).ravel()]))))
    return np.array(worst)


WORK = {"check": _work_check, "curve": _work_curve, "chart": _work_chart}


# -- output checks -----------------------------------------------------------

def _fingerprint(results) -> tuple:
    return tuple((r.name, r.worst.hex(), r.tol.hex(), r.passed, r.points,
                  r.note) for r in results)


def check_output(workload: str, name: str, state: dict, output,
                 first: dict) -> list:
    """Problems with one invocation's output; empty when it is right.

    ``first`` maps builtin name to the first output fingerprint seen in
    this run, for the repeatability check."""
    problems = []
    if workload == "check":
        got = tuple(r.name for r in output)
        if got != EXPECTED_SUITES[name]:
            problems.append(f"suites {got}")
        for r in output:
            if not math.isfinite(r.worst):
                problems.append(f"{r.name}: non-finite worst {r.worst}")
            if not r.passed:
                problems.append(f"{r.name}: worst {r.worst:.3e} "
                                f"vs tol {r.tol:.1e}")
            report_only = r.name in REPORT_ONLY.get(name, ())
            if bool(r.note) != report_only:
                problems.append(f"{r.name}: note {r.note!r}")
        fp = _fingerprint(output)
        if first.setdefault(name, fp) != fp:
            problems.append("results differ from the first iteration")
    elif workload == "curve":
        curve, value = output
        sp = state["cfg"].space
        if len(curve) != CURVE_STEPS + 1:
            problems.append(f"{len(curve)} samples")
        res = float(np.max(np.abs(dynamics.el_residual(sp, curve))))
        if not res < EL_RESIDUAL_BOUND:
            problems.append(f"el_residual {res:.3e}")
        if name == "sphere_l1":
            end = float(np.max(np.abs(curve.x[-1] - EQUATOR_END)))
            if not end < EQUATOR_END_TOL:
                problems.append(f"equator end off by {end:.3e}")
            if not abs(value - 1.0) < EQUATOR_ACTION_TOL:
                problems.append(f"equator action {value!r}")
        elif not math.isfinite(value):
            problems.append(f"action {value!r}")
    else:
        tol = checks.default_tolerances(state["cfg"].space.family)["gauge"]
        worst = float(np.max(output)) if len(output) else math.nan
        if len(output) != CHART_POINTS or not worst < tol:
            problems.append(f"gauge worst {worst:.3e} vs tol {tol:.1e} "
                            f"over {len(output)} points")
    return problems
