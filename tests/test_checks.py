"""Unit tests for the identity-sweep driver.

The command-line tests exercise run_checks end to end; these pin the
sampling, budgeting, gating, and ranking behaviour directly.
"""

import math

import numpy as np
import pytest

from helpers import source_mutant
from jetlag import checks
from jetlag.checks import (
    CheckResult,
    _metric_dependence,
    default_tolerances,
    random_affine_chart,
    run_checks,
    sample_points,
    worst_offender,
)
from jetlag.cli import load_config, main
from jetlag.dtensor import NonlinearConnectionValue
from jetlag.expr import parse
from jetlag.geometry import LagrangeSpace, NonRegularError

pytestmark = pytest.mark.filterwarnings("error")


def space(name):
    return load_config(name).space


def ranges(name):
    return load_config(name).ranges


FAMILIES = ("quadratic", "electrodynamics", "nonautonomous")


def quartic_space():
    # velocity-dependent metric: conservation hypotheses fail here
    L = parse("(1 + 0.3*x1^2)*y1^2 + y2^2 + 0.05*(y1^2 + y2^2)^2", 2)
    return LagrangeSpace(2, L, parse("1", 2))


QUARTIC_RANGES = np.array([[0.1, 0.9], [0.3, 1.2], [-0.8, 0.8],
                           [0.4, 1.5], [0.3, 1.0]])


class TestSamplePoints:
    def test_shape_and_determinism(self):
        sp = space("sphere_l1")
        a = sample_points(sp, ranges("sphere_l1"), 12, seed=5)
        b = sample_points(sp, ranges("sphere_l1"), 12, seed=5)
        c = sample_points(sp, ranges("sphere_l1"), 12, seed=6)
        assert a.shape == (12, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_points_respect_boxes(self):
        box = ranges("sphere_l1")
        pts = sample_points(space("sphere_l1"), box, 30, seed=1)
        assert np.all(pts >= box[:, 0]) and np.all(pts <= box[:, 1])

    def test_degenerate_box_raises(self):
        sp = LagrangeSpace(1, parse("y1^3", 1), parse("1", 1))
        box = [[0.0, 1.0], [-1.0, 1.0], [0.0, 0.0]]   # y1 pinned at 0
        with pytest.raises(NonRegularError, match="regular points"):
            sample_points(sp, box, 4, seed=0)

    def test_filtering_keeps_regular_points(self):
        sp = LagrangeSpace(1, parse("y1^4", 1), parse("1", 1))
        box = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]  # y1 = 0 is singular
        pts = sample_points(sp, box, 25, seed=3)
        for z in pts:
            sp.geometry_at(z)   # must not raise

    def test_all_pole_box_is_a_regularity_failure(self):
        # every draw sits on the pole of 1/x1: each is rejected, none aborts
        sp = LagrangeSpace(1, parse("y1^2 + 1/x1", 1), parse("1", 1))
        box = [[0.0, 1.0], [0.0, 0.0], [-1.0, 1.0]]
        with pytest.raises(NonRegularError, match="could not draw 3 regular"):
            sample_points(sp, box, 3, seed=0)

    def test_box_straddling_a_domain_edge_keeps_defined_points(self):
        sp = LagrangeSpace(1, parse("y1^2 + sqrt(x1)*y1", 1), parse("1", 1))
        box = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
        pts = sample_points(sp, box, 20, seed=0)
        assert len(pts) == 20 and np.all(pts[:, 1] > 0.0)

    @pytest.mark.parametrize("bad,needle", [
        ({"count": 0}, "count"),
        ({"box": [[1.0, 0.0], [0, 1], [0, 1]]}, "low <= high"),
        ({"box": [[0, 1], [0, 1]]}, "shape"),
    ])
    def test_argument_validation(self, bad, needle):
        sp = LagrangeSpace(1, parse("y1^2", 1), parse("1", 1))
        box = bad.get("box", [[0, 1], [0, 1], [0.5, 1.0]])
        with pytest.raises((ValueError, NonRegularError), match=needle):
            sample_points(sp, box, bad.get("count", 4), seed=0)


class TestBudgets:
    def test_heavy_suites_subsample(self):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 60, seed=2)
        rows = {r.name: r for r in run_checks(sp, pts)}
        assert rows["metricity"].points == 60
        assert rows["h-metricity"].points == 60
        assert rows["el-spray"].points == 60
        assert rows["antisymmetry"].points == 40
        assert rows["bianchi"].points == 25
        assert rows["deflection"].points == 6
        assert rows["maxwell"].points == 8
        assert rows["gauge"].points == 6
        assert rows["conservation"].points == 4

    def test_small_samples_use_everything(self):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=2)
        assert all(r.points == 3 for r in run_checks(sp, pts))

    def test_budgeted_suites_read_nested_prefixes(self, monkeypatch):
        # a budgeted suite reads the first `budget` points, so whatever a
        # suite builds at a point is cached for every smaller budget;
        # run_checks reads the suite functions at call time
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 60, seed=2)
        seen = {}
        for attr in ("_antisymmetry_worst", "_bianchi_worst",
                     "_deflection_worst", "_maxwell_worst", "_gauge_worst",
                     "_conservation_worst"):
            def recorded(sp, points, *args, _fn=getattr(checks, attr),
                         _name=attr[1:-len("_worst")], **kwargs):
                name = _name + ("-simple" if kwargs.get("simple") else "")
                seen[name] = points
                return _fn(sp, points, *args, **kwargs)
            monkeypatch.setattr(checks, attr, recorded)
        run_checks(sp, pts)
        assert seen.keys() == checks._BUDGETS.keys()
        for name, points in seen.items():
            assert np.array_equal(points, pts[:checks._BUDGETS[name]]), name


# electrodynamics_l2 written out as one Lagrangian: no family tag, same L
ELECTRODYNAMICS_AS_LAGRANGIAN = """\
[problem]
n = 2
h11 = "1 + 0.5*t^2"
lagrangian = "(y1^2 + sin(x1)^2*y2^2)/(1 + 0.5*t^2) + cos(x1)*y2 + 0.2*t*x2"

[ranges]
t = 0.0 1.0
x1 = 0.3 2.8
x2 = -3.0 3.0
y1 = -1.5 1.5
y2 = -1.5 1.5
"""


def rows_by_name(sp, pts, **kwargs):
    return {r.name: r for r in run_checks(sp, pts, **kwargs)}


class TestConservationGate:
    def test_autonomous_metric_gates(self):
        sp = space("electrodynamics_l2")
        pts = sample_points(sp, ranges("electrodynamics_l2"), 6, seed=1)
        assert _metric_dependence(sp, pts) == ()

    def test_time_dependence_reports_only(self):
        sp = space("nonautonomous_l3")
        pts = sample_points(sp, ranges("nonautonomous_l3"), 6, seed=1)
        assert _metric_dependence(sp, pts) == ("t",)
        rows = rows_by_name(sp, pts)
        row = rows["conservation"]
        assert row.passed and row.note == "metric depends on t; reported only"
        assert row.worst > 1e-4   # measured, not hidden
        assert "maxwell-simple" not in rows

    def test_velocity_dependence_reports_only(self):
        sp = quartic_space()
        pts = sample_points(sp, QUARTIC_RANGES, 6, seed=1)
        assert _metric_dependence(sp, pts) == ("y",)
        rows = rows_by_name(sp, pts)
        assert rows["conservation"].passed
        assert rows["conservation"].note == "metric depends on y; reported only"
        assert "maxwell-simple" not in rows

    def test_forced_gate_fails_honestly(self, monkeypatch):
        # the probe alone decides the gate: read as a metric g(x), the
        # t-dependent metric's conservation residual fails
        monkeypatch.setattr(checks, "_metric_dependence", lambda sp, p: ())
        sp = space("nonautonomous_l3")
        pts = sample_points(sp, ranges("nonautonomous_l3"), 6, seed=1)
        res = run_checks(sp, pts)
        row = [r for r in res if r.name == "conservation"][0]
        assert not row.passed and row.note == ""
        assert worst_offender(res).name == "conservation"

    def test_forced_report_only(self, monkeypatch):
        monkeypatch.setattr(checks, "_metric_dependence",
                            lambda sp, p: ("t",))
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 4, seed=1)
        res = run_checks(sp, pts)
        row = [r for r in res if r.name == "conservation"][0]
        assert row.passed
        assert row.note == "metric depends on t; reported only"
        assert "maxwell-simple" not in [r.name for r in res]


class TestMaxwellSimpleRow:
    def test_lagrangian_config_with_an_x_only_metric_gets_the_row(
            self, tmp_path):
        path = tmp_path / "ed.cfg"
        path.write_text(ELECTRODYNAMICS_AS_LAGRANGIAN)
        cfg = load_config(str(path))
        assert cfg.space.family == "general"
        pts = sample_points(cfg.space, cfg.ranges, 4, seed=1)
        row = rows_by_name(cfg.space, pts)["maxwell-simple"]
        assert row.passed and row.worst < 1e-12 and row.points == 4


class TestTolerances:
    def test_family_defaults(self):
        # the bounds are the same for every space, whatever its tag
        for family in (None,) + FAMILIES:
            assert default_tolerances(family) == default_tolerances()
            assert default_tolerances(family)["maxwell"] == 1e-6

    def test_unknown_override_rejected(self):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        with pytest.raises(ValueError, match="unknown tolerance"):
            run_checks(sp, pts, tolerances={"bogus": 1.0})

    @pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0, -1e-8])
    def test_bad_override_rejected(self, bound):
        # an inf bound would pass any residual; the others fail every one
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        with pytest.raises(ValueError, match="'gauge'"):
            run_checks(sp, pts, tolerances={"gauge": bound})

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_bad_scale_rejected(self, scale):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        with pytest.raises(ValueError,
                           match="tol_scale must be finite and positive"):
            run_checks(sp, pts, tol_scale=scale)

    @pytest.mark.parametrize("tolerances,scale,key", [
        ({"gauge": 1e300}, 1e10, "gauge"),     # inf: would pass any residual
        ({"gauge": 1e-300}, 1e-30, "gauge"),   # 0: would fail every residual
        (None, 1e-320, "metricity"),           # a default bound scaled to 0
    ])
    def test_scaled_bound_must_stay_finite_and_positive(self, tolerances,
                                                        scale, key):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        with pytest.raises(ValueError, match=f"tolerance '{key}' must be"):
            run_checks(sp, pts, tolerances=tolerances, tol_scale=scale)

    def test_bound_near_the_float_limits_is_kept(self):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        rows = run_checks(sp, pts, tolerances={"gauge": 1e300}, tol_scale=1.0)
        assert {r.name: r.tol for r in rows}["gauge"] == 1e300

    def test_scale_multiplies_everything(self):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        base = {r.name: r.tol for r in run_checks(sp, pts)}
        scaled = {r.name: r.tol for r in run_checks(sp, pts, tol_scale=10.0)}
        assert scaled == {k: pytest.approx(10 * v) for k, v in base.items()}

    def test_points_shape_validated(self):
        sp = space("flat")
        with pytest.raises(ValueError, match="2n\\+1"):
            run_checks(sp, np.zeros((4, 3)))


class TestCorruptionHook:
    def test_only_metricity_breaks(self):
        sp = space("sphere_l1")
        pts = sample_points(sp, ranges("sphere_l1"), 6, seed=4)
        res = run_checks(sp, pts, corrupt_connection=True)
        for r in res:
            assert r.passed == (r.name != "metricity")
        assert worst_offender(res).name == "metricity"


class TestHMutant:
    """The H mutant halves H = hdot / (2 h11) in the geometry.  The spray
    route reads that H; the curves' route does not, since its b cancels
    the H terms symbolically, so el-spray sees the two disagree wherever
    h11 moves with t."""

    MUTANT = ("H = 0.5 * h_inv * hdot", "H = 0.25 * h_inv * hdot")

    @pytest.mark.parametrize("name", ["electrodynamics_l2",
                                      "nonautonomous_l3", "exp_time"])
    def test_el_spray_fails_under_it(self, monkeypatch, name):
        source_mutant(monkeypatch, LagrangeSpace._compute_geo, *self.MUTANT)
        cfg = load_config(name)
        pts = sample_points(cfg.space, cfg.ranges, 20, seed=cfg.seed)
        res = {r.name: r for r in run_checks(cfg.space, pts,
                                             tolerances=cfg.tolerances)}
        assert not res["el-spray"].passed
        assert res["el-spray"].worst > 0.1

    def test_the_old_text_must_occur_once(self, monkeypatch):
        real = LagrangeSpace._compute_geo
        for old, count in (("H = 0.5 * hdot", 0), ("h_inv * ", 2)):
            with pytest.raises(AssertionError, match=f"occurs {count} times"):
                source_mutant(monkeypatch, real, old, "")
        assert LagrangeSpace._compute_geo is real


class TestWorstOffender:
    def test_none_when_all_pass(self):
        rows = [CheckResult("a", 1e-12, 1e-8, True, 5),
                CheckResult("b", 1e-10, 1e-6, True, 5)]
        assert worst_offender(rows) is None

    def test_ranks_by_ratio_not_magnitude(self):
        rows = [CheckResult("big", 1.0, 0.9, False, 5),       # ratio 1.1
                CheckResult("small", 1e-3, 1e-9, False, 5)]   # ratio 1e6
        assert worst_offender(rows).name == "small"


class TestAffineChart:
    def test_deterministic_and_well_conditioned(self):
        sp = space("flat")
        a = random_affine_chart(sp, seed=9)
        b = random_affine_chart(sp, seed=9)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.c, b.c)
        assert abs(np.linalg.det(a.A)) > 0.3

    def test_awkward_seed_still_resolves(self):
        # seed 1001 draws a near-singular first matrix; the retry loop
        # must deliver a usable chart anyway
        sp = space("flat")
        chart = random_affine_chart(sp, seed=1001)
        assert abs(np.linalg.det(chart.A)) > 0.3


# L = y1^2 + y2^2 + x1/x1/.../x1 with 40 operands: over x1 in [0.5, 1]
# the spatial spray reaches about 1e12, so the gauge differences are large
# in absolute terms while staying at round-off relative to the values
LONG_QUOTIENT = """
[problem]
n = 2
h11 = "1"
lagrangian = "y1^2 + y2^2 + CHAIN"

[ranges]
t = 0.1 0.9
x1 = 0.5 1.0
x2 = -1.0 1.0
y1 = -1.0 1.0
y2 = -1.0 1.0
""".replace("CHAIN", "/".join(["x1"] * 40))


class TestGaugeRelative:
    """Gauge compares each pushed quantity to the moved space's relative
    to max(1, its largest entry)."""

    def test_large_spray_passes_on_round_off(self, tmp_path, capsys):
        path = tmp_path / "long_quotient.cfg"
        path.write_text(LONG_QUOTIENT)
        assert main(["check", "--config", str(path), "--points", "3"]) == 0
        assert "all 10 suites passed" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["long_quotient", "sphere_l1"])
    def test_relative_perturbation_still_fails(self, tmp_path, monkeypatch,
                                               name):
        if name == "long_quotient":
            path = tmp_path / "long_quotient.cfg"
            path.write_text(LONG_QUOTIENT)
            name = str(path)
        cfg = load_config(name)
        pts = sample_points(cfg.space, cfg.ranges, 3, seed=0)
        assert checks._gauge_worst(cfg.space, pts, 0) < 1e-12
        push = checks.transform_nonlinear

        def bumped(nl, chart, z):
            v = push(nl, chart, z)
            return NonlinearConnectionValue(v.M * (1 + 1e-6), v.N * (1 + 1e-6))

        monkeypatch.setattr(checks, "transform_nonlinear", bumped)
        worst = checks._gauge_worst(cfg.space, pts, 0)
        assert worst > default_tolerances()["gauge"]


def nan_residuals(sp, z):
    return {"b1": np.full((2, 2, 2), np.nan), "b2": np.zeros((2, 2, 2, 2))}


class TestNaNResiduals:
    """The builtin max drops NaN (max(0.0, nan) is 0.0); the suites must not."""

    def test_nan_fails_its_suite_and_outranks_finite_failures(self, monkeypatch):
        monkeypatch.setattr(checks, "bianchi_residuals", nan_residuals)
        sp = space("sphere_l1")
        pts = sample_points(sp, ranges("sphere_l1"), 4, seed=0)
        res = run_checks(sp, pts, corrupt_connection=True)
        rows = {r.name: r for r in res}
        assert math.isnan(rows["bianchi"].worst)
        assert not rows["bianchi"].passed
        assert not rows["metricity"].passed     # finite, large ratio
        assert worst_offender(res).name == "bianchi"

    def test_check_exits_one_naming_the_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "bianchi_residuals", nan_residuals)
        assert main(["check", "--config", "sphere_l1", "--points", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL bianchi" in out
        assert "worst offender bianchi" in out

    def test_nan_fails_report_only_rows_too(self, monkeypatch):
        monkeypatch.setattr(checks, "conservation_residuals",
                            lambda sp, z: {"law1": np.nan})
        monkeypatch.setattr(checks, "_metric_dependence",
                            lambda sp, p: ("t",))
        sp = space("sphere_l1")
        pts = sample_points(sp, ranges("sphere_l1"), 4, seed=0)
        row = run_checks(sp, pts)[-1]
        assert row.name == "conservation" and not row.passed
        assert row.note == "metric depends on t; reported only"

    def test_nan_ratio_is_infinite(self):
        assert CheckResult("a", float("nan"), 1e-6, False, 5).ratio == math.inf

    def test_nan_metric_is_not_time_invariant(self, monkeypatch):
        sp = space("flat")
        pts = sample_points(sp, ranges("flat"), 3, seed=0)
        geo = sp.geometry_at(pts[0])
        monkeypatch.setattr(geo, "dg_t", np.full_like(geo.dg_t, np.nan))
        assert _metric_dependence(sp, pts) == ("t",)
        rows = rows_by_name(sp, pts)
        assert "maxwell-simple" not in rows
        assert rows["conservation"].passed
        assert rows["conservation"].note == "metric depends on t; reported only"
