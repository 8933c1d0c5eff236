"""End-to-end tests of the command-line front end.

Everything drives main() in process through argparse so exit codes,
stdout, and written files are all exercised exactly as a shell user
would see them.
"""

import json
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import collector_off, connection_levels
from jetlag import cli, expr, geometry
from jetlag.checks import random_affine_chart, sample_points
from jetlag.dtensor import transform_point
from jetlag.cli import (
    BUILTIN_CONFIGS,
    MAX_N,
    MAX_POINTS,
    ConfigError,
    SCHEMA_VERSION,
    load_config,
    main,
    point_record,
)

pytestmark = pytest.mark.filterwarnings("error")


def write_cfg(tmp_path, body, name="prob.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


MINIMAL = """
[problem]
n = 1
h11 = "1"
lagrangian = "y1^2"

[ranges]
t = 0.0 1.0
x1 = -1.0 1.0
y1 = -1.0 1.0
"""

CUBIC = """
[problem]
name = cubic
n = 1
h11 = "1"
lagrangian = "y1^3"

[ranges]
t = 0.0 1.0
x1 = -1.0 1.0
y1 = 0.5 1.5
"""


class TestConfigParsing:
    def test_builtins_all_load(self):
        families = {}
        for name in BUILTIN_CONFIGS:
            cfg = load_config(name)
            assert cfg.n == 2
            assert cfg.ranges.shape == (5, 2)
            families[name] = cfg.space.family
        assert families["flat"] == "quadratic"
        assert families["sphere_l1"] == "quadratic"
        assert families["electrodynamics_l2"] == "electrodynamics"
        assert families["nonautonomous_l3"] == "nonautonomous"
        assert families["exp_time"] == "quadratic"

    def test_path_loading_and_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.name == "prob"     # file stem when name is absent
        assert cfg.seed == 0
        assert cfg.kappa == 1.0
        assert cfg.tolerances == {}

    def test_explicit_name_seed_kappa(self, tmp_path):
        body = MINIMAL.replace("n = 1", "n = 1\nname = widget\n"
                                        "seed = 7\nkappa = 2.5")
        cfg = load_config(write_cfg(tmp_path, body))
        assert (cfg.name, cfg.seed, cfg.kappa) == ("widget", 7, 2.5)

    def test_unknown_target(self):
        with pytest.raises(ConfigError, match="built-ins"):
            load_config("nosuch")

    @pytest.mark.parametrize("mutation,needle", [
        (lambda s: s.replace("[problem]", "[prob]"), "missing"),
        (lambda s: s.replace("n = 1\n", ""), "needs n"),
        (lambda s: s.replace('lagrangian = "y1^2"',
                             'lagrangian = "y1^2"\nfamily = L1'),
         "exactly one"),
        (lambda s: s.replace('lagrangian = "y1^2"\n', ""), "exactly one"),
        (lambda s: s.replace('h11 = "1"', "h11 = 1"), "double-quoted"),
        (lambda s: s.replace("t = 0.0 1.0", "t = 0.0"), "two numbers"),
        (lambda s: s.replace("t = 0.0 1.0", "t = 1.0 0.0"), "high < low"),
        (lambda s: s.replace("x1 = -1.0 1.0\n", ""), "missing x1"),
        (lambda s: s.replace("n = 1", "n = 1\nwhatever = 3"), "unknown"),
        (lambda s: s + "\n[extra]\nk = 1\n", "unknown sections"),
        (lambda s: s.replace("n = 1", "n = one"), "integer"),
        (lambda s: s.replace("n = 1", "n = 0"), ">= 1"),
        (lambda s: s.replace('h11 = "1"', 'h11 = "x1"'), "t only"),
        (lambda s: s.replace('lagrangian = "y1^2"',
                             'lagrangian = "y1^2 +"'), "lagrangian"),
    ])
    def test_malformed_problem_files(self, tmp_path, mutation, needle):
        with pytest.raises(ConfigError, match=needle):
            load_config(write_cfg(tmp_path, mutation(MINIMAL)))

    def test_duplicate_key_rejected(self, tmp_path):
        body = MINIMAL.replace('h11 = "1"', 'h11 = "1"\nh11 = "2"')
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_cfg(tmp_path, body))

    def test_family_requires_metric(self, tmp_path):
        body = MINIMAL.replace('lagrangian = "y1^2"', "family = L1")
        with pytest.raises(ConfigError, match="metric"):
            load_config(write_cfg(tmp_path, body))

    def test_lagrangian_rejects_component_sections(self, tmp_path):
        body = MINIMAL + '\n[metric]\ng11 = "1"\n'
        with pytest.raises(ConfigError, match="family problems"):
            load_config(write_cfg(tmp_path, body))

    def test_quadratic_rejects_potential(self, tmp_path):
        body = (MINIMAL.replace('lagrangian = "y1^2"', "family = L1")
                + '\n[metric]\ng11 = "1"\n[potential]\nu1 = "x1"\n')
        with pytest.raises(ConfigError, match="quadratic family"):
            load_config(write_cfg(tmp_path, body))

    def test_electrodynamics_metric_must_be_autonomous(self, tmp_path):
        body = (MINIMAL.replace('lagrangian = "y1^2"', "family = L2")
                + '\n[metric]\ng11 = "1 + t"\n')
        with pytest.raises(ConfigError, match="x only"):
            load_config(write_cfg(tmp_path, body))

    def test_nonautonomous_metric_may_use_t(self, tmp_path):
        body = (MINIMAL.replace('lagrangian = "y1^2"', "family = L3")
                + '\n[metric]\ng11 = "1 + t"\n')
        cfg = load_config(write_cfg(tmp_path, body))
        assert cfg.space.family == "nonautonomous"

    def test_metric_rejects_velocity_terms(self, tmp_path):
        body = (MINIMAL.replace('lagrangian = "y1^2"', "family = L1")
                + '\n[metric]\ng11 = "1 + y1^2"\n')
        with pytest.raises(ConfigError, match="x only"):
            load_config(write_cfg(tmp_path, body))

    def test_metric_upper_triangle_only(self, tmp_path):
        body = (MINIMAL.replace('lagrangian = "y1^2"', "family = L1")
                .replace("n = 1", "n = 2")
                .replace("y1 = -1.0 1.0",
                         "x2 = -1.0 1.0\ny1 = -1.0 1.0\ny2 = -1.0 1.0")
                + '\n[metric]\ng11 = "1"\ng21 = "0"\ng22 = "1"\n')
        with pytest.raises(ConfigError, match="I <= J"):
            load_config(write_cfg(tmp_path, body))

    def test_tolerance_overrides(self, tmp_path):
        body = MINIMAL + "\n[tolerances]\nmaxwell = 1e-3\n"
        cfg = load_config(write_cfg(tmp_path, body))
        assert cfg.tolerances == {"maxwell": 1e-3}

    def test_unknown_tolerance_rejected(self, tmp_path):
        body = MINIMAL + "\n[tolerances]\nbogus = 1e-3\n"
        with pytest.raises(ConfigError, match="unknown tolerance"):
            load_config(write_cfg(tmp_path, body))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        body = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
        assert load_config(write_cfg(tmp_path, body)).n == 1

    def test_trailing_comments_stripped(self, tmp_path):
        body = (MINIMAL.replace("[problem]", "[problem]   # header note")
                .replace("n = 1", "n = 1   # dimension, x = y")
                .replace('h11 = "1"', 'h11 = "1"  # clock "metric"'))
        cfg = load_config(write_cfg(tmp_path, body))
        assert (cfg.n, cfg.space.h11.to_source()) == (1, "1")

    def test_hash_inside_quotes_is_not_a_comment(self, tmp_path):
        body = MINIMAL.replace('lagrangian = "y1^2"',
                               'lagrangian = "y1^2 # not a comment"')
        with pytest.raises(ConfigError,
                           match="lagrangian: unexpected trailing input"):
            load_config(write_cfg(tmp_path, body))

    @pytest.mark.parametrize("mutation,needle", [
        (lambda s: s.replace("n = 1", "n = 1\nseed = 4.7"), "seed must be"),
        (lambda s: s.replace("n = 1", "n = 1\nseed = nan"), "seed must be"),
        (lambda s: s.replace("n = 1", "n = 1\nseed = -3"), "seed must be"),
        (lambda s: s.replace("n = 1", "n = 1\nkappa = 0"), "kappa must be"),
        (lambda s: s.replace("n = 1", "n = 1\nkappa = inf"), "kappa must be"),
        (lambda s: s.replace("t = 0.0 1.0", "t = 0.0 inf"), "t must be"),
        (lambda s: s.replace("t = 0.0 1.0", "t = nan 1.0"), "t must be"),
        (lambda s: s.replace("x1 = -1.0 1.0", "x1 = -1.0 nan"), "x1 must be"),
        (lambda s: s + "\n[tolerances]\nmaxwell = nan\n", "maxwell must be"),
        (lambda s: s + "\n[tolerances]\nmaxwell = -1\n", "maxwell must be"),
        (lambda s: s + "\n[tolerances]\nmaxwell = 0\n", "maxwell must be"),
        (lambda s: s.replace('"y1^2"', '"1e999*y1^2"'),
         "lagrangian: number out of range"),
        (lambda s: s.replace('"y1^2"', '"y1^2 + x1^1e400"'),
         "lagrangian: number out of range"),
        (lambda s: s.replace('"y1^2"', '"' + "(" * 1500 + "y1^2"
                             + ")" * 1500 + '"'),
         "lagrangian: nested more than"),
        (lambda s: s.replace('"y1^2"', '"1e200*1e200*y1^2"'),
         "lagrangian: constant out of range"),
        (lambda s: s.replace('"y1^2"', '"y1^2 + x1^(1e200*1e200)"'),
         "lagrangian: constant out of range"),
        (lambda s: s.replace('"y1^2"', '"y1^2 + x' + "1" * 5000 + '"'),
         "lagrangian: coordinate index out of range"),
    ], ids=["seed-fraction", "seed-nan", "seed-negative", "kappa-zero",
            "kappa-inf", "range-inf", "range-nan-low", "range-nan-high",
            "tol-nan", "tol-negative", "tol-zero", "dsl-inf-literal",
            "dsl-inf-exponent", "dsl-deep-nesting", "dsl-folded-inf",
            "dsl-folded-inf-exponent", "dsl-huge-index"])
    def test_hostile_numbers_exit_two_naming_the_key(self, tmp_path, capsys,
                                                      mutation, needle):
        path = write_cfg(tmp_path, mutation(MINIMAL))
        assert main(["check", "--config", path, "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {needle}" in err
        assert "Traceback" not in err

    def test_n_above_the_cap_exits_two_before_building(self, tmp_path,
                                                        capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_build_space",
                            lambda *args: built.append(args))
        path = write_cfg(tmp_path, MINIMAL.replace("n = 1", f"n = {MAX_N + 1}"))
        assert main(["check", "--config", path, "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: n must be <= {MAX_N}, got {MAX_N + 1}" in err
        assert built == []

    def test_all_pole_box_exits_three(self, tmp_path, capsys):
        # every draw is on the pole of 1/x1, so no regular point exists
        body = MINIMAL.replace('"y1^2"', '"y1^2 + 1/x1"') \
            .replace("x1 = -1.0 1.0", "x1 = 0.0 0.0")
        path = write_cfg(tmp_path, body)
        assert main(["check", "--config", path, "--points", "3"]) == 3
        assert "could not draw 3 regular points" in capsys.readouterr().err

    def test_long_division_chain_exits_two(self, tmp_path, capsys):
        chain = "/".join(["x1"] * 3000)
        path = write_cfg(tmp_path, MINIMAL.replace('"y1^2"',
                                                   f'"y1^2 + {chain}"'))
        assert main(["check", "--config", path, "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestInspect:
    def test_flat_blocks_all_zero(self, tmp_path, capsys):
        out = tmp_path / "flat.json"
        code = main(["inspect", "--config", "flat",
                     "--point", "0.2", "0.5", "-0.3", "1.0", "0.7",
                     "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())["record"]
        for block in ("Gt", "L", "C"):
            assert np.max(np.abs(rec["cartan"][block])) == 0.0
        assert np.max(np.abs(rec["nonlinear"]["M"])) == 0.0
        assert np.max(np.abs(rec["nonlinear"]["N"])) == 0.0
        assert rec["metric"]["signature"] == [2, 0]

    def test_sphere_connection_component(self, tmp_path):
        out = tmp_path / "sphere.json"
        code = main(["inspect", "--config", "sphere_l1",
                     "--point", "0.0", str(np.pi / 4), "0.1", "0.5", "0.5",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        L = payload["record"]["cartan"]["L"]
        assert L[0][1][1] == pytest.approx(-0.5, abs=1e-12)

    def test_degenerate_point_exits_three(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CUBIC)
        code = main(["inspect", "--config", cfg,
                     "--point", "0.0", "0.0", "0.0"])
        assert code == 3
        assert "regularity" in capsys.readouterr().err

    def test_overflow_at_a_finite_point_exits_three(self, capsys):
        # the float spray path, unchecked, multiplies inf by 0; the
        # connection level names the point, and numpy's invalid-value
        # warning on the way there is silenced at the command boundary
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["inspect", "--config", "flat",
                         "--point", "0", "0", "0", "1e308", "1e308"])
        assert code == 3
        assert capsys.readouterr().err == (
            "regularity failure: non-finite connection coefficients at "
            "point (0.0, 0.0, 0.0, 1e+308, 1e+308)\n")

    def test_default_point_is_midpoint(self, tmp_path):
        out = tmp_path / "mid.json"
        assert main(["inspect", "--config", "flat", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["record"]
        assert rec["point"]["t"] == 0.5
        assert rec["point"]["x"] == [0.0, 0.0]

    def test_wrong_point_arity(self, tmp_path, capsys):
        code = main(["inspect", "--config", "flat", "--point", "0.0", "1.0"])
        assert code == 2
        assert "--point needs 5 numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_names_the_flag(self, capsys, value):
        code = main(["inspect", "--config", "flat",
                     "--point", "0.0", value, "0.0", "1.0", "0.0"])
        assert code == 2
        assert "error: --point needs finite numbers" in capsys.readouterr().err

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["inspect", "--config", "flat"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "flat"

    def test_record_is_json_round_trippable(self):
        cfg = load_config("electrodynamics_l2")
        rec = point_record(cfg.space, [0.3, 1.0, 0.2, 0.5, -0.4])
        again = json.loads(json.dumps(rec))
        assert set(again) == {"point", "metric", "spray", "nonlinear",
                              "cartan", "torsion", "curvature", "deflections",
                              "em_form", "ricci", "einstein", "residuals"}


class TestCheck:
    def test_flat_passes_everything(self, capsys):
        code = main(["check", "--config", "flat", "--points", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all 10 suites passed" in out
        assert "metricity" in out

    def test_corrupted_connection_names_metricity(self, capsys):
        code = main(["check", "--config", "flat", "--points", "5",
                     "--corrupt-connection"])
        assert code == 1
        out = capsys.readouterr().out
        assert "worst offender metricity" in out

    @pytest.mark.parametrize("command", ["check", "report"])
    def test_points_above_the_cap_exit_two_before_sampling(
            self, capsys, monkeypatch, command):
        sampled = []
        monkeypatch.setattr(cli, "sample_points",
                            lambda *args: sampled.append(args))
        assert main([command, "--config", "flat",
                     "--points", str(MAX_POINTS + 1)]) == 2
        err = capsys.readouterr().err
        assert f"--points must be <= {MAX_POINTS}, got {MAX_POINTS + 1}" in err
        assert sampled == []

    def test_family_gates_suite_rows(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        main(["check", "--config", "electrodynamics_l2", "--points", "5",
              "--out", str(out)])
        edyn = json.loads(out.read_text())["summary"]
        assert "maxwell-simple" in edyn
        main(["check", "--config", "nonautonomous_l3", "--points", "5",
              "--out", str(out)])
        nonaut = json.loads(out.read_text())["summary"]
        assert "maxwell-simple" not in nonaut
        assert "reported only" in nonaut["conservation"]["note"]
        assert nonaut["conservation"]["passed"] is True
        capsys.readouterr()

    def test_reports_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "--config", "sphere_l1", "--points", "8",
                     "--out", str(a)]) == 0
        assert main(["check", "--config", "sphere_l1", "--points", "8",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_sample_not_verdict(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "--config", "sphere_l1", "--points", "8",
                     "--seed", "1", "--out", str(a)]) == 0
        assert main(["check", "--config", "sphere_l1", "--points", "8",
                     "--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["passed"] and jb["passed"]
        assert ja["summary"] != jb["summary"]

    def test_tol_scale_can_force_failure(self, capsys):
        code = main(["check", "--config", "sphere_l1", "--points", "5",
                     "--tol-scale", "1e-20"])
        assert code == 1
        assert "worst offender" in capsys.readouterr().out

    def test_tol_scale_that_overflows_a_bound_exits_two(self, tmp_path,
                                                        capsys):
        # 1e300 * 1e10 is inf, a bound that would pass any residual
        path = write_cfg(tmp_path, MINIMAL + "\n[tolerances]\ngauge = 1e300\n")
        assert main(["check", "--config", path, "--points", "5",
                     "--tol-scale", "1e10"]) == 2
        captured = capsys.readouterr()
        assert "'gauge' must be finite and positive" in captured.err
        assert "ok   gauge" not in captured.out

    def test_bad_point_count(self, capsys):
        code = main(["check", "--config", "flat", "--points", "0"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [0, 7])
    def test_well_conditioned_n6_metric_is_regular(self, tmp_path, seed,
                                                   capsys):
        # a bound on |det| that grew as max|g|^n called the gauge suite's
        # chart-moved metric degenerate here (exit 3, det = 11.2 at seed 0)
        n = 6
        L = (" + ".join(f"(1 + 0.1*sin(x{i}))*y{i}^2" for i in range(1, n + 1))
             + " + 0.05*(" + " + ".join(f"y{i}^2" for i in range(1, n + 1))
             + ")^2 + x1*y2 + t*x4*y3")
        ranges = "".join(f"{v}{i} = -1.0 1.0\n" for v in "xy"
                         for i in range(1, n + 1))
        cfg = write_cfg(tmp_path, f"""
[problem]
name = generic_n6
n = {n}
h11 = "1 + t/2"
lagrangian = "{L}"

[ranges]
t = 0.1 0.9
{ranges}""")
        code = main(["check", "--config", cfg, "--points", "10",
                     "--seed", str(seed)])
        assert code == 0, capsys.readouterr().err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["check", "--config", "flat", "--points", "3",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_config_tolerance_override_applies(self, tmp_path, capsys):
        body = MINIMAL + "\n[tolerances]\nbianchi = 1e-30\nmaxwell = 0.5\n"
        cfg = write_cfg(tmp_path, body)
        out = tmp_path / "s.json"
        main(["check", "--config", cfg, "--points", "4", "--out", str(out)])
        capsys.readouterr()
        summary = json.loads(out.read_text())["summary"]
        assert summary["bianchi"]["tol"] == 1e-30
        assert summary["maxwell"]["tol"] == 0.5
        # and the scale flag multiplies on top of the override
        main(["check", "--config", cfg, "--points", "4",
              "--tol-scale", "10", "--out", str(out)])
        capsys.readouterr()
        summary = json.loads(out.read_text())["summary"]
        assert summary["maxwell"]["tol"] == pytest.approx(5.0)

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_compile_work_is_pinned(self, monkeypatch, capsys, name):
        # every builtin is n = 2, so a check compiles the same root
        # partials whatever L is: 6 fused functions over 256 roots, one per
        # field group: the space's one group (h11, hdot and the L-partials),
        # its extremal group for the el-spray suite (the 5 head fields and
        # b), then the new partials its depth-1 and depth-2 Taylor plans
        # add, order by order (each partial compiled once), its chart-moved
        # twin's group at float points, and the chart's tau, tau' and
        # tau''.  The h-metricity suite reads hdot off the geometry
        roots = []
        compile_fn = expr.compile_node
        monkeypatch.setattr(expr, "compile_node", lambda nodes, n:
                            roots.append(len(nodes)) or compile_fn(nodes, n))
        assert main(["check", "--config", name]) == 0
        capsys.readouterr()
        assert (len(roots), sum(roots)) == (6, 256)

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_connection_work_is_pinned(self, monkeypatch, capsys, name):
        # connection levels built, by dual depth: a check samples 100
        # float points and its gauge suite moves 6 of them to a chart,
        # where it reads N alone; the budgets are nested prefixes of the
        # sample, so the jets and the covariant derivatives read
        # antisymmetry's 40 first-order dual points, which hold every
        # smaller suite's, and conservation nests 4 more.  A loop that
        # reads N on a chart-moved space builds no Cartan level
        built = connection_levels(monkeypatch)
        assert main(["check", "--config", name]) == 0
        capsys.readouterr()
        assert Counter(built) == {
            ("nonlinear", 0): 106, ("cartan", 0): 100,
            ("nonlinear", 1): 40, ("cartan", 1): 40,
            ("nonlinear", 2): 4, ("cartan", 2): 4}
        cfg = load_config(name)
        chart = random_affine_chart(cfg.space, seed=3)
        moved = geometry.transformed_space(cfg.space, chart)
        built.clear()
        for z in sample_points(cfg.space, cfg.ranges, 10, seed=5):
            geometry.canonical_nonlinear_connection(
                moved, transform_point(chart, z))
        assert built == [("nonlinear", 0)] * 10


class TestCurve:
    def test_flat_line(self, tmp_path, capsys):
        out = tmp_path / "line.csv"
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", "--t1", "1.0", "--step", "0.001",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "action 1" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,y1,y2"
        last = np.array(lines[-1].split(","), dtype=float)
        assert last[0] == 1.0
        assert abs(last[1] - 1.0) < 1e-12

    def test_sphere_great_circle(self, tmp_path, capsys):
        out = tmp_path / "gc.csv"
        code = main(["curve", "--config", "sphere_l1",
                     "--x0", str(np.pi / 2), "0.0", "--y0", "0.0", "1.0",
                     "--t1", "1.0", "--step", "0.001", "--out", str(out)])
        assert code == 0
        action_line = [ln for ln in capsys.readouterr().out.splitlines()
                       if ln.startswith("action")][0]
        assert float(action_line.split()[1]) == pytest.approx(1.0, abs=1e-9)
        last = np.array(out.read_text().splitlines()[-1].split(","),
                        dtype=float)
        assert abs(last[2] - 1.0) < 1e-6    # x2 swept one radian

    def test_bad_step_is_usage_error(self, tmp_path, capsys):
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", "--t1", "1.0", "--step", "-1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize("span,needle", [
        (["--t1", "inf", "--step", "0.1"], "t0 and t1 must be finite"),
        (["--t0=-inf", "--t1", "1.0", "--step", "0.1"],
         "t0 and t1 must be finite"),
        (["--t1", "1e300", "--step", "1e-300"], "not a finite step count"),
    ], ids=["t1-inf", "t0-inf", "step-count-overflow"])
    def test_non_finite_span_is_usage_error(self, tmp_path, capsys, span,
                                            needle):
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", *span,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("start", [
        ["--x0", "nan", "0", "--y0", "1", "0"],
        ["--x0", "0", "0", "--y0", "1", "inf"],
    ], ids=["x0-nan", "y0-inf"])
    def test_non_finite_initial_data_is_usage_error(self, tmp_path, capsys,
                                                    start):
        out = tmp_path / "x.csv"
        code = main(["curve", "--config", "flat", *start, "--t1", "1.0",
                     "--step", "0.1", "--out", str(out)])
        assert code == 2
        assert "error: x0 and y0 must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_over_cap_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", "--t1", "1e9", "--step", "1e-9",
                     "--out", str(out)])
        assert code == 2
        assert "steps exceed the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_step_count_message_stays_short(self, tmp_path, capsys):
        # 1/1e-300 steps: the message gives the count in a few digits
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", "--t1", "1", "--step", "1e-300",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "steps exceed the cap" in err
        assert len(err.strip()) < 100

    def test_out_into_missing_directory_is_usage_error(self, tmp_path,
                                                       capsys):
        code = main(["curve", "--config", "flat", "--x0", "0", "0",
                     "--y0", "1", "0", "--t1", "0.1", "--step", "0.1",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--config", "flat", "--x0", "0", "0",
                  "--y0", "1", "0", "--t1", "1.0", "--step", "0.1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_wrong_x0_arity(self, tmp_path, capsys):
        code = main(["curve", "--config", "flat", "--x0", "0",
                     "--y0", "1", "0", "--t1", "1.0", "--step", "0.1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        capsys.readouterr()


class TestReport:
    def test_records_match_sample_size(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["report", "--config", "exp_time", "--points", "4",
                     "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 4
        assert payload["passed"] is True
        for rec in payload["records"]:
            assert rec["einstein"]["forced_zero"] == ["time-space",
                                                      "time-vert"]

    def test_report_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["report", "--config", "flat", "--points", "3",
              "--out", str(a)])
        main(["report", "--config", "flat", "--points", "3",
              "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def _package_objects(objects) -> Counter:
    """The objects of a jetlag type, counted by type name."""
    return Counter(type(o).__qualname__ for o in objects
                   if type(o).__module__.startswith("jetlag"))


def _leaves(argv, code: int) -> tuple:
    """(jetlag objects, all objects by type) that one ``main(argv)`` call,
    returning code, leaves for the cyclic collector."""
    with collector_off() as cyclic_garbage:
        assert main(argv) == code
        left = cyclic_garbage()
    return _package_objects(left), Counter(type(o).__qualname__ for o in left)


class TestNoCyclicGarbage:
    """A command frees what it built by reference counting alone: no
    jetlag object is left for the cyclic collector, whether the command
    passes or fails on a regularity or a domain error.  Once the process
    has its parser, a second call of a verb leaves no object of any type."""

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_commands_on_a_builtin(self, name, tmp_path, capsys):
        z = load_config(name).midpoint()
        n = (len(z) - 1) // 2
        curve = ["--x0", *map(str, z[1:n + 1]), "--y0", *map(str, z[n + 1:]),
                 "--t0", str(z[0]), "--t1", str(z[0] + 0.1), "--step", "0.01",
                 "--out", str(tmp_path / "c.csv")]
        for verb, *rest in (["check"], ["report", "--points", "5"],
                            ["inspect"], ["curve", *curve]):
            argv = [verb, "--config", name, *rest]
            jetlag_left, _ = _leaves(argv, 0)
            assert jetlag_left == Counter(), verb
            _, left_again = _leaves(argv, 0)
            assert left_again == Counter(), verb
        capsys.readouterr()

    def test_failing_commands(self, tmp_path, capsys):
        pole = write_cfg(tmp_path, MINIMAL.replace("n = 1", "n = 2")
                         .replace('"y1^2"', '"y1^2 + y2^2 + 1/x1"')
                         .replace("y1 = -1.0 1.0",
                                  "x2 = -1.0 1.0\ny1 = -1.0 1.0\n"
                                  "y2 = -1.0 1.0"))
        for argv, message in (
                (["--config", "flat", "--point", "0", "0", "0", "1e308", "0"],
                 "non-finite"),
                (["--config", pole, "--point", "0", "0", "0", "1", "1"],
                 "division by zero")):
            jetlag_left, _ = _leaves(["inspect", *argv], 3)
            assert jetlag_left == Counter(), argv
            _, left_again = _leaves(["inspect", *argv], 3)
            assert left_again == Counter(), argv
            assert message in capsys.readouterr().err

    def test_the_parser_is_built_once(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_json_text_is_the_standard_encoders(self):
        payload = {"b": [1.5, float("nan"), -float("inf"), None, True, "é\n"],
                   "a": {"z": [[], {}], "y": -0.0, "x": (1, 2)}, "c": {}}
        assert cli._json(payload) == json.dumps(payload, indent=2,
                                                sort_keys=True)


class TestEntryPoint:
    def test_module_help_runs(self):
        # run from src/, which -m puts on the path, so no install is needed
        proc = subprocess.run(
            [sys.executable, "-m", "jetlag.cli", "--help"],
            cwd=Path(__file__).resolve().parent.parent / "src",
            capture_output=True, text=True)
        assert proc.returncode == 0
        for verb in ("inspect", "check", "curve", "report"):
            assert verb in proc.stdout
