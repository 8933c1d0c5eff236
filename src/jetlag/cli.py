"""Command-line front end.

Problem files are flat sectioned ``key = value`` text; coordinate
expressions are double-quoted strings in the shared DSL (variables t,
x1..xn, y1..yn).  Four verbs:

* ``inspect``  full object dump at one jet point (JSON)
* ``check``    identity sweep over sampled points, human summary
* ``curve``    integrate the second-order curve equation, save CSV
* ``report``   check plus a per-point record of every computed object

Exit codes are a stable contract: 0 pass, 1 identity failure, 2 usage
or configuration error, 3 regularity failure (a singular metric, or an
expression leaving its domain, at a point).  Reports are fully
deterministic for a fixed (config, seed): repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .checks import (
    default_tolerances,
    run_checks,
    sample_points,
    worst_offender,
)
from .dynamics import action, integrate_harmonic
from .expr import EvalDomainError, ExprError, ScalarField, parse
from .fields import (
    deflection_identities,
    deflection_route,
    deflections,
    einstein_system,
    em_form,
    maxwell_residuals,
    worst_residual,
)
from .geometry import (
    LagrangeSpace,
    NonRegularError,
    bianchi_residuals,
    curvature,
    metric_signature,
    torsion,
)

__all__ = ["ConfigError", "ProblemConfig", "load_config", "point_record",
           "build_parser", "main", "BUILTIN_CONFIGS", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
MAX_N = 16   # largest n a config may ask for: building a space grows as n^3
MAX_POINTS = 10_000   # largest --points: every sampled point is kept

BUILTIN_CONFIGS = ("flat", "sphere_l1", "electrodynamics_l2",
                   "nonautonomous_l3", "exp_time")

_FAMILY_ALIASES = {
    "l1": "quadratic", "quadratic": "quadratic",
    "l2": "electrodynamics", "electrodynamics": "electrodynamics",
    "l3": "nonautonomous", "nonautonomous": "nonautonomous",
}


class ConfigError(Exception):
    """Malformed problem file or inconsistent problem data."""


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConfig:
    """A parsed problem: the space plus sampling and reporting policy."""

    name: str
    space: LagrangeSpace
    ranges: np.ndarray        # (2n+1, 2) rows [low, high] for t, x, y
    seed: int
    kappa: float
    tolerances: dict

    @property
    def n(self) -> int:
        return self.space.n

    def midpoint(self) -> np.ndarray:
        return self.ranges.mean(axis=1)


def _strip_comment(line: str) -> str:
    """The line up to the first # that sits outside double quotes."""
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_sections(text: str, origin: str) -> dict:
    """Sectioned key = value lines; # outside double quotes starts a
    comment that runs to the end of the line."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if not current:
                raise ConfigError(f"{origin}:{lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, "
                              f"got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    if not sections:
        raise ConfigError(f"{origin}: no sections found")
    return sections


def _section(sections: dict, name: str, keys, origin: str,
             hint: str = "") -> dict:
    """The present section [name], after rejecting keys not in keys."""
    section = sections[name]
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"{origin}: unknown [{name}] keys "
                          f"{sorted(unknown)}{hint}")
    return section


def _float(value: str, origin: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan       # rejected below, like a literal nan or inf
    if not math.isfinite(number):
        raise ConfigError(f"{origin}: {key} must be a finite number, "
                          f"got {value!r}")
    return number


def _field(section: dict, key: str, n: int, origin: str,
           allow: set, what: str) -> ScalarField:
    """The double-quoted expression at key, or the zero field if absent."""
    text = section.get(key, '"0"')
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise ConfigError(f"{origin}: {key} must be a double-quoted "
                          f"expression, got {text!r}")
    try:
        f = parse(text[1:-1], n)
    except ExprError as exc:
        raise ConfigError(f"{origin}: {key}: {exc}") from None
    # constant folding may leave inf or nan as a constant or an exponent
    # (a literal that overflows is already a parse error)
    if any(not math.isfinite(getattr(nd, "value", getattr(nd, "exponent", 0.0)))
           for nd in f.ast.walk()):
        raise ConfigError(f"{origin}: {key}: constant out of range")
    extra = f.variables() - allow
    if extra:
        raise ConfigError(f"{origin}: {key} may depend on {what} only")
    return f


def _build_space(sections: dict, n: int, origin: str) -> LagrangeSpace:
    problem = sections["problem"]
    t_only = {0}
    tx = set(range(0, n + 1))
    txy = set(range(0, 2 * n + 1))

    h11 = _field(problem, "h11", n, origin, t_only, "t")

    has_lagrangian = "lagrangian" in problem
    has_family = "family" in problem
    if has_lagrangian == has_family:
        raise ConfigError(f"{origin}: give exactly one of lagrangian or "
                          f"family in [problem]")

    if has_lagrangian:
        L = _field(problem, "lagrangian", n, origin, txy, "t, x, y")
        for section in ("metric", "potential", "scalar"):
            if section in sections:
                raise ConfigError(f"{origin}: [{section}] only belongs to "
                                  f"family problems")
        return LagrangeSpace(n, L, h11)

    family = _FAMILY_ALIASES.get(problem["family"].lower())
    if family is None:
        raise ConfigError(f"{origin}: family must be one of L1, L2, L3 "
                          f"(or quadratic, electrodynamics, nonautonomous)")
    if "metric" not in sections:
        raise ConfigError(f"{origin}: family problems need a [metric] section")

    g_allow = tx if family == "nonautonomous" else (tx - t_only)
    g_what = "t, x" if family == "nonautonomous" else "x"
    keys = [(i, j, f"g{i + 1}{j + 1}") for i in range(n) for j in range(i, n)]
    metric = _section(sections, "metric", [key for _, _, key in keys], origin,
                      " (use gIJ with I <= J)")
    g = [[None] * n for _ in range(n)]
    for i, j, key in keys:
        g[i][j] = g[j][i] = _field(metric, key, n, origin, g_allow, g_what)

    U_fields = None
    F_field = None
    if family == "quadratic":
        for section in ("potential", "scalar"):
            if section in sections:
                raise ConfigError(f"{origin}: the quadratic family takes no "
                                  f"[{section}] section")
    else:
        if "potential" in sections:
            keys = [f"u{i + 1}" for i in range(n)]
            pot = _section(sections, "potential", keys, origin,
                           f" (use u1..u{n})")
            U_fields = [_field(pot, key, n, origin, tx, "t, x")
                        for key in keys]
        if "scalar" in sections:
            sc = _section(sections, "scalar", ["f"], origin, " (use f)")
            F_field = _field(sc, "f", n, origin, tx, "t, x")
    return LagrangeSpace.from_family(family, n, h11, g, U_fields=U_fields,
                                     F_field=F_field)


def _build_ranges(sections: dict, n: int, origin: str) -> np.ndarray:
    if "ranges" not in sections:
        raise ConfigError(f"{origin}: missing [ranges] section")
    names = ["t"] + [f"x{i + 1}" for i in range(n)] \
        + [f"y{i + 1}" for i in range(n)]
    table = _section(sections, "ranges", names, origin)
    rows = []
    for name in names:
        text = table.get(name)
        if text is None:
            raise ConfigError(f"{origin}: [ranges] missing {name}")
        parts = text.split()
        if len(parts) != 2:
            raise ConfigError(f"{origin}: range {name} needs two numbers, "
                              f"got {text!r}")
        lo, hi = (_float(p, origin, name) for p in parts)
        if hi < lo:
            raise ConfigError(f"{origin}: range {name} has high < low")
        rows.append((lo, hi))
    return np.array(rows)


def load_config(target: str) -> ProblemConfig:
    """Load a problem file by path, or by built-in name."""
    path = Path(target)
    if path.exists() and path.is_file():
        text, origin = path.read_text(), str(path)
        default_name = path.stem
    elif target in BUILTIN_CONFIGS:
        text = (resources.files("jetlag.configs") / f"{target}.cfg") \
            .read_text()
        origin = default_name = target
    else:
        raise ConfigError(
            f"no such config file or built-in problem: {target!r} "
            f"(built-ins: {', '.join(BUILTIN_CONFIGS)})")

    sections = _parse_sections(text, origin)
    if "problem" not in sections:
        raise ConfigError(f"{origin}: missing [problem] section")
    problem = _section(sections, "problem", ("name", "n", "h11", "lagrangian",
                                             "family", "seed", "kappa"), origin)
    if "n" not in problem or "h11" not in problem:
        raise ConfigError(f"{origin}: [problem] needs n and h11")
    try:
        n = int(problem["n"])
    except ValueError:
        raise ConfigError(f"{origin}: n must be an integer") from None
    if n < 1:
        raise ConfigError(f"{origin}: n must be >= 1")
    if n > MAX_N:
        raise ConfigError(f"{origin}: n must be <= {MAX_N}, got {n}")

    space = _build_space(sections, n, origin)
    ranges = _build_ranges(sections, n, origin)
    seed = problem.get("seed", "0")
    if not re.fullmatch("[0-9]+", seed):
        raise ConfigError(f"{origin}: seed must be a non-negative integer, "
                          f"got {seed!r}")
    kappa = _float(problem.get("kappa", "1.0"), origin, "kappa")
    if kappa == 0.0:
        raise ConfigError(f"{origin}: kappa must be nonzero")

    tolerances = {}
    if "tolerances" in sections:
        valid = set(default_tolerances())
        for key, value in sections["tolerances"].items():
            if key not in valid:
                raise ConfigError(f"{origin}: unknown tolerance {key!r} "
                                  f"(valid: {', '.join(sorted(valid))})")
            tolerances[key] = _float(value, origin, key)
            if tolerances[key] <= 0.0:
                raise ConfigError(f"{origin}: {key} must be positive, "
                                  f"got {value!r}")

    known_sections = {"problem", "metric", "potential", "scalar", "ranges",
                      "tolerances"}
    unknown = set(sections) - known_sections
    if unknown:
        raise ConfigError(f"{origin}: unknown sections {sorted(unknown)}")

    return ProblemConfig(name=problem.get("name", default_name), space=space,
                         ranges=ranges, seed=int(seed), kappa=kappa,
                         tolerances=tolerances)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fields_of(obj, *skip) -> dict:
    """The dataclass fields of obj by name, but those in skip."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name not in skip}


def point_record(sp: LagrangeSpace, z, kappa: float = 1.0) -> dict:
    """Every computed object at one jet point, JSON-ready."""
    geo = sp.geometry_at(z)
    z = geo.z
    em = em_form(sp, z)
    ein = einstein_system(sp, z, kappa=kappa)

    def per_key(residuals):
        return {k: worst_residual([v]) for k, v in residuals.items()}

    record = {
        "point": {"t": float(z[0]), "x": z[1:sp.n + 1], "y": z[sp.n + 1:]},
        "metric": {"g": geo.g, "g_inv": geo.g_inv, "h11": geo.h11,
                   "signature": list(metric_signature(geo.g))},
        "spray": {"temporal": geo.Htemp, "spatial": geo.Gspat},
        "nonlinear": {"M": geo.M, "N": geo.N},
        "cartan": _fields_of(geo.cartan),
        "torsion": _fields_of(torsion(sp, z)),
        "curvature": _fields_of(curvature(sp, z)),
        "deflections": _fields_of(deflections(sp, z)),
        "em_form": {"F": em.F, "f": em.f},
        "ricci": _fields_of(ein.ricci),
        "einstein": _fields_of(ein, "ricci"),
        "residuals": {"maxwell": per_key(maxwell_residuals(sp, z)),
                      "bianchi": per_key(bianchi_residuals(sp, z)),
                      "deflection_identities":
                          per_key(deflection_identities(sp, z)),
                      "deflection_route": deflection_route(sp, z),
                      "em_route": em.route_residual},
    }
    return _jsonable(record)


def _summary(results) -> dict:
    return {r.name: {"worst": r.worst, "tol": r.tol, "passed": r.passed,
                     "points": r.points, "note": r.note} for r in results}


def _dump(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_table(results) -> None:
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "ok  " if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        print(f"{verdict} {r.name:<{width}}  worst {r.worst:.3e}  "
              f"tol {r.tol:.1e}  ({r.points} pts){note}")


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _parse_point(cfg: ProblemConfig, values) -> np.ndarray:
    if values is None:
        return cfg.midpoint()
    if len(values) != 2 * cfg.n + 1:
        raise ConfigError(f"--point needs {2 * cfg.n + 1} numbers "
                          f"(t x1..x{cfg.n} y1..y{cfg.n}), got {len(values)}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("--point needs finite numbers")
    return np.asarray(values, dtype=float)


def cmd_inspect(args) -> int:
    cfg = load_config(args.config)
    z = _parse_point(cfg, args.point)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "problem": cfg.name,
        "n": cfg.n,
        "family": cfg.space.family,
        "record": point_record(cfg.space, z, kappa=cfg.kappa),
    }
    _dump(payload, args.out)
    return 0


def _run_suites(args, with_records: bool):
    if args.points > MAX_POINTS:
        raise ConfigError(f"--points must be <= {MAX_POINTS}, "
                          f"got {args.points}")
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    points = sample_points(cfg.space, cfg.ranges, args.points, seed)
    results = run_checks(cfg.space, points, tolerances=cfg.tolerances,
                         tol_scale=args.tol_scale, gauge_seed=seed,
                         corrupt_connection=args.corrupt_connection)
    offender = worst_offender(results)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "problem": cfg.name,
        "n": cfg.n,
        "family": cfg.space.family,
        "seed": seed,
        "tol_scale": args.tol_scale,
        "num_points": len(points),
        "summary": _summary(results),
        "passed": offender is None,
        "worst_offender": offender.name if offender else None,
    }
    if with_records:
        payload["records"] = [point_record(cfg.space, z, kappa=cfg.kappa)
                              for z in points]
    _print_table(results)
    if offender is None:
        print(f"all {len(results)} suites passed")
    else:
        print(f"FAIL: worst offender {offender.name} "
              f"(worst {offender.worst:.3e} vs tol {offender.tol:.1e})")
    if args.out:
        _dump(payload, args.out)
    return 0 if offender is None else 1


def cmd_check(args) -> int:
    return _run_suites(args, with_records=False)


def cmd_report(args) -> int:
    return _run_suites(args, with_records=True)


def cmd_curve(args) -> int:
    cfg = load_config(args.config)
    n = cfg.n
    if len(args.x0) != n or len(args.y0) != n:
        raise ConfigError(f"--x0 and --y0 need {n} numbers each")
    curve = integrate_harmonic(cfg.space, np.asarray(args.x0),
                               np.asarray(args.y0), args.t0, args.t1,
                               args.step)
    curve.to_csv(args.out)
    value = action(cfg.space, curve)
    print(f"samples {len(curve)}")
    print(f"action {value:.17g}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlag",
        description="Geometry of time-dependent Lagrangians on the 1-jet "
                    "bundle: inspect points, sweep identities, integrate "
                    "curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_sampling):
        p.add_argument("--config", required=True,
                       help="problem file path or built-in name "
                            f"({', '.join(BUILTIN_CONFIGS)})")
        p.add_argument("--out", default=None, help="write output here")
        if with_sampling:
            p.add_argument("--points", type=int, default=100,
                           help="sample size (default 100)")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            p.add_argument("--tol-scale", type=float, default=1.0,
                           help="multiply every tolerance")
            p.add_argument("--corrupt-connection", action="store_true",
                           help="test hook: damage the spatial connection "
                                "block to exercise the failure path")

    p = sub.add_parser("inspect", help="dump every object at one point")
    common(p, with_sampling=False)
    p.add_argument("--point", type=float, nargs="+", default=None,
                   help="t x1..xn y1..yn (default: range midpoint)")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("check", help="run the identity suites")
    common(p, with_sampling=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("report", help="check plus per-point records")
    common(p, with_sampling=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("curve", help="integrate a curve, write CSV")
    common(p, with_sampling=False)
    p.add_argument("--x0", type=float, nargs="+", required=True)
    p.add_argument("--y0", type=float, nargs="+", required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(fn=cmd_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "curve" and args.out is None:
        parser.error("curve requires --out for the CSV")
    try:
        # the engine reports every non-finite result it reads itself, so
        # numpy's floating-point warnings on the way there are noise
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (NonRegularError, EvalDomainError) as exc:
        # a point where the metric is singular or an expression leaves its
        # domain (the domain error is an ExprError, so it is caught first)
        print(f"regularity failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ExprError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
