"""The package's public surface is what its code, benchmark, demos and
README use.

A function or class in a module's ``__all__`` must be read as a name or
an attribute in some module of the package, or be named by a script
under ``perfbench/`` or ``demos/`` (read, or written in a string literal,
as the benchmark's tracer names its spans), or be read in a Python code
block of the README.  Import lines, docstrings and comments do not count,
so a name that only tests call, or that only its module's ``__all__``
lists, fails here: it belongs in ``tests/helpers.py`` or nowhere.  The
same holds one level down: every public method, property or classmethod
of such a class must be read as an attribute in those places (a word in
a string does not count there).  The name rule cannot tell a method of
``Dual`` from the ndarray method of the same name, so every public member
of ``Dual`` and every numpy function it implements must also be called by
the engine at run time (einsum through ``jetlag.dual.einsum`` and
``linalg.inv`` through ``jetlag.dual.inv``, the entry points of the
package's einsums and inverses).  One point normaliser: only the modules
that need it import ``expr._point_array``.
"""

import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import numpy as np

import jetlag
from jetlag import checks, cli, dual
from jetlag.dual import Dual

PACKAGE = Path(jetlag.__file__).parent
REPO = PACKAGE.parent.parent


def _read_names(tree, kinds=(ast.Name, ast.Attribute)) -> set:
    """Identifiers the code reads: a Name, or the attribute of an
    Attribute, in load context."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def _string_words(tree) -> set:
    """Words of the string literals that are not docstrings."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return {word for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docs
            for word in re.findall(r"\w+", node.value)}


def _used_names(kinds=(ast.Name, ast.Attribute), strings=True) -> set:
    used = set()
    for path in PACKAGE.glob("*.py"):
        used |= _read_names(ast.parse(path.read_text()), kinds)
    for folder in ("perfbench", "demos"):
        for path in (REPO / folder).glob("*.py"):
            tree = ast.parse(path.read_text())
            used |= _read_names(tree, kinds)
            if strings:
                used |= _string_words(tree)
    readme = (REPO / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= _read_names(ast.parse(block), kinds)
    return used


def _public():
    """(qualified name, name, object) of each name in a module's __all__."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = "jetlag" if path.stem == "__init__" else f"jetlag.{path.stem}"
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            yield f"{module}.{name}", name, getattr(mod, name)


def test_every_public_function_and_class_has_a_caller():
    used = _used_names()
    unused = [qual for qual, name, obj in _public()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and name not in used]
    assert unused == [], f"public but never used: {', '.join(unused)}"


def test_every_public_method_of_a_public_class_has_a_caller():
    used = _used_names(ast.Attribute, strings=False)
    unused = sorted({f"{obj.__module__}.{obj.__qualname__}.{attr}"
                     for _, _, obj in _public() if inspect.isclass(obj)
                     for attr, member in vars(obj).items()
                     if not attr.startswith("_")
                     and isinstance(member, (types.FunctionType, property,
                                             classmethod, staticmethod))
                     and attr not in used})
    assert unused == [], f"public but never used: {', '.join(unused)}"


def test_every_public_member_of_dual_has_an_engine_caller(monkeypatch):
    # a method or property counts when code outside jetlag.dual calls it; a
    # numpy function when code outside jetlag.dual calls numpy with a Dual
    # (the frame above Dual.__array_function__, as numpy's dispatch has
    # none of its own)
    called = set()

    def note(name, frames_up):
        if sys._getframe(frames_up).f_code.co_filename != dual.__file__:
            called.add(name)

    def counted(name, fn, frames_up):
        def wrapper(*args, **kwargs):
            note(name, frames_up)
            return fn(*args, **kwargs)
        return wrapper

    members = {name: member for name, member in vars(Dual).items()
               if not name.startswith("_")
               and isinstance(member, (types.FunctionType, property))}
    for name, member in members.items():
        if isinstance(member, property):
            member = property(counted(name, member.fget, 2))
        else:
            member = counted(name, member, 2)
        monkeypatch.setattr(Dual, name, member)
    functions = {f"numpy.{func.__name__}": func for func in dual._FUNCTIONS
                 if func not in (np.einsum, np.linalg.inv)}
    for name, func in functions.items():
        monkeypatch.setitem(dual._FUNCTIONS, func,
                            counted(name, dual._FUNCTIONS[func], 3))
    # the engine's einsums and inverses go through dual.einsum and dual.inv,
    # which hand a Dual operand to the rules np.einsum and np.linalg.inv
    # dispatch to
    def route(entry, rule):
        def routed(*args):
            if sys._getframe(1).f_code is entry.__code__:
                note(f"jetlag.dual.{entry.__name__}", 3)
            return rule(*args)
        monkeypatch.setattr(dual, rule.__name__, routed)

    route(dual.einsum, dual._einsum)
    route(dual.inv, dual._inverse)

    cfg = cli.load_config("electrodynamics_l2")
    lo, hi = cfg.ranges[:, 0], cfg.ranges[:, 1]
    points = lo + (hi - lo) * np.random.default_rng(0).random((4, len(lo)))
    checks.run_checks(cfg.space, points)
    cli.point_record(cfg.space, points[0])
    unused = sorted((set(members) | set(functions)
                     | {"jetlag.dual.einsum", "jetlag.dual.inv"}) - called)
    assert unused == [], f"no engine caller: {', '.join(unused)}"


def test_only_expr_geometry_and_dtensor_normalise_points():
    # geometry_at normalises a point once, and evaluate_fields and the
    # chart laws take raw points; every other module reads the point off
    # the geometry.  A module names _point_array by importing or reading it
    users = {path.stem for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "_point_array" in (getattr(node, "name", None),
                                   getattr(node, "id", None),
                                   getattr(node, "attr", None))}
    assert users <= {"expr", "geometry", "dtensor"}, sorted(users)
