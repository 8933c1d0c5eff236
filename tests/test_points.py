"""Every point-taking function accepts a coordinate array or a JetPoint.

Both forms go through one normaliser, so the same point gives bitwise
identical results either way.  Each call builds a fresh space, so the
geometry cache cannot hand the second form the first form's answer.
The file also pins what a point and a value object reject, with the
exception and message of each rejection, and the work at a gauge point:
one time jet per time, one coordinate array per JetPoint.
"""

import dataclasses

import numpy as np
import pytest

from helpers import jet_point
from jetlag import dtensor, dynamics, fields, geometry
from jetlag.checks import random_affine_chart
from jetlag.cli import load_config
from jetlag.dtensor import SlotKind
from jetlag.dtensor import NonlinearConnectionValue
from jetlag.dual import CONTRACT, Dual, base
from jetlag.expr import (EvalDomainError, FieldGroup, JetPoint, _point_array,
                         parse)

pytestmark = pytest.mark.filterwarnings("error")

CONFIG = "electrodynamics_l2"
Z = np.array([0.4, 1.1, -0.7, 0.6, -0.9])
N = 2


def fresh_space():
    return load_config(CONFIG).space


def leaves(obj):
    """Flatten a result (dataclass, slotted bundle, dict, sequence) into
    the arrays and scalars it is made of."""
    if dataclasses.is_dataclass(obj):
        return leaves([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return leaves([obj[k] for k in sorted(obj)])
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in leaves(item)]
    if hasattr(type(obj), "__slots__") and not isinstance(obj, np.ndarray):
        # a geometry's space is where it came from, not a result
        return leaves([getattr(obj, a) for a in type(obj).__slots__
                       if a != "space" and hasattr(obj, a)])
    return [obj]


CHART = random_affine_chart(fresh_space(), 3)
SPACE_FNS = {
    geometry: ("canonical_spray",
               "canonical_nonlinear_connection", "cartan_connection",
               "torsion", "curvature", "bianchi_residuals"),
    fields: ("deflections", "em_form", "maxwell_residuals",
             "maxwell_simple_residuals", "deflection_identities",
             "ricci_and_scalar", "einstein_system", "conservation_residuals"),
    dynamics: ("harmonic_rhs",),
}
# each takes (space, point)
CALLS = {f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": getattr(mod, name)
         for mod, names in SPACE_FNS.items() for name in names}
CALLS.update({
    "LagrangeSpace.geometry_at": lambda sp, q: sp.geometry_at(q),
    "LagrangeSpace.connection_jets": lambda sp, q: sp.connection_jets(q),
    "ScalarField.evaluate": lambda sp, q: sp.L.evaluate(q),
    "dtensor.transform_point": lambda sp, q: dtensor.transform_point(CHART, q),
    "dtensor.transform_temporal_spray": lambda sp, q:
        dtensor.transform_temporal_spray(np.ones(N), CHART, q),
    "dtensor.transform_spatial_spray": lambda sp, q:
        dtensor.transform_spatial_spray(np.ones(N), CHART, q),
    "dtensor.transform_nonlinear": lambda sp, q: dtensor.transform_nonlinear(
        geometry.canonical_nonlinear_connection(sp, Z), CHART, q),
    "dtensor.transform_tensor": lambda sp, q: dtensor.transform_tensor(
        np.arange(4.0).reshape(2, 2), (SlotKind.SPACE_UP, SlotKind.VERT_DOWN),
        CHART, q),
})


@pytest.mark.parametrize("name", sorted(CALLS))
def test_array_and_jetpoint_agree(name):
    call = CALLS[name]
    from_array = leaves(call(fresh_space(), Z.copy()))
    from_point = leaves(call(fresh_space(), jet_point(Z, N)))
    assert len(from_array) == len(from_point)
    for a, b in zip(from_array, from_point):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("name", ["LagrangeSpace.geometry_at",
                                  "fields.ricci_and_scalar",
                                  "dynamics.harmonic_rhs",
                                  "dtensor.transform_point"])
def test_wrong_dimension_rejected_either_way(name):
    bad_point = JetPoint(0.4, (1.1,), (0.6,))
    for q in (bad_point, bad_point.as_array()):
        with pytest.raises(ValueError):
            CALLS[name](fresh_space(), q)


@pytest.mark.parametrize("source", ["1/x1", "x1^(-2)"])
def test_domain_error_is_the_same_for_both_forms(source):
    f = parse(source, 1)
    z = np.array([0.0, 0.0, 1.0])
    for q in (z, jet_point(z, 1)):
        with pytest.raises(EvalDomainError):
            f.evaluate(q)


# ---------------------------------------------------------------------------
# the checks a point and a value object make, and the work at a gauge point
# ---------------------------------------------------------------------------

BAD = (float("nan"), float("inf"), -float("inf"))


def _raises(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert str(info.value) == message


def _dual(value, levels: int):
    """value as a Dual nested levels deep, with one seeded direction a
    level: its base is value itself."""
    for _ in range(levels):
        value = Dual(value, np.ones((1, *np.shape(base(value)))))
    return value


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", range(2 * N + 1))
def test_jetpoint_rejects_each_nonfinite_entry(entry, bad):
    z = list(Z)
    z[entry] = bad
    _raises(ValueError, "jet point coordinates must be finite",
            lambda: JetPoint(z[0], z[1:N + 1], z[N + 1:]))


@pytest.mark.parametrize("t, x, y, exc_type, message", [
    (0.0, (0.0, 1.0), (0.0,), ValueError, "x has 2 entries but y has 1"),
    (0.0, (), (1.0,), ValueError, "x has 0 entries but y has 1"),
    (float("nan"), (0.0, 1.0), (0.0,), ValueError,
     "x has 2 entries but y has 1"),
    (0.0, ((1.0, 2.0),), (0.0,), TypeError,
     "float() argument must be a string or a real number, not 'tuple'"),
    (0.0, 1.0, (0.0,), TypeError, "'float' object is not iterable"),
    (None, (0.0,), (0.0,), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    (_dual(np.float64(0.4), 1), (0.0,), (0.0,), TypeError, CONTRACT),
])
def test_jetpoint_rejects_bad_coordinates(t, x, y, exc_type, message):
    _raises(exc_type, message, lambda: JetPoint(t, x, y))


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("bad", BAD)
def test_values_reject_each_nonfinite_entry(bad, levels):
    for slot in range(2 * N):
        H, G = np.ones(N), np.ones(N)
        (H if slot < N else G)[slot % N] = bad
        _raises(ValueError, "spray coefficients must be finite",
                lambda: geometry.SprayValue(_dual(H, levels), _dual(G, levels)))
    for slot in range(N + N * N):
        M, Nm = np.ones(N), np.ones((N, N))
        if slot < N:
            M[slot] = bad
        else:
            Nm.flat[slot - N] = bad
        _raises(ValueError, "connection coefficients must be finite",
                lambda: NonlinearConnectionValue(_dual(M, levels),
                                                 _dual(Nm, levels)))


@pytest.mark.parametrize("levels", [1, 2])
def test_values_check_the_base_of_a_dual(levels):
    # a non-finite derivative part is the caller's business, as before
    H = _dual(np.ones(N), levels)
    H.stack[(1,) * levels] = np.nan
    assert geometry.SprayValue(H, np.ones(N)).Htemp is H
    assert NonlinearConnectionValue(H, np.ones((N, N))).M is H


@pytest.mark.parametrize("levels", [0, 1])
@pytest.mark.parametrize("build, message", [
    (lambda d: geometry.SprayValue(d(np.ones(2)), d(np.ones(3))),
     "inconsistent spray shapes (2,), (3,)"),
    (lambda d: geometry.SprayValue(d(np.ones((2, 2))), d(np.ones((2, 2)))),
     "inconsistent spray shapes (2, 2), (2, 2)"),
    (lambda d: NonlinearConnectionValue(d(np.ones(2)), d(np.ones((3, 3)))),
     "inconsistent shapes M(2,), N(3, 3)"),
    (lambda d: NonlinearConnectionValue(d(np.ones(2)), d(np.ones((2, 3)))),
     "inconsistent shapes M(2,), N(2, 3)"),
    (lambda d: NonlinearConnectionValue(d(np.ones((2, 2))),
                                        d(np.ones((2, 2)))),
     "inconsistent shapes M(2, 2), N(2, 2)"),
    (lambda d: NonlinearConnectionValue(d(np.ones(2)), d(np.ones(4))),
     "inconsistent shapes M(2,), N(4,)"),
])
def test_values_reject_bad_shapes(build, message, levels):
    # a shape error comes first, even with a non-finite entry
    _raises(ValueError, message,
            lambda: build(lambda a: _dual(np.where(a, np.nan, a), levels)))


def test_t_jet_raises_at_every_call_where_tau_prime_vanishes():
    # a failure is never kept: before and after a kept success alike
    chart = dtensor.ChartMap(parse("(t - 0.5)^2", N), np.eye(N), np.zeros(N))
    for _ in range(2):
        for _ in range(2):
            _raises(dtensor.ChartError, "dt~/dt = 0.0 at t = 0.5",
                    lambda: chart.t_jet(0.5))
        assert chart.t_jet(0.75) == pytest.approx((0.0625, 0.5, 2.0))


@pytest.mark.parametrize("source", ["exp(t)", "t", "t^3 + sin(2*t)"])
def test_a_kept_time_jet_has_the_bits_of_a_fresh_one(source):
    def chart():
        return dtensor.ChartMap(parse(source, N), np.eye(N), np.zeros(N))

    kept = chart()
    for t in (0.4, -1.3, 0.4, 0.0, -0.0, -0.0, 0.0, 2.5, 2.5):
        once, again = kept.t_jet(t), kept.t_jet(t)
        fresh = chart().t_jet(t)
        assert [v.hex() for v in once] == [v.hex() for v in fresh], t
        assert [v.hex() for v in again] == [v.hex() for v in fresh], t


def test_a_gauge_point_evaluates_its_time_jet_once(monkeypatch):
    chart = random_affine_chart(fresh_space(), 3)
    sp = fresh_space()
    values, calls = FieldGroup.values, []

    def counted(self, *args):
        if self is chart._t_group:
            calls.append(args)
        return values(self, *args)

    monkeypatch.setattr(FieldGroup, "values", counted)
    # a point, the same point again, then a new time
    for z, count in ((Z, 1), (Z, 1), (Z + 0.05, 2)):
        p = jet_point(z, N)
        s = geometry.canonical_spray(sp, p)
        nl = geometry.canonical_nonlinear_connection(sp, p)
        dtensor.transform_point(chart, p)
        dtensor.transform_temporal_spray(s.Htemp, chart, p)
        dtensor.transform_spatial_spray(s.Gspat, chart, p)
        dtensor.transform_nonlinear(nl, chart, p)
        assert len(calls) == count


def test_a_jetpoint_lays_out_its_coordinates_once():
    p = jet_point(Z, N)
    z = _point_array(p, N)
    assert _point_array(p, N) is z
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0] = 1.0
    copy = p.as_array()
    assert copy is not z and copy.flags.writeable
    assert p.as_array() is not copy
    copy[0] = 1.0
    assert z.tobytes() == Z.tobytes() == p.as_array().tobytes()
