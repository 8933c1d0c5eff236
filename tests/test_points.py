"""Every point-taking function accepts a coordinate array or a JetPoint.

Both forms go through one normaliser, so the same point gives bitwise
identical results either way.  Each call builds a fresh space, so the
geometry cache cannot hand the second form the first form's answer.
"""

import dataclasses

import numpy as np
import pytest

from helpers import jet_point
from jetlag import dtensor, dynamics, fields, geometry
from jetlag.checks import random_affine_chart
from jetlag.cli import load_config
from jetlag.dtensor import SlotKind
from jetlag.expr import EvalDomainError, JetPoint, parse

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
    dynamics: ("harmonic_rhs", "el_acceleration"),
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
                                  "dynamics.el_acceleration",
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
