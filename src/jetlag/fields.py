"""Field objects living on the jet space: deflections of the Liouville
vector, the electromagnetic 2-form with its closure equations, Ricci
tensors, the gravitational field equations, and their conservation laws.

Every derived quantity here is assembled from the canonical connection
pair and the Cartan coefficients.  Where a closed form exists it is used
for the returned value, and the covariant-derivative engine supplies an
independent route whose disagreement is reported as a residual instead
of being averaged away.
"""

from dataclasses import dataclass

import numpy as np

from .dtensor import (
    DTensorField,
    SlotKind,
    adapted_derivative,
    covariant_derivative,
)
from .expr import _point_array
from .geometry import (
    LagrangeSpace,
    canonical_nonlinear_connection,
    cartan_connection,
    curvature,
    fundamental_metric,
    torsion,
)

__all__ = [
    "DeflectionSet",
    "EMForm",
    "MaxwellResiduals",
    "RicciSet",
    "EinsteinReport",
    "deflections",
    "em_form",
    "maxwell_residuals",
    "maxwell_simple_residuals",
    "deflection_identities",
    "vertical_source_tensor",
    "ricci_and_scalar",
    "einstein_system",
    "conservation_residuals",
]


def _covd(sp: LagrangeSpace, z, signature, fn, kind: str) -> np.ndarray:
    """Components of the covariant derivative of the d-tensor field
    q -> fn(q) in the canonical connection of sp.  A scalar's time
    derivative takes no correction, so it is the adapted one, which reads
    neither the Cartan blocks nor the field at z."""
    field = DTensorField(signature, sp.n, fn)
    nl = lambda q: canonical_nonlinear_connection(sp, q)
    if not signature and kind == "time":
        return adapted_derivative(field, z, nl, "T").components
    cart = lambda q: cartan_connection(sp, q)
    return covariant_derivative(field, z, cart, nl, kind).components


# ---------------------------------------------------------------------------
# deflections of the Liouville vector y^i d/dy^i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflectionSet:
    """Covariant derivatives of the Liouville vector, plain and lowered.

    Dbar/D/d carry the upper vertical index; the *_low variants are the
    contractions with the vertical block h^11 g_ik of the jet metric.
    route_residual is the worst disagreement between the closed forms
    and the covariant-derivative engine applied to y^i directly.
    """

    Dbar: np.ndarray      # (n,)   time derivative
    D: np.ndarray         # (n, n) spatial derivative
    d: np.ndarray         # (n, n) vertical derivative
    Dbar_low: np.ndarray
    D_low: np.ndarray
    d_low: np.ndarray
    route_residual: float


def deflections(sp: LagrangeSpace, point):
    n = sp.n
    z = _point_array(point, n)
    y = z[1 + n:]
    geo = sp.geometry_at(z)
    cart = geo.cartan

    # closed forms from the connection coefficients
    Dbar = cart.Gt @ y
    D = -geo.N + np.einsum("ijm,m->ij", cart.L, y)
    d = np.eye(n) + np.einsum("imj,m->ij", cart.C, y)

    # independent route: the engine differentiates y^i as a vertical vector
    eng_t, eng_x, eng_y = [
        _covd(sp, z, (SlotKind.VERT_UP,), lambda q: q[1 + n:], kind)
        for kind in ("time", "space", "vert")]
    # np.max keeps a NaN from any route; the builtin max would drop it
    residual = np.max([np.max(np.abs(eng_t[:, 0] - Dbar)),
                       np.max(np.abs(eng_x - D)),
                       np.max(np.abs(eng_y - d))])

    low = geo.h_inv * geo.g
    return DeflectionSet(Dbar=Dbar, D=D, d=d,
                         Dbar_low=low @ Dbar, D_low=low @ D, d_low=low @ d,
                         route_residual=float(residual))


# ---------------------------------------------------------------------------
# electromagnetic 2-form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EMForm:
    """Antisymmetric parts of the lowered deflections.

    F comes from the connection closed form; F_alt rebuilds it from the
    engine-computed deflections.  f vanishes identically because the
    lowered vertical deflection is symmetric; it is reported, not assumed.
    """

    F: np.ndarray         # (n, n)
    f: np.ndarray         # (n, n)
    F_alt: np.ndarray
    route_residual: float


def _em_F_closed(sp: LagrangeSpace, q):
    # F_(i)j = h^11/2 [g_jm N^m_i - g_im N^m_j + (g L_j. - g L_i.) y]
    n = sp.n
    z = _point_array(q, n)
    geo = sp.geometry_at(z)
    y = z[1 + n:]
    gN = geo.g @ geo.N
    gLy = geo.g @ np.einsum("kjm,m->kj", geo.cartan.L, y)
    return 0.5 * geo.h_inv * ((gN.T - gN) + (gLy - gLy.T))


def em_form(sp: LagrangeSpace, point):
    n = sp.n
    z = _point_array(point, n)
    F = _em_F_closed(sp, z)
    defl = deflections(sp, z)
    F_alt = 0.5 * (defl.D_low - defl.D_low.T)
    f = 0.5 * (defl.d_low - defl.d_low.T)
    return EMForm(F=F, f=f, F_alt=F_alt,
                  route_residual=float(np.max(np.abs(F - F_alt))))


# ---------------------------------------------------------------------------
# Maxwell closure equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxwellResiduals:
    """Residual arrays of the three closure equations; zero when satisfied."""

    eq1: np.ndarray       # (n, n)    time equation
    eq2: np.ndarray       # (n, n, n) horizontal cyclic equation
    eq3: np.ndarray       # (n, n, n) vertical cyclic equation

    def worst(self) -> dict:
        return {"eq1": float(np.max(np.abs(self.eq1))),
                "eq2": float(np.max(np.abs(self.eq2))),
                "eq3": float(np.max(np.abs(self.eq3)))}


def _cyclic(a: np.ndarray) -> np.ndarray:
    # sum over cyclic permutations of all three axes of a (n,n,n) array
    return (a + np.transpose(a, (1, 2, 0)) + np.transpose(a, (2, 0, 1)))


def vertical_source_tensor(geo) -> np.ndarray:
    """Totally symmetric tensor h^11 * dg_il/dy^m feeding the cyclic equation.

    Equals half the third vertical derivative of the Lagrangian, so it
    vanishes for any family quadratic in y.
    """
    return 0.5 * geo.Lyyy


def _F_derivatives(sp: LagrangeSpace, z) -> list:
    """Time, space and vertical covariant derivatives of the closed-form F
    (the time one keeps its one-entry derivative axis)."""
    return [_covd(sp, z, (SlotKind.VERT_DOWN, SlotKind.SPACE_DOWN),
                  lambda q: _em_F_closed(sp, q), kind)
            for kind in ("time", "space", "vert")]


def maxwell_residuals(sp: LagrangeSpace, point) -> MaxwellResiduals:
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    y = z[1 + n:]
    y_low = geo.h_inv * (geo.g @ y)
    tor = torsion(sp, z)
    C = geo.cartan.C
    F_t, F_x, F_y = _F_derivatives(sp, z)

    defl = deflections(sp, z)
    Dbar_cov = _covd(sp, z, (SlotKind.VERT_DOWN, SlotKind.TIME_DOWN),
                     lambda q: deflections(sp, q).Dbar_low[:, None],
                     "space")[:, 0, :]
    T1_cov = _covd(sp, z, (SlotKind.SPACE_UP, SlotKind.TIME_DOWN,
                           SlotKind.SPACE_DOWN),
                   lambda q: torsion(sp, q).T_1j[:, None, :],
                   "space")[:, 0, :, :]

    bracket = T1_cov + np.einsum("pkm,mi->pik", C, tor.R_1j)
    core = (Dbar_cov + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j
            - np.einsum("pik,p->ik", bracket, y_low))
    eq1 = F_t[:, :, 0] - 0.5 * (core - core.T)

    # Source tensor h^11 * dg_il/dy^m == (1/2) d^3L/dy^i dy^l dy^m.  An
    # extra h^11 dressing here breaks the cyclic identity on any space
    # whose metric depends on y while h11 != 1; the undressed form keeps
    # the residual at discretization level (both agree when L is
    # quadratic in y, where the term vanishes identically).
    c3 = vertical_source_tensor(geo)
    source = np.einsum("ilm,mjk,l->ijk", c3, tor.R_ij, y)
    eq2 = _cyclic(F_x) + 0.5 * _cyclic(source)
    eq3 = _cyclic(F_y)
    return MaxwellResiduals(eq1=eq1, eq2=eq2, eq3=eq3)


def maxwell_simple_residuals(sp: LagrangeSpace, point):
    """Closure residuals in the reduced form valid for metrics g(x).

    The sources drop out and the time equation closes on the mixed
    torsion block alone.  Meaningful only when the spatial metric has
    no t or y dependence; on other spaces the residuals are honest
    measurements of how far the reduction fails.
    """
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    tor = torsion(sp, z)
    F_t, F_x, F_y = _F_derivatives(sp, z)
    term = geo.h_inv * (geo.g @ tor.R_1j)
    eq1 = F_t[:, :, 0] - 0.5 * (term - term.T)
    return MaxwellResiduals(eq1=eq1, eq2=_cyclic(F_x), eq3=_cyclic(F_y))


def deflection_identities(sp: LagrangeSpace, point) -> dict:
    """Residuals of the three lowered deflection derivative identities.

    These are the lemmas behind the closure equations; each ties mixed
    second covariant derivatives of y_i to torsion and curvature blocks.
    """
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    y = z[1 + n:]
    y_low = geo.h_inv * (geo.g @ y)
    tor = torsion(sp, z)
    cur = curvature(sp, z)
    C = geo.cartan.C
    defl = deflections(sp, z)

    VD, SD = SlotKind.VERT_DOWN, SlotKind.SPACE_DOWN
    Dbar_low = lambda q: deflections(sp, q).Dbar_low[:, None]
    D_low = lambda q: deflections(sp, q).D_low
    Dbar_x = _covd(sp, z, (VD, SlotKind.TIME_DOWN), Dbar_low,
                   "space")[:, 0, :]
    D_t = _covd(sp, z, (VD, SD), D_low, "time")[:, :, 0]
    D_x = _covd(sp, z, (VD, SD), D_low, "space")
    D_y = _covd(sp, z, (VD, SD), D_low, "vert")
    d_x = _covd(sp, z, (VD, VD), lambda q: deflections(sp, q).d_low, "space")

    d1 = (Dbar_x - D_t + np.einsum("m,mik->ik", y_low, cur.R_i1k)
          + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j)
    d2 = (D_x - np.transpose(D_x, (0, 2, 1))
          + np.einsum("m,mijk->ijk", y_low, cur.R_ijk)
          + np.einsum("im,mjk->ijk", defl.d_low, tor.R_ij))
    d3 = (D_y - np.transpose(d_x, (0, 2, 1))
          + np.einsum("m,mijk->ijk", y_low, cur.P_ijk)
          + np.einsum("im,mjk->ijk", defl.D_low, C)
          + np.einsum("im,mjk->ijk", defl.d_low, tor.P_i))
    return {"d1": d1, "d2": d2, "d3": d3}


# ---------------------------------------------------------------------------
# Ricci tensors and scalar curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicciSet:
    """The six effective Ricci contractions plus the curvature scalars.

    The time-time component H11 vanishes identically in one dimension
    of time, so H is zero and the total scalar Sc equals R + S.
    """

    H11: float            # identically zero, kept for block completeness
    R_i1: np.ndarray      # (n,)
    R_ij: np.ndarray      # (n, n)
    P_i_j: np.ndarray     # (n, n) mixed, vertical second slot
    P_i1: np.ndarray      # (n,)   vertical first slot, time second
    P_ij: np.ndarray      # (n, n) vertical first slot, spatial second
    S_ij: np.ndarray      # (n, n) vertical pair
    H: float
    R: float
    S: float
    Sc: float


def ricci_and_scalar(sp: LagrangeSpace, point) -> RicciSet:
    z = _point_array(point, sp.n)
    geo = sp.geometry_at(z)
    cur = curvature(sp, z)
    R_i1 = np.einsum("mim->i", cur.R_i1k)
    R_ij = np.einsum("mijm->ij", cur.R_ijk)
    # sign asymmetry is forced by the vertical index sitting up in the
    # contraction slot for the mixed block
    P_i_j = -np.einsum("mimj->ij", cur.P_ijk)
    P_i1 = np.einsum("mim->i", cur.P_i1k)
    P_ij = np.einsum("mijm->ij", cur.P_ijk)
    S_ij = np.einsum("mijm->ij", cur.S_ijk)
    R = float(np.einsum("ij,ij->", geo.g_inv, R_ij))
    S = float(geo.h11 * np.einsum("ij,ij->", geo.g_inv, S_ij))
    return RicciSet(H11=0.0, R_i1=R_i1, R_ij=R_ij, P_i_j=P_i_j, P_i1=P_i1,
                    P_ij=P_ij, S_ij=S_ij, H=0.0, R=R, S=S, Sc=R + S)


# ---------------------------------------------------------------------------
# gravitational field equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EinsteinReport:
    """Left-hand sides of the field equations and the extracted sources.

    e1_* are the diagonal blocks; e2 holds the mixed blocks keyed by
    slot pair.  stress contains the source components obtained by
    dividing each left side by the coupling constant; the two entries
    listed in forced_zero have no curvature side at all, so consistency
    demands those source components vanish identically.  conservation
    carries the three divergence residuals, or None when skipped.
    """

    e1_tt: float
    e1_ij: np.ndarray
    e1_vert: np.ndarray
    e2: dict
    stress: dict
    forced_zero: tuple
    kappa: float
    ricci: RicciSet
    conservation: dict | None


def einstein_system(sp: LagrangeSpace, point, kappa: float = 1.0,
                    with_conservation: bool = True) -> EinsteinReport:
    if kappa == 0.0 or not np.isfinite(kappa):
        raise ValueError("coupling constant must be finite and nonzero")
    z = _point_array(point, sp.n)
    geo = sp.geometry_at(z)
    ric = ricci_and_scalar(sp, z)
    half = 0.5 * ric.Sc
    e1_tt = -half * geo.h11
    e1_ij = ric.R_ij - half * geo.g
    e1_vert = ric.S_ij - half * geo.h_inv * geo.g
    e2 = {
        "space-time": ric.R_i1,
        "vert-time": ric.P_i1,
        "space-vert": ric.P_i_j,
        "vert-space": ric.P_ij,
    }
    stress = {
        "time-time": e1_tt / kappa,
        "space-space": e1_ij / kappa,
        "vert-vert": e1_vert / kappa,
    }
    for key, value in e2.items():
        stress[key] = value / kappa
    cons = conservation_residuals(sp, z) if with_conservation else None
    return EinsteinReport(e1_tt=e1_tt, e1_ij=e1_ij, e1_vert=e1_vert,
                          e2=e2, stress=stress,
                          forced_zero=("time-space", "time-vert"),
                          kappa=kappa, ricci=ric, conservation=cons)


# ---------------------------------------------------------------------------
# conservation laws
# ---------------------------------------------------------------------------

def conservation_residuals(sp: LagrangeSpace, point) -> dict:
    """Residuals of the three divergence identities of the field equations.

    law1 is a scalar; law2 and law3 carry one free spatial index.  All
    raised fields follow the jet-metric contractions: spatial indices
    rise with g^im, vertical-origin blocks carry the extra h11 factor.
    """
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)   # unused; perfbench/selftest.py pins this read

    def raised(build):
        def fn(q):
            g_inv = sp.geometry_at(q).g_inv
            h11 = sp.geometry_at(q).h11   # a second read, pinned likewise
            return build(ricci_and_scalar(sp, q), g_inv, h11)
        return fn

    SU, SD = SlotKind.SPACE_UP, SlotKind.SPACE_DOWN
    VU, VD, TD = SlotKind.VERT_UP, SlotKind.VERT_DOWN, SlotKind.TIME_DOWN
    lhs1 = float(_covd(sp, z, (), lambda q: np.asarray(
        0.5 * ricci_and_scalar(sp, q).Sc), "time"))
    rup1_cov = _covd(sp, z, (SU, TD), raised(
        lambda r, gi, h: (gi @ r.R_i1)[:, None]), "space")[:, 0, :]
    pup1_cov = _covd(sp, z, (VU, TD), raised(
        lambda r, gi, h: (h * gi @ r.P_i1)[:, None]), "vert")[:, 0, :]
    law1 = lhs1 - (np.trace(rup1_cov) - np.trace(pup1_cov))

    mixed_R = _covd(sp, z, (SU, SD), raised(
        lambda r, gi, h: gi @ r.R_ij - 0.5 * r.Sc * np.eye(n)), "space")
    mixed_P = _covd(sp, z, (VU, SD), raised(
        lambda r, gi, h: h * gi @ r.P_ij), "vert")
    law2 = np.einsum("mjm->j", mixed_R) + np.einsum("mjm->j", mixed_P)

    mixed_S = _covd(sp, z, (VU, VD), raised(
        lambda r, gi, h: h * gi @ r.S_ij - 0.5 * r.Sc * np.eye(n)), "vert")
    mixed_Pv = _covd(sp, z, (SU, VD), raised(
        lambda r, gi, h: gi @ r.P_i_j), "space")
    law3 = np.einsum("mjm->j", mixed_S) + np.einsum("mjm->j", mixed_Pv)
    return {"law1": law1, "law2": law2, "law3": law3}
