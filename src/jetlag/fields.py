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

from .dtensor import (SlotKind, _shape_for, adapted_gradient,
                      add_connection_terms)
from .dual import as_array, einsum, scalar
from .geometry import (
    LagrangeSpace,
    cartan_connection,
    curvature,
    torsion,
)

__all__ = [
    "DeflectionSet",
    "EMForm",
    "RicciSet",
    "EinsteinReport",
    "deflections",
    "deflection_route",
    "em_form",
    "maxwell_residuals",
    "maxwell_simple_residuals",
    "deflection_identities",
    "ricci_and_scalar",
    "einstein_system",
    "conservation_residuals",
    "worst_residual",
]


_SU, _SD, _TD = SlotKind.SPACE_UP, SlotKind.SPACE_DOWN, SlotKind.TIME_DOWN
_VU, _VD = SlotKind.VERT_UP, SlotKind.VERT_DOWN


def worst_residual(residuals) -> float:
    """Largest |entry| over an iterable of residual arrays and scalars.

    np.max propagates NaN where the builtin max drops it, so one NaN
    residual makes the result NaN, and NaN fails every `worst < tol`
    gate.  The leading zero keeps an empty sweep at 0.
    """
    flat = [np.zeros(1)] + [np.ravel(r) for r in residuals]
    return float(np.max(np.abs(np.concatenate(flat))))


def _covd(sp: LagrangeSpace, z, signatures, fn) -> list:
    """Covariant derivatives in the canonical connection of sp of the
    d-tensor fields q -> fn(q), a tuple with one array per signature: per
    field, its [time, space, vert] derivatives (derivative axis last), all
    from one evaluation at one dual point, whose value parts are the
    fields at z.  Each array's shape is checked against its signature."""
    shapes = [_shape_for(sig, sp.n) for sig in signatures]

    def checked(q):
        arrays = [as_array(a) for a in fn(q)]
        if [a.shape for a in arrays] != shapes:
            raise ValueError(f"field returned shapes "
                             f"{[a.shape for a in arrays]}, expected {shapes}")
        return arrays

    geo = sp.geometry_at(z)
    pairs = adapted_gradient(checked, geo.z, geo)
    return [[add_connection_terms(d, arr, sig, geo.cartan, kind)
             for d, kind in zip(derivs, ("time", "space", "vert"))]
            for (arr, derivs), sig in zip(pairs, signatures)]


# ---------------------------------------------------------------------------
# deflections of the Liouville vector y^i d/dy^i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflectionSet:
    """Covariant derivatives of the Liouville vector, plain and lowered.

    Dbar/D/d carry the upper vertical index; the *_low variants are the
    contractions with the vertical block h^11 g_ik of the jet metric.
    The engine route to the same values is `deflection_route`; it stays
    out of this set, which the field equations differentiate.
    """

    Dbar: np.ndarray      # (n,)   time derivative
    D: np.ndarray         # (n, n) spatial derivative
    d: np.ndarray         # (n, n) vertical derivative
    Dbar_low: np.ndarray
    D_low: np.ndarray
    d_low: np.ndarray


def deflections(sp: LagrangeSpace, point):
    """Closed forms from the connection coefficients."""
    n = sp.n
    geo = sp.geometry_at(point)
    y = geo.z[1 + n:]
    cart = geo.cartan
    Dbar = cart.Gt @ y
    D = -geo.N + einsum("ijm,m->ij", cart.L, y)
    d = np.eye(n) + einsum("imj,m->ij", cart.C, y)
    low = geo.h_inv * geo.g
    return DeflectionSet(Dbar=Dbar, D=D, d=d,
                         Dbar_low=low @ Dbar, D_low=low @ D, d_low=low @ d)


def deflection_route(sp: LagrangeSpace, point) -> float:
    """Worst disagreement between the closed-form deflections and the
    covariant-derivative engine applied to y^i as a vertical vector.
    Report-only: no suite reads it, so it is computed once per record."""
    n = sp.n
    z = sp.geometry_at(point).z
    defl = deflections(sp, z)
    ((eng_t, eng_x, eng_y),) = _covd(sp, z, [(_VU,)], lambda q: (q[1 + n:],))
    return worst_residual([eng_t[:, 0] - defl.Dbar, eng_x - defl.D,
                           eng_y - defl.d])


# ---------------------------------------------------------------------------
# electromagnetic 2-form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EMForm:
    """Antisymmetric parts of the lowered deflections.

    F comes from the connection closed form and F_alt from the closed-form
    ``deflections`` (not ``deflection_route``); f vanishes identically, the
    lowered vertical deflection being symmetric: reported, not assumed.
    """

    F: np.ndarray         # (n, n)
    f: np.ndarray         # (n, n)
    F_alt: np.ndarray
    route_residual: float


def _em_F_closed(sp: LagrangeSpace, q):
    # F_(i)j = h^11/2 [g_jm N^m_i - g_im N^m_j + (g L_j. - g L_i.) y]
    geo = sp.geometry_at(q)
    y = geo.z[1 + sp.n:]
    gN = geo.g @ geo.N
    gLy = geo.g @ einsum("kjm,m->kj", geo.cartan.L, y)
    return 0.5 * geo.h_inv * ((gN.T - gN) + (gLy - gLy.T))


def em_form(sp: LagrangeSpace, point):
    z = sp.geometry_at(point).z
    F = _em_F_closed(sp, z)
    defl = deflections(sp, z)
    F_alt = 0.5 * (defl.D_low - defl.D_low.T)
    f = 0.5 * (defl.d_low - defl.d_low.T)
    return EMForm(F=F, f=f, F_alt=F_alt,
                  route_residual=worst_residual([F - F_alt]))


# ---------------------------------------------------------------------------
# Maxwell closure equations
# ---------------------------------------------------------------------------

def _cyclic(a: np.ndarray) -> np.ndarray:
    # sum over cyclic permutations of all three axes of a (n,n,n) array
    return (a + np.transpose(a, (1, 2, 0)) + np.transpose(a, (2, 0, 1)))


def maxwell_residuals(sp: LagrangeSpace, point) -> dict:
    """Residual arrays of the three closure equations, zero when satisfied:
    eq1 the time equation (n, n), eq2 the horizontal and eq3 the vertical
    cyclic equation (n, n, n)."""
    geo = sp.geometry_at(point)
    z = geo.z
    y = z[1 + sp.n:]
    y_low = geo.h_inv * (geo.g @ y)
    tor = torsion(sp, z)
    C = geo.cartan.C
    defl = deflections(sp, z)
    # T_1j = -Gt, read off the Cartan block so that its derivative needs
    # no connection jets at the dual point, hence no nested dual point
    (F_t, F_x, F_y), (_, Dbar_cov, _), (_, T1_cov, _) = _covd(
        sp, z, [(_VD, _SD), (_VD, _TD), (_SU, _TD, _SD)],
        lambda q: (_em_F_closed(sp, q), deflections(sp, q).Dbar_low[:, None],
                   -cartan_connection(sp, q).Gt[:, None, :]))
    Dbar_cov, T1_cov = Dbar_cov[:, 0, :], T1_cov[:, 0, :, :]

    bracket = T1_cov + einsum("pkm,mi->pik", C, tor.R_1j)
    core = (Dbar_cov + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j
            - einsum("pik,p->ik", bracket, y_low))
    eq1 = F_t[:, :, 0] - 0.5 * (core - core.T)

    # The source tensor h^11 * dg_il/dy^m == (1/2) d^3L/dy^i dy^l dy^m is
    # totally symmetric and vanishes for any family quadratic in y.  An
    # extra h^11 dressing here breaks the cyclic identity on any space
    # whose metric depends on y while h11 != 1; the undressed form keeps
    # the residual at discretization level (both agree when L is
    # quadratic in y, where the term vanishes identically).
    source = einsum("ilm,mjk,l->ijk", 0.5 * geo.Lyyy, tor.R_ij, y)
    eq2 = _cyclic(F_x) + 0.5 * _cyclic(source)
    return {"eq1": eq1, "eq2": eq2, "eq3": _cyclic(F_y)}


def maxwell_simple_residuals(sp: LagrangeSpace, point) -> dict:
    """Closure residuals in the reduced form valid for metrics g(x).

    The sources drop out and the time equation closes on the mixed
    torsion block alone.  Meaningful only when the spatial metric has
    no t or y dependence; on other spaces the residuals are honest
    measurements of how far the reduction fails.
    """
    geo = sp.geometry_at(point)
    z = geo.z
    tor = torsion(sp, z)
    ((F_t, F_x, F_y),) = _covd(sp, z, [(_VD, _SD)],
                               lambda q: (_em_F_closed(sp, q),))
    term = geo.h_inv * (geo.g @ tor.R_1j)
    eq1 = F_t[:, :, 0] - 0.5 * (term - term.T)
    return {"eq1": eq1, "eq2": _cyclic(F_x), "eq3": _cyclic(F_y)}


def deflection_identities(sp: LagrangeSpace, point) -> dict:
    """Residuals of the three lowered deflection derivative identities.

    These are the lemmas behind the closure equations; each ties mixed
    second covariant derivatives of y_i to torsion and curvature blocks.
    """
    geo = sp.geometry_at(point)
    z = geo.z
    y_low = geo.h_inv * (geo.g @ z[1 + sp.n:])
    tor = torsion(sp, z)
    cur = curvature(sp, z)
    C = geo.cartan.C
    defl = deflections(sp, z)

    def lowered(q):
        d = deflections(sp, q)
        return d.Dbar_low[:, None], d.D_low, d.d_low

    (_, Dbar_x, _), (D_t, D_x, D_y), (_, d_x, _) = _covd(
        sp, z, [(_VD, _TD), (_VD, _SD), (_VD, _VD)], lowered)
    Dbar_x = Dbar_x[:, 0, :]

    d1 = (Dbar_x - D_t[:, :, 0] + einsum("m,mik->ik", y_low, cur.R_i1k)
          + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j)
    d2 = (D_x - np.transpose(D_x, (0, 2, 1))
          + einsum("m,mijk->ijk", y_low, cur.R_ijk)
          + einsum("im,mjk->ijk", defl.d_low, tor.R_ij))
    d3 = (D_y - np.transpose(d_x, (0, 2, 1))
          + einsum("m,mijk->ijk", y_low, cur.P_ijk)
          + einsum("im,mjk->ijk", defl.D_low, C)
          + einsum("im,mjk->ijk", defl.d_low, tor.P_i))
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
    geo = sp.geometry_at(point)
    cur = curvature(sp, geo.z)
    R_i1 = einsum("mim->i", cur.R_i1k)
    R_ij = einsum("mijm->ij", cur.R_ijk)
    # sign asymmetry is forced by the vertical index sitting up in the
    # contraction slot for the mixed block
    P_i_j = -einsum("mimj->ij", cur.P_ijk)
    P_i1 = einsum("mim->i", cur.P_i1k)
    P_ij = einsum("mijm->ij", cur.P_ijk)
    S_ij = einsum("mijm->ij", cur.S_ijk)
    R = scalar(einsum("ij,ij->", geo.g_inv, R_ij))
    S = scalar(geo.h11 * einsum("ij,ij->", geo.g_inv, S_ij))
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
    demands those source components vanish identically.  The divergence
    laws of these equations are ``conservation_residuals``.
    """

    e1_tt: float
    e1_ij: np.ndarray
    e1_vert: np.ndarray
    e2: dict
    stress: dict
    forced_zero: tuple
    kappa: float
    ricci: RicciSet


def einstein_system(sp: LagrangeSpace, point,
                    kappa: float = 1.0) -> EinsteinReport:
    if kappa == 0.0 or not np.isfinite(kappa):
        raise ValueError("coupling constant must be finite and nonzero")
    geo = sp.geometry_at(point)
    ric = ricci_and_scalar(sp, geo.z)
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
    return EinsteinReport(e1_tt=e1_tt, e1_ij=e1_ij, e1_vert=e1_vert,
                          e2=e2, stress=stress,
                          forced_zero=("time-space", "time-vert"),
                          kappa=kappa, ricci=ric)


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

    def raised(q):
        geo = sp.geometry_at(q)
        r, gi, h = ricci_and_scalar(sp, q), geo.g_inv, geo.h11
        return (0.5 * r.Sc,
                (gi @ r.R_i1)[:, None],
                (h * gi @ r.P_i1)[:, None],
                gi @ r.R_ij - 0.5 * r.Sc * np.eye(n),
                h * gi @ r.P_ij,
                h * gi @ r.S_ij - 0.5 * r.Sc * np.eye(n),
                gi @ r.P_i_j)

    ((lhs1, _, _), (_, rup1_cov, _), (_, _, pup1_cov), (_, mixed_R, _),
     (_, _, mixed_P), (_, _, mixed_S), (_, mixed_Pv, _)) = _covd(
        sp, point, [(), (_SU, _TD), (_VU, _TD), (_SU, _SD), (_VU, _SD),
                    (_VU, _VD), (_SU, _VD)], raised)
    law1 = float(lhs1[0]) - (np.trace(rup1_cov[:, 0, :])
                             - np.trace(pup1_cov[:, 0, :]))
    law2 = einsum("mjm->j", mixed_R) + einsum("mjm->j", mixed_P)
    law3 = einsum("mjm->j", mixed_S) + einsum("mjm->j", mixed_Pv)
    return {"law1": law1, "law2": law2, "law3": law3}
