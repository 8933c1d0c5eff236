"""Core geometry of a time-parametrized Lagrangian metric structure.

A :class:`LagrangeSpace` couples a Lagrangian L(t, x, y) with a temporal
metric coefficient h11(t).  Everything downstream derives from the vertical
Hessian of L: the spatial metric g, the canonical sprays, the induced
nonlinear connection, the metric linear connection, and the torsion and
curvature tables of that connection.

Derivative strategy: g and its first partials come from exact symbolic
partials of L (third order in the worst case), as do the spray and the
connection blocks.  N is assembled semi-analytically (symbolic L-partials
plus a numeric matrix inverse), so the advertised invariant N = dG/dy can
be cross-checked against finite differences of G as a genuine test.  Only
derivatives OF connection blocks (needed by torsion/curvature) fall back
to Richardson finite differences, taken through one packed gradient per
point so the two tables share stencil work.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from jetlag.expr import Const, ScalarField, Var, _point_array, add, mul, power
from jetlag.dtensor import (
    CartanCoefficients,
    ChartMap,
    NonlinearConnectionValue,
    delta_t,
    delta_x,
)
from jetlag.numdiff import DEFAULT_REL_STEP, gradient

__all__ = [
    "NonRegularError",
    "SprayValue",
    "TorsionTable",
    "CurvatureTable",
    "LagrangeSpace",
    "fundamental_metric",
    "temporal_christoffel",
    "canonical_spray",
    "canonical_nonlinear_connection",
    "cartan_connection",
    "berwald_connection",
    "torsion",
    "curvature",
    "bianchi_residuals",
    "metric_signature",
    "transformed_space",
]

DET_THRESHOLD = 1e-10
SIGNATURE_CUTOFF = 1e-10
GEO_CACHE_SIZE = 4096


class NonRegularError(Exception):
    """The vertical Hessian metric is degenerate (or h11 vanishes) at a point."""

    def __init__(self, message, point=None, det=None):
        super().__init__(message)
        self.point = point
        self.det = det


@dataclass(frozen=True)
class SprayValue:
    """Second-order coefficients: temporal Htemp^i and spatial Gspat^i."""

    Htemp: np.ndarray
    Gspat: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.Htemp, dtype=float)
        G = np.asarray(self.Gspat, dtype=float)
        if H.shape != G.shape or H.ndim != 1:
            raise ValueError(f"inconsistent spray shapes {H.shape}, {G.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(G))):
            raise ValueError("spray coefficients must be finite")
        object.__setattr__(self, "Htemp", H)
        object.__setattr__(self, "Gspat", G)


@dataclass(frozen=True)
class TorsionTable:
    """The eight potentially nonzero torsion blocks of an h-normal connection.

    Index conventions (first index is always the contravariant one):
    T_1j[m, j], T_ij[m, i, j], P_1[m, j], P_c[m, i, j] (equals the vertical
    connection block), P_i[m, i, j], R_1j[m, j], R_ij[m, i, j], S[m, i, j].
    Cells of the torsion block-table not covered here vanish identically,
    see STRUCTURAL_ZERO_CELLS.
    """

    T_1j: np.ndarray
    T_ij: np.ndarray
    P_1: np.ndarray
    P_c: np.ndarray
    P_i: np.ndarray
    R_1j: np.ndarray
    R_ij: np.ndarray
    S: np.ndarray

    STRUCTURAL_ZERO_CELLS = (
        ("time-time", "time"), ("time-time", "space"), ("time-time", "vert"),
        ("space-time", "time"),
        ("space-space", "time"),
        ("vert-time", "time"), ("vert-time", "space"),
        ("vert-space", "time"),
        ("vert-vert", "time"), ("vert-vert", "space"),
    )

    def cells(self) -> dict:
        """Nonzero-capable cells of the block table, keyed (row, column)."""
        return {
            ("space-time", "space"): self.T_1j,
            ("space-time", "vert"): self.R_1j,
            ("space-space", "space"): self.T_ij,
            ("space-space", "vert"): self.R_ij,
            ("vert-time", "vert"): self.P_1,
            ("vert-space", "space"): self.P_c,
            ("vert-space", "vert"): self.P_i,
            ("vert-vert", "vert"): self.S,
        }


@dataclass(frozen=True)
class CurvatureTable:
    """The five effective curvature blocks; vertical-column duplicates of the
    block table coincide with these componentwise and are not stored.

    R_i1k[l, i, k], R_ijk[l, i, j, k], P_i1k[l, i, k], P_ijk[l, i, j, k],
    S_ijk[l, i, j, k]; the first index is the contravariant one.
    """

    R_i1k: np.ndarray
    R_ijk: np.ndarray
    P_i1k: np.ndarray
    P_ijk: np.ndarray
    S_ijk: np.ndarray

    def cells(self) -> dict:
        return {
            ("space-time", "space"): self.R_i1k,
            ("space-space", "space"): self.R_ijk,
            ("vert-time", "space"): self.P_i1k,
            ("vert-space", "space"): self.P_ijk,
            ("vert-vert", "space"): self.S_ijk,
        }


class _Geo:
    """Per-point geometry bundle; all entries exact up to matrix inversion."""

    __slots__ = (
        "h11", "h_inv", "H", "g", "g_inv", "det",
        "Htemp", "Gspat", "M", "N", "cartan", "dg_t", "dg_x", "dg_y", "Lyyy",
        "Ly", "Lx", "Lty", "Lxy", "Lyy",
    )


class _ConnJets:
    """Adapted first derivatives of the connection blocks at one point.

    del_t is the adapted time derivative, del_x the adapted spatial
    derivatives (new axis last), d_y the plain vertical derivatives (new
    axis last).
    """

    __slots__ = ("Gt", "L", "C", "N")

    class _Block:
        __slots__ = ("del_t", "del_x", "d_y")

        def __init__(self, del_t, del_x, d_y):
            self.del_t = del_t
            self.del_x = del_x
            self.d_y = d_y


def _unit_index(n: int, *axes) -> tuple:
    idx = [0] * (2 * n + 1)
    for a in axes:
        idx[a] += 1
    return tuple(idx)


class LagrangeSpace:
    """A Lagrangian L(t, x, y) with temporal metric h11(t) and dimension n.

    Optionally carries a declared family tag with the component fields the
    family was assembled from:

    * ``quadratic``        L = (1/h11) g_ij(x) y^i y^j
    * ``electrodynamics``  L = (1/h11) g_ij(x) y^i y^j + U_i(t,x) y^i + F(t,x)
    * ``nonautonomous``    same with g_ij(t,x)

    The tag is advisory: every computation runs off L itself.  Family data
    feeds the specialized cross-check formulas in the test suite.
    """

    FAMILIES = ("general", "quadratic", "electrodynamics", "nonautonomous")

    def __init__(self, n: int, L: ScalarField, h11: ScalarField,
                 family: str = "general", g_fields=None, U_fields=None,
                 F_field=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if L.n != n or h11.n != n:
            raise ValueError("L and h11 must be built with the same n")
        extra = h11.variables() - {0}
        if extra:
            raise ValueError("h11 must depend only on t")
        if family not in self.FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family != "general" and g_fields is None:
            raise ValueError(f"family {family!r} requires g_fields")
        self.n = n
        self.L = L
        self.h11 = h11
        self.family = family
        self.g_fields = g_fields
        self.U_fields = U_fields
        self.F_field = F_field

        t_idx, nn = 0, 2 * n + 1
        x = lambda i: 1 + i
        y = lambda i: 1 + n + i
        d = lambda *axes: L.differentiate(_unit_index(n, *axes))
        self._Ly = [d(y(i)) for i in range(n)]
        self._Lx = [d(x(i)) for i in range(n)]
        self._Lty = [d(t_idx, y(i)) for i in range(n)]
        self._Lxy = [[d(x(m), y(k)) for k in range(n)] for m in range(n)]
        self._Lyy = [[d(y(i), y(j)) for j in range(n)] for i in range(n)]
        self._Ltyy = [[d(t_idx, y(i), y(j)) for j in range(n)] for i in range(n)]
        self._Lxyy = [[[d(x(m), y(i), y(j)) for j in range(n)] for i in range(n)]
                      for m in range(n)]
        self._Lyyy = [[[d(y(i), y(j), y(k)) for k in range(n)] for j in range(n)]
                      for i in range(n)]
        self._hdot = h11.differentiate(_unit_index(n, t_idx))
        self._geo_cache: collections.OrderedDict = collections.OrderedDict()
        self._jet_cache: collections.OrderedDict = collections.OrderedDict()

    # -- family constructors ------------------------------------------------

    @classmethod
    def from_family(cls, family: str, n: int, h11: ScalarField, g_fields,
                    U_fields=None, F_field=None) -> "LagrangeSpace":
        """Assemble L = (1/h11) g_ij y^i y^j + U_i y^i + F from components."""
        if family not in ("quadratic", "electrodynamics", "nonautonomous"):
            raise ValueError(f"unknown family {family!r}")
        g_fields = [[g_fields[i][j] for j in range(n)] for i in range(n)]
        terms = []
        h_inv_ast = power(h11.ast, -1)
        for i in range(n):
            for j in range(n):
                terms.append(mul(h_inv_ast, g_fields[i][j].ast,
                                 Var(1 + n + i), Var(1 + n + j)))
        if U_fields is not None:
            for i in range(n):
                terms.append(mul(U_fields[i].ast, Var(1 + n + i)))
        if F_field is not None:
            terms.append(F_field.ast)
        L = ScalarField(add(*terms), n)
        return cls(n, L, h11, family=family, g_fields=g_fields,
                   U_fields=U_fields, F_field=F_field)

    # -- cached evaluation ---------------------------------------------------

    def _eval(self, field: ScalarField, z) -> float:
        return field.evaluate(z)

    def geometry_at(self, point) -> _Geo:
        z = _point_array(point, self.n)
        key = z.tobytes()
        cache = self._geo_cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit
        geo = self._compute_geo(z)
        cache[key] = geo
        if len(cache) > GEO_CACHE_SIZE:
            cache.popitem(last=False)
        return geo

    def _compute_geo(self, z: np.ndarray) -> _Geo:
        n = self.n
        y = z[1 + n:]
        h11 = self._eval(self.h11, z)
        if h11 == 0.0 or not np.isfinite(h11):
            raise NonRegularError(f"temporal metric h11 = {h11} at t = {z[0]}",
                                  point=tuple(z))
        h_inv = 1.0 / h11
        hdot = self._eval(self._hdot, z)
        H = 0.5 * h_inv * hdot

        Lyy = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                Lyy[i, j] = Lyy[j, i] = self._eval(self._Lyy[i][j], z)
        g = 0.5 * h11 * Lyy
        if not np.all(np.isfinite(g)):
            raise NonRegularError("non-finite metric entries", point=tuple(z))
        det = float(np.linalg.det(g))
        scale = max(1.0, float(np.max(np.abs(g))))
        if abs(det) < DET_THRESHOLD * scale**n:
            raise NonRegularError(
                f"vertical Hessian metric is degenerate (det = {det:.3e})",
                point=tuple(z), det=det)
        g_inv = np.linalg.inv(g)

        Ly = np.array([self._eval(f, z) for f in self._Ly])
        Lx = np.array([self._eval(f, z) for f in self._Lx])
        Lty = np.array([self._eval(f, z) for f in self._Lty])
        Lxy = np.array([[self._eval(self._Lxy[m][k], z) for k in range(n)]
                        for m in range(n)])
        Ltyy = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                Ltyy[i, j] = Ltyy[j, i] = self._eval(self._Ltyy[i][j], z)
        Lxyy = np.empty((n, n, n))
        for m in range(n):
            for i in range(n):
                for j in range(i, n):
                    v = self._eval(self._Lxyy[m][i][j], z)
                    Lxyy[m, i, j] = Lxyy[m, j, i] = v
        Lyyy = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    v = self._eval(self._Lyyy[i][j][k], z)
                    for perm in ((i, j, k), (i, k, j), (j, i, k),
                                 (j, k, i), (k, i, j), (k, j, i)):
                        Lyyy[perm] = v

        # spray source term: B_k = L_{x^m y^k} y^m - L_{x^k} + L_{t y^k}
        #                        + L_{y^k} H + 2 h^inv H g_{kl} y^l
        gy = g @ y
        B = Lxy.T @ y - Lx + Lty + Ly * H + 2.0 * h_inv * H * gy
        Gspat = 0.25 * h11 * (g_inv @ B)
        Htemp = -0.5 * H * y
        M = -H * y

        # exact partials of g
        dg_t = 0.5 * (hdot * Lyy + h11 * Ltyy)
        dg_x = 0.5 * h11 * Lxyy              # dg_x[k, i, j] = dg_ij/dx^k
        dg_y = 0.5 * h11 * Lyyy              # dg_y[i, j, k] = dg_ij/dy^k

        # N^i_j = dG^i/dy^j, semi-analytic: differentiate the closed form of G
        dginv_y = -np.einsum("im,mlk,lj->ijk", g_inv, dg_y, g_inv)
        # dB_k/dy^j: the y^m factor contributes L_{x^j y^k}, the -L_{x^k}
        # term contributes -L_{x^k y^j}; note the index order flip
        dB_y = (np.einsum("mkj,m->kj", Lxyy, y) + Lxy.T - Lxy + Ltyy
                + Lyy * H
                + 2.0 * h_inv * H * (np.einsum("klj,l->kj", dg_y, y) + g))
        N = 0.25 * h11 * (np.einsum("ikj,k->ij", dginv_y, B) + g_inv @ dB_y)

        # metric linear connection blocks from adapted derivatives of g
        del_t_g = dg_t - np.einsum("ijm,m->ij", dg_y, M)
        del_x_g = dg_x - np.einsum("ijm,mk->kij", dg_y, N)
        Gt = 0.5 * g_inv @ del_t_g
        A = np.transpose(del_x_g, (1, 2, 0))  # A[j, m, k] = delta g_jm / delta x^k
        sym = A + np.transpose(A, (2, 1, 0)) - np.transpose(A, (0, 2, 1))
        Lblock = 0.5 * np.einsum("im,jmk->ijk", g_inv, sym)
        symC = dg_y + np.transpose(dg_y, (2, 1, 0)) - np.transpose(dg_y, (0, 2, 1))
        Cblock = 0.5 * np.einsum("im,jmk->ijk", g_inv, symC)

        geo = _Geo()
        geo.h11 = h11
        geo.h_inv = h_inv
        geo.H = H
        geo.g = g
        geo.g_inv = g_inv
        geo.det = det
        geo.Htemp = Htemp
        geo.Gspat = Gspat
        geo.M = M
        geo.N = N
        geo.cartan = CartanCoefficients(H, Gt, Lblock, Cblock)
        geo.dg_t = dg_t
        geo.dg_x = dg_x
        geo.dg_y = dg_y
        geo.Lyyy = Lyyy
        # raw Lagrangian partials, kept for the Euler-Lagrange assembly
        # (an algebraic route independent of the g-contracted spray)
        geo.Ly = Ly
        geo.Lx = Lx
        geo.Lty = Lty
        geo.Lxy = Lxy
        geo.Lyy = Lyy
        return geo

    # -- derivative bundles for torsion/curvature ----------------------------

    def _pack_connection(self, z: np.ndarray) -> np.ndarray:
        geo = self.geometry_at(z)
        return np.concatenate([geo.cartan.Gt.ravel(), geo.cartan.L.ravel(),
                               geo.cartan.C.ravel(), geo.N.ravel()])

    def connection_jets(self, point, rel_step: float = DEFAULT_REL_STEP) -> _ConnJets:
        """Adapted first derivatives of (Gt, L, C, N) at a point, one stencil."""
        z = _point_array(point, self.n)
        key = z.tobytes()
        cache = self._jet_cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit
        n = self.n
        geo = self.geometry_at(z)
        grads = gradient(self._pack_connection, z, rel_step=rel_step)
        d_y = grads[n + 1:]                         # (n, packed)
        del_t = delta_t(grads[0], d_y, geo.M)       # (packed,)
        del_x = delta_x(grads[1:n + 1], d_y, geo.N)  # (n, packed)

        shapes = ((n, n), (n, n, n), (n, n, n), (n, n))
        jets = _ConnJets()
        offset = 0
        for name, shape in zip(("Gt", "L", "C", "N"), shapes):
            size = int(np.prod(shape))
            sl = slice(offset, offset + size)
            block = _ConnJets._Block(
                del_t[sl].reshape(shape),
                np.moveaxis(del_x[:, sl].reshape((n,) + shape), 0, -1),
                np.moveaxis(d_y[:, sl].reshape((n,) + shape), 0, -1),
            )
            setattr(jets, name, block)
            offset += size
        cache[key] = jets
        if len(cache) > GEO_CACHE_SIZE:
            cache.popitem(last=False)
        return jets


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def fundamental_metric(sp: LagrangeSpace, point):
    """(g, g_inv, h11, h_inv) at a point; raises NonRegularError if degenerate."""
    geo = sp.geometry_at(point)
    return geo.g, geo.g_inv, geo.h11, geo.h_inv


def temporal_christoffel(h11: ScalarField, t: float) -> float:
    """The single Christoffel coefficient of h11(t): (1/2) h^11 dh11/dt."""
    extra = h11.variables() - {0}
    if extra:
        raise ValueError("h11 must depend only on t")
    z = np.zeros(2 * h11.n + 1)
    z[0] = t
    v = h11.evaluate(z)
    if v == 0.0 or not np.isfinite(v):
        raise NonRegularError(f"temporal metric h11 = {v} at t = {t}")
    hdot = h11.differentiate(_unit_index(h11.n, 0)).evaluate(z)
    return 0.5 * hdot / v


def canonical_spray(sp: LagrangeSpace, point) -> SprayValue:
    geo = sp.geometry_at(point)
    return SprayValue(Htemp=geo.Htemp, Gspat=geo.Gspat)


def canonical_nonlinear_connection(sp: LagrangeSpace, point) -> NonlinearConnectionValue:
    geo = sp.geometry_at(point)
    return NonlinearConnectionValue(geo.M, geo.N)


def cartan_connection(sp: LagrangeSpace, point) -> CartanCoefficients:
    return sp.geometry_at(point).cartan


def berwald_connection(h11: ScalarField, g_fields, point) -> CartanCoefficients:
    """Connection (H, 0, gamma, 0) of the metric pair (h11, g): gamma are the
    Christoffel symbols of the spatial metric fields."""
    n = len(g_fields)
    z = _point_array(point, n)
    g = np.empty((n, n))
    dg_x = np.empty((n, n, n))  # dg_x[k, i, j] = dg_ij/dx^k
    for i in range(n):
        for j in range(n):
            f = g_fields[i][j]
            g[i, j] = f.evaluate(z)
            for k in range(n):
                dg_x[k, i, j] = f.differentiate(_unit_index(n, 1 + k)).evaluate(z)
    det = float(np.linalg.det(g))
    scale = max(1.0, float(np.max(np.abs(g))))
    if abs(det) < DET_THRESHOLD * scale**n:
        raise NonRegularError(f"spatial metric degenerate (det = {det:.3e})",
                              point=tuple(z), det=det)
    g_inv = np.linalg.inv(g)
    A = np.transpose(dg_x, (1, 2, 0))
    sym = A + np.transpose(A, (2, 1, 0)) - np.transpose(A, (0, 2, 1))
    gamma = 0.5 * np.einsum("im,jmk->ijk", g_inv, sym)
    H = temporal_christoffel(h11, float(z[0]))
    return CartanCoefficients(H, np.zeros((n, n)), gamma, np.zeros((n, n, n)))


def torsion(sp: LagrangeSpace, point) -> TorsionTable:
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    jets = sp.connection_jets(z)
    cart = geo.cartan
    eye = np.eye(n)

    dM_dy = -geo.H * eye                      # M^m = -H y^m, exact
    T_1j = -cart.Gt
    T_ij = cart.L - np.swapaxes(cart.L, 1, 2)
    P_1 = dM_dy - cart.Gt + geo.H * eye
    P_i = jets.N.d_y - np.transpose(cart.L, (0, 2, 1))
    # delta M / delta x^j = -N^k_j dM^m/dy^k = H N^m_j (M has no x dependence)
    R_1j = geo.H * geo.N - jets.N.del_t
    R_ij = jets.N.del_x - np.swapaxes(jets.N.del_x, 1, 2)
    S = cart.C - np.swapaxes(cart.C, 1, 2)
    return TorsionTable(T_1j=T_1j, T_ij=T_ij, P_1=P_1, P_c=cart.C.copy(),
                        P_i=P_i, R_1j=R_1j, R_ij=R_ij, S=S)


def _cov_time_C(cart: CartanCoefficients, dC_del_t: np.ndarray) -> np.ndarray:
    """Time covariant derivative of the vertical block C (slots up,down,vert-down)."""
    Gt, C, vt = cart.Gt, cart.C, cart.vert_time()
    return (dC_del_t
            + np.einsum("lm,mik->lik", Gt, C)
            - np.einsum("lmk,mi->lik", C, Gt)
            - np.einsum("lim,mk->lik", C, vt))


def _cov_space_C(cart: CartanCoefficients, dC_del_x: np.ndarray) -> np.ndarray:
    """Spatial covariant derivatives of C; result indexed [l, i, k, j]."""
    L, C = cart.L, cart.C
    return (dC_del_x
            + np.einsum("lmj,mik->likj", L, C)
            - np.einsum("lmk,mij->likj", C, L)
            - np.einsum("lim,mkj->likj", C, L))


def curvature(sp: LagrangeSpace, point) -> CurvatureTable:
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    jets = sp.connection_jets(z)
    cart = geo.cartan
    tors = torsion(sp, z)
    Gt, L, C = cart.Gt, cart.L, cart.C

    R_i1k = (jets.Gt.del_x
             - jets.L.del_t
             + np.einsum("mi,lmk->lik", Gt, L)
             - np.einsum("mik,lm->lik", L, Gt)
             + np.einsum("lim,mk->lik", C, tors.R_1j))

    dL_del_x = jets.L.del_x                   # [l, i, j, k]
    R_ijk = (dL_del_x
             - np.transpose(dL_del_x, (0, 1, 3, 2))
             + np.einsum("mij,lmk->lijk", L, L)
             - np.einsum("mik,lmj->lijk", L, L)
             + np.einsum("lim,mjk->lijk", C, tors.R_ij))

    P_i1k = (jets.Gt.d_y
             - _cov_time_C(cart, jets.C.del_t)
             + np.einsum("lim,mk->lik", C, tors.P_1))

    covC_x = _cov_space_C(cart, jets.C.del_x)  # [l, i, k, j]
    P_ijk = (jets.L.d_y
             - np.transpose(covC_x, (0, 1, 3, 2))
             + np.einsum("lim,mjk->lijk", C, tors.P_i))

    dC_y = jets.C.d_y
    S_ijk = (dC_y
             - np.transpose(dC_y, (0, 1, 3, 2))
             + np.einsum("mij,lmk->lijk", C, C)
             - np.einsum("mik,lmj->lijk", C, C))

    return CurvatureTable(R_i1k=R_i1k, R_ijk=R_ijk, P_i1k=P_i1k,
                          P_ijk=P_ijk, S_ijk=S_ijk)


def bianchi_residuals(sp: LagrangeSpace, point) -> dict:
    """Residuals of the three first-order closure identities linking the
    curvature blocks to covariant derivatives of the torsion blocks.

    Returns arrays keyed "b1", "b2", "b3"; each vanishes identically for
    the canonical metric connection, so the values measure numeric noise
    (or a corrupted connection).
    """
    n = sp.n
    z = _point_array(point, n)
    geo = sp.geometry_at(z)
    jets = sp.connection_jets(z)
    cart = geo.cartan
    L, C = cart.L, cart.C
    tors = torsion(sp, z)
    cur = curvature(sp, z)

    # spatial covariant derivative of the time-mixed torsion block -Gt
    T1 = tors.T_1j
    T1_cov = (-jets.Gt.del_x
              + np.einsum("lmk,mj->ljk", L, T1)
              - np.einsum("mjk,lm->ljk", L, T1))
    term = cur.R_i1k + T1_cov + np.einsum("lkm,mj->ljk", C, tors.R_1j)
    b1 = term - np.transpose(term, (0, 2, 1))

    t2 = cur.R_ijk - np.einsum("lkm,mij->lijk", C, tors.R_ij)
    b2 = (t2 + np.transpose(t2, (0, 2, 3, 1))
          + np.transpose(t2, (0, 3, 1, 2)))

    covC_x = _cov_space_C(cart, jets.C.del_x)   # [l, i, k, j]
    t3 = (cur.P_ijk + np.transpose(covC_x, (0, 1, 3, 2))
          + np.einsum("lkm,mjp->ljkp", C, tors.P_i))
    b3 = t3 - np.transpose(t3, (0, 2, 1, 3))
    return {"b1": b1, "b2": b2, "b3": b3}


def metric_signature(g: np.ndarray, cutoff: float = SIGNATURE_CUTOFF):
    """(positive, negative) eigenvalue counts of a symmetric metric block."""
    g = np.asarray(g, dtype=float)
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(np.abs(eig) <= cutoff * scale):
        raise NonRegularError(f"metric eigenvalue below cutoff: {eig}")
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))


def transformed_space(sp: LagrangeSpace, chart: ChartMap) -> LagrangeSpace:
    """Re-express a space in chart coordinates t~ = tau(t), x~ = A x + c.

    Requires chart.t_inverse.  The new Lagrangian is L composed with the
    inverse point map; the new temporal metric is h11(tau^-1) (d tau^-1/d t~)^2.
    """
    if chart.t_inverse is None:
        raise ValueError("transformed_space requires chart.t_inverse")
    n = sp.n
    if chart.n != n:
        raise ValueError("chart dimension mismatch")
    tinv_ast = chart.t_inverse.ast
    A_inv = chart.A_inv
    c = chart.c
    # dtau/dt evaluated at tau^-1(t~): velocity variables pick up this factor
    tprime_ast = chart.t_map.differentiate(_unit_index(n, 0)).ast
    tprime_sub = tprime_ast.substitute({0: tinv_ast})
    mapping = {0: tinv_ast}
    for i in range(n):
        mapping[1 + i] = add(*[mul(Const(float(A_inv[i, j])),
                                   add(Var(1 + j), Const(-float(c[j]))))
                               for j in range(n)])
        mapping[1 + n + i] = mul(tprime_sub,
                                 add(*[mul(Const(float(A_inv[i, j])),
                                           Var(1 + n + j))
                                       for j in range(n)]))
    L_new = ScalarField(sp.L.ast.substitute(mapping), n)
    tinv_prime = chart.t_inverse.differentiate(_unit_index(n, 0)).ast
    h_new = ScalarField(mul(sp.h11.ast.substitute({0: tinv_ast}),
                            power(tinv_prime, 2)), n)
    return LagrangeSpace(n, L_new, h_new)
