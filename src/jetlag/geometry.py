"""Core geometry of a time-parametrized Lagrangian metric structure.

A :class:`LagrangeSpace` couples a Lagrangian L(t, x, y) with a temporal
metric coefficient h11(t).  Everything downstream derives from the vertical
Hessian of L: the spatial metric g, the canonical sprays, the induced
nonlinear connection, the metric linear connection, and the torsion and
curvature tables of that connection.

Derivative strategy: every L-partial the geometry reads (L_y, L_x, L_ty,
L_xy, L_yy, L_tyy, L_xyy, L_yyy) is exact and symbolic.  ``geometry_at``
evaluates the distinct ones into one flat table in two fused
``expr.evaluate_fields`` calls (the L_yy head first, so the regularity
check runs before any other partial; h11 and its t-derivative are a
third), so every domain and regularity error raises there.  It builds the
spray level, all a harmonic curve reads; the connection level (partials
of g, N and the Cartan blocks) is built on its first read.  N is
semi-analytic (symbolic L-partials plus a numeric matrix inverse), so
N = dG/dy is cross-checked against finite differences of G as a genuine
test.  Only derivatives OF connection blocks (torsion, curvature) fall
back to Richardson finite differences, through one packed gradient per
point so the two tables share stencil work.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

import numpy as np

from jetlag.expr import (Const, EvalDomainError, ScalarField, Var, _point_array,
                         add, evaluate_fields, mul, power)
from jetlag.dtensor import (
    CartanCoefficients,
    ChartMap,
    NonlinearConnectionValue,
    delta_t,
    delta_x,
)
from jetlag.numdiff import gradient

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
        if not (np.isfinite(H).all() and np.isfinite(G).all()):
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
    """Per-point geometry bundle; all entries exact up to matrix inversion.

    ``LagrangeSpace._compute_geo`` sets the spray level; ``_connect`` builds
    the connection level, the ``_CONNECTION`` slots, from ``_pending`` on
    the first read of one, through ``__getattr__`` (run on unset slots only).
    """

    _CONNECTION = ("N", "cartan", "dg_t", "dg_x", "dg_y")
    __slots__ = ("h11", "h_inv", "H", "g", "g_inv", "Htemp", "Gspat", "M",
                 "Lyyy", "Ly", "Lx", "Lty", "Lxy", "Lyy", "_pending",
                 *_CONNECTION)

    def __getattr__(self, name):
        if name not in _Geo._CONNECTION or self._pending is None:
            raise AttributeError(f"'_Geo' object has no attribute {name!r}")
        self._connect()
        return getattr(self, name)

    def _connect(self) -> None:
        hdot, y, B, Ltyy, Lxyy = self._pending
        h11, h_inv, H, g_inv = self.h11, self.h_inv, self.H, self.g_inv

        # exact partials of g
        dg_t = 0.5 * (hdot * self.Lyy + h11 * Ltyy)
        dg_x = 0.5 * h11 * Lxyy              # dg_x[k, i, j] = dg_ij/dx^k
        dg_y = 0.5 * h11 * self.Lyyy         # dg_y[i, j, k] = dg_ij/dy^k

        # N^i_j = dG^i/dy^j, semi-analytic: differentiate the closed form of G
        dginv_y = -np.einsum("im,mlk,lj->ijk", g_inv, dg_y, g_inv)
        # dB_k/dy^j: the y^m factor contributes L_{x^j y^k}, the -L_{x^k}
        # term contributes -L_{x^k y^j}; note the index order flip
        dB_y = (np.einsum("mkj,m->kj", Lxyy, y) + self.Lxy.T - self.Lxy
                + Ltyy + self.Lyy * H
                + 2.0 * h_inv * H * (np.einsum("klj,l->kj", dg_y, y) + self.g))
        N = 0.25 * h11 * (np.einsum("ikj,k->ij", dginv_y, B) + g_inv @ dB_y)

        # metric linear connection blocks from adapted derivatives of g
        del_t_g = dg_t - np.einsum("ijm,m->ij", dg_y, self.M)
        del_x_g = dg_x - np.einsum("ijm,mk->kij", dg_y, N)
        Gt = 0.5 * g_inv @ del_t_g
        Lblock = _christoffel(g_inv, del_x_g.transpose((1, 2, 0)))
        Cblock = _christoffel(g_inv, dg_y)
        self.cartan = CartanCoefficients(H, Gt, Lblock, Cblock)
        self.N, self.dg_t, self.dg_x, self.dg_y = N, dg_t, dg_x, dg_y
        self._pending = None


# Adapted first derivatives of one connection block at one point: del_t is
# the adapted time derivative, del_x the adapted spatial derivatives (new
# axis last), d_y the plain vertical derivatives (new axis last).
_JetBlock = collections.namedtuple("_JetBlock", "del_t del_x d_y")
_ConnJets = collections.namedtuple("_ConnJets", "Gt L C N")


def _unit_index(n: int, *axes) -> tuple:
    idx = [0] * (2 * n + 1)
    for a in axes:
        idx[a] += 1
    return tuple(idx)


class LagrangeSpace:
    """A Lagrangian L(t, x, y) with temporal metric h11(t) and dimension n.

    A space built by ``from_family`` also carries the family tag and the
    component fields L was assembled from:

    * ``quadratic``        L = (1/h11) g_ij(x) y^i y^j
    * ``electrodynamics``  L = (1/h11) g_ij(x) y^i y^j + U_i(t,x) y^i + F(t,x)
    * ``nonautonomous``    same with g_ij(t,x)

    The tag is advisory: every computation and every check runs off L
    itself, and the tag only labels output.  The component fields feed the
    closed-form cross-checks in the test suite.
    """

    family = "general"
    g_fields = U_fields = F_field = None

    def __init__(self, n: int, L: ScalarField, h11: ScalarField):
        if n < 1:
            raise ValueError("n must be >= 1")
        if L.n != n or h11.n != n:
            raise ValueError("L and h11 must be built with the same n")
        extra = h11.variables() - {0}
        if extra:
            raise ValueError("h11 must depend only on t")
        self.n = n
        self.L = L
        self.h11 = h11

        # the distinct L-partials _compute_geo reads, in evaluation order
        # (Lyy first: the regularity check runs before any other partial),
        # and per block an index array gathering it from their values
        t, x, y = [0], range(1, n + 1), range(1 + n, 2 * n + 1)
        slots: dict = {}
        self._blocks = {}
        for name, axes in (("Lyy", (y, y)), ("Ly", (y,)), ("Lx", (x,)),
                           ("Lty", (t, y)), ("Lxy", (x, y)),
                           ("Ltyy", (t, y, y)), ("Lxyy", (x, y, y)),
                           ("Lyyy", (y, y, y))):
            idx = [slots.setdefault(_unit_index(n, *ax), len(slots))
                   for ax in itertools.product(*axes)]
            self._blocks[name] = np.array(idx).reshape(
                [len(a) for a in axes if a is not t])
        self._partials = [L.differentiate(idx) for idx in slots]
        self._n_lyy = n * (n + 1) // 2
        self._hdot = h11.differentiate(_unit_index(n, 0))
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
        sp = cls(n, ScalarField(add(*terms), n), h11)
        sp.family, sp.g_fields = family, g_fields
        sp.U_fields, sp.F_field = U_fields, F_field
        return sp

    # -- cached evaluation ---------------------------------------------------

    def geometry_at(self, point) -> _Geo:
        z = _point_array(point, self.n)
        return _cached(self._geo_cache, z, self._compute_geo)

    def _compute_geo(self, z: np.ndarray) -> _Geo:
        y = z[1 + self.n:]
        try:
            h11, hdot = evaluate_fields((self.h11, self._hdot), z)
        except EvalDomainError:
            # a singular h11 is reported before a pole of its derivative
            _regular_h11(self.h11.evaluate(z), z[0], tuple(z))
            raise
        _regular_h11(h11, z[0], tuple(z))
        h_inv = 1.0 / h11
        H = 0.5 * h_inv * hdot

        vals = np.empty(len(self._partials))
        head = self._n_lyy
        vals[:head] = evaluate_fields(self._partials[:head], z)
        Lyy = vals[self._blocks["Lyy"]]
        g = 0.5 * h11 * Lyy
        if not np.isfinite(g).all():
            raise NonRegularError("non-finite metric entries", point=tuple(z))
        g_inv = _regular_inverse(g, z, "vertical Hessian metric is degenerate")
        vals[head:] = evaluate_fields(self._partials[head:], z)
        Ly, Lx, Lty, Lxy, Ltyy, Lxyy, Lyyy = (
            vals[self._blocks[name]]
            for name in ("Ly", "Lx", "Lty", "Lxy", "Ltyy", "Lxyy", "Lyyy"))

        # spray source term: B_k = L_{x^m y^k} y^m - L_{x^k} + L_{t y^k}
        #                        + L_{y^k} H + 2 h^inv H g_{kl} y^l
        B = Lxy.T @ y - Lx + Lty + Ly * H + 2.0 * h_inv * H * (g @ y)

        geo = _Geo()
        geo.h11, geo.h_inv, geo.H, geo.g, geo.g_inv = h11, h_inv, H, g, g_inv
        geo.Htemp = -0.5 * H * y
        geo.Gspat = 0.25 * h11 * (g_inv @ B)
        geo.M = -H * y
        # raw Lagrangian partials, kept for the Euler-Lagrange assembly
        # (an algebraic route independent of the g-contracted spray)
        geo.Ly, geo.Lx, geo.Lty, geo.Lxy, geo.Lyy, geo.Lyyy = (
            Ly, Lx, Lty, Lxy, Lyy, Lyyy)
        geo._pending = (hdot, y.copy(), B, Ltyy, Lxyy)   # y views the point
        return geo

    # -- derivative bundles for torsion/curvature ----------------------------

    def _pack_connection(self, z: np.ndarray) -> np.ndarray:
        geo = self.geometry_at(z)
        return np.concatenate([geo.cartan.Gt.ravel(), geo.cartan.L.ravel(),
                               geo.cartan.C.ravel(), geo.N.ravel()])

    def connection_jets(self, point) -> _ConnJets:
        """Adapted first derivatives of (Gt, L, C, N) at a point, one stencil."""
        z = _point_array(point, self.n)
        return _cached(self._jet_cache, z, self._compute_jets)

    def _compute_jets(self, z: np.ndarray) -> _ConnJets:
        n = self.n
        geo = self.geometry_at(z)
        grads = gradient(self._pack_connection, z)
        d_y = grads[n + 1:]                         # (n, packed)
        del_t = delta_t(grads[0], d_y, geo.M)       # (packed,)
        del_x = delta_x(grads[1:n + 1], d_y, geo.N)  # (n, packed)

        blocks = []
        offset = 0
        for shape in ((n, n), (n, n, n), (n, n, n), (n, n)):   # Gt, L, C, N
            size = int(np.prod(shape))
            sl = slice(offset, offset + size)
            blocks.append(_JetBlock(
                del_t[sl].reshape(shape),
                np.moveaxis(del_x[:, sl].reshape((n,) + shape), 0, -1),
                np.moveaxis(d_y[:, sl].reshape((n,) + shape), 0, -1)))
            offset += size
        return _ConnJets(*blocks)


def _cached(cache: collections.OrderedDict, z: np.ndarray, compute):
    """compute(z) through an LRU cache keyed on the bytes of z."""
    key = z.tobytes()
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit
    value = compute(z)
    cache[key] = value
    if len(cache) > GEO_CACHE_SIZE:
        cache.popitem(last=False)
    return value


def _regular_h11(h11: float, t: float, point=None) -> None:
    if h11 == 0.0 or not np.isfinite(h11):
        raise NonRegularError(f"temporal metric h11 = {h11} at t = {t}",
                              point=point)


def _regular_inverse(g: np.ndarray, z: np.ndarray, what: str):
    """Inverse of a metric block, or NonRegularError when |det| is below
    DET_THRESHOLD relative to the block's scale."""
    n = len(g)
    det = float(np.linalg.det(g))
    scale = max(1.0, float(np.abs(g).max()))
    if abs(det) < DET_THRESHOLD * scale**n:
        raise NonRegularError(f"{what} (det = {det:.3e})",
                              point=tuple(z), det=det)
    return np.linalg.inv(g)


def _christoffel(g_inv: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Christoffel symbols 1/2 g^im (A_jmk + A_kmj - A_jkm) of the metric
    derivatives A[j, m, k] = d g_jm / d u^k."""
    sym = A + A.transpose((2, 1, 0)) - A.transpose((0, 2, 1))
    return 0.5 * np.einsum("im,jmk->ijk", g_inv, sym)


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
    _regular_h11(v, t)
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
    g_inv = _regular_inverse(g, z, "spatial metric degenerate")
    gamma = _christoffel(g_inv, np.transpose(dg_x, (1, 2, 0)))
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


def metric_signature(g: np.ndarray):
    """(positive, negative) eigenvalue counts of a symmetric metric block."""
    g = np.asarray(g, dtype=float)
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    scale = max(1.0, float(np.max(np.abs(eig))))
    if np.any(np.abs(eig) <= SIGNATURE_CUTOFF * scale):
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
