"""Core geometry of a time-parametrized Lagrangian metric structure.

A :class:`LagrangeSpace` couples a Lagrangian L(t, x, y) with a temporal
metric coefficient h11(t).  Everything downstream derives from the vertical
Hessian of L: the spatial metric g, the canonical sprays, the induced
nonlinear connection, the metric linear connection, and the torsion and
curvature tables of that connection.

Derivative strategy: every L-partial the geometry reads (L_y, L_x, L_ty,
L_xy, L_yy, L_tyy, L_xyy, L_yyy) is exact and symbolic.  ``geometry_at``
evaluates h11, its t-derivative and the distinct L-partials in one fused
``expr.evaluate_fields`` call on the space's group, which owns the
compiled code, so every domain and regularity error raises there, in the
order of the fields read alone (the raising path re-reads h11, then the
head group up to L_yy).  Regularity is decided by the one inversion of g
(see ``_regular_inverse``); every inverse of the package, float or
dual, goes through ``jetlag.dual.inv``.  It builds the spray level from
L_y, L_x and L_ty, views of the fused values.  The connection
comes in two levels, as in the paper's Section 2: the nonlinear
connection level splits the third-order partials L_tyy, L_xyy and L_yyy
out of the fused values and builds dg/dy and N, all that a gauge
comparison reads; the Cartan level reads it and builds dg/dt, dg/dx, the
adapted derivatives of g and the Cartan blocks (Gt, L, C).  N is
semi-analytic (symbolic L-partials plus a numeric matrix inverse), so
N = dG/dy is cross-checked against finite differences of G as a genuine
test.  Derivatives OF connection blocks (torsion, curvature) are
exact too, by forward mode: ``dtensor.adapted_gradient`` runs the same
code on a dual point (see ``jetlag.dual``), whose L-partials are Taylor
values from the exact partials one order up, two when nested.  Every
two-operand contraction of the connection and curvature levels is a
matrix product on views (@, .T, reshape, swapaxes), so a dual point runs
the float product with its jet axes as batch axes, one numpy call per
jet level.  The dual geometry is cached like any other, so the connection
jets and every covariant derivative at a point share it; their connection
corrections come from ``dtensor.add_connection_terms``.  The cached
geometry (``_Geo``) is the one per-point object, and every level above
the spray is a lazy slot of it.  The public operations normalise their
point once, in ``geometry_at``, and read the rest off the geometry.  Each
space's cache is an LRU of GEO_CACHE_SIZE geometries, enough for a sweep
at the largest point count, so every suite of a ``check`` reads the
sampled points back.  A harmonic curve builds no geometry: each stage
point and sample is one fused call on the space's extremal group (h11,
L_yy and the acceleration-free part b of the Euler-Lagrange equation,
see ``dynamics.harmonic_rhs``), which decides regularity and raises as
``geometry_at`` does; ``check``'s el-spray suite compares that
acceleration with the spray's.  A spray, connection or acceleration
that overflows the floats at a finite point raises NonRegularError where
it is read: each connection level checks its own blocks.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from jetlag.dual import as_array, base, inv
from jetlag.expr import (Const, EvalDomainError, FieldGroup, ScalarField, Var,
                         _point_array, add, evaluate_fields, mul, neg, power)
from jetlag.dtensor import (
    CartanCoefficients,
    ChartMap,
    NonlinearConnectionValue,
    SlotKind,
    adapted_gradient,
    add_connection_terms,
)

__all__ = [
    "NonRegularError",
    "SprayValue",
    "TorsionTable",
    "CurvatureTable",
    "LagrangeSpace",
    "canonical_spray",
    "canonical_nonlinear_connection",
    "cartan_connection",
    "torsion",
    "curvature",
    "bianchi_residuals",
    "metric_signature",
    "transformed_space",
]

COND_LIMIT = 1e10
SIGNATURE_CUTOFF = 1e-10
# bound of each space's geometry cache, sized for a full sweep: a `check`
# at the largest --points (10,000) caches 10,044 geometries on its space,
# every sampled float point and 44 dual points of the budgeted suites, so
# each suite reads back the geometries the sampler built
GEO_CACHE_SIZE = 16_384


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
        H = as_array(self.Htemp)
        G = as_array(self.Gspat)
        if H.shape != G.shape or H.ndim != 1:
            raise ValueError(f"inconsistent spray shapes {H.shape}, {G.shape}")
        if not all(map(math.isfinite, base(H).tolist() + base(G).tolist())):
            raise ValueError("spray coefficients must be finite")
        object.__setattr__(self, "Htemp", H)
        object.__setattr__(self, "Gspat", G)


@dataclass(frozen=True)
class TorsionTable:
    """The eight potentially nonzero torsion blocks of an h-normal connection.

    Index conventions (first index is always the contravariant one):
    T_1j[m, j], T_ij[m, i, j], P_1[m, j], P_c[m, i, j] (equals the vertical
    connection block), P_i[m, i, j], R_1j[m, j], R_ij[m, i, j], S[m, i, j].
    Cells of the torsion block-table that ``cells()`` does not list vanish
    identically.
    """

    T_1j: np.ndarray
    T_ij: np.ndarray
    P_1: np.ndarray
    P_c: np.ndarray
    P_i: np.ndarray
    R_1j: np.ndarray
    R_ij: np.ndarray
    S: np.ndarray

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


# Each lazy slot of _Geo and the name of the method that sets it: a name,
# not the function, so that a method patched on the class is the one run.
# The nonlinear connection level (N and the partials it needs) is built
# without the Cartan level, which reads it.
_LAZY = {**dict.fromkeys(("N", "dg_y", "Ltyy", "Lxyy", "Lyyy"), "_nonlinear"),
         **dict.fromkeys(("cartan", "dg_t", "dg_x", "del_t_g", "del_x_g"),
                         "_cartan"),
         "jets": "_jets", "torsion": "_torsion", "curvature": "_curvature"}


class _Geo:
    """The per-point geometry of a space, every entry exact up to matrix
    inversion.  ``LagrangeSpace._compute_geo`` sets its spray level and
    records a copy of the point (float or dual) and, for the jets, its
    space: a weak reference, since the space's cache holds the geometry,
    with the L and h11 to rebuild it from once its caller has dropped it.
    Every level above the spray is a lazy slot (see ``_LAZY``): its first
    read runs the method that sets it, through ``__getattr__`` (run on
    unset slots only), so each level is built once per cached geometry and
    read back after that.  ``_nonlinear`` sets the nonlinear connection N
    and the partials it reads; ``_cartan`` reads them and sets the Cartan
    blocks and the adapted derivatives of g.  A level whose blocks leave
    the floats raises and sets nothing, so every later read raises too.
    """

    __slots__ = ("space", "z", "h11", "h_inv", "H", "g", "g_inv", "Htemp",
                 "Gspat", "M", "hdot", "B", "Lxy", "Lyy", "values",
                 "third_idx", *_LAZY)

    def __getattr__(self, name):
        build = _LAZY.get(name)
        if build is None:
            raise AttributeError(f"'_Geo' object has no attribute {name!r}")
        getattr(self, build)()
        return getattr(self, name)

    def _nonlinear(self) -> None:
        h11, h_inv, H, g_inv = self.h11, self.h_inv, self.H, self.g_inv
        Ltyy, Lxyy, Lyyy = (self.values[i] for i in self.third_idx)
        y = self.z[1 + len(self.g):]
        dg_y = 0.5 * h11 * Lyyy              # dg_y[i, j, k] = dg_ij/dy^k

        # N^i_j = dG^i/dy^j, semi-analytic: differentiate the closed form of G
        # dB_k/dy^j: the y^m factor contributes L_{x^j y^k}, the -L_{x^k}
        # term contributes -L_{x^k y^j}; note the index order flip
        dB_y = ((y @ Lxyy.reshape(len(y), -1)).reshape(self.g.shape)
                + self.Lxy.T - self.Lxy + Ltyy + self.Lyy * H
                + 2.0 * h_inv * H * (dg_y @ y + self.g))
        # each entry of dg_y reads the fused slot of its index set, so dg_y
        # is symmetric (dg_y @ y above contracts its middle axis) and the
        # g^-1 of G adds -g^im dg_ml/dy^j g^lk B_k = -(g^-1 dg_y @ g^-1 B)^i_j
        N = 0.25 * h11 * (g_inv @ (dB_y - dg_y @ (g_inv @ self.B)))
        _finite((self.M, N), self.z)
        self.Ltyy, self.Lxyy, self.Lyyy, self.dg_y, self.N = (
            Ltyy, Lxyy, Lyyy, dg_y, N)

    def _cartan(self) -> None:
        h11, g_inv, dg_y, N = self.h11, self.g_inv, self.dg_y, self.N
        dg_t = 0.5 * (self.hdot * self.Lyy + h11 * self.Ltyy)
        dg_x = 0.5 * h11 * self.Lxyy         # dg_x[k, i, j] = dg_ij/dx^k

        # metric linear connection blocks from the adapted derivatives of g,
        # derivative axis last: delta g_ij / delta t, delta g_ij / delta x^k
        del_t_g = dg_t - dg_y @ self.M
        del_x_g = dg_x.transpose((1, 2, 0)) - dg_y @ N
        Gt = 0.5 * g_inv @ del_t_g
        Lblock = _christoffel(g_inv, del_x_g)
        Cblock = _christoffel(g_inv, dg_y)
        _finite((Gt, Lblock, Cblock), self.z)
        self.dg_t, self.dg_x, self.del_t_g, self.del_x_g = (
            dg_t, dg_x, del_t_g, del_x_g)
        self.cartan = CartanCoefficients(self.H, Gt, Lblock, Cblock)

    def _jets(self) -> None:
        ref, L, h11 = self.space
        # a space its caller has dropped is rebuilt, with an empty cache
        space = ref() or LagrangeSpace(len(self.g), L, h11)
        self.jets = space.connection_jets(self.z)

    def _torsion(self) -> None:
        jets, cart, H = self.jets, self.cartan, self.H
        eye = np.eye(len(self.g))
        dM_dy = -H * eye                          # M^m = -H y^m, exact
        T_1j = -cart.Gt
        T_ij = cart.L - np.swapaxes(cart.L, 1, 2)
        P_1 = dM_dy - cart.Gt + H * eye
        P_i = jets.N.d_y - np.transpose(cart.L, (0, 2, 1))
        # delta M / delta x^j = -N^k_j dM^m/dy^k = H N^m_j (M has no x
        # dependence)
        R_1j = H * self.N - jets.N.del_t
        R_ij = jets.N.del_x - np.swapaxes(jets.N.del_x, 1, 2)
        S = cart.C - np.swapaxes(cart.C, 1, 2)
        self.torsion = TorsionTable(T_1j=T_1j, T_ij=T_ij, P_1=P_1,
                                    P_c=cart.C.copy(), P_i=P_i, R_1j=R_1j,
                                    R_ij=R_ij, S=S)

    def _curvature(self) -> None:
        jets, cart, tors = self.jets, self.cartan, self.torsion
        Gt, L, C = cart.Gt, cart.L, cart.C

        R_i1k = (jets.Gt.del_x
                 - jets.L.del_t
                 + Gt.T @ L
                 - (Gt @ L.reshape(len(L), -1)).reshape(L.shape)
                 + C @ tors.R_1j)

        dL_del_x = jets.L.del_x                   # [l, i, j, k]
        LL = (L.reshape(len(L), -1).T @ L).reshape(dL_del_x.shape)
        R_ijk = (dL_del_x
                 - np.transpose(dL_del_x, (0, 1, 3, 2))
                 + LL - np.transpose(LL, (0, 1, 3, 2))   # L^m_ij L^l_mk
                 + _lead_contract(C, tors.R_ij))

        P_i1k = (jets.Gt.d_y
                 - _cov_C(cart, jets, "time")
                 + C @ tors.P_1)

        covC_x = _cov_C(cart, jets, "space")       # [l, i, k, j]
        P_ijk = (jets.L.d_y
                 - np.transpose(covC_x, (0, 1, 3, 2))
                 + _lead_contract(C, tors.P_i))

        dC_y = jets.C.d_y
        CC = (C.reshape(len(C), -1).T @ C).reshape(dC_y.shape)
        S_ijk = (dC_y
                 - np.transpose(dC_y, (0, 1, 3, 2))
                 + CC - np.transpose(CC, (0, 1, 3, 2)))

        self.curvature = CurvatureTable(R_i1k=R_i1k, R_ijk=R_ijk,
                                        P_i1k=P_i1k, P_ijk=P_ijk,
                                        S_ijk=S_ijk)


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
        if h11.variables() - {0}:
            raise ValueError("h11 must depend only on t")
        self.n = n
        self.L = L
        self.h11 = h11

        # the one field group _compute_geo evaluates: h11, its t-derivative
        # and the distinct L-partials, the Lyy head first; per block an
        # index array gathers it from the group's values
        t, x, y = [0], range(1, n + 1), range(1 + n, 2 * n + 1)
        slots: dict = {}
        blocks = []             # Lyy, then Ly Lx Lty Lxy Ltyy Lxyy Lyyy
        for axes in ((y, y), (y,), (x,), (t, y), (x, y), (t, y, y),
                     (x, y, y), (y, y, y)):
            idx = [slots.setdefault(_unit_index(n, *ax), len(slots) + 2)
                   for ax in itertools.product(*axes)]
            blocks.append(np.array(idx).reshape(
                [len(a) for a in axes if a is not t]))
        # the spray level reads five blocks, the nonlinear connection level
        # the three third-order ones.  Ly, Lx and Lty take new slots in
        # turn, so each is a run of the values, read as a view; Lxy stays
        # a gather, as a slice and a reshape would make two Duals of it
        self._lyy_idx, self._lxy_idx = blocks[0], blocks[4]
        self._spray_runs = [slice(b[0], b[-1] + 1) for b in blocks[1:4]]
        self._third_idx = blocks[5:]
        self._fields = (h11, h11.differentiate(_unit_index(n, 0)),
                        *map(L.differentiate, slots))
        # the groups whose compiled code the space owns (the head only
        # compiles when a read raises; dynamics.action reads h11 and L; the
        # first read of a curve or of check's el-spray suite builds
        # _el_group)
        self._group = FieldGroup(self._fields)
        self._head = FieldGroup(self._fields[:blocks[0].max() + 1])
        self._action = FieldGroup((h11, L))
        self._geo_cache: collections.OrderedDict = collections.OrderedDict()
        # what each geometry holds of its space (see _Geo), made once
        self._handle = (weakref.ref(self), L, h11)

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

    def _extremal(self, point) -> tuple:
        """(z, h11, L_yy, g^-1, b) at a point, where L_yy x'' + b = 0 is the
        extremal equation of the action: one fused call on ``_el_group``,
        regular where ``geometry_at`` finds the point regular and raising
        its error where it raises."""
        z = _point_array(point, self.n)
        zb = base(z)
        try:
            fused = evaluate_fields(self._el_group, z)
        except EvalDomainError:
            self._compute_geo(z)
            raise
        values, h11, Lyy, _, g_inv = self._metric(fused, zb)
        return z, h11, Lyy, g_inv, values[len(self._head.fields):]

    @functools.cached_property
    def _el_group(self) -> FieldGroup:
        """The head (h11, its t-derivative, L_yy) and the acceleration-free
        part of the extremal equation,
        b_k = L_{x^m y^k} y^m - L_{x^k} + L_{t y^k} + (hdot / 2 h11) L_{y^k},
        written over the partials' ASTs so that the compiled code shares
        their subexpressions; built and compiled on its first read, by a
        curve or by ``check``'s el-spray suite."""
        n, fields = self.n, self._fields
        h11, hdot = fields[0].ast, fields[1].ast
        ly, lx, lty = (fields[s] for s in self._spray_runs)
        H = mul(Const(0.5), hdot, power(h11, -1))
        b = [add(*(mul(fields[self._lxy_idx[m, k]].ast, Var(1 + n + m))
                   for m in range(n)),
                 neg(lx[k].ast), lty[k].ast, mul(H, ly[k].ast))
             for k in range(n)]
        return FieldGroup((*self._head.fields,
                           *(ScalarField(node, n) for node in b)))

    def _compute_geo(self, z) -> _Geo:
        """The spray level at z, a float point or a dual one; the checks
        read the base point and values."""
        zb = base(z)
        y = z[1 + self.n:]
        try:
            fused = evaluate_fields(self._group, z)
        except EvalDomainError:
            # the error of the fields read alone, in order: a singular h11,
            # a pole of the head (hdot, Lyy), a degenerate g, any other pole
            _regular_h11(self.h11.evaluate(zb), zb[0], zb)
            self._metric(evaluate_fields(self._head, z), zb)
            raise
        values, h11, Lyy, g, g_inv = self._metric(fused, zb)
        hdot = fused[1]
        h_inv = 1.0 / h11
        H = 0.5 * h_inv * hdot
        ly, lx, lty = self._spray_runs
        Ly, Lx, Lty, Lxy = (values[ly], values[lx], values[lty],
                            values[self._lxy_idx])

        # spray source term: B_k = L_{x^m y^k} y^m - L_{x^k} + L_{t y^k}
        #                        + L_{y^k} H + 2 h^inv H g_{kl} y^l
        B = Lxy.T @ y - Lx + Lty + Ly * H + 2.0 * h_inv * H * (g @ y)

        geo = _Geo()
        geo.space = self._handle
        geo.z = z.copy()                     # z may be the caller's buffer
        geo.h11, geo.h_inv, geo.H, geo.g, geo.g_inv = h11, h_inv, H, g, g_inv
        geo.hdot, geo.B = hdot, B
        geo.Htemp = -0.5 * H * y
        geo.Gspat = 0.25 * h11 * (g_inv @ B)
        geo.M = -H * y
        # the connection levels read L_xy and L_yy
        geo.Lxy, geo.Lyy = Lxy, Lyy
        # _nonlinear reads L_tyy, L_xyy and L_yyy off the fused values
        geo.values, geo.third_idx = values, self._third_idx
        return geo

    def _metric(self, fused, zb) -> tuple:
        """(values as one array, h11, Lyy, g, g^-1) from fused values that
        start with the head, or NonRegularError at the base point zb."""
        h11 = fused[0]                  # a float at a float point
        _regular_h11(base(h11), zb[0], zb)
        values = as_array(fused)
        Lyy = values[self._lyy_idx]
        g, g_inv = _regular_inverse(Lyy, 0.5 * h11, zb,
                                    "vertical Hessian metric is degenerate")
        return values, h11, Lyy, g, g_inv

    # -- derivative bundles for torsion/curvature ----------------------------

    def connection_jets(self, point) -> _ConnJets:
        """Adapted first derivatives of (Gt, L, C, N) at a point, read off
        the geometry at one dual point.  Built on every call; the cached
        geometry keeps the ones it reads as ``geometry_at(point).jets``."""
        geo = self.geometry_at(point)

        def blocks(q):
            dual = self.geometry_at(q)
            return dual.cartan.Gt, dual.cartan.L, dual.cartan.C, dual.N

        return _ConnJets(*(_JetBlock(t[..., 0], x, y) for _, (t, x, y) in
                           adapted_gradient(blocks, geo.z, geo)))


def _cached(cache: collections.OrderedDict, z, compute):
    """compute(z) through an LRU cache keyed on the bytes of z (of every
    leaf of a dual point).  It keeps every geometry read through
    ``geometry_at``, up to GEO_CACHE_SIZE, with its lazy levels as they
    get built: about 2.5 KB for a float spray level at n = 2, more once a
    connection level is read.  A curve's points never reach it (see
    ``dynamics.harmonic_rhs``)."""
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


def _regular_h11(h11: float, t: float, point) -> None:
    if h11 == 0.0 or not math.isfinite(h11):
        raise NonRegularError(f"temporal metric h11 = {h11} at t = {t}",
                              point=tuple(point))


def _non_finite(what: str, z) -> NonRegularError:
    """The NonRegularError for a block that left the floats at point z."""
    point = tuple(base(z).tolist())
    return NonRegularError(f"non-finite {what} at point {point}", point=point)


def _finite(blocks, z) -> None:
    """NonRegularError unless every entry of the blocks is finite: one
    isfinite call over them all, the cheapest form."""
    if not np.isfinite(np.concatenate([base(a).ravel()
                                       for a in blocks])).all():
        raise _non_finite("connection coefficients", z)


def _regular_inverse(block, scale, z: np.ndarray, what: str):
    """The metric block g = scale * block and its inverse, or
    NonRegularError when g is not finite, singular or conditioned beyond
    COND_LIMIT.  g is formed in the error state of the inversion (see
    ``dual.inv``), so a g that overflows raises the NonRegularError alone,
    with no numpy warning.  The condition estimate (sum |g_ij|)(sum |g^ij|),
    of the values, is scale-free and at least the 1-norm condition number;
    a non-finite entry makes it non-finite.  The determinant is computed
    for the error only."""
    try:
        g, g_inv = inv(block, scale)
    except np.linalg.LinAlgError:
        # the error path forms g again, as quietly as the inversion did
        with np.errstate(over="ignore"):
            g = scale * block
        cond = math.inf
    else:
        cond = (sum(map(abs, base(g).ravel().tolist()))
                * sum(map(abs, base(g_inv).ravel().tolist())))
        if cond <= COND_LIMIT:
            return g, g_inv
    value = base(g)
    if not np.isfinite(value).all():
        raise NonRegularError("non-finite metric entries", point=tuple(z))
    det = float(np.linalg.det(value))
    raise NonRegularError(f"{what} (cond ~ {cond:.1e}, det = {det:.3e})",
                          point=tuple(z), det=det)


def _christoffel(g_inv: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Christoffel symbols 1/2 g^im (A_jmk + A_kmj - A_jkm) of the metric
    derivatives A[j, m, k] = d g_jm / d u^k."""
    sym = A + A.transpose((2, 1, 0)) - A.transpose((0, 2, 1))
    return 0.5 * np.swapaxes(g_inv @ sym, 0, 1)


def _lead_contract(K: np.ndarray, X: np.ndarray) -> np.ndarray:
    """K's last axis contracted with X's first, as one product."""
    return (K.reshape(-1, len(X)) @ X.reshape(len(X), -1)).reshape(
        K.shape[:-1] + X.shape[1:])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def canonical_spray(sp: LagrangeSpace, point) -> SprayValue:
    geo = sp.geometry_at(point)
    try:
        return SprayValue(Htemp=geo.Htemp, Gspat=geo.Gspat)
    except ValueError:
        # the shapes are the geometry's own: an entry is not finite
        raise _non_finite("spray coefficients", geo.z) from None


def canonical_nonlinear_connection(sp: LagrangeSpace, point) -> NonlinearConnectionValue:
    geo = sp.geometry_at(point)
    return NonlinearConnectionValue(geo.M, geo.N)


def cartan_connection(sp: LagrangeSpace, point) -> CartanCoefficients:
    return sp.geometry_at(point).cartan


def torsion(sp: LagrangeSpace, point) -> TorsionTable:
    return sp.geometry_at(point).torsion


# slots of the vertical block C^l_i(k) and of the mixed torsion T^m_1j
# (whose time slot takes no correction under a spatial derivative)
_C_SLOTS = (SlotKind.SPACE_UP, SlotKind.SPACE_DOWN, SlotKind.VERT_DOWN)
_T1_SLOTS = (SlotKind.SPACE_UP, SlotKind.SPACE_DOWN)


def _cov_C(cart: CartanCoefficients, jets: _ConnJets, kind: str) -> np.ndarray:
    """Time or spatial covariant derivative of C, derivative axis last."""
    if kind == "time":
        return add_connection_terms(jets.C.del_t[..., np.newaxis], cart.C,
                                    _C_SLOTS, cart, kind)[..., 0]
    return add_connection_terms(jets.C.del_x, cart.C, _C_SLOTS, cart, kind)


def curvature(sp: LagrangeSpace, point) -> CurvatureTable:
    return sp.geometry_at(point).curvature


def bianchi_residuals(sp: LagrangeSpace, point) -> dict:
    """Residuals of the three first-order closure identities linking the
    curvature blocks to covariant derivatives of the torsion blocks.

    Returns arrays keyed "b1", "b2", "b3"; each vanishes identically for
    the canonical metric connection, so the values measure numeric noise
    (or a corrupted connection).
    """
    geo = sp.geometry_at(point)
    jets, cart, tors, cur = geo.jets, geo.cartan, geo.torsion, geo.curvature
    C = cart.C

    # spatial covariant derivative of the time-mixed torsion block -Gt
    T1_cov = add_connection_terms(-jets.Gt.del_x, tors.T_1j, _T1_SLOTS,
                                  cart, "space")
    term = cur.R_i1k + T1_cov + np.transpose(C @ tors.R_1j, (0, 2, 1))
    b1 = term - np.transpose(term, (0, 2, 1))

    t2 = cur.R_ijk - np.transpose(_lead_contract(C, tors.R_ij), (0, 2, 3, 1))
    b2 = (t2 + np.transpose(t2, (0, 2, 3, 1))
          + np.transpose(t2, (0, 3, 1, 2)))

    covC_x = _cov_C(cart, jets, "space")        # [l, i, k, j]
    t3 = (cur.P_ijk + np.transpose(covC_x, (0, 1, 3, 2))
          + np.transpose(_lead_contract(C, tors.P_i), (0, 2, 1, 3)))
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
