"""Shared test oracles, independent of the production numerics.

The finite-difference oracle here is a 3-point central difference with one
Richardson level; the package itself differentiates by forward mode, so
agreement between the two is evidence, not circularity.  The same holds
for ``fd_adapted_gradient``, the package's derivative seam taken by finite
differences (with this oracle or with ``jetlag.numdiff``, the package's
former 5-point stencil).  The metric oracles build Christoffel/Riemann
data straight from user-level metric component fields, and the Berwald
connection from the metric pair (h11, g).  ``jet_partials`` tabulates
every mixed partial of a field at a point.  The slot-rule oracles take
the package's own connection jets and write out only the connection
corrections, one einsum per slot; their other terms are the engine's
matrix products.  ``covariant_derivative`` takes one covariant
derivative of one field of one kind, with the field's value from a float
call; the field-identity oracles are built on it, where the
package differentiates all of an identity's fields at one dual point and
reads their values off it.  The RK4 loop on two arrays is the curve
integrator's bit-for-bit oracle, and ``transform_curve`` pushes a sampled
curve through a chart map sample by sample.  ``jet_point`` turns a
coordinate array into the equivalent JetPoint, ``collector_off`` runs a
body with the cyclic collector off and reports what cycles keep, and
``source_mutant`` swaps in a one-term change to a package function.
"""

from __future__ import annotations

import __future__
import contextlib
import gc
import inspect
import itertools
import math
import random
import sys
import textwrap

import numpy as np

from jetlag import fields
from jetlag.dtensor import (CartanCoefficients, SlotKind, adapted_gradient,
                            add_connection_terms, transform_point)
from jetlag.dual import Dual, as_array, depth
from jetlag.dynamics import Curve, harmonic_rhs
from jetlag.expr import (Const, FieldGroup, JetPoint, Node, Var, _point_array,
                         add, call, div, evaluate_fields, mul, neg, power)
from jetlag.geometry import (LagrangeSpace, NonRegularError, _christoffel,
                             _Geo, _regular_inverse, _unit_index,
                             canonical_nonlinear_connection,
                             cartan_connection, curvature, torsion)


def jet_point(z, n: int) -> JetPoint:
    """The JetPoint with the (2n+1,) coordinates z."""
    z = np.asarray(z, dtype=float)
    return JetPoint(z[0], tuple(z[1:n + 1]), tuple(z[n + 1:]))


@contextlib.contextmanager
def collector_off():
    """Run the body with the cyclic collector off, so that only reference
    counting frees what it drops.  Yields a function that returns every
    object a reference cycle keeps (a full collection under
    DEBUG_SAVEALL) and empties gc.garbage.  On exit, failed or not, the
    collector and its debug flags are as they were and gc.garbage is
    empty, so no later test runs with the collector off."""
    enabled, flags = gc.isenabled(), gc.get_debug()

    def cyclic_garbage() -> list:
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return list(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()

    gc.collect()        # what earlier code left is not the body's
    gc.disable()
    try:
        yield cyclic_garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def source_mutant(monkeypatch, fn, old: str, new: str):
    """Monkeypatch a mutant of fn over it, on the class or module that
    holds it: fn's source with old, which must occur exactly once, replaced
    by new, executed in fn's module namespace under the module's own
    ``from __future__ import annotations``.  Returns the mutant."""
    source = textwrap.dedent(inspect.getsource(fn))
    count = source.count(old)
    assert count == 1, f"{old!r} occurs {count} times in {fn.__qualname__}"
    code = compile(source.replace(old, new), inspect.getsourcefile(fn),
                   "exec", dont_inherit=True,
                   flags=fn.__code__.co_flags
                   & __future__.annotations.compiler_flag)
    namespace: dict = {}
    exec(code, fn.__globals__, namespace)
    owner = sys.modules[fn.__module__]
    for name in fn.__qualname__.split(".")[:-1]:
        owner = getattr(owner, name)
    mutant = namespace[fn.__name__]
    monkeypatch.setattr(owner, fn.__name__, mutant)
    return mutant


def count_calls(monkeypatch, fn, *owners):
    """Replace fn on each module or class by a wrapper; the list grows once
    per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, fn.__name__, counted)
    return calls


def connection_levels(monkeypatch) -> list:
    """Record each connection level built, as ("nonlinear", depth) or
    ("cartan", depth), depth 0 at a float point, in the order its builder
    is entered (the Cartan level enters the nonlinear one it reads)."""
    seen = []
    for level in ("nonlinear", "cartan"):
        def built(self, level=level, build=getattr(_Geo, f"_{level}")):
            seen.append((level, depth(self.H)))
            return build(self)

        monkeypatch.setattr(_Geo, f"_{level}", built)
    return seen


def dual_levels(monkeypatch):
    """Record the depth of every dual point whose geometry is computed
    (a geometry_at miss) and of every dual connection level built, as
    ("geo", depth), ("nonlinear", depth) and ("cartan", depth); float
    points are not recorded."""
    seen = []
    compute = LagrangeSpace._compute_geo

    def computed(self, z):
        if isinstance(z, Dual):
            seen.append(("geo", z.depth))
        return compute(self, z)

    monkeypatch.setattr(LagrangeSpace, "_compute_geo", computed)
    for level in ("nonlinear", "cartan"):
        def built(self, level=level, build=getattr(_Geo, f"_{level}")):
            if isinstance(self.H, Dual):
                seen.append((level, self.H.depth))
            return build(self)

        monkeypatch.setattr(_Geo, f"_{level}", built)
    return seen


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


# relative step of the oracle, ten times finer than the package's
ORACLE_STEP = 1e-4


def fd_partial(fn, z, axis):
    """O(h^4) derivative of fn (arrays ok) along one coordinate axis."""
    z = np.asarray(z, dtype=float)
    h = ORACLE_STEP * (1.0 + abs(z[axis]))

    def f(shift):
        zz = z.copy()
        zz[axis] += shift
        return np.asarray(fn(zz), dtype=float)

    d_h = (f(h) - f(-h)) / (2 * h)
    d_h2 = (f(h / 2) - f(-h / 2)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def fd_gradient(fn, z):
    z = np.asarray(z, dtype=float)
    return np.stack([fd_partial(fn, z, a) for a in range(len(z))])


def fd_adapted_gradient(partial):
    """dtensor.adapted_gradient taken by finite differences along every
    axis with the one-axis derivative partial(fn, z, axis): the same
    pairs of value and derivatives, from fn evaluated at float points
    only."""

    def gradient(fn, z, nl):
        z = np.asarray(z, dtype=float)
        n = (len(z) - 1) // 2
        values = fn(z)
        shapes = [np.shape(a) for a in values]
        grads = np.stack([
            partial(lambda q: np.concatenate([np.ravel(a) for a in fn(q)]),
                    z, axis) for axis in range(len(z))])
        pairs = []
        for value, shape, g in zip(values, shapes, np.split(
                grads, np.cumsum([np.prod(s, dtype=int) for s in shapes])[:-1],
                axis=1)):
            g = g.reshape((-1,) + shape)
            d_y = g[n + 1:]
            out = ((g[0] - np.einsum("m,m...->...", nl.M, d_y))[None],
                   g[1:n + 1] - np.einsum("mi,m...->i...", nl.N, d_y),
                   d_y)
            pairs.append((value, [np.moveaxis(d, 0, -1) for d in out]))
        return pairs

    return gradient


# ---------------------------------------------------------------------------
# the table of a field's partials at a point
# ---------------------------------------------------------------------------


def jet_partials(f, point, max_order: int) -> dict:
    """Every mixed partial of f of total order <= max_order at the point,
    multi-index -> value, from one evaluate_fields call."""
    indices = [idx for idx in itertools.product(range(max_order + 1),
                                                repeat=2 * f.n + 1)
               if sum(idx) <= max_order]
    values = evaluate_fields(FieldGroup(map(f.differentiate, indices)), point)
    return dict(zip(indices, values))


# ---------------------------------------------------------------------------
# metric oracles: gamma / Riemann / Ricci and the Berwald connection from
# component ScalarFields
# ---------------------------------------------------------------------------


def metric_at(g_fields, z):
    n = len(g_fields)
    g = np.array([[g_fields[i][j].evaluate(z) for j in range(n)] for i in range(n)])
    return 0.5 * (g + g.T)


def christoffel_oracle(g_fields, z):
    """gamma^i_jk of a spatial metric given as an n x n grid of ScalarFields."""
    n = len(g_fields)
    g = metric_at(g_fields, z)
    g_inv = np.linalg.inv(g)
    dg = np.empty((n, n, n))  # dg[k, i, j] = d g_ij / d x^k
    for k in range(n):
        dg[k] = fd_partial(lambda q: metric_at(g_fields, q), z, 1 + k)
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0.0
                for m in range(n):
                    s += g_inv[i, m] * (dg[k][j, m] + dg[j][k, m] - dg[m][j, k])
                gamma[i, j, k] = 0.5 * s
    return gamma


def riemann_oracle(g_fields, z):
    """r^l_ijk = d_k gamma^l_ij - d_j gamma^l_ik + gamma gamma - gamma gamma."""
    n = len(g_fields)
    gamma = christoffel_oracle(g_fields, z)
    dgamma = np.empty((n, n, n, n))  # dgamma[k, l, i, j] = d_k gamma^l_ij
    for k in range(n):
        dgamma[k] = fd_partial(lambda q: christoffel_oracle(g_fields, q), z, 1 + k)
    r = np.empty((n, n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    val = dgamma[k][l, i, j] - dgamma[j][l, i, k]
                    for m in range(n):
                        val += gamma[m, i, j] * gamma[l, m, k]
                        val -= gamma[m, i, k] * gamma[l, m, j]
                    r[l, i, j, k] = val
    return r


def ricci_oracle(g_fields, z):
    r = riemann_oracle(g_fields, z)
    return np.einsum("mijm->ij", r)


def temporal_christoffel(h11, t: float) -> float:
    """The single Christoffel coefficient of h11(t): (1/2) h^11 dh11/dt."""
    extra = h11.variables() - {0}
    if extra:
        raise ValueError("h11 must depend only on t")
    z = np.zeros(2 * h11.n + 1)
    z[0] = t
    v = h11.evaluate(z)
    if v == 0.0 or not math.isfinite(v):
        raise NonRegularError(f"temporal metric h11 = {v} at t = {t}")
    hdot = h11.differentiate(_unit_index(h11.n, 0)).evaluate(z)
    return 0.5 * hdot / v


def berwald_connection(h11, g_fields, point) -> CartanCoefficients:
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
    _, g_inv = _regular_inverse(g, 1.0, z, "spatial metric degenerate")
    gamma = _christoffel(g_inv, np.transpose(dg_x, (1, 2, 0)))
    H = temporal_christoffel(h11, float(z[0]))
    return CartanCoefficients(H, np.zeros((n, n)), gamma, np.zeros((n, n, n)))


# ---------------------------------------------------------------------------
# connection corrections written out one einsum per slot: an oracle for the
# one slot rule, dtensor.add_connection_terms, where the vertical block C
# is nonzero (every builtin has C = 0)
# ---------------------------------------------------------------------------


def cov_time_C(cart, dC_del_t):
    """Time covariant derivative of C^l_i(k) (slots up, down, vert-down)."""
    Gt, C, vt = cart.Gt, cart.C, cart.vert_time()
    return (dC_del_t
            + np.einsum("lm,mik->lik", Gt, C)
            - np.einsum("lmk,mi->lik", C, Gt)
            - np.einsum("lim,mk->lik", C, vt))


def cov_space_C(cart, dC_del_x):
    """Spatial covariant derivatives of C; result indexed [l, i, k, j]."""
    L, C = cart.L, cart.C
    return (dC_del_x
            + np.einsum("lmj,mik->likj", L, C)
            - np.einsum("lmk,mij->likj", C, L)
            - np.einsum("lim,mkj->likj", C, L))


def cov_space_T1(cart, T1, dT1_del_x):
    """Spatial covariant derivative of the mixed torsion T^l_1j, [l, j, k]."""
    L = cart.L
    return (dT1_del_x
            + np.einsum("lmk,mj->ljk", L, T1)
            - np.einsum("mjk,lm->ljk", L, T1))


def lead_product(K, X):
    """K^l_im X^m_jk as [l, i, j, k], the engine's one product of K's last
    axis with X's first."""
    n = len(K)
    return (K.reshape(n * n, n) @ X.reshape(n, n * n)).reshape(n, n, n, n)


def curvature_P_oracle(sp, z):
    """(P_i1k, P_ijk) of geometry.curvature with the C terms written out."""
    geo, jets = sp.geometry_at(z), sp.connection_jets(z)
    cart, tors = geo.cartan, torsion(sp, z)
    C = cart.C
    P_i1k = jets.Gt.d_y - cov_time_C(cart, jets.C.del_t) + C @ tors.P_1
    P_ijk = (jets.L.d_y
             - np.transpose(cov_space_C(cart, jets.C.del_x), (0, 1, 3, 2))
             + lead_product(C, tors.P_i))
    return P_i1k, P_ijk


def bianchi_b1_b3_oracle(sp, z):
    """(b1, b3) of geometry.bianchi_residuals with the slot terms written out."""
    geo, jets = sp.geometry_at(z), sp.connection_jets(z)
    cart, tors, cur = geo.cartan, torsion(sp, z), curvature(sp, z)
    C = cart.C
    term = (cur.R_i1k + cov_space_T1(cart, tors.T_1j, -jets.Gt.del_x)
            + np.transpose(C @ tors.R_1j, (0, 2, 1)))
    t3 = (cur.P_ijk + np.transpose(cov_space_C(cart, jets.C.del_x),
                                   (0, 1, 3, 2))
          + np.transpose(lead_product(C, tors.P_i), (0, 2, 1, 3)))
    return (term - np.transpose(term, (0, 2, 1)),
            t3 - np.transpose(t3, (0, 2, 1, 3)))


def metricity_oracle(geo):
    """Spatial, vertical and time covariant derivatives of g, derivative
    axis last, from the exact partials of g."""
    g, cart = geo.g, geo.cartan
    del_x_g = geo.dg_x - np.transpose(geo.dg_y @ geo.N, (2, 0, 1))
    cov_s = (del_x_g
             - np.einsum("mik,mj->kij", cart.L, g)
             - np.einsum("mjk,im->kij", cart.L, g))
    cov_v = (geo.dg_y
             - np.einsum("mik,mj->ijk", cart.C, g)
             - np.einsum("mjk,im->ijk", cart.C, g))
    del_t_g = geo.dg_t - geo.dg_y @ geo.M
    cov_t = (del_t_g
             - np.einsum("mi,mj->ij", cart.Gt, g)
             - np.einsum("im,mj->ij", g, cart.Gt))
    return [np.transpose(cov_s, (1, 2, 0)), cov_v, cov_t[..., np.newaxis]]


# ---------------------------------------------------------------------------
# the field identities with one derivative call per field and kind: an
# oracle for fields._covd, which differentiates all of an identity's fields
# at one dual point and must hand each field back with the bits of its own
# call
# ---------------------------------------------------------------------------


SU, SD, TD = SlotKind.SPACE_UP, SlotKind.SPACE_DOWN, SlotKind.TIME_DOWN
VU, VD = SlotKind.VERT_UP, SlotKind.VERT_DOWN
KINDS = ("time", "space", "vert")


def covariant_derivative(fn, signature, point, cartan, nl, kind):
    """Components of the covariant derivative of one kind of the d-tensor
    field q -> fn(q) of the given signature, in the connection (cartan,
    nl) at the point: one adapted_gradient call for the derivative, one
    float call of fn for the value the slot rule corrects with."""
    z = _point_array(point, cartan.n)
    ((_, derivs),) = adapted_gradient(lambda q: (fn(q),), z, nl)
    return add_connection_terms(derivs[KINDS.index(kind)], as_array(fn(z)),
                                signature, cartan, kind)


def cov_alone(sp, z, signature, fn, kind):
    """Components of one field's covariant derivative of one kind."""
    return covariant_derivative(fn, signature, z, cartan_connection(sp, z),
                                canonical_nonlinear_connection(sp, z), kind)


def maxwell_oracle(sp, z):
    """fields.maxwell_residuals, one call per field and kind."""
    n = sp.n
    geo = sp.geometry_at(z)
    y = z[1 + n:]
    y_low = geo.h_inv * (geo.g @ y)
    tor = torsion(sp, z)
    C = geo.cartan.C
    F_t, F_x, F_y = (cov_alone(sp, z, (VD, SD),
                               lambda q: fields._em_F_closed(sp, q), kind)
                     for kind in KINDS)
    defl = fields.deflections(sp, z)
    Dbar_cov = cov_alone(sp, z, (VD, TD),
                         lambda q: fields.deflections(sp, q).Dbar_low[:, None],
                         "space")[:, 0, :]
    T1_cov = cov_alone(sp, z, (SU, TD, SD),
                       lambda q: -cartan_connection(sp, q).Gt[:, None, :],
                       "space")[:, 0, :, :]
    bracket = T1_cov + np.einsum("pkm,mi->pik", C, tor.R_1j)
    core = (Dbar_cov + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j
            - np.einsum("pik,p->ik", bracket, y_low))
    eq1 = F_t[:, :, 0] - 0.5 * (core - core.T)
    source = np.einsum("ilm,mjk,l->ijk", 0.5 * geo.Lyyy, tor.R_ij, y)
    eq2 = fields._cyclic(F_x) + 0.5 * fields._cyclic(source)
    eq3 = fields._cyclic(F_y)
    return {"eq1": eq1, "eq2": eq2, "eq3": eq3}


def deflection_identities_oracle(sp, z):
    """fields.deflection_identities, one call per field and kind."""
    n = sp.n
    geo = sp.geometry_at(z)
    y = z[1 + n:]
    y_low = geo.h_inv * (geo.g @ y)
    tor = torsion(sp, z)
    cur = curvature(sp, z)
    C = geo.cartan.C
    defl = fields.deflections(sp, z)
    Dbar_x = cov_alone(sp, z, (VD, TD),
                       lambda q: fields.deflections(sp, q).Dbar_low[:, None],
                       "space")[:, 0, :]
    D_t, D_x, D_y = (cov_alone(sp, z, (VD, SD),
                               lambda q: fields.deflections(sp, q).D_low,
                               kind) for kind in KINDS)
    d_x = cov_alone(sp, z, (VD, VD), lambda q: fields.deflections(sp, q).d_low,
                    "space")
    d1 = (Dbar_x - D_t[:, :, 0] + np.einsum("m,mik->ik", y_low, cur.R_i1k)
          + defl.D_low @ tor.T_1j + defl.d_low @ tor.R_1j)
    d2 = (D_x - np.transpose(D_x, (0, 2, 1))
          + np.einsum("m,mijk->ijk", y_low, cur.R_ijk)
          + np.einsum("im,mjk->ijk", defl.d_low, tor.R_ij))
    d3 = (D_y - np.transpose(d_x, (0, 2, 1))
          + np.einsum("m,mijk->ijk", y_low, cur.P_ijk)
          + np.einsum("im,mjk->ijk", defl.D_low, C)
          + np.einsum("im,mjk->ijk", defl.d_low, tor.P_i))
    return {"d1": d1, "d2": d2, "d3": d3}


def conservation_oracle(sp, z):
    """fields.conservation_residuals, one call per raised field."""
    n = sp.n

    def raised(build):
        def fn(q):
            geo = sp.geometry_at(q)
            return build(fields.ricci_and_scalar(sp, q), geo.g_inv, geo.h11)
        return fn

    lhs1 = cov_alone(sp, z, (), lambda q:
                     0.5 * fields.ricci_and_scalar(sp, q).Sc, "time")
    rup1_cov = cov_alone(sp, z, (SU, TD), raised(
        lambda r, gi, h: (gi @ r.R_i1)[:, None]), "space")
    pup1_cov = cov_alone(sp, z, (VU, TD), raised(
        lambda r, gi, h: (h * gi @ r.P_i1)[:, None]), "vert")
    law1 = float(lhs1[0]) - (np.trace(rup1_cov[:, 0, :])
                             - np.trace(pup1_cov[:, 0, :]))
    mixed_R = cov_alone(sp, z, (SU, SD), raised(
        lambda r, gi, h: gi @ r.R_ij - 0.5 * r.Sc * np.eye(n)), "space")
    mixed_P = cov_alone(sp, z, (VU, SD), raised(
        lambda r, gi, h: h * gi @ r.P_ij), "vert")
    law2 = np.einsum("mjm->j", mixed_R) + np.einsum("mjm->j", mixed_P)
    mixed_S = cov_alone(sp, z, (VU, VD), raised(
        lambda r, gi, h: h * gi @ r.S_ij - 0.5 * r.Sc * np.eye(n)), "vert")
    mixed_Pv = cov_alone(sp, z, (SU, VD), raised(
        lambda r, gi, h: gi @ r.P_i_j), "space")
    law3 = np.einsum("mjm->j", mixed_S) + np.einsum("mjm->j", mixed_Pv)
    return {"law1": law1, "law2": law2, "law3": law3}


# ---------------------------------------------------------------------------
# sphere closed forms (unit 2-sphere, coordinates x1 = polar, x2 = azimuth)
# ---------------------------------------------------------------------------


def sphere_gamma_closed(x1: float) -> np.ndarray:
    gamma = np.zeros((2, 2, 2))
    gamma[0, 1, 1] = -np.sin(x1) * np.cos(x1)
    gamma[1, 0, 1] = gamma[1, 1, 0] = np.cos(x1) / np.sin(x1)
    return gamma


def great_circle(x0, y0, s):
    """Exact unit-sphere geodesic through (x0, y0) at parameter s.

    x0 = (theta, phi), y0 = (theta_dot, phi_dot); requires unit g-speed so
    that s is arc length.  Returns (theta(s), phi(s)).
    """
    th, ph = x0
    p = np.array(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]
    )
    d_th = np.array(
        [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)]
    )
    d_ph = np.array([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0.0])
    v = y0[0] * d_th + y0[1] * d_ph
    speed = np.linalg.norm(v)
    assert abs(speed - 1.0) < 1e-12, "great_circle expects unit initial speed"
    gam = np.cos(s) * p + np.sin(s) * v
    theta = np.arccos(np.clip(gam[2], -1.0, 1.0))
    phi = np.arctan2(gam[1], gam[0])
    return np.array([theta, phi])


# ---------------------------------------------------------------------------
# curves: the RK4 loop on two arrays, the bit-for-bit oracle of
# integrate_harmonic, and the chart push of a sampled curve
# ---------------------------------------------------------------------------


def rk4_two_arrays(sp, x0, y0, t0, t1, step):
    """(t, x, y) samples of integrate_harmonic's fixed-step RK4 written on
    two arrays x and y, with a fresh point per stage.  Each stage is the
    same elementwise arithmetic as on the state vector (x, y), so the
    package's curve must match this bit for bit."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    count = max(1, int(math.ceil((t1 - t0) / step - 1e-12)))

    def rhs(t, x, y):
        z = np.concatenate([[t], x, y])
        if not np.isfinite(z).all():
            raise NonRegularError(f"non-finite state at t = {t:.6g}",
                                  point=tuple(z))
        try:
            return harmonic_rhs(sp, z)
        except NonRegularError as err:
            raise NonRegularError(
                f"{err} (reached at t = {t:.6g} along the curve)",
                point=err.point, det=err.det) from err

    ts = [t0]
    xs = [x0]
    ys = [y0]
    t, x, y = t0, x0, y0
    for k in range(count):
        h = min(step, t1 - t)
        k1x, k1y = y, rhs(t, x, y)
        k2x, k2y = y + 0.5 * h * k1y, rhs(t + 0.5 * h, x + 0.5 * h * k1x,
                                          y + 0.5 * h * k1y)
        k3x, k3y = y + 0.5 * h * k2y, rhs(t + 0.5 * h, x + 0.5 * h * k2x,
                                          y + 0.5 * h * k2y)
        k4x, k4y = y + h * k3y, rhs(t + h, x + h * k3x, y + h * k3y)
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        t = t1 if k == count - 1 else t + h
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return np.array(ts), np.array(xs), np.array(ys)


def transform_curve(curve: Curve, chart) -> Curve:
    """Push a sampled curve through a jet chart map sample by sample."""
    ts = np.empty(len(curve))
    xs = np.empty_like(curve.x)
    ys = np.empty_like(curve.y)
    for k in range(len(curve)):
        p = transform_point(chart, curve.point(k))
        ts[k] = p.t
        xs[k] = p.x
        ys[k] = p.y
    return Curve(t=ts, x=xs, y=ys, step=curve.step)


# ---------------------------------------------------------------------------
# random AST generator (used by the derivative-oracle property and the
# round-trip property; rejection keyed only on boundedness/domain margins,
# never on agreement with the engine under test)
# ---------------------------------------------------------------------------


def random_ast(rng: random.Random, n: int, depth: int) -> Node:
    if depth <= 0 or rng.random() < 0.28:
        if rng.random() < 0.35:
            return Const(round(rng.uniform(-3, 3), 3))
        return Var(rng.randrange(2 * n + 1))
    kind = rng.choice(
        ["add", "sub", "mul", "div", "pow", "sin", "cos", "tan", "exp", "log", "sqrt", "abs", "neg"]
    )
    a = random_ast(rng, n, depth - 1)
    if kind == "add":
        return add(a, random_ast(rng, n, depth - 1))
    if kind == "sub":
        return add(a, neg(random_ast(rng, n, depth - 1)))
    if kind == "mul":
        return mul(a, random_ast(rng, n, depth - 1))
    if kind == "div":
        # keep the denominator away from zero
        b = random_ast(rng, n, depth - 2) if depth >= 2 else Var(rng.randrange(2 * n + 1))
        return div(a, add(Const(round(rng.uniform(1.5, 3.0), 3)), mul(b, b)))
    if kind == "pow":
        if rng.random() < 0.5:
            return power(a, rng.choice([2, 3]))
        return power(add(Const(round(rng.uniform(1.5, 3.0), 3)), mul(a, a)), 0.7)
    if kind == "sin":
        return call("sin", a)
    if kind == "cos":
        return call("cos", a)
    if kind == "tan":
        # bound the argument well inside (-pi/2, pi/2)
        return call("tan", mul(Const(0.4), call("sin", a)))
    if kind == "exp":
        # bound the argument so nested exponentials stay tame
        return call("exp", call("sin", a))
    if kind == "log":
        return call("log", add(Const(round(rng.uniform(0.5, 2.0), 3)), mul(a, a)))
    if kind == "sqrt":
        return call("sqrt", add(Const(round(rng.uniform(0.5, 2.0), 3)), mul(a, a)))
    if kind == "abs":
        return call("abs", add(Const(round(rng.uniform(1.0, 2.0), 3)), mul(a, a)))
    if kind == "neg":
        return neg(a)
    raise AssertionError(kind)


def usable_test_points(field, rng: random.Random, count: int, bound=1e3):
    """Random points where the field and a small FD stencil are well behaved."""
    n = field.n
    points = []
    attempts = 0
    while len(points) < count and attempts < 200 * count:
        attempts += 1
        z = np.array([rng.uniform(-1, 1) for _ in range(2 * n + 1)])
        ok = True
        for axis in range(2 * n + 1):
            for shift in (-2e-4, -1e-4, 0.0, 1e-4, 2e-4):
                zz = z.copy()
                zz[axis] += shift * (1.0 + abs(z[axis]))
                try:
                    v = field.evaluate(zz)
                except Exception:
                    ok = False
                    break
                if not np.isfinite(v) or abs(v) > bound:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            points.append(z)
    return points
