"""Deflections, electromagnetic form, Maxwell/Einstein systems, conservation."""

import numpy as np
import pytest

from helpers import (
    bianchi_b1_b3_oracle,
    conservation_oracle,
    count_calls,
    cov_space_C,
    cov_space_T1,
    cov_time_C,
    curvature_P_oracle,
    deflection_identities_oracle,
    dual_levels,
    fd_adapted_gradient,
    fd_partial,
    metric_at,
    maxwell_oracle,
    metricity_oracle,
    ricci_oracle,
)
from jetlag import fields, geometry, numdiff
from jetlag.checks import _metricity_residuals, run_checks, sample_points
from jetlag.cli import BUILTIN_CONFIGS, load_config, main
from jetlag.dtensor import SlotKind, adapted_gradient
from jetlag.dual import Dual, as_array
from jetlag.expr import EvalDomainError, _point_array, parse
from jetlag.fields import (
    conservation_residuals,
    deflection_identities,
    deflection_route,
    deflections,
    einstein_system,
    em_form,
    maxwell_residuals,
    maxwell_simple_residuals,
    ricci_and_scalar,
    worst_residual,
)
from jetlag.geometry import (
    LagrangeSpace,
    bianchi_residuals,
    canonical_nonlinear_connection,
    cartan_connection,
    curvature,
    torsion,
)

N = 2
RNG = np.random.default_rng(77003919)


def one(n=N):
    return parse("1", n)


def flat_space():
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    return LagrangeSpace.from_family("quadratic", N, one(), g)


def sphere_space():
    g = [[parse("1", N), parse("0", N)],
         [parse("0", N), parse("sin(x1)^2", N)]]
    return LagrangeSpace.from_family("quadratic", N, one(), g)


def edyn_flat_space():
    # flat metric with a linear potential: every reduction has a closed form
    g = [[parse("1", N), parse("0", N)], [parse("0", N), parse("1", N)]]
    U = [parse("0", N), parse("x1", N)]
    return LagrangeSpace.from_family("electrodynamics", N, one(), g,
                                     U_fields=U)


def edyn_sphere_space():
    g = [[parse("1", N), parse("0", N)],
         [parse("0", N), parse("sin(x1)^2", N)]]
    U = [parse("0", N), parse("x1", N)]
    return LagrangeSpace.from_family("electrodynamics", N, one(), g,
                                     U_fields=U)


def nonaut_space():
    g = [[parse("1 + 0.1*t", N), parse("0", N)],
         [parse("0", N), parse("(1 + 0.1*t)*sin(x1)^2", N)]]
    U = [parse("0", N), parse("t*x1", N)]
    return LagrangeSpace.from_family("nonautonomous", N, parse("1 + t/2", N),
                                     g, U_fields=U)


def quartic_space():
    L = parse("(1/(1 + t/2))*((1 + 0.1*x2)*y1^2 + sin(x1)^2*y2^2"
              " + 0.05*(y1^2 + y2^2)^2)", N)
    return LagrangeSpace(N, L, parse("1 + t/2", N))


def mild3_space():
    # three spatial dimensions, metric autonomous, time enters through the
    # potentials and the temporal metric only
    n = 3
    zero = parse("0", n)
    g = [[parse("1 + 0.2*x2^2", n), zero, zero],
         [zero, parse("2 + sin(x1)", n), zero],
         [zero, zero, parse("1.5 + 0.2*cos(x3)", n)]]
    U = [parse("0.3*t*x2", n), parse("x1", n), parse("0.1*t*x3", n)]
    return LagrangeSpace.from_family("electrodynamics", n, parse("1 + t/2", n),
                                     g, U_fields=U, F_field=parse("x1*x3", n))


def gen3_space():
    # velocity-dependent metric with h11 != 1: the only regime where the
    # cyclic-equation source tensor actually matters
    n = 3
    L = parse("(1/(1 + t/2))*((1 + 0.1*x2)*y1^2 + (2 + sin(x1))*y2^2"
              " + (1.5 + 0.2*cos(x3))*y3^2 + 0.04*(y1^2 + y2^2 + y3^2)^2)"
              " + 0.3*t*x2*y1 + x1*y2", n)
    return LagrangeSpace(n, L, parse("1 + t/2", n))


SPHERE_Z = np.array([0.0, np.pi / 4, 0.3, 0.0, 1.0])
GEN_Z = np.array([0.3, 0.9, -0.4, 0.7, 1.2])
GEN3_Z = np.array([0.3, 0.9, -0.4, 0.5, 0.7, 1.2, -0.6])


def random_points(count, n=N):
    pts = []
    for _ in range(count):
        t = RNG.uniform(0.0, 1.0)
        x = RNG.uniform([0.6] + [-1.0] * (n - 1), [1.2] + [1.0] * (n - 1))
        y = RNG.uniform(-1.5, 1.5, n)
        pts.append(np.concatenate([[t], x, y]))
    return pts


def potential_curl(sp, z, n=N):
    # tf[k, j] = dU_k/dx^j - dU_j/dx^k
    dU = np.array([[fd_partial(lambda w, uu=sp.U_fields[k]: uu.evaluate(w),
                               z, 1 + j) for j in range(n)]
                   for k in range(n)])
    return dU - dU.T


# ---------------------------------------------------------------------------
# deflection tensors
# ---------------------------------------------------------------------------

class TestDeflections:
    def test_flat(self):
        defl = deflections(flat_space(), GEN_Z)
        assert np.allclose(defl.Dbar, 0.0, atol=1e-14)
        assert np.allclose(defl.D, 0.0, atol=1e-14)
        assert np.allclose(defl.d, np.eye(N), atol=1e-14)

    @pytest.mark.parametrize("build", [edyn_sphere_space, nonaut_space,
                                       quartic_space])
    def test_routes_agree(self, build):
        sp = build()
        for z in random_points(2):
            assert deflection_route(sp, z) < 1e-9

    def test_electrodynamics_reduction(self):
        # autonomous metric: Dbar = 0, d = identity, and the spatial block
        # collapses to the potential curl contracted with the metric
        sp = edyn_sphere_space()
        for z in random_points(3):
            geo = sp.geometry_at(z)
            g_inv, h11 = geo.g_inv, geo.h11
            defl = deflections(sp, z)
            expect = -0.25 * h11 * g_inv @ potential_curl(sp, z)
            assert np.allclose(defl.Dbar, 0.0, atol=1e-10)
            assert np.allclose(defl.d, np.eye(N), atol=1e-10)
            assert np.allclose(defl.D, expect, atol=1e-6)

    def test_metrical_values_flat_potential(self):
        defl = deflections(edyn_flat_space(), GEN_Z)
        assert abs(defl.D_low[1, 0] - (-0.25)) < 1e-10
        assert abs(defl.D_low[0, 1] - 0.25) < 1e-10

    def test_metrical_is_contraction_of_plain(self):
        sp = quartic_space()
        z = GEN_Z
        geo = sp.geometry_at(z)
        g, h_inv = geo.g, geo.h_inv
        defl = deflections(sp, z)
        assert np.allclose(defl.Dbar_low, h_inv * g @ defl.Dbar, atol=1e-12)
        assert np.allclose(defl.D_low, h_inv * g @ defl.D, atol=1e-12)
        assert np.allclose(defl.d_low, h_inv * g @ defl.d, atol=1e-12)


class TestDeflectionIdentities:
    @pytest.mark.parametrize("build", [sphere_space, edyn_sphere_space,
                                       nonaut_space, quartic_space,
                                       gen3_space])
    def test_three_identities(self, build):
        sp = build()
        for z in random_points(2, n=sp.n):
            res = deflection_identities(sp, z)
            for name in ("d1", "d2", "d3"):
                assert np.max(np.abs(res[name])) < 1e-6, name


# ---------------------------------------------------------------------------
# electromagnetic form
# ---------------------------------------------------------------------------

class TestEMForm:
    def test_flat_vanishes(self):
        form = em_form(flat_space(), GEN_Z)
        assert np.allclose(form.F, 0.0, atol=1e-14)
        assert np.allclose(form.f, 0.0, atol=1e-14)

    @pytest.mark.parametrize("build", [edyn_sphere_space, nonaut_space,
                                       quartic_space])
    def test_antisymmetric_and_routes(self, build):
        sp = build()
        for z in random_points(2):
            form = em_form(sp, z)
            assert np.allclose(form.F, -form.F.T, atol=1e-12)
            assert np.allclose(form.f, 0.0, atol=1e-12)
            assert form.route_residual < 1e-9

    def test_electrodynamics_closed_form(self):
        # F_(i)j = (1/8)[U_(j)i - U_(i)j] = -(1/4) * curl for the
        # antisymmetric curl convention used here
        sp = edyn_sphere_space()
        for z in random_points(3):
            tf = potential_curl(sp, z)
            form = em_form(sp, z)
            assert np.allclose(form.F, 0.125 * (tf.T - tf), atol=1e-6)

    def test_flat_potential_value(self):
        form = em_form(edyn_flat_space(), GEN_Z)
        assert abs(form.F[0, 1] - 0.25) < 1e-10


# ---------------------------------------------------------------------------
# Maxwell residuals
# ---------------------------------------------------------------------------

def eq_worst(residuals):
    """The worst |entry| of each closure equation's residual array."""
    return {k: worst_residual([v]) for k, v in residuals.items()}


class TestMaxwell:
    def test_flat_zero(self):
        mw = maxwell_residuals(flat_space(), GEN_Z)
        worst = eq_worst(mw)
        assert all(v < 1e-12 for v in worst.values()), worst

    def test_electrodynamics_general_form(self):
        sp = edyn_sphere_space()
        for z in random_points(2):
            worst = eq_worst(maxwell_residuals(sp, z))
            assert all(v < 1e-6 for v in worst.values()), worst

    def test_electrodynamics_simple_form(self):
        # autonomous metric: the time equation closes on the mixed torsion
        # block alone and the cyclic sums lose their sources
        sp = edyn_sphere_space()
        for z in random_points(2):
            worst = eq_worst(maxwell_simple_residuals(sp, z))
            assert all(v < 1e-8 for v in worst.values()), worst

    def test_nonautonomous_within_budget(self):
        sp = nonaut_space()
        for z in random_points(2):
            worst = eq_worst(maxwell_residuals(sp, z))
            assert all(v < 1e-5 for v in worst.values()), worst

    def test_cyclic_equations_nonvacuous_n3(self):
        # both cyclic sums vanish identically for two spatial dimensions
        # (three cyclic indices over {1,2} always repeat one), so real
        # coverage needs n = 3 and a termwise-nonzero field derivative
        sp = mild3_space()
        z = GEN3_Z
        mw = maxwell_residuals(sp, z)
        form_scale = np.max(np.abs(em_form(sp, z).F))
        assert form_scale > 1e-2
        worst = eq_worst(mw)
        assert all(v < 1e-6 for v in worst.values()), worst

    def test_velocity_dependent_metric_source_factor(self):
        # the cyclic space equation only closes when the source tensor is
        # the undressed h^11 * dg/dy form; an extra h^11 dressing leaves a
        # structural residual near 2e-3 on this space, far above the
        # discretization floor asserted here
        sp = gen3_space()
        z = GEN3_Z
        geo = sp.geometry_at(z)
        tor = torsion(sp, z)
        y = z[sp.n + 1:]
        src = np.einsum("ilm,mjk,l->ijk", 0.5 * geo.Lyyy,
                        tor.R_ij, y)
        assert np.max(np.abs(src)) > 1e-3  # term actually contributes
        worst = eq_worst(maxwell_residuals(sp, z))
        assert worst["eq2"] < 1e-10, worst
        assert worst["eq1"] < 1e-9 and worst["eq3"] < 1e-10, worst


BUILTINS = ["sphere_l1", "electrodynamics_l2", "nonautonomous_l3"]


def _bits(a) -> bytes:
    return a.tobytes() if isinstance(a, Dual) \
        else np.asarray(a, dtype=float).tobytes()


def _builtin_point(name):
    cfg = load_config(name)
    return cfg.space, sample_points(cfg.space, cfg.ranges, 1, seed=5)[0]


class TestDifferentiatedWork:
    """The field equations differentiate only what each identity reads."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_maxwell_builds_jets_at_its_base_point_only(self, monkeypatch,
                                                        name):
        sp, z = _builtin_point(name)
        jets = count_calls(monkeypatch, LagrangeSpace.connection_jets,
                           LagrangeSpace)
        maxwell_residuals(sp, z)
        assert len(jets) == 1

    @pytest.mark.parametrize("name", BUILTINS)
    def test_deflections_take_no_stencil(self, monkeypatch, name):
        # closed forms: no dual point and no finite difference
        sp, z = _builtin_point(name)
        levels = dual_levels(monkeypatch)
        stencils = count_calls(monkeypatch, numdiff.partial, numdiff)
        deflections(sp, z)
        assert levels == [] and stencils == []

    @pytest.mark.parametrize("name", BUILTINS)
    def test_mixed_torsion_is_minus_the_cartan_time_block(self, name):
        cfg = load_config(name)
        for z in sample_points(cfg.space, cfg.ranges, 3, seed=5):
            T_1j = torsion(cfg.space, z).T_1j
            Gt = cartan_connection(cfg.space, z).Gt
            assert T_1j.tobytes() == (-Gt).tobytes()


    # dual geometry computed on a cold space at one sphere_l1 point: the
    # connection jets and every covariant derivative at z share the one
    # first-order dual point seeded at z, built once; conservation
    # differentiates Ricci, which reads the jets at that dual point, so it
    # adds one nested point; the deflection route differentiates y alone
    @pytest.mark.parametrize("fn,levels", [
        (maxwell_residuals, [1]), (maxwell_simple_residuals, [1]),
        (deflection_identities, [1]), (deflection_route, []),
        (conservation_residuals, [1, 2])],
        ids=lambda v: v.__name__ if callable(v)
        else "-".join(map(str, v)) or "none")
    def test_dual_points_per_point(self, monkeypatch, fn, levels):
        sp, z = _builtin_point("sphere_l1")
        sp._geo_cache.clear()
        seen = dual_levels(monkeypatch)
        stencils = count_calls(monkeypatch, numdiff.partial, numdiff)
        fn(sp, z)
        assert sorted(seen) == [(level, d) for level in ("cartan", "geo",
                                                         "nonlinear")
                                for d in levels]
        assert stencils == []

    def test_conservation_builds_ricci_once_per_point(self, monkeypatch):
        # at the dual point only: its value part is Ricci at the base point
        sp, z = _builtin_point("sphere_l1")
        calls = count_calls(monkeypatch, fields.ricci_and_scalar, fields)
        conservation_residuals(sp, z)
        assert len(calls) == 1

    def test_covd_calls_its_field_once(self):
        sp, z = _builtin_point("sphere_l1")
        calls = []

        def fn(q):
            calls.append(q)
            return (q[1 + N:],)

        fields._covd(sp, z, [(SlotKind.VERT_UP,)], fn)
        assert len(calls) == 1 and isinstance(calls[0], Dual)

    @pytest.mark.parametrize("name", BUILTIN_CONFIGS)
    def test_value_parts_are_the_fields_bit_for_bit(self, monkeypatch, name):
        # every field an identity differentiates: the value part of its
        # dual evaluation is its own evaluation, at a float point and at a
        # first-order dual point alike (but for conservation's fields,
        # which read the connection jets: differentiated at a dual point
        # they would need partials beyond the order cap)
        sp, z = _builtin_point(name)
        covd, seen = fields._covd, []
        monkeypatch.setattr(fields, "_covd", lambda sp_, z_, sigs, fn:
                            seen.append(fn) or covd(sp_, z_, sigs, fn))
        for identity in (maxwell_residuals, maxwell_simple_residuals,
                         deflection_identities, deflection_route,
                         conservation_residuals):
            identity(sp, z)
        assert len(seen) == 5
        for q, fns in ((z, seen), (Dual(z, np.eye(len(z))), seen[:-1])):
            nl = canonical_nonlinear_connection(sp, q)
            for fn in fns:
                pairs = adapted_gradient(fn, q, nl)
                for (value, _), want in zip(pairs, fn(q), strict=True):
                    assert as_array(value).shape == as_array(want).shape
                    assert _bits(value) == _bits(want)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_tables_at_a_cold_point_compute_the_jets_once(self, monkeypatch,
                                                           name):
        # curvature reads torsion, and bianchi reads both and the jets
        sp, z = _builtin_point(name)
        computed = count_calls(monkeypatch, geometry.adapted_gradient,
                               geometry)
        torsion(sp, z)
        curvature(sp, z)
        bianchi_residuals(sp, z)
        assert len(computed) == 1

    def test_run_checks_computes_the_jets_once_per_point(self, monkeypatch):
        # electrodynamics_l2's default sample asks for the jets at the 40
        # float points of antisymmetry's prefix, which holds every smaller
        # budget's points, and at conservation's 4 first-order dual points
        cfg = load_config("electrodynamics_l2")
        points = sample_points(cfg.space, cfg.ranges, 100, cfg.seed)
        asked = set()
        jets = LagrangeSpace.connection_jets

        def recorded(self, point):
            asked.add(_point_array(point, self.n).tobytes())
            return jets(self, point)

        monkeypatch.setattr(LagrangeSpace, "connection_jets", recorded)
        computed = count_calls(monkeypatch, geometry.adapted_gradient,
                               geometry)
        run_checks(cfg.space, points, tolerances=cfg.tolerances,
                   gauge_seed=cfg.seed)
        assert len(computed) == len(asked) == 44

    @pytest.mark.parametrize("name", BUILTINS)
    def test_run_checks_takes_no_finite_difference(self, monkeypatch, name):
        cfg = load_config(name)
        points = sample_points(cfg.space, cfg.ranges, 4, seed=5)
        stencils = count_calls(monkeypatch, numdiff.partial, numdiff)
        run_checks(cfg.space, points)
        assert stencils == []


class TestSlotRuleOracle:
    """The slot rule against its corrections written out one einsum per
    slot, bit for bit, on spaces whose vertical block C is nonzero."""

    @pytest.mark.parametrize("build,z", [(quartic_space, GEN_Z),
                                         (gen3_space, GEN3_Z)])
    def test_connection_corrections_match_the_written_out_einsums(self, build,
                                                                  z):
        sp = build()
        assert np.max(np.abs(sp.geometry_at(z).cartan.C)) > 1e-3
        cur = curvature(sp, z)
        bianchi = bianchi_residuals(sp, z)
        got = ([cur.P_i1k, cur.P_ijk, bianchi["b1"], bianchi["b3"]]
               + _metricity_residuals(sp.geometry_at(z)))
        want = (list(curvature_P_oracle(sp, z))
                + list(bianchi_b1_b3_oracle(sp, z))
                + metricity_oracle(sp.geometry_at(z)))
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _jet_blocks(sp):
    """The point function of the connection jets: (Gt, L, C, N)."""
    def blocks(p):
        geo = sp.geometry_at(p)
        return geo.cartan.Gt, geo.cartan.L, geo.cartan.C, geo.N
    return blocks


def _einsum_definitions(sp, q) -> dict:
    """The contractions of the connection, curvature and Bianchi levels and
    of adapted_gradient's corrections at the point q (float or dual), from
    their einsum definitions; each level reads the engine's own inputs."""
    n = sp.n
    geo = sp.geometry_at(q)
    y, g_inv, dg_y = q[1 + n:], geo.g_inv, geo.dg_y
    dginv_y = -np.einsum("im,mlk,lj->ijk", g_inv, dg_y, g_inv)
    dB_y = (np.einsum("mkj,m->kj", geo.Lxyy, y) + geo.Lxy.T - geo.Lxy
            + geo.Ltyy + geo.Lyy * geo.H
            + 2.0 * geo.h_inv * geo.H * (np.einsum("klj,l->kj", dg_y, y)
                                         + geo.g))
    out = {"N": 0.25 * geo.h11 * (np.einsum("ikj,k->ij", dginv_y, geo.B)
                                  + g_inv @ dB_y)}

    def christoffel(A):
        sym = A + A.transpose((2, 1, 0)) - A.transpose((0, 2, 1))
        return 0.5 * np.einsum("im,jmk->ijk", g_inv, sym)

    del_t_g = geo.dg_t - np.einsum("ijm,m->ij", dg_y, geo.M)
    del_x_g = (geo.dg_x.transpose((1, 2, 0))
               - np.einsum("ijm,mk->ijk", dg_y, geo.N))
    out.update(Gt=0.5 * g_inv @ del_t_g, L=christoffel(del_x_g),
               C=christoffel(dg_y))

    jets, cart, tors, cur = geo.jets, geo.cartan, geo.torsion, geo.curvature
    Gt, L, C = cart.Gt, cart.L, cart.C
    dL, dC = jets.L.del_x, jets.C.d_y
    covC_x = np.transpose(cov_space_C(cart, jets.C.del_x), (0, 1, 3, 2))
    out.update(
        R_i1k=(jets.Gt.del_x - jets.L.del_t
               + np.einsum("mi,lmk->lik", Gt, L)
               - np.einsum("mik,lm->lik", L, Gt)
               + np.einsum("lim,mk->lik", C, tors.R_1j)),
        R_ijk=(dL - np.transpose(dL, (0, 1, 3, 2))
               + np.einsum("mij,lmk->lijk", L, L)
               - np.einsum("mik,lmj->lijk", L, L)
               + np.einsum("lim,mjk->lijk", C, tors.R_ij)),
        P_i1k=(jets.Gt.d_y - cov_time_C(cart, jets.C.del_t)
               + np.einsum("lim,mk->lik", C, tors.P_1)),
        P_ijk=(jets.L.d_y - covC_x
               + np.einsum("lim,mjk->lijk", C, tors.P_i)),
        S_ijk=(dC - np.transpose(dC, (0, 1, 3, 2))
               + np.einsum("mij,lmk->lijk", C, C)
               - np.einsum("mik,lmj->lijk", C, C)))

    term = (cur.R_i1k + cov_space_T1(cart, tors.T_1j, -jets.Gt.del_x)
            + np.einsum("lkm,mj->ljk", C, tors.R_1j))
    t2 = cur.R_ijk - np.einsum("lkm,mij->lijk", C, tors.R_ij)
    t3 = cur.P_ijk + covC_x + np.einsum("lkm,mjp->ljkp", C, tors.P_i)
    out.update(b1=term - np.transpose(term, (0, 2, 1)),
               b2=(t2 + np.transpose(t2, (0, 2, 3, 1))
                   + np.transpose(t2, (0, 3, 1, 2))),
               b3=t3 - np.transpose(t3, (0, 2, 1, 3)))

    # the corrections of the adapted derivatives of the blocks the jets read
    for name, a in zip("Gt L C N".split(), _jet_blocks(sp)(
            Dual(q, np.eye(len(q))))):
        d_y = a.tan[n + 1:]
        flat = d_y.reshape(n, -1)
        out[f"{name}/time"] = (np.einsum("m,mk->k", geo.M, flat)
                               .reshape(a.shape))
        out[f"{name}/space"] = (np.einsum("mi,mk->ik", geo.N, flat)
                                .reshape(d_y.shape))
    return out


def _engine_values(sp, q) -> dict:
    """The same arrays from the package; a correction is the plain partial
    less the adapted derivative adapted_gradient returns."""
    n = sp.n
    geo = sp.geometry_at(q)
    cur = geo.curvature
    out = {"N": geo.N, "Gt": geo.cartan.Gt, "L": geo.cartan.L,
           "C": geo.cartan.C, "R_i1k": cur.R_i1k, "R_ijk": cur.R_ijk,
           "P_i1k": cur.P_i1k, "P_ijk": cur.P_ijk, "S_ijk": cur.S_ijk,
           **bianchi_residuals(sp, q)}
    blocks = _jet_blocks(sp)
    pairs = adapted_gradient(blocks, q, geo)
    for name, a, (_, (d_t, d_x, _)) in zip(
            "Gt L C N".split(), blocks(Dual(q, np.eye(len(q)))), pairs):
        g = a.tan
        out[f"{name}/time"] = g[0] - d_t[..., 0]
        out[f"{name}/space"] = (g[1:n + 1]
                                - np.transpose(d_x, (a.ndim, *range(a.ndim))))
    return out


class TestProductsMatchEinsumDefinitions:
    """Each contraction the engine writes as a matrix product against its
    einsum definition, at a float point and, value and tangent, at a
    depth-1 dual point.  Checked where the vertical block C is nonzero and
    at n = 2 and 3: every builtin has C = 0 and n = 2, where a dropped
    transpose can hide."""

    @pytest.mark.parametrize("build,z", [(quartic_space, GEN_Z),
                                         (gen3_space, GEN3_Z)])
    @pytest.mark.parametrize("dual", [False, True], ids=["float", "dual"])
    def test_within_rounding_of_the_einsums(self, build, z, dual):
        sp = build()
        assert np.max(np.abs(sp.geometry_at(z).cartan.C)) > 1e-3
        q = Dual(z, np.eye(len(z))) if dual else z
        got, want = _engine_values(sp, q), _einsum_definitions(sp, q)
        assert got.keys() == want.keys()
        for key in want:
            a, b = got[key], want[key]
            parts = [(a.val, b.val), (a.tan, b.tan)] if dual else [(a, b)]
            for x, w in parts:
                assert x.shape == w.shape, key
                scale = max(1.0, float(np.max(np.abs(w))))
                assert np.max(np.abs(x - w)) <= 1e-13 * scale, key


class TestOneStencilOracle:
    """Each identity differentiates all of its fields at one dual point;
    every field comes back with the bits of its own derivative call.
    Checked on spaces whose vertical block C is nonzero: every builtin has
    C = 0, so check cannot see a field handed to the wrong term."""

    @pytest.mark.parametrize("build,z", [(quartic_space, GEN_Z),
                                         (gen3_space, GEN3_Z)])
    @pytest.mark.parametrize("fn,oracle", [
        (maxwell_residuals, maxwell_oracle),
        (deflection_identities, deflection_identities_oracle),
        (conservation_residuals, conservation_oracle)])
    def test_matches_one_call_per_field(self, build, z, fn, oracle):
        sp = build()
        assert np.max(np.abs(sp.geometry_at(z).cartan.C)) > 1e-3
        got, want = fn(sp, z), oracle(sp, z)
        if not isinstance(got, dict):
            got = {key: getattr(got, key) for key in want}
        assert got.keys() == want.keys()
        for key in want:
            a, b = np.asarray(got[key]), np.asarray(want[key])
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes(), key

    def test_field_of_the_wrong_shape_at_a_stencil_point(self):
        # right at the base point, one entry too long at the dual point: the
        # shape check runs wherever the field is evaluated
        sp, n = sphere_space(), N

        def fn(q):
            y = q[1 + n:]
            return y, (y if isinstance(q, np.ndarray) else q[n:])

        with pytest.raises(ValueError, match="field returned shape"):
            fields._covd(sp, SPHERE_Z, [(SlotKind.VERT_UP,)] * 2, fn)


# every builtin at a sampled point, and the two fixtures whose vertical
# block C is nonzero
ORACLE_SPACES = {**{name: (lambda name=name: _builtin_point(name))
                    for name in BUILTIN_CONFIGS},
                 "quartic": lambda: (quartic_space(), GEN_Z),
                 "gen3": lambda: (gen3_space(), GEN3_Z)}
FD_ROUTES = {"numdiff": numdiff.partial, "fd_partial": fd_partial}


def _agree(a, b, rel=1e-8):
    """a is within rel of b, relative to b's largest entry (at least 1)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape \
        and float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


class TestForwardModeOracle:
    """Forward-mode derivatives against the finite-difference oracles, the
    package's former stencil (numdiff) and the tests' own (fd_partial),
    each taken through the same derivative seam."""

    @pytest.mark.parametrize("route", FD_ROUTES)
    @pytest.mark.parametrize("space", ORACLE_SPACES)
    def test_connection_jets(self, monkeypatch, route, space):
        sp, z = ORACLE_SPACES[space]()
        exact = sp.connection_jets(z)
        monkeypatch.setattr(geometry, "adapted_gradient",
                            fd_adapted_gradient(FD_ROUTES[route]))
        fd = sp.connection_jets(z)
        for name, block, fd_block in zip(exact._fields, exact, fd,
                                         strict=True):
            for part, a, b in zip(block._fields, block, fd_block,
                                  strict=True):
                assert _agree(a, b), (name, part)

    @pytest.mark.parametrize("route", FD_ROUTES)
    @pytest.mark.parametrize("space", ORACLE_SPACES)
    @pytest.mark.parametrize("fn", [maxwell_residuals, deflection_identities,
                                    conservation_residuals])
    def test_field_derivatives(self, monkeypatch, route, space, fn):
        # every covariant derivative the identity takes, by forward mode
        # and then with its outer derivative by finite differences
        sp, z = ORACLE_SPACES[space]()
        covd, got = fields._covd, []
        monkeypatch.setattr(fields, "_covd",
                            lambda *args: got.append(covd(*args)) or got[-1])
        fn(sp, z)
        monkeypatch.setattr(fields, "adapted_gradient",
                            fd_adapted_gradient(FD_ROUTES[route]))
        fn(sp, z)
        exact, fd = got
        for i, (field, fd_field) in enumerate(zip(exact, fd, strict=True)):
            for kind, a, b in zip(("time", "space", "vert"), field, fd_field,
                                  strict=True):
                assert _agree(a, b), (i, kind)


class TestDomainEdges:
    """Forward mode reads the partials at the point itself, so a point
    near the edge of an expression's domain raises only where the
    expression's own partials do."""

    @pytest.mark.parametrize("x1", [1e-3, 2.5e-3])
    def test_no_domain_error_from_points_beside_the_base_point(self, x1):
        # x1^2.5 leaves its domain at x1 < 0, a finite-difference step away
        sp = LagrangeSpace(2, parse("(1 + x1^2.5)*y1^2 + y2^2", 2),
                           parse("1", 2))
        z = np.array([0.3, x1, 0.2, 0.7, 0.4])
        sp.geometry_at(z)
        cur = curvature(sp, z)
        for block in cur.cells().values():
            assert np.isfinite(block).all()
        for v in maxwell_residuals(sp, z).values():
            assert np.isfinite(v).all()
        for v in conservation_residuals(sp, z).values():
            assert np.isfinite(v).all()

    def test_a_pole_the_dual_level_reads_names_its_node(self, tmp_path,
                                                        capsys):
        # at t = 0 every partial geometry_at reads is defined, but
        # d^2/dt dx1 of x1*sqrt(t), which the derivatives read, has a pole
        src = "y1^2 + y2^2 + x1*sqrt(t)"
        sp = LagrangeSpace(2, parse(src, 2), parse("1", 2))
        z = np.array([0.0, 0.5, 0.2, 0.7, 0.4])
        sp.geometry_at(z)
        with pytest.raises(EvalDomainError, match=r"sqrt\(t\)"):
            curvature(sp, z)
        cfg = tmp_path / "pole.cfg"
        cfg.write_text(f'[problem]\nn = 2\nh11 = "1"\nlagrangian = "{src}"\n'
                       "[ranges]\nt = 0.0 0.0\nx1 = 0.1 1.0\nx2 = 0.1 1.0\n"
                       "y1 = 0.1 1.0\ny2 = 0.1 1.0\n")
        assert main(["check", "--config", str(cfg), "--points", "3"]) == 3
        assert "sqrt(t)" in capsys.readouterr().err


class TestVerticalSource:
    """The source tensor of maxwell's cyclic equation, h^11 dg_il/dy^m,
    which it reads as half the third vertical derivative of L."""

    def test_totally_symmetric(self):
        geo = gen3_space().geometry_at(GEN3_Z)
        c3 = 0.5 * geo.Lyyy
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.allclose(c3, np.transpose(c3, perm), atol=1e-12)

    def test_quadratic_family_vanishes(self):
        geo = nonaut_space().geometry_at(GEN_Z)
        assert np.allclose(0.5 * geo.Lyyy, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Ricci contractions and curvature scalars
# ---------------------------------------------------------------------------

class TestRicci:
    def test_flat_all_zero(self):
        ric = ricci_and_scalar(flat_space(), GEN_Z)
        for arr in (ric.R_i1, ric.R_ij, ric.P_i_j, ric.P_i1, ric.P_ij,
                    ric.S_ij):
            assert np.allclose(arr, 0.0, atol=1e-12)
        assert ric.Sc == 0.0

    def test_time_components_identically_zero(self):
        ric = ricci_and_scalar(quartic_space(), GEN_Z)
        assert ric.H11 == 0.0 and ric.H == 0.0
        assert ric.Sc == ric.R + ric.S

    def test_unit_sphere(self):
        sp = sphere_space()
        ric = ricci_and_scalar(sp, SPHERE_Z)
        g = sp.geometry_at(SPHERE_Z).g
        assert np.allclose(ric.R_ij, g, atol=1e-12)
        assert abs(ric.Sc - 2.0) < 1e-12
        assert np.allclose(ric.R_i1, 0.0, atol=1e-12)
        assert np.allclose(ric.S_ij, 0.0, atol=1e-14)

    def test_electrodynamics_reduction(self):
        # only the spatial block survives and equals the Ricci tensor of g
        sp = edyn_sphere_space()
        for z in random_points(3):
            ric = ricci_and_scalar(sp, z)
            expect = ricci_oracle(sp.g_fields, z)
            assert np.allclose(ric.R_ij, expect, atol=1e-6)
            assert np.allclose(ric.P_i_j, 0.0, atol=1e-8)
            assert np.allclose(ric.P_i1, 0.0, atol=1e-8)
            assert np.allclose(ric.P_ij, 0.0, atol=1e-8)
            assert np.allclose(ric.S_ij, 0.0, atol=1e-10)
            assert abs(ric.S) < 1e-10


# ---------------------------------------------------------------------------
# Einstein blocks and extracted sources
# ---------------------------------------------------------------------------

class TestEinstein:
    def test_flat_sources_vanish(self):
        rep = einstein_system(flat_space(), GEN_Z, kappa=2.5)
        for value in rep.stress.values():
            assert np.allclose(value, 0.0, atol=1e-12)

    def test_unit_sphere_spatial_source_vanishes(self):
        # two-sphere: R_ij = g and Sc = 2, so the spatial Einstein block
        # cancels exactly; mixed blocks vanish with the curvature
        rep = einstein_system(sphere_space(), SPHERE_Z, kappa=1.0)
        assert np.allclose(rep.stress["space-space"], 0.0, atol=1e-12)
        for key in ("space-time", "vert-time", "space-vert", "vert-space"):
            assert np.allclose(rep.e2[key], 0.0, atol=1e-8)
        assert rep.forced_zero == ("time-space", "time-vert")

    def test_electrodynamics_reduction(self):
        sp = edyn_sphere_space()
        z = SPHERE_Z
        rep = einstein_system(sp, z)
        geo = sp.geometry_at(z)
        g, h_inv = geo.g, geo.h_inv
        r_ij = ricci_oracle(sp.g_fields, z)
        r = float(np.trace(np.linalg.inv(g) @ r_ij))
        assert np.allclose(rep.e1_ij, r_ij - 0.5 * r * g, atol=1e-6)
        assert np.allclose(rep.e1_vert, -0.5 * r * h_inv * g, atol=1e-6)
        assert abs(rep.e1_tt - (-0.5 * r * 1.0)) < 1e-6
        for value in rep.e2.values():
            assert np.allclose(value, 0.0, atol=1e-8)

    def test_kappa_scales_sources(self):
        rep1 = einstein_system(sphere_space(), GEN_Z, kappa=1.0)
        rep4 = einstein_system(sphere_space(), GEN_Z, kappa=4.0)
        assert np.allclose(rep1.stress["vert-vert"],
                           4.0 * rep4.stress["vert-vert"], atol=1e-12)

    def test_invalid_kappa_rejected(self):
        for bad in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                einstein_system(flat_space(), GEN_Z, kappa=bad)


# ---------------------------------------------------------------------------
# conservation laws
# ---------------------------------------------------------------------------

def worst_law(res):
    return max(float(np.max(np.abs(np.atleast_1d(v)))) for v in res.values())


class TestConservation:
    def test_flat_zero(self):
        assert worst_law(conservation_residuals(flat_space(), GEN_Z)) < 1e-10

    def test_sphere(self):
        res = conservation_residuals(sphere_space(), SPHERE_Z)
        assert set(res) == {"law1", "law2", "law3"}
        assert worst_law(res) < 1e-8

    def test_electrodynamics_sphere(self):
        sp = edyn_sphere_space()
        for z in random_points(2):
            assert worst_law(conservation_residuals(sp, z)) < 1e-4

    def test_time_dependent_potentials_only(self):
        # h(t) and U(t, x) vary but the spatial metric does not: all three
        # divergence identities still close
        sp = mild3_space()
        assert worst_law(conservation_residuals(sp, GEN3_Z)) < 1e-4

    def test_time_dependent_metric_drift(self):
        # when dg/dt != 0 the first identity picks up the uncompensated
        # time drift of the curvature scalar: the right-hand traces vanish
        # here while the left side equals d/dt of Sc/2.  The residual is
        # reported as measured, not forced to zero.
        sp = nonaut_space()
        z = GEN_Z
        res = conservation_residuals(sp, z)
        drift = fd_partial(
            lambda w: 0.5 * ricci_and_scalar(sp, w).Sc, z, 0)
        assert abs(res["law1"]) > 1e-3
        assert abs(res["law1"] - drift) < 1e-6
        assert np.max(np.abs(res["law2"])) < 1e-8
        assert np.max(np.abs(res["law3"])) < 1e-8
