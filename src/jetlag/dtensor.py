"""Distinguished tensors on the 1-jet bundle J1(R, M).

A d-tensor is a dense array of components with one axis per index,
passed around with its signature, the tuple of its indices' slot kinds.
A slot kind is a family (temporal, spatial or vertical) and a variance
(up or down).  The kind alone decides what the index does, and each
rule below is written once, as one block per family:

- extent: 1 for a temporal slot, n for the others;
- a chart change: tau' for a temporal slot, A for a spatial one and
  A / tau' for a vertical one, with A^-T and the inverse power of tau'
  on a down slot;
- the correction in a covariant derivative: the connection block of the
  slot's family for that derivative kind, added on an up slot and
  subtracted on a down one.

The module also provides the adapted-basis derivatives, the package's
one derivative seam (``adapted_gradient``, forward mode on a dual point),
and the inhomogeneous chart laws of the sprays and the nonlinear
connection.
Everything here is pointwise and connection-agnostic: geometric content
(which connection, which metric) is supplied by the caller.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from jetlag.dual import (CONTRACT, Dual, as_array, base, depth, einsum, inv,
                         scalar)
from jetlag.expr import JetPoint, ScalarField, _point_array, evaluate_fields

__all__ = [
    "SlotKind",
    "NonlinearConnectionValue",
    "CartanCoefficients",
    "ChartMap",
    "ChartError",
    "adapted_gradient",
    "add_connection_terms",
    "transform_point",
    "transform_temporal_spray",
    "transform_spatial_spray",
    "transform_nonlinear",
    "transform_tensor",
]


class ChartError(Exception):
    """A chart map is unusable at the requested point (e.g. dt~/dt = 0)."""


class SlotKind(enum.Enum):
    """Kind of one index; the wire name is its family, then its variance."""

    TIME_UP = "TimeUp"
    TIME_DOWN = "TimeDown"
    SPACE_UP = "SpaceUp"
    SPACE_DOWN = "SpaceDown"
    VERT_UP = "VertUp"
    VERT_DOWN = "VertDown"

    def __init__(self, wire: str):
        self.is_up = wire.endswith("Up")
        self.family = wire.removesuffix("Up" if self.is_up else "Down").lower()

    def extent(self, n: int) -> int:
        return 1 if self.family == "time" else n


def _shape_for(signature, n: int) -> tuple[int, ...]:
    return tuple(kind.extent(n) for kind in signature)


@dataclass(frozen=True)
class NonlinearConnectionValue:
    """Temporal coefficients M^i and spatial coefficients N^i_j at a point."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = as_array(self.M)
        N = as_array(self.N)
        if M.ndim != 1 or N.shape != (M.shape[0], M.shape[0]):
            raise ValueError(f"inconsistent shapes M{M.shape}, N{N.shape}")
        if not (np.isfinite(base(M)).all() and np.isfinite(base(N)).all()):
            raise ValueError("connection coefficients must be finite")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    @property
    def n(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class CartanCoefficients:
    """Blocks of an h-normal linear connection: (H, G^k_j, L^i_jk, C^i_j(k)).

    H is the temporal coefficient, Gt the time block G^k_j, L the spatial
    block (symmetric in its two lower indices for metric connections), and
    C the vertical block (symmetric in j, k likewise).  The remaining five
    blocks of the full nine are determined by h-normality:
    vertical-time block = Gt - H * I, vertical-space = L, vertical-vertical = C.
    """

    H: float
    Gt: np.ndarray
    L: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        Gt = as_array(self.Gt)
        L = as_array(self.L)
        C = as_array(self.C)
        n = Gt.shape[0]
        if Gt.shape != (n, n) or L.shape != (n, n, n) or C.shape != (n, n, n):
            raise ValueError("inconsistent connection block shapes")
        object.__setattr__(self, "H", scalar(self.H))
        object.__setattr__(self, "Gt", Gt)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.Gt.shape[0]

    def vert_time(self) -> np.ndarray:
        """Coefficient block acting on vertical indices under the time derivative."""
        return self.Gt - self.H * np.eye(self.n)

    def slot_block(self, kind: str, family: str) -> np.ndarray:
        """The block correcting a slot of this family in a covariant
        derivative of this kind, derivative axis last."""
        if family == "time":
            return self.H * np.ones((1, 1, 1)) if kind == "time" \
                else np.zeros((1, 1, self.n))
        if kind == "time":
            return (self.Gt if family == "space"
                    else self.vert_time())[:, :, np.newaxis]
        return self.L if kind == "space" else self.C


# ---------------------------------------------------------------------------
# adapted and covariant derivatives
# ---------------------------------------------------------------------------


_KINDS = ("time", "space", "vert")


def adapted_gradient(fn, z, nl) -> list:
    """Adapted derivatives of the point function fn, which returns a tuple
    of arrays, at z: per array, the pair (its value at z, [time, space,
    vert] derivatives), each derivative with its axis last, of 'time'
    d/dt - M^j d/dy^j (an axis of extent 1), 'space' d/dx^i - N^j_i d/dy^j
    and 'vert' d/dy^i; nl is any object with the arrays M and N at z.

    Forward mode: fn is called once, at z seeded with the identity tangent
    (a ``jetlag.dual.Dual``; z may be one already, which nests); each
    array's value part is its value at z and its plain partials are its
    tangent.  So fn must be dual-transparent: it builds its arrays from
    the dual point with the operations ``jetlag.dual`` lists (arithmetic,
    @, indexing, einsum, ...), never through ``float()`` or
    ``np.array([...])`` of entries; an array without the point's tangent
    raises a TypeError naming the contract.  The corrections are plain
    einsums, which round every entry by itself, so an array's bits do not
    depend on the arrays beside it.
    """
    n = (len(z) - 1) // 2
    point = Dual(z, np.eye(len(z)))
    pairs = []
    for a in fn(point):
        if depth(a) != point.depth:
            raise TypeError(f"adapted_gradient: fn returned a "
                            f"{type(a).__name__} without the point's "
                            f"tangent; {CONTRACT}")
        g = a.tan
        d_y = g[n + 1:]
        flat = d_y.reshape(n, -1)
        d_t = (g[0] - einsum("m,mk->k", nl.M, flat)
               .reshape(a.shape))[np.newaxis]
        d_x = (g[1:n + 1] - einsum("mi,mk->ik", nl.N, flat)
               .reshape(g[1:n + 1].shape))
        last = (*range(1, a.ndim + 1), 0)    # the derivative axis last
        pairs.append((a.val, [d.transpose(last) for d in (d_t, d_x, d_y)]))
    return pairs


_EINSUM_LETTERS = "abcdefghij"


def add_connection_terms(derivs: np.ndarray, arr: np.ndarray, signature,
                         cartan: CartanCoefficients, kind: str) -> np.ndarray:
    """Covariant derivative from the adapted one: derivs (derivative axis
    last) of the components arr, plus the connection correction of each
    slot in turn, in slot order.  A slot takes its family's block for the
    derivative kind, added on an up slot and subtracted on a down one:

    kind 'time'  : time slots H, spatial slots Gt, vertical slots Gt - H*I;
    kind 'space' : time slots 0, spatial and vertical slots L;
    kind 'vert'  : time slots 0, spatial and vertical slots C.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'time', 'space' or 'vert'; got {kind!r}")
    rank = len(signature)
    if rank >= len(_EINSUM_LETTERS):
        raise ValueError("tensor rank too large")
    base = _EINSUM_LETTERS[:rank]
    out = derivs
    for ax, slot in enumerate(signature):
        in_sub = base[:ax] + "z" + base[ax + 1:]
        K = cartan.slot_block(kind, slot.family)
        if slot.is_up:
            out = out + einsum(f"{in_sub},{base[ax]}zp->{base}p", arr, K)
        else:
            out = out - einsum(f"{in_sub},z{base[ax]}p->{base}p", arr, K)
    return out


# ---------------------------------------------------------------------------
# chart maps and gauge transformation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartMap:
    """Reparametrization t~ = tau(t) plus an affine spatial map x~ = A x + c.

    ``t_map`` must reference only the time variable and have nonvanishing
    derivative wherever the chart is used.  ``t_inverse``, when supplied,
    is tau^-1 written in the same DSL (as a function of its single time
    argument); it is only needed to re-express a Lagrange space in the new
    chart, never for forward transformation of values.  The laws read
    tau, tau' and tau'' through ``t_jet``, one fused evaluation.
    """

    t_map: ScalarField
    A: np.ndarray
    c: np.ndarray
    t_inverse: ScalarField | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or c.shape != (A.shape[0],):
            raise ValueError(f"bad affine map shapes A{A.shape}, c{c.shape}")
        if abs(np.linalg.det(A)) < 1e-12:
            raise ValueError("spatial map matrix A must be invertible")
        bad = self.t_map.variables() - {0}
        if bad:
            raise ValueError("t_map must depend only on t")
        if self.t_inverse is not None:
            bad = self.t_inverse.variables() - {0}
            if bad:
                raise ValueError("t_inverse must depend only on t")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A_inv", inv(A))
        # tau' leads the group, so that its domain error is the one raised
        dt = (1,) + (0,) * (2 * self.t_map.n)
        tprime = self.t_map.differentiate(dt)
        object.__setattr__(self, "_t_fields", (tprime, self.t_map,
                                               tprime.differentiate(dt)))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def t_jet(self, t: float) -> tuple:
        """(tau, tau', tau'') at t, from one fused evaluation; ChartError
        where tau' is zero or not finite."""
        z = np.zeros(2 * self.t_map.n + 1)
        z[0] = t
        tp, tau, ts = evaluate_fields(self._t_fields, z)
        if tp == 0.0 or not math.isfinite(tp):
            raise ChartError(f"dt~/dt = {tp} at t = {t}")
        return tau, tp, ts


def transform_point(chart: ChartMap, point) -> JetPoint:
    n = chart.n
    z = _point_array(point, n)
    tau, tp, _ = chart.t_jet(float(z[0]))
    x_new = chart.A @ z[1:n + 1] + chart.c
    y_new = (chart.A @ z[n + 1:]) / tp
    return JetPoint(tau, tuple(x_new), tuple(y_new))


def transform_temporal_spray(H: np.ndarray, chart: ChartMap, point) -> np.ndarray:
    """Inhomogeneous law for the temporal spray coefficients H^k."""
    z = _point_array(point, chart.n)
    _, tp, ts = chart.t_jet(float(z[0]))
    Ay = chart.A @ z[chart.n + 1:]
    return (chart.A @ np.asarray(H)) / tp**2 + Ay * ts / (2.0 * tp**3)


def transform_spatial_spray(G: np.ndarray, chart: ChartMap, point) -> np.ndarray:
    """Law for the spatial spray coefficients G^k; affine spatial maps make
    the inhomogeneous term vanish, leaving the tensorial part."""
    _, tp, _ = chart.t_jet(float(_point_array(point, chart.n)[0]))
    return (chart.A @ np.asarray(G)) / tp**2


def transform_nonlinear(nl: NonlinearConnectionValue, chart: ChartMap, point
                        ) -> NonlinearConnectionValue:
    """Laws for nonlinear connection coefficients (M^j, N^j_k)."""
    z = _point_array(point, chart.n)
    _, tp, ts = chart.t_jet(float(z[0]))
    Ay = chart.A @ z[chart.n + 1:]
    M_new = (chart.A @ nl.M) / tp**2 + Ay * ts / tp**3
    N_new = (chart.A @ nl.N @ chart.A_inv) / tp
    return NonlinearConnectionValue(M_new, N_new)


def _apply_matrix(arr: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    moved = np.moveaxis(arr, axis, 0)
    return np.moveaxis(np.tensordot(mat, moved, axes=(1, 0)), 0, axis)


def transform_tensor(components: np.ndarray, signature, chart: ChartMap,
                     point) -> np.ndarray:
    """Pure slot-by-slot tensorial transformation of the components of a
    d-tensor of the given signature."""
    arr = np.array(components, dtype=float)
    if arr.shape != _shape_for(signature, chart.n):
        raise ValueError(f"components shape {arr.shape} does not match "
                         f"the signature's {_shape_for(signature, chart.n)}")
    _, tp, _ = chart.t_jet(float(_point_array(point, chart.n)[0]))
    # family -> (up, down) slot rule: (matrix or None, power of tp)
    rules = {"time": ((None, 1), (None, -1)),
             "space": ((chart.A, 0), (chart.A_inv.T, 0)),
             "vert": ((chart.A, -1), (chart.A_inv.T, 1))}
    for ax, slot in enumerate(signature):
        mat, power = rules[slot.family][0 if slot.is_up else 1]
        if mat is not None:
            arr = _apply_matrix(arr, ax, mat)
        if power:
            arr = arr * tp if power > 0 else arr / tp
    return arr
