"""Distinguished tensors on the 1-jet bundle.

A d-tensor value is a dense array whose axes are typed by slot kinds:
temporal slots have extent 1, spatial and vertical slots extent n, each in
covariant or contravariant flavor.  The module provides the adapted-basis
derivatives, the three covariant derivatives of an h-normal linear
connection, contraction and metric raising/lowering, and the chart
transformation rules (including the inhomogeneous spray/connection laws).

Everything here is pointwise and connection-agnostic: geometric content
(which connection, which metric) is supplied by the caller.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from jetlag.expr import JetPoint, ScalarField, _point_array
from jetlag.numdiff import gradient

__all__ = [
    "SlotKind",
    "DTensorValue",
    "DTensorField",
    "NonlinearConnectionValue",
    "CartanCoefficients",
    "ChartMap",
    "ChartError",
    "delta_t",
    "delta_x",
    "adapted_derivative",
    "covariant_derivative",
    "contract",
    "raise_slot",
    "lower_slot",
    "gauge_transform",
    "transform_point",
    "transform_temporal_spray",
    "transform_spatial_spray",
    "transform_nonlinear",
    "transform_tensor",
]


class ChartError(Exception):
    """A chart map is unusable at the requested point (e.g. dt~/dt = 0)."""


class SlotKind(enum.Enum):
    TIME_UP = "TimeUp"
    TIME_DOWN = "TimeDown"
    SPACE_UP = "SpaceUp"
    SPACE_DOWN = "SpaceDown"
    VERT_UP = "VertUp"
    VERT_DOWN = "VertDown"

    @property
    def is_up(self) -> bool:
        return self in (SlotKind.TIME_UP, SlotKind.SPACE_UP, SlotKind.VERT_UP)

    @property
    def family(self) -> str:
        if self in (SlotKind.TIME_UP, SlotKind.TIME_DOWN):
            return "time"
        if self in (SlotKind.SPACE_UP, SlotKind.SPACE_DOWN):
            return "space"
        return "vert"

    def extent(self, n: int) -> int:
        return 1 if self.family == "time" else n

    @property
    def flipped(self) -> "SlotKind":
        table = {
            SlotKind.TIME_UP: SlotKind.TIME_DOWN,
            SlotKind.TIME_DOWN: SlotKind.TIME_UP,
            SlotKind.SPACE_UP: SlotKind.SPACE_DOWN,
            SlotKind.SPACE_DOWN: SlotKind.SPACE_UP,
            SlotKind.VERT_UP: SlotKind.VERT_DOWN,
            SlotKind.VERT_DOWN: SlotKind.VERT_UP,
        }
        return table[self]


def _shape_for(signature, n: int) -> tuple[int, ...]:
    return tuple(kind.extent(n) for kind in signature)


@dataclass(frozen=True)
class DTensorValue:
    """Dense components of a d-tensor at one point."""

    signature: tuple[SlotKind, ...]
    components: np.ndarray
    n: int

    def __post_init__(self):
        sig = tuple(self.signature)
        object.__setattr__(self, "signature", sig)
        arr = np.asarray(self.components, dtype=float)
        expected = _shape_for(sig, self.n)
        if arr.shape != expected:
            raise ValueError(f"components shape {arr.shape} != {expected} for signature")
        if not np.all(np.isfinite(arr)):
            raise ValueError("d-tensor components must be finite")
        object.__setattr__(self, "components", arr)

    @property
    def rank(self) -> int:
        return len(self.signature)

    def to_json_dict(self) -> dict:
        return {
            "signature": [kind.value for kind in self.signature],
            "shape": list(self.components.shape),
            "components": [float(v) for v in self.components.reshape(-1)],
        }

    @classmethod
    def from_json_dict(cls, data: dict, n: int) -> "DTensorValue":
        sig = tuple(SlotKind(name) for name in data["signature"])
        arr = np.array(data["components"], dtype=float).reshape(data["shape"])
        return cls(sig, arr, n)


class DTensorField:
    """A pure map from jet points to d-tensor components of fixed signature."""

    def __init__(self, signature, n: int, fn):
        self.signature = tuple(signature)
        self.n = int(n)
        self._fn = fn
        self._shape = _shape_for(self.signature, self.n)

    def components_at(self, point) -> np.ndarray:
        out = np.asarray(self._fn(_point_array(point, self.n)), dtype=float)
        if out.shape != self._shape:
            raise ValueError(f"field returned shape {out.shape}, expected {self._shape}")
        return out

    def __call__(self, point) -> DTensorValue:
        return DTensorValue(self.signature, self.components_at(point), self.n)


@dataclass(frozen=True)
class NonlinearConnectionValue:
    """Temporal coefficients M^i and spatial coefficients N^i_j at a point."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        N = np.asarray(self.N, dtype=float)
        if M.ndim != 1 or N.shape != (M.shape[0], M.shape[0]):
            raise ValueError(f"inconsistent shapes M{M.shape}, N{N.shape}")
        if not (np.isfinite(M).all() and np.isfinite(N).all()):
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
        Gt = np.asarray(self.Gt, dtype=float)
        L = np.asarray(self.L, dtype=float)
        C = np.asarray(self.C, dtype=float)
        n = Gt.shape[0]
        if Gt.shape != (n, n) or L.shape != (n, n, n) or C.shape != (n, n, n):
            raise ValueError("inconsistent connection block shapes")
        object.__setattr__(self, "H", float(self.H))
        object.__setattr__(self, "Gt", Gt)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.Gt.shape[0]

    def vert_time(self) -> np.ndarray:
        """Coefficient block acting on vertical indices under the time derivative."""
        return self.Gt - self.H * np.eye(self.n)

    def symmetry_residual(self) -> float:
        """Max asymmetry of L and C in their two lower indices."""
        rl = np.max(np.abs(self.L - np.swapaxes(self.L, 1, 2)))
        rc = np.max(np.abs(self.C - np.swapaxes(self.C, 1, 2)))
        return float(np.max([rl, rc]))   # keeps a NaN, unlike the builtin max


# ---------------------------------------------------------------------------
# point plumbing
# ---------------------------------------------------------------------------


def _value_at(thing, z):
    """Allow connection inputs to be fixed values or point functions."""
    return thing(z) if callable(thing) else thing


# ---------------------------------------------------------------------------
# adapted and covariant derivatives
# ---------------------------------------------------------------------------


def delta_t(dt, dy, M):
    """Adapted time derivative d/dt - M^j d/dy^j from the plain partials.

    dt is d/dt of some components, dy[j] their d/dy^j (new axis first).
    """
    return dt - np.tensordot(M, dy, axes=(0, 0))


def delta_x(dx, dy, N):
    """Adapted spatial derivatives d/dx^i - N^j_i d/dy^j from the plain
    partials dx[i], dy[j]; index i first.  N may hold only some columns i,
    matching the rows of dx."""
    return dx - np.tensordot(N.T, dy, axes=(1, 0))


def _adapted_partials(field: DTensorField, z, nlv, kind: str,
                      i=None) -> np.ndarray:
    """Adapted derivatives of the field components, derivative axis first.

    kind 'time' gives the single time row; 'space' and 'vert' give every
    spatial (vertical) direction, or only direction i when it is given.
    """
    n = field.n
    y_axes = list(range(n + 1, 2 * n + 1))
    if kind == "vert":
        axes = y_axes if i is None else [1 + n + i]
        return gradient(field.components_at, z, axes)
    if kind == "time":
        grads = gradient(field.components_at, z, [0] + y_axes)
        return delta_t(grads[0], grads[1:], nlv.M)[np.newaxis]
    x_axes = list(range(1, n + 1)) if i is None else [1 + i]
    grads = gradient(field.components_at, z, x_axes + y_axes)
    N = nlv.N if i is None else nlv.N[:, i:i + 1]
    return delta_x(grads[:len(x_axes)], grads[len(x_axes):], N)


_DIRECTION_KINDS = {"T": "time", "M": "space", "V": "vert"}


def adapted_derivative(field: DTensorField, point, nl,
                       direction) -> DTensorValue:
    """Componentwise adapted-basis derivative of a d-tensor field.

    Directions: 'T' for d/dt - M^j d/dy^j, ('M', i) for d/dx^i - N^j_i d/dy^j,
    ('V', i) for the plain d/dy^i.  No connection corrections are applied;
    the result keeps the field's signature.
    """
    if direction in ("T", ("T",)):
        kind, i = "time", None
    elif isinstance(direction, tuple) and len(direction) == 2 \
            and direction[0] in ("M", "V"):
        kind, i = _DIRECTION_KINDS[direction[0]], int(direction[1])
    else:
        raise ValueError(f"direction must be 'T', ('M', i) or ('V', i); "
                         f"got {direction!r}")
    z = _point_array(point, field.n)
    out = _adapted_partials(field, z, _value_at(nl, z), kind, i)
    return DTensorValue(field.signature, out[0], field.n)


_EINSUM_LETTERS = "abcdefghij"


def _slot_corrections(arr: np.ndarray, signature, blocks: dict, n: int) -> np.ndarray:
    """Sum of per-slot connection corrections; new derivative axis is last."""
    rank = len(signature)
    if rank >= len(_EINSUM_LETTERS):
        raise ValueError("tensor rank too large")
    base = _EINSUM_LETTERS[:rank]
    total = None
    for ax, slot in enumerate(signature):
        K = blocks[slot.family]
        if K is None:
            continue
        in_sub = base[:ax] + "z" + base[ax + 1 :]
        out_sub = base + "p"
        if slot.is_up:
            term = np.einsum(f"{in_sub},{base[ax]}zp->{out_sub}", arr, K)
        else:
            term = -np.einsum(f"{in_sub},z{base[ax]}p->{out_sub}", arr, K)
        total = term if total is None else total + term
    if total is None:
        extent = blocks["__extent__"]
        total = np.zeros(arr.shape + (extent,))
    return total


def covariant_derivative(field: DTensorField, point, cartan, nl,
                         kind: str) -> DTensorValue:
    """Covariant derivative of a d-tensor field under an h-normal connection.

    kind 'time'  : D -> D_{/1};      appends a TimeDown slot (extent 1).
    kind 'space' : D -> D_{|p};      appends a SpaceDown slot.
    kind 'vert'  : D -> D_{|(1)(p)}; appends a VertDown slot.

    Correction blocks per slot family:
    time slots get (H, 0, 0), spatial slots (Gt, L, C), vertical slots
    (Gt - H*I, L, C) for the three kinds respectively; contravariant slots
    add, covariant slots subtract.
    """
    n = field.n
    z = _point_array(point, n)
    cart = _value_at(cartan, z)
    nlv = _value_at(nl, z)
    arr = field.components_at(z)
    if kind == "time":
        blocks = {
            "time": np.full((1, 1, 1), cart.H),
            "space": cart.Gt[:, :, np.newaxis],
            "vert": cart.vert_time()[:, :, np.newaxis],
            "__extent__": 1,
        }
        new_slot = SlotKind.TIME_DOWN
    elif kind in ("space", "vert"):
        K = cart.L if kind == "space" else cart.C
        blocks = {"time": np.zeros((1, 1, n)), "space": K, "vert": K,
                  "__extent__": n}
        new_slot = SlotKind.SPACE_DOWN if kind == "space" else SlotKind.VERT_DOWN
    else:
        raise ValueError(f"kind must be 'time', 'space' or 'vert'; got {kind!r}")

    base = np.moveaxis(_adapted_partials(field, z, nlv, kind), 0, -1)
    out = base + _slot_corrections(arr, field.signature, blocks, n)
    return DTensorValue(field.signature + (new_slot,), out, n)


# ---------------------------------------------------------------------------
# contraction and metric raising/lowering
# ---------------------------------------------------------------------------


def contract(value: DTensorValue, slot_up: int, slot_down: int) -> DTensorValue:
    """Trace one contravariant slot against one covariant slot."""
    sig = value.signature
    up, down = sig[slot_up], sig[slot_down]
    if slot_up == slot_down:
        raise ValueError("cannot contract a slot with itself")
    if not up.is_up or down.is_up:
        raise ValueError(f"need (up, down) variance, got ({up.value}, {down.value})")
    if up.extent(value.n) != down.extent(value.n):
        raise ValueError("contracted slots must have equal extent")
    arr = np.trace(value.components, axis1=slot_up, axis2=slot_down)
    new_sig = tuple(k for i, k in enumerate(sig) if i not in (slot_up, slot_down))
    return DTensorValue(new_sig, arr, value.n)


def _apply_matrix(arr: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    moved = np.moveaxis(arr, axis, 0)
    return np.moveaxis(np.tensordot(mat, moved, axes=(1, 0)), 0, axis)


def lower_slot(value: DTensorValue, axis: int, g: np.ndarray | None = None,
               h11: float | None = None) -> DTensorValue:
    """Lower one contravariant slot with the appropriate metric block.

    Temporal slots use h11, spatial slots g_ij, vertical slots h^11 g_ij.
    """
    slot = value.signature[axis]
    if not slot.is_up:
        raise ValueError(f"slot {axis} is already covariant")
    arr = value.components
    if slot.family == "time":
        if h11 is None:
            raise ValueError("lowering a temporal slot needs h11")
        arr = arr * h11
    elif slot.family == "space":
        if g is None:
            raise ValueError("lowering a spatial slot needs g")
        arr = _apply_matrix(arr, axis, np.asarray(g, dtype=float))
    else:
        if g is None or h11 is None:
            raise ValueError("lowering a vertical slot needs g and h11")
        arr = _apply_matrix(arr, axis, np.asarray(g, dtype=float) / h11)
    sig = list(value.signature)
    sig[axis] = slot.flipped
    return DTensorValue(tuple(sig), arr, value.n)


def raise_slot(value: DTensorValue, axis: int, g_inv: np.ndarray | None = None,
               h11: float | None = None) -> DTensorValue:
    """Raise one covariant slot; inverse blocks of :func:`lower_slot`."""
    slot = value.signature[axis]
    if slot.is_up:
        raise ValueError(f"slot {axis} is already contravariant")
    arr = value.components
    if slot.family == "time":
        if h11 is None:
            raise ValueError("raising a temporal slot needs h11")
        arr = arr / h11
    elif slot.family == "space":
        if g_inv is None:
            raise ValueError("raising a spatial slot needs g_inv")
        arr = _apply_matrix(arr, axis, np.asarray(g_inv, dtype=float))
    else:
        if g_inv is None or h11 is None:
            raise ValueError("raising a vertical slot needs g_inv and h11")
        arr = _apply_matrix(arr, axis, np.asarray(g_inv, dtype=float) * h11)
    sig = list(value.signature)
    sig[axis] = slot.flipped
    return DTensorValue(tuple(sig), arr, value.n)


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
    chart, never for forward transformation of values.
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
        object.__setattr__(self, "A_inv", np.linalg.inv(A))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def _t_eval(self, f: ScalarField, t: float) -> float:
        z = np.zeros(2 * f.n + 1)
        z[0] = t
        return f.evaluate(z)

    def t_new(self, t: float) -> float:
        return self._t_eval(self.t_map, t)

    def t_old(self, t_tilde: float) -> float:
        if self.t_inverse is None:
            raise ChartError("this chart map has no t_inverse")
        return self._t_eval(self.t_inverse, t_tilde)

    def tprime(self, t: float) -> float:
        idx = (1,) + (0,) * (2 * self.t_map.n)
        v = self._t_eval(self.t_map.differentiate(idx), t)
        if v == 0.0 or not math.isfinite(v):
            raise ChartError(f"dt~/dt = {v} at t = {t}")
        return v

    def tsecond(self, t: float) -> float:
        idx = (2,) + (0,) * (2 * self.t_map.n)
        return self._t_eval(self.t_map.differentiate(idx), t)


def transform_point(chart: ChartMap, point) -> JetPoint:
    n = chart.n
    z = _point_array(point, n)
    t = float(z[0])
    tp = chart.tprime(t)
    x_new = chart.A @ z[1:n + 1] + chart.c
    y_new = (chart.A @ z[n + 1:]) / tp
    return JetPoint(chart.t_new(t), tuple(x_new), tuple(y_new))


def transform_temporal_spray(H: np.ndarray, chart: ChartMap, point) -> np.ndarray:
    """Inhomogeneous law for the temporal spray coefficients H^k."""
    z = _point_array(point, chart.n)
    t = float(z[0])
    tp = chart.tprime(t)
    ts = chart.tsecond(t)
    Ay = chart.A @ z[chart.n + 1:]
    return (chart.A @ np.asarray(H)) / tp**2 + Ay * ts / (2.0 * tp**3)


def transform_spatial_spray(G: np.ndarray, chart: ChartMap, point) -> np.ndarray:
    """Law for the spatial spray coefficients G^k; affine spatial maps make
    the inhomogeneous term vanish, leaving the tensorial part."""
    tp = chart.tprime(float(_point_array(point, chart.n)[0]))
    return (chart.A @ np.asarray(G)) / tp**2


def transform_nonlinear(nl: NonlinearConnectionValue, chart: ChartMap, point
                        ) -> NonlinearConnectionValue:
    """Laws for nonlinear connection coefficients (M^j, N^j_k)."""
    z = _point_array(point, chart.n)
    t = float(z[0])
    tp = chart.tprime(t)
    ts = chart.tsecond(t)
    Ay = chart.A @ z[chart.n + 1:]
    M_new = (chart.A @ nl.M) / tp**2 + Ay * ts / tp**3
    N_new = (chart.A @ nl.N @ chart.A_inv) / tp
    return NonlinearConnectionValue(M_new, N_new)


def transform_tensor(value: DTensorValue, chart: ChartMap, point) -> DTensorValue:
    """Pure slot-by-slot tensorial transformation of a d-tensor value."""
    tp = chart.tprime(float(_point_array(point, chart.n)[0]))
    arr = value.components.copy()
    for ax, slot in enumerate(value.signature):
        if slot is SlotKind.TIME_UP:
            arr = arr * tp
        elif slot is SlotKind.TIME_DOWN:
            arr = arr / tp
        elif slot is SlotKind.SPACE_UP:
            arr = _apply_matrix(arr, ax, chart.A)
        elif slot is SlotKind.SPACE_DOWN:
            arr = _apply_matrix(arr, ax, chart.A_inv.T)
        elif slot is SlotKind.VERT_UP:
            arr = _apply_matrix(arr, ax, chart.A) / tp
        else:  # VERT_DOWN
            arr = _apply_matrix(arr, ax, chart.A_inv.T) * tp
    return DTensorValue(value.signature, arr, value.n)


def gauge_transform(obj, chart: ChartMap, point=None):
    """Transform a geometric object into the chart's coordinates.

    Accepts a JetPoint (no base point needed), a NonlinearConnectionValue,
    a DTensorValue, or any spray-like object exposing Htemp/Gspat arrays.
    """
    if isinstance(obj, JetPoint):
        return transform_point(chart, obj)
    if point is None:
        raise ValueError("transforming values requires the base point")
    if isinstance(obj, NonlinearConnectionValue):
        return transform_nonlinear(obj, chart, point)
    if isinstance(obj, DTensorValue):
        return transform_tensor(obj, chart, point)
    if hasattr(obj, "Htemp") and hasattr(obj, "Gspat"):
        return type(obj)(
            Htemp=transform_temporal_spray(obj.Htemp, chart, point),
            Gspat=transform_spatial_spray(obj.Gspat, chart, point),
        )
    raise TypeError(f"cannot gauge-transform {type(obj).__name__}")
