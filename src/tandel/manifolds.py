"""Analytic submanifolds of R^N: tangent frames, projections, nets, and
a neighbourhood graph that approximates geodesic distances.

Four builtin manifolds are provided, each with closed-form reach,
closest-point projection, tangent/normal frames, and a chart inverse
(lift) that maps tangent coordinates back onto the manifold:

* ``UnitSphere(m, N)`` -- the unit m-sphere in the first m+1 coordinates,
* ``TorusOfRevolution(R, r)`` -- tube of radius r around a circle of
  radius R in the xy-plane of R^3,
* ``CliffordTorus(r)`` -- product of two circles of radius r in R^4,
* ``FlatPatch(m, N)`` -- the coordinate m-plane (infinite reach).

Everything is deterministic: samplers take explicit seeds, frames come
from closed-form parametrizations or SVD of fixed projectors.  A tangent
frame is a plain (m, N) array of orthonormal rows (``tangent_frames``
stacks them); the torus lifts recompute the angles of their base point
with the ``math`` calls that built its frame.
"""
from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import (
    EmptyInput,
    MedialAxisProximity,
    NoConvergence,
    OutOfChart,
    PointNotOnManifold,
)
from .geometry import check_orthonormal

ON_MANIFOLD_TOL = 1e-9
# a query this close to the medial axis (relative to reach) has no
# trustworthy unique foot point
MEDIAL_REL_TOL = 1e-6


@dataclass(frozen=True)
class SampleSet:
    """Points selected on a manifold with their claimed sampling radius."""
    points: np.ndarray
    epsilon: float
    sparsity: float


class Manifold:
    """Base class: subclasses fill in the closed-form geometry."""

    kind = "abstract"
    m: int
    N: int
    reach: float

    # ---- implicit membership ----

    def implicit_residual(self, x) -> float:
        raise NotImplementedError

    def contains(self, x, tol: float = ON_MANIFOLD_TOL) -> bool:
        return self.implicit_residual(np.asarray(x, dtype=float)) <= tol

    # ---- projections ----

    def medial_distance(self, x) -> float:
        """Distance from x to the medial axis (inf when there is none)."""
        raise NotImplementedError

    def _foot_point(self, x):
        raise NotImplementedError

    def _frames(self, points):
        """Frames at a stack of on-manifold points (n, N): tangent rows
        (n, m, N) and normal rows (n, N - m, N).  Angles come from
        ``math`` one row at a time, because ``np.arctan2`` and
        ``np.hypot`` can round differently."""
        raise NotImplementedError

    def _lift(self, base: np.ndarray, basis: np.ndarray,
              y: np.ndarray) -> np.ndarray:
        """The lift of y from the tangent frame basis at base; angles
        of base come from the ``math`` calls of ``_frames``."""
        raise NotImplementedError

    # ---- sampling ----

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n seeded quasi-uniform points on the manifold, shape (n, N)."""
        raise NotImplementedError

    def probe_points(self, n: int, seed: int, reference=None) -> np.ndarray:
        """Points used to estimate covering radii (default: fresh sample)."""
        return self.sample(n, seed)

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec_string()}>"


# ===== free-function operations =====

def closest_point(manifold: Manifold, x) -> np.ndarray:
    """Unique nearest point of the manifold to x.

    Raises:
        MedialAxisProximity: x is within reach * 1e-6 of the medial axis
            (or on a parametric singularity), where the foot point is
            ambiguous.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (manifold.N,):
        raise ValueError(f"expected a point of R^{manifold.N}")
    md = manifold.medial_distance(x)
    if math.isfinite(manifold.reach) and md <= manifold.reach * MEDIAL_REL_TOL:
        raise MedialAxisProximity(
            f"query at distance {md:.3e} from the medial axis")
    return manifold._foot_point(x)


def tangent_frames(manifold: Manifold, points, labels=None) -> np.ndarray:
    """Orthonormal tangent frames at every row of points, shape (n, m, N).

    One stacked frame build (``Manifold._frames``) whose rows do not
    depend on one another; the orthonormality of the tangent and normal
    frames and their mutual orthogonality are checked once over the
    whole stack.

    Raises:
        PointNotOnManifold: for the first row whose implicit residual
            exceeds 1e-9 or is NaN, named by its entry of ``labels``
            (by default, its row number).
    """
    points = np.asarray(points, dtype=float)
    for row, p in enumerate(points):
        resid = manifold.implicit_residual(p)
        if not resid <= ON_MANIFOLD_TOL:
            label = row if labels is None else labels[row]
            raise PointNotOnManifold(f"point {label}: residual {resid:.3e} "
                                     f"exceeds {ON_MANIFOLD_TOL}")
    if not len(points):
        return np.zeros((0, manifold.m, manifold.N))
    tan, nrm = manifold._frames(points)
    check_orthonormal(tan)
    check_orthonormal(nrm)
    if np.abs(tan @ np.swapaxes(nrm, 1, 2)).max() > 1e-10:
        raise ValueError("tangent and normal frames are not orthogonal")
    return tan


def lift_from_tangent(manifold: Manifold, base, basis, y,
                      max_radius: float | None = None):
    """Chart inverse: the manifold point that projects to tangent coords y
    in the tangent frame ``basis`` (an m x N array) at the manifold point
    ``base`` (an array of length N).

    The lift is guaranteed well-defined for |y| < reach/2 (the default
    cap); callers that have verified a wider validity radius may pass
    ``max_radius`` explicitly.

    Raises:
        OutOfChart: |y| at or beyond the cap, or beyond the closed-form
            validity of the inverse.
        NoConvergence: the iterative solve (torus) failed its budget.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (manifold.m,):
        raise ValueError(f"expected tangent coords of dimension {manifold.m}")
    cap = manifold.reach / 2.0 if max_radius is None else float(max_radius)
    r = float(np.linalg.norm(y))
    if r >= cap:
        raise OutOfChart(f"|y| = {r:.6g} >= cap {cap:.6g}")
    return manifold._lift(base, basis, y)


# ===== builtin manifolds =====

class UnitSphere(Manifold):
    """Unit m-sphere embedded in the first m+1 coordinates of R^N."""

    kind = "sphere"

    def __init__(self, m: int, N: int):
        if not 1 <= m < N or N < m + 1:
            raise ValueError("need 1 <= m < N")
        self.m = int(m)
        self.N = int(N)
        self.reach = 1.0

    def _split(self, x):
        return x[: self.m + 1], x[self.m + 1:]

    def implicit_residual(self, x):
        xb, rest = self._split(x)
        return max(abs(np.linalg.norm(xb) - 1.0),
                   float(np.linalg.norm(rest)) if rest.size else 0.0)

    def medial_distance(self, x):
        # medial axis: the subspace where the sphere block vanishes
        return float(np.linalg.norm(x[: self.m + 1]))

    def _foot_point(self, x):
        out = np.zeros(self.N)
        xb = x[: self.m + 1]
        out[: self.m + 1] = xb / np.linalg.norm(xb)
        return out

    def _frames(self, points):
        n, k = len(points), self.m + 1
        block = points[:, :k]
        # np.vecdot rounds as the 1-D np.linalg.norm (a dot) does
        pb = block / np.sqrt(np.vecdot(block, block))[:, None]
        proj = np.eye(k) - pb[:, :, None] * pb[:, None, :]
        u = np.linalg.svd(proj)[0]
        tan = np.zeros((n, self.m, self.N))
        tan[:, :, :k] = np.swapaxes(u[:, :, : self.m], 1, 2)
        nrm = np.zeros((n, self.N - self.m, self.N))
        nrm[:, 0, :k] = pb
        nrm[:, 1:, k:] = np.eye(self.N - k)
        return tan, nrm

    def _lift(self, base, basis, y):
        r2 = float(y @ y)
        if r2 >= 1.0:
            raise OutOfChart("tangent coords leave the projected hemisphere")
        return math.sqrt(1.0 - r2) * base + basis.T @ y

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        k = self.m + 1
        out = np.zeros((n, self.N))
        if self.m == 2:
            # stratified in height, uniform in azimuth
            z = -1.0 + 2.0 * (np.arange(n) + rng.uniform(0, 1, n)) / n
            phi = rng.uniform(0.0, 2.0 * np.pi, n)
            rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
            block = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
            block = block[rng.permutation(n)]
        else:
            g = rng.normal(size=(n, k))
            block = g / np.linalg.norm(g, axis=1, keepdims=True)
        out[:, :k] = block
        return out

    def spec_string(self):
        return f"sphere:m={self.m},N={self.N}"


class TorusOfRevolution(Manifold):
    """Tube of radius r around the circle of radius R in the xy-plane."""

    kind = "torus"
    m = 2
    N = 3

    def __init__(self, R: float = 2.0, r: float = 0.5):
        if not 0 < r < R:
            raise ValueError("need 0 < r < R")
        self.R = float(R)
        self.r = float(r)
        self.reach = min(self.r, self.R - self.r)

    def _params_of(self, p):
        rho = math.hypot(p[0], p[1])
        u = math.atan2(p[1], p[0])
        v = math.atan2(p[2], rho - self.R)
        return u, v

    def embed(self, u, v):
        ring = self.R + self.r * np.cos(v)
        return np.stack(
            [ring * np.cos(u), ring * np.sin(u), self.r * np.sin(v)], axis=-1)

    def implicit_residual(self, x):
        rho = math.hypot(x[0], x[1])
        return abs(math.hypot(rho - self.R, x[2]) - self.r)

    def medial_distance(self, x):
        rho = math.hypot(x[0], x[1])
        d_axis = rho
        d_core = math.hypot(rho - self.R, x[2])
        return min(d_axis, d_core)

    def _foot_point(self, x):
        return self.embed(*self._params_of(x))

    def _frames(self, points):
        cu, su, cv, sv = np.array(
            [(math.cos(u), math.sin(u), math.cos(v), math.sin(v))
             for u, v in map(self._params_of, points.tolist())]).T
        tan = np.zeros((len(points), 2, 3))
        tan[:, 0, 0], tan[:, 0, 1] = -su, cu
        tan[:, 1] = np.stack([-sv * cu, -sv * su, cv], axis=-1)
        nrm = np.stack([cv * cu, cv * su, sv], axis=-1)[:, None, :]
        return tan, nrm

    def _lift(self, base, basis, y):
        u0, v0 = self._params_of(base.tolist())
        ring0 = self.R + self.r * math.cos(v0)
        u, v = u0 + y[0] / ring0, v0 + y[1] / self.r
        for _ in range(100):
            g = basis @ (self.embed(u, v) - base) - y
            if float(np.linalg.norm(g)) <= 1e-12 * max(1.0, self.R):
                return self.embed(u, v)
            ring = self.R + self.r * math.cos(v)
            j_u = ring * np.array([-math.sin(u), math.cos(u), 0.0])
            j_v = self.r * np.array(
                [-math.sin(v) * math.cos(u), -math.sin(v) * math.sin(u),
                 math.cos(v)])
            jac = np.stack([basis @ j_u, basis @ j_v], axis=1)
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            if abs(det) < 1e-14:
                raise NoConvergence("singular chart-inverse jacobian")
            du = (jac[1, 1] * g[0] - jac[0, 1] * g[1]) / det
            dv = (-jac[1, 0] * g[0] + jac[0, 0] * g[1]) / det
            u -= du
            v -= dv
        raise NoConvergence("chart inverse did not converge in 100 steps")

    def sample(self, n, seed):
        """n seeded points, uniform in area: u is uniform and the tube
        angle v solves the area quantile equation F(v) = w by 40 Newton
        steps from a stratified w.

        A step is a function of the row's own v and w alone, so a row
        whose step returns its v bit for bit (a fixed point), or returns
        its v of two steps back (a 2-cycle), repeats itself to the last
        step.  Such a row is settled: its step-40 value is written at
        once (for a 2-cycle, the parity of the steps left picks one of
        the two values) and the remaining steps run on the other rows
        only, with the same arithmetic.  That argument also needs every
        ufunc to give an element the same result wherever it sits in
        its array; ``test_torus_sample_equals_fixed_step_reference``
        checks the output against all 40 steps on every row, bit for
        bit.
        """
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.0, 2.0 * np.pi, n)
        # stratified quantiles of the area-weighted tube angle
        w = (np.arange(n) + rng.uniform(0, 1, n)) / n
        w = w[rng.permutation(n)]
        v = 2.0 * np.pi * w - np.pi
        out = np.empty(n)
        rows = np.arange(n)
        prev = np.full(n, np.nan)  # no step returns NaN bits
        steps = 40
        for step in range(1, steps + 1):
            f = (self.R * (v + np.pi) + self.r * np.sin(v)) / (2 * np.pi * self.R)
            fp = (self.R + self.r * np.cos(v)) / (2 * np.pi * self.R)
            new = np.clip(v - (f - w) / fp, -np.pi, np.pi)
            bits = new.view(np.int64)
            settled = ((bits == v.view(np.int64))
                       | (bits == prev.view(np.int64)))
            # a fixed row has new == v, so either choice is its value
            last = new if (steps - step) % 2 == 0 else v
            out[rows[settled]] = last[settled]
            moving = ~settled
            rows, w, prev, v = rows[moving], w[moving], v[moving], new[moving]
        out[rows] = v
        return self.embed(u, out)

    def spec_string(self):
        return f"torus:R={self.R:g},r={self.r:g}"


class CliffordTorus(Manifold):
    """Product of two circles of radius r, living in R^4."""

    kind = "clifford"
    m = 2
    N = 4

    def __init__(self, r: float):
        if r <= 0:
            raise ValueError("need r > 0")
        self.r = float(r)
        self.reach = float(r)

    def implicit_residual(self, x):
        return max(abs(math.hypot(x[0], x[1]) - self.r),
                   abs(math.hypot(x[2], x[3]) - self.r))

    def medial_distance(self, x):
        return min(math.hypot(x[0], x[1]), math.hypot(x[2], x[3]))

    def _foot_point(self, x):
        n1 = math.hypot(x[0], x[1])
        n2 = math.hypot(x[2], x[3])
        return np.array([x[0] / n1, x[1] / n1, x[2] / n2, x[3] / n2]) * self.r

    def _params_of(self, p):
        return math.atan2(p[1], p[0]), math.atan2(p[3], p[2])

    def _frames(self, points):
        c1, s1, c2, s2 = np.array(
            [(math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2))
             for t1, t2 in map(self._params_of, points.tolist())]).T
        tan = np.zeros((len(points), 2, 4))
        nrm = np.zeros((len(points), 2, 4))
        tan[:, 0, 0], tan[:, 0, 1] = -s1, c1
        tan[:, 1, 2], tan[:, 1, 3] = -s2, c2
        nrm[:, 0, 0], nrm[:, 0, 1] = c1, s1
        nrm[:, 1, 2], nrm[:, 1, 3] = c2, s2
        return tan, nrm

    def _lift(self, base, basis, y):
        t1, t2 = self._params_of(base.tolist())
        cap = self.r * (1.0 - 1e-12)
        if abs(y[0]) >= cap or abs(y[1]) >= cap:
            raise OutOfChart("tangent coords leave the per-circle hemisphere")
        a1 = t1 + math.asin(y[0] / self.r)
        a2 = t2 + math.asin(y[1] / self.r)
        return self.r * np.array(
            [math.cos(a1), math.sin(a1), math.cos(a2), math.sin(a2)])

    def sample(self, n, seed):
        rng = np.random.default_rng(seed)
        t1 = 2.0 * np.pi * (np.arange(n) + rng.uniform(0, 1, n)) / n
        t1 = t1[rng.permutation(n)]
        t2 = rng.uniform(0.0, 2.0 * np.pi, n)
        return self.r * np.stack(
            [np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)], axis=1)

    def spec_string(self):
        return f"clifford:r={self.r:g}"


class FlatPatch(Manifold):
    """The coordinate m-plane in R^N; reach is infinite."""

    kind = "flat"

    def __init__(self, m: int, N: int):
        if not 1 <= m < N:
            raise ValueError("need 1 <= m < N")
        self.m = int(m)
        self.N = int(N)
        self.reach = math.inf

    def implicit_residual(self, x):
        return float(np.linalg.norm(x[self.m:]))

    def medial_distance(self, x):
        return math.inf

    def _foot_point(self, x):
        out = x.copy()
        out[self.m:] = 0.0
        return out

    def _frames(self, points):
        n = len(points)
        eye = np.eye(self.N)
        return (np.tile(eye[: self.m], (n, 1, 1)),
                np.tile(eye[self.m:], (n, 1, 1)))

    def _lift(self, base, basis, y):
        return base + basis.T @ y

    def sample(self, n, seed, extent: float = 1.0):
        """Jittered-grid points in [0, extent]^m (embedded)."""
        rng = np.random.default_rng(seed)
        g = max(1, math.ceil(n ** (1.0 / self.m)))
        cells = np.stack(np.meshgrid(*([np.arange(g)] * self.m),
                                     indexing="ij"), axis=-1).reshape(-1, self.m)
        take = rng.permutation(len(cells))[:n]
        coords = (cells[take] + rng.uniform(0, 1, (n, self.m))) * (extent / g)
        out = np.zeros((n, self.N))
        out[:, : self.m] = coords
        return out

    def probe_points(self, n, seed, reference=None):
        if reference is None:
            return self.sample(n, seed)
        ref = np.asarray(reference, dtype=float)
        lo = ref[:, : self.m].min(axis=0)
        hi = ref[:, : self.m].max(axis=0)
        rng = np.random.default_rng(seed)
        out = np.zeros((n, self.N))
        out[:, : self.m] = rng.uniform(lo, hi, (n, self.m))
        return out

    def spec_string(self):
        return f"flat:m={self.m},N={self.N}"


# per kind: the constructor and the type of each field it takes
_SPEC_KINDS = {
    "sphere": (UnitSphere, {"m": int, "N": int}),
    "torus": (TorusOfRevolution, {"R": float, "r": float}),
    "clifford": (CliffordTorus, {"r": float}),
    "flat": (FlatPatch, {"m": int, "N": int}),
}
# the fields a spec may leave out, and the values they then take
_SPEC_DEFAULTS = {"torus": {"R": 2.0, "r": 0.5}}


def parse_manifold(spec: str) -> Manifold:
    """Build a manifold from a spec string like "sphere:m=2,N=3".

    Raises:
        ValueError: naming the field, for a field the kind does not
            take, a repeated or missing field, or a value that is not a
            finite float (an int for m and N); or an unknown kind.
    """
    kind, _, rest = spec.strip().partition(":")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown manifold kind {kind!r}")
    cls, types = _SPEC_KINDS[kind]
    given = {}
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if key not in types:
            raise ValueError(f"manifold spec {spec!r} has unknown field "
                             f"{key!r}")
        if key in given:
            raise ValueError(f"manifold spec {spec!r} repeats field {key!r}")
        try:
            given[key] = types[key](val)
            finite = math.isfinite(given[key])
        except ValueError:
            finite = False
        if not finite:
            raise ValueError(f"manifold spec {spec!r} field {key!r} is not a "
                             f"finite {types[key].__name__}: {val!r}")
    args = {**_SPEC_DEFAULTS.get(kind, {}), **given}
    for key in types:
        if key not in args:
            raise ValueError(f"manifold spec {spec!r} missing field {key!r}")
    return cls(**args)


# ===== nets and covering =====

# The farthest-point scan keeps the input rows in KD-tree leaf order, in
# blocks of _NET_BLOCK rows and superblocks of _NET_SUPER blocks.
_NET_BLOCK = 64
_NET_SUPER = 32


def _box_gap(lo, hi, x):
    """Per coordinate, how far x lies outside each box [lo, hi]."""
    return np.maximum(np.maximum(lo - x, x - hi), 0.0)


def farthest_point_net(dense, eps: float, seed: int = 0) -> SampleSet:
    """Greedy farthest-point subsample: eps-sparse and covering the input.

    Starting from the (seed mod n)-th point, repeatedly adds the input
    point farthest from the current selection until that distance drops
    to eps (Gonzalez, TCS 1985).  Every selected point is > eps from the
    earlier ones and every input point ends within eps of the selection.
    Among points tied for farthest, the one with the smallest input
    index comes first, as ``np.argmax`` picks it.

    The rows sit in KD-tree leaf order, grouped into blocks of
    ``_NET_BLOCK`` rows and superblocks of ``_NET_SUPER`` blocks, each
    with its bounding box and the maximum of its distances to the
    selection.  The next point comes from those maxima.  Adding a point
    x can lower the distance of a row y only if |y - x| < dist[y], and
    dist[y] is at most the maximum m of y's block, while |y - x| is at
    least the distance g from x to the block's box.  So a superblock,
    and then a block, is updated only if g (1 - 1e-9) <= m; the factor
    covers rounding between g and the norms (rounding is monotone, so a
    coordinate's gap never exceeds its computed difference).  Updated
    rows take the minimum with norms computed as a full scan computes
    them, and a skipped row's minimum would have kept its value, so the
    net is the full scan's bit for bit.  Only the early steps, whose
    far is large, touch most blocks; once the selection spreads out a
    step scans the superblock maxima and the few blocks near x (Har-Peled
    & Mendel, SICOMP 2006).

    Raises:
        EmptyInput: no input points.
        ValueError: eps is negative or NaN, or an input row is not
            finite (either would make the loop run forever).
    """
    dense = np.asarray(dense, dtype=float)
    if dense.ndim != 2 or len(dense) == 0:
        raise EmptyInput("farthest_point_net needs at least one point")
    if not eps >= 0:
        raise ValueError(f"farthest_point_net needs eps >= 0, got {eps}")
    finite = np.isfinite(dense).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"input point {bad} is not finite: {dense[bad]}")
    n, dim = dense.shape
    start = int(seed) % n
    chosen = [start]
    dist = np.linalg.norm(dense - dense[start], axis=1)

    # rows in leaf order, padded to whole blocks with copies of the last
    # row, which keep the boxes and at distance -inf are never picked or
    # lowered; blocks padded to whole superblocks never pass a test
    n_block = -(-n // _NET_BLOCK)
    n_super = -(-n_block // _NET_SUPER)
    order = np.empty(n_block * _NET_BLOCK, dtype=np.intp)
    # only the leaf order is used, so the cheapest build will do
    order[:n] = cKDTree(dense, leafsize=_NET_BLOCK, balanced_tree=False,
                        compact_nodes=False).indices
    order[n:] = order[n - 1]
    rows = dense[order].reshape(n_block, _NET_BLOCK, dim)
    order = order.reshape(n_block, _NET_BLOCK)
    d = np.full(order.shape, -np.inf)
    d.ravel()[:n] = dist[order.ravel()[:n]]
    b_lo = np.empty((n_super * _NET_SUPER, dim))
    b_hi = np.empty_like(b_lo)
    b_max = np.full(len(b_lo), -np.inf)
    b_lo[:n_block], b_hi[:n_block] = rows.min(axis=1), rows.max(axis=1)
    b_lo[n_block:], b_hi[n_block:] = b_lo[n_block - 1], b_hi[n_block - 1]
    b_max[:n_block] = d.max(axis=1)
    s_lo = b_lo.reshape(n_super, _NET_SUPER, dim).min(axis=1)
    s_hi = b_hi.reshape(n_super, _NET_SUPER, dim).max(axis=1)
    by_super = b_max.reshape(n_super, _NET_SUPER)
    s_max = by_super.max(axis=1)
    blocks = np.arange(len(b_max)).reshape(n_super, _NET_SUPER)
    while True:
        far = s_max.max()
        if far <= eps:
            break
        blk = blocks[s_max == far].ravel()
        blk = blk[b_max[blk] == far]
        nxt = int(order[blk][d[blk] == far].min())
        chosen.append(nxt)
        x = dense[nxt]
        sup = s_max >= np.linalg.norm(
            _box_gap(s_lo, s_hi, x), axis=1) * (1 - 1e-9)
        blk = blocks[sup].ravel()
        blk = blk[b_max[blk] >= np.linalg.norm(
            _box_gap(b_lo[blk], b_hi[blk], x), axis=1) * (1 - 1e-9)]
        near = np.linalg.norm((rows[blk] - x).reshape(-1, dim), axis=1)
        cur = np.minimum(d[blk], near.reshape(-1, _NET_BLOCK))
        d[blk] = cur
        b_max[blk] = cur.max(axis=1)
        s_max[sup] = by_super[sup].max(axis=1)
    pts = dense[chosen]
    return SampleSet(points=pts, epsilon=float(eps),
                     sparsity=closest_pair(pts)[0])


def closest_pair(points) -> tuple[float, int, int]:
    """The smallest distance between two rows of points, and rows i < j
    at that distance, from one k = 2 nearest query; (inf, -1, -1) for
    fewer than two rows.  Repeated rows are at distance 0."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return math.inf, -1, -1
    gaps, nbrs = cKDTree(points).query(points, k=2)
    i = int(np.argmin(gaps[:, 1]))
    # with repeated rows the query may list i itself second
    j = int(nbrs[i, 1] if nbrs[i, 1] != i else nbrs[i, 0])
    return float(gaps[i, 1]), min(i, j), max(i, j)


def covering_radius_estimate(manifold: Manifold, points, n_probe: int = 4096,
                             seed: int = 0) -> float:
    """Seeded probe estimate of how far a manifold point can be from the set."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise EmptyInput("covering radius of an empty set")
    probes = manifold.probe_points(n_probe, seed, reference=points)
    d, _ = cKDTree(points).query(probes)
    return float(d.max())


# ===== geodesic distance oracle =====

@dataclass
class GeodesicGraph:
    """Neighborhood graph on a dense manifold sample.

    Shortest paths in the graph overestimate geodesic distances by an
    amount that shrinks with the edge radius h; tests that compare
    against it should allow roughly 2h of additive slack.
    """
    points: np.ndarray
    h: float
    matrix: sparse.csr_matrix
    tree: cKDTree = field(repr=False)


def build_geodesic_graph(manifold: Manifold, n_dense: int, seed: int = 0,
                         h: float | None = None) -> GeodesicGraph:
    pts = manifold.sample(n_dense, seed)
    if h is None:
        cov = covering_radius_estimate(manifold, pts, n_probe=min(4096, 4 * n_dense),
                                       seed=seed + 1)
        h = 3.0 * cov
    tree = cKDTree(pts)
    pairs = tree.query_pairs(h, output_type="ndarray")
    if len(pairs):
        w = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        mat = sparse.coo_matrix(
            (np.concatenate([w, w]),
             (np.concatenate([pairs[:, 0], pairs[:, 1]]),
              np.concatenate([pairs[:, 1], pairs[:, 0]]))),
            shape=(len(pts), len(pts))).tocsr()
    else:
        mat = sparse.csr_matrix((len(pts), len(pts)))
    return GeodesicGraph(points=pts, h=float(h), matrix=mat, tree=tree)


# ===== point I/O =====

# the bytes ``bytes.split()`` separates tokens at
_BLANK = np.zeros(256, dtype=bool)
_BLANK[list(b" \t\n\r\x0b\x0c")] = True


def _parse(data: bytes, dtype):
    """Every number of whitespace-separated text, or None when a token is
    not one (numpy then raises, or warns and stops reading)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(data, dtype=dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None


def _is_number(token: bytes, dtype) -> bool:
    words = token.split()
    # numpy reads a lone sign as an integer 0
    if len(words) != 1 or words[0] in (b"+", b"-"):
        return False
    values = _parse(words[0], dtype)
    return values is not None and len(values) == 1


def read_table(path, dtype, comma: bool = False):
    """The numbers of a text file, one row per line that holds any.

    ``#`` starts a comment, and tokens are separated by whitespace; with
    ``comma``, a line that holds a comma has its tokens separated by
    commas instead.  The whole text is parsed by one ``np.fromstring``
    call, which is checked to have read every token; the lines are
    looked at one by one only to name the line of a token that failed.

    Returns (values, widths, lines): the numbers in file order, the
    number of tokens of each row, and the file line (from 1) of each row.

    Raises:
        ValueError: naming ``path:line`` and the token, for a token that
            is not one number of ``dtype``.
    """
    with open(path) as fh:
        text = fh.read()
    if "#" in text:
        text = re.sub("#[^\n]*", "", text)
    data = text.encode()
    spaced = data.replace(b",", b" ") if comma else data
    raw = np.frombuffer(spaced, dtype=np.uint8)
    # blank[i] at padded[i + 1]; a token starts after a blank byte
    padded = np.concatenate(([True], _BLANK[raw], [True]))
    start = np.flatnonzero(padded[:-2] > padded[1:-1])
    newlines = np.flatnonzero(raw == ord("\n"))
    line_of = np.searchsorted(newlines, start)
    widths = np.bincount(line_of, minlength=len(newlines) + 1)
    values = _parse(spaced, dtype) if len(start) else np.zeros(0, dtype)
    first = raw[start]
    ok = (values is not None and len(values) == len(start)
          and not (((first == ord("+")) | (first == ord("-")))
                   & padded[start + 2]).any())
    if comma and ok and b"," in data:
        # a comma line has one comma between each two of its tokens
        at = np.flatnonzero(np.frombuffer(data, np.uint8) == ord(","))
        commas = np.bincount(np.searchsorted(newlines, at),
                             minlength=len(widths))
        seen = np.searchsorted(at, start)
        glued = ((line_of[1:] == line_of[:-1]) & (seen[1:] == seen[:-1])
                 & (commas[line_of[1:]] > 0))
        ok = bool(((commas == 0) | (widths == commas + 1)).all()
                  and not glued.any())
    if not ok:
        kind = "int" if np.issubdtype(dtype, np.integer) else "float"
        for ln, line in enumerate(data.split(b"\n"), 1):
            tokens = (line.split(b",") if comma and b"," in line
                      else line.split())
            for token in tokens:
                if not _is_number(token, dtype):
                    raise ValueError(f"{path}:{ln}: could not convert "
                                     f"string to {kind}: {token.decode()!r}")
        raise ValueError(f"{path}: could not read its numbers")
    rows = np.flatnonzero(widths)
    return values, widths[rows], rows + 1


def read_points(path) -> np.ndarray:
    """Read one point per line (whitespace- or comma-separated, # comments)
    into an (n, N) array, by ``read_table``.

    Raises:
        ValueError: naming ``path:line``, for a token that is not a
            number, a nan or infinite coordinate, or a row whose width
            differs from the first row's; the earliest line is named.
    """
    values, widths, lines = read_table(path, float, comma=True)
    if not len(widths):
        return np.zeros((0, 0))
    failures = []  # (line, message), a line's first failure first
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        i = np.searchsorted(np.cumsum(widths), bad[0], side="right")
        failures.append((lines[i], "non-finite coordinate"))
    wrong = np.flatnonzero(widths != widths[0])
    if len(wrong):
        i = wrong[0]
        failures.append((lines[i], f"{widths[i]} columns, the first row "
                                   f"has {widths[0]}"))
    if failures:
        line, message = min(failures, key=lambda f: f[0])
        raise ValueError(f"{path}:{line}: {message}")
    return values.reshape(len(widths), widths[0])


def write_points(path, points, header: str | None = None):
    points = np.asarray(points, dtype=float)
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for row in points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
