"""Coordinate-level simplex geometry in R^N.

Edge extremes, altitudes, thickness, circumspheres, face closures,
largest principal angles between subspaces, quality classification
against gamma0, and weighted centers for single-carrier weights.

Conventions used throughout:

* a simplex is a sorted tuple of vertex indices into a point array of
  shape (n, N); its combinatorial dimension is ``len(simplex) - 1`` and
  vertices are allowed to be affinely degenerate,
* ``L`` is the shortest edge length and ``Delta`` the longest (the
  diameter), both 0 for a single vertex,
* all rank/degeneracy decisions use a relative tolerance of 1e-9
  against the simplex diameter.
"""
from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, DimensionMismatch, NegativeSquaredRadius

REL_TOL = 1e-9


def as_simplex(vertices) -> tuple:
    """Normalize a vertex collection to a sorted index tuple."""
    out = tuple(sorted(int(v) for v in vertices))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate vertex indices in simplex {out}")
    return out


def simplex_points(simplex, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    idx = list(simplex)
    if idx and (min(idx) < 0 or max(idx) >= len(pts)):
        raise IndexError(f"vertex index out of range in {tuple(simplex)}")
    return pts[idx]


@dataclass(frozen=True)
class ElementaryWeight:
    """A weight assignment that is zero on every vertex except at most one.

    Attributes:
        carrier: global index of the vertex allowed a nonzero weight.
        weight: the nonnegative weight value (length units).
    """
    carrier: int
    weight: float = 0.0

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")

    def is_valid_for(self, simplex, pts, delta0: float) -> bool:
        """True when the weight is within the cap delta0 * L(simplex)."""
        if self.carrier not in simplex:
            return False
        ell, _ = edge_extremes(simplex, pts)
        return self.weight <= delta0 * ell


@dataclass(frozen=True)
class SphereSpec:
    center: np.ndarray
    radius: float


def check_orthonormal(bases: np.ndarray):
    """Check that one (k, N) basis, or every basis of a stack of them
    (..., k, N), has orthonormal rows.

    Raises:
        ValueError: the rows of some basis are not orthonormal at 1e-12.
    """
    gram = bases @ np.swapaxes(bases, -1, -2)
    if gram.size and np.abs(gram - np.eye(bases.shape[-2])).max() > 1e-12:
        raise ValueError("basis rows are not orthonormal at 1e-12")


class GammaClass(enum.Enum):
    GOOD = "good"
    FLAKE = "flake"
    BAD_NON_FLAKE = "bad-non-flake"


# ===== basic measures =====

@functools.lru_cache(maxsize=None)
def _combos(n: int, size: int) -> np.ndarray:
    """Read-only rows of ``itertools.combinations(range(n), size)``.

    The one k-subset table of the package; its pairs (size 2) come in
    ``np.triu_indices(n, 1)`` order.
    """
    out = np.array(list(itertools.combinations(range(n), size)),
                   dtype=np.intp).reshape(-1, size)
    out.flags.writeable = False
    return out


def _edge_lengths(verts: np.ndarray) -> np.ndarray:
    """Lengths of the k*(k-1)/2 edges of vertex arrays of shape (..., k, N)."""
    diff = verts[..., :, None, :] - verts[..., None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    iu, ju = _combos(verts.shape[-2], 2).T
    return d[..., iu, ju]


def edge_extremes(simplex, pts) -> tuple[float, float]:
    """Shortest and longest edge length (L, Delta) of a simplex.

    A single vertex has L = Delta = 0 by convention.
    """
    verts = simplex_points(simplex, pts)
    if len(verts) <= 1:
        return 0.0, 0.0
    edges = _edge_lengths(verts)
    return float(edges.min()), float(edges.max())


def _rank(s: np.ndarray, scale) -> np.ndarray:
    """Mask of the singular values in ``s`` above REL_TOL * scale; the
    rank is its count along the last axis.

    This is the one rank rule of the package; ``scale`` is the simplex
    diameter.
    """
    return s > REL_TOL * np.maximum(scale, 1e-300)


def _span_frame(vectors: np.ndarray, scale: float):
    """Orthonormal rows spanning the row space of ``vectors``.

    Returns (basis, rank); singular directions below REL_TOL * scale are
    dropped.  ``scale`` should be the simplex diameter.
    """
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    rank = int(_rank(s, scale).sum())
    return vt[:rank], rank


def affine_ranks(taus, pts) -> np.ndarray:
    """Affine rank of every simplex in ``taus``, an (n, k) index array.

    The rank is the one ``min_weighted_radius`` and ``circumsphere``
    test: singular values of ``verts[1:] - verts[0]`` above REL_TOL times
    the simplex diameter.  All rows share one stacked SVD, whose
    singular values equal those of per-simplex calls, so a row has rank
    ``k - 1`` here exactly when those functions accept the simplex.
    """
    taus = np.asarray(taus, dtype=np.intp)
    if taus.ndim != 2:
        raise ValueError("taus must be an (n, k) index array")
    n, k = taus.shape
    if n == 0 or k <= 1:
        return np.zeros(n, dtype=np.intp)
    verts = np.asarray(pts, dtype=float)[taus]
    delta = _edge_lengths(verts).max(axis=-1)
    # compute_uv=False gives singular values that differ in the last bits
    _, s, _ = np.linalg.svd(verts[:, 1:] - verts[:, :1], full_matrices=False)
    return _rank(s, delta[:, None]).sum(axis=-1)


def simplex_frame(simplex, pts) -> np.ndarray:
    """Orthonormal (k, N) basis of the directions of the simplex's affine
    hull, rank-reduced; the hull passes through ``pts[simplex[0]]``."""
    verts = simplex_points(simplex, pts)
    if len(verts) == 1:
        return np.zeros((0, verts.shape[1]))
    _, delta = edge_extremes(simplex, pts)
    return _span_frame(verts[1:] - verts[0], delta)[0]


def _altitudes(apex: np.ndarray, face: np.ndarray,
               delta: np.ndarray) -> np.ndarray:
    """Distance from each apex to the affine hull of its face, stacked.

    ``apex`` has shape (n, N), ``face`` (n, f, N) and ``delta`` holds the
    n simplex diameters, which set the rank cutoff of each face (unread
    for f = 1).
    """
    rel = apex - face[:, 0]
    if face.shape[1] > 1:
        # one SVD per face, all in one stacked call; zeroing the
        # directions below the rank cutoff equals dropping them
        _, s, vt = np.linalg.svd(face[:, 1:] - face[:, :1],
                                 full_matrices=False)
        vt = np.where(_rank(s, delta[:, None])[..., None], vt, 0.0)
        rel = rel - (np.swapaxes(vt, -1, -2) @ (vt @ rel[..., None]))[..., 0]
    # vecdot rounds like np.linalg.norm of one vector; (rel*rel).sum does not
    return np.sqrt(np.vecdot(rel, rel))


def _simplex_rows(taus, pts):
    """``taus`` as a checked (n, k) index array into ``pts``."""
    taus = np.asarray(taus, dtype=np.intp)
    if taus.ndim != 2:
        raise ValueError("taus must be an (n, k) index array")
    pts = np.asarray(pts, dtype=float)
    if taus.size and (taus.min() < 0 or taus.max() >= len(pts)):
        raise IndexError("vertex index out of range in taus")
    return taus, pts


def _thicknesses(verts: np.ndarray) -> np.ndarray:
    """``thickness`` of a stack of simplices, ``verts`` of shape (n, k, N)."""
    n, k, dim = verts.shape
    if k == 1:
        return np.ones(n)
    delta = _edge_lengths(verts).max(axis=-1)
    if k == 2:
        return np.where(delta == 0.0, 0.0, 1.0)
    face = verts[:, _combos(k, k - 1)[::-1]]  # row i: the face opposite i
    alt = _altitudes(verts.reshape(n * k, dim),
                     face.reshape(n * k, k - 1, dim),
                     np.repeat(delta, k)).reshape(n, k).min(axis=-1)
    scale = (k - 1) * np.where(delta == 0.0, 1.0, delta)
    return np.where(delta == 0.0, 0.0, alt / scale)


def altitude(v: int, simplex, pts) -> float:
    """Distance from vertex ``v`` to the affine hull of the opposite face.

    Zero when the opposite face's affine hull contains the vertex
    (degenerate configurations included).

    Raises:
        ValueError: if ``v`` is not a vertex of the simplex.
    """
    simplex = tuple(simplex)
    if v not in simplex:
        raise ValueError(f"{v} is not a vertex of {simplex}")
    if len(simplex) < 2:
        raise ValueError("altitude needs a simplex of dimension >= 1")
    verts = simplex_points(simplex, pts)
    i = simplex.index(v)
    delta = _edge_lengths(verts).max(keepdims=True)
    return float(_altitudes(verts[i:i + 1], np.delete(verts, i, axis=0)[None],
                            delta)[0])


def thicknesses(taus, pts) -> np.ndarray:
    """``thickness`` of every simplex of ``taus``, an (n, k) index array,
    in one stacked call; row i equals ``thickness(taus[i], pts)``."""
    taus, pts = _simplex_rows(taus, pts)
    return _thicknesses(pts[taus])


def thickness(simplex, pts) -> float:
    """Dimensionless quality: min altitude over (j * Delta), in [0, 1].

    1 for a single vertex; a j-simplex whose vertices all coincide gets 0
    (every altitude vanishes).  Any nondegenerate 1-simplex scores exactly 1.
    """
    return float(_thicknesses(simplex_points(simplex, pts)[None])[0])


# ===== circumspheres and weighted centers =====

def _full_rank_frame(vecs: np.ndarray, delta: float) -> np.ndarray:
    """Orthonormal basis of the hull directions ``vecs`` of a simplex
    with diameter ``delta``.

    Raises:
        DegenerateSimplex: when the rank falls below ``len(vecs)``.
    """
    basis, rank = _span_frame(vecs, delta)
    if rank < len(vecs):
        raise DegenerateSimplex(
            f"affine rank {rank} < combinatorial dimension {len(vecs)}")
    return basis


def _equidistance_solve(verts: np.ndarray, rhs: np.ndarray, delta: float):
    """Solve for the point of the vertex affine hull with prescribed
    power differences.

    The system is 2 (B v_i) . t = rhs_i in an orthonormal basis B of the
    hull directions v_i = verts[i] - verts[0].  Returns (t, basis).
    """
    vecs = verts[1:] - verts[0]
    basis = _full_rank_frame(vecs, delta)
    a = 2.0 * (vecs @ basis.T)
    try:
        t = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rank guard above
        raise DegenerateSimplex(str(exc)) from exc
    return t, basis


def circumsphere(simplex, pts) -> SphereSpec:
    """Smallest sphere through all vertices, for a nondegenerate simplex.

    The center lies in the affine hull of the simplex.  For a single
    vertex the sphere is the point itself with radius 0.

    Raises:
        DegenerateSimplex: when the equidistance system is rank-deficient
            at relative tolerance 1e-9 of the diameter.
    """
    verts = simplex_points(simplex, pts)
    if len(verts) == 1:
        return SphereSpec(verts[0].copy(), 0.0)
    _, delta = edge_extremes(simplex, pts)
    vecs = verts[1:] - verts[0]
    rhs = (vecs * vecs).sum(axis=1)
    t, basis = _equidistance_solve(verts, rhs, delta)
    center = verts[0] + basis.T @ t
    return SphereSpec(center, float(np.linalg.norm(t)))


def weighted_center(simplex, omega: ElementaryWeight, pts) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere with equal power at every vertex.

    The power of vertex p_i with weight w_i is |x - p_i|^2 - w_i^2; the
    returned center C is the unique point of the simplex's affine hull
    where all powers agree, and R = sqrt(common power).  With weight 0
    this reduces to the circumsphere.

    Raises:
        DegenerateSimplex: rank-deficient vertex configuration.
        NegativeSquaredRadius: the common power is negative, i.e. the
            weight is inconsistent with the simplex (reported, not clamped).
        ValueError: carrier is not a vertex of the simplex.
    """
    simplex = tuple(simplex)
    if omega.carrier not in simplex:
        raise ValueError(f"carrier {omega.carrier} not in simplex {simplex}")
    verts = simplex_points(simplex, pts)
    local = simplex.index(omega.carrier)
    w2 = float(omega.weight) ** 2
    if len(verts) == 1:
        if w2 > 0.0:
            raise NegativeSquaredRadius("positive weight on a single vertex")
        return verts[0].copy(), 0.0
    _, delta = edge_extremes(simplex, pts)
    vecs = verts[1:] - verts[0]
    rhs = (vecs * vecs).sum(axis=1)
    # rhs_i = |v_i|^2 - w_i^2 + w_0^2 with at most one nonzero weight
    if local == 0:
        rhs = rhs + w2
    else:
        rhs = rhs.copy()
        rhs[local - 1] -= w2
    t, basis = _equidistance_solve(verts, rhs, delta)
    center = verts[0] + basis.T @ t
    r2 = float(t @ t)
    if local == 0:
        r2 -= w2
    if r2 < 0.0:
        raise NegativeSquaredRadius(
            f"squared radius {r2:.3e} < 0 for weight {omega.weight} "
            f"on vertex {omega.carrier}")
    return center, float(np.sqrt(r2))


def min_weighted_radius(simplex, pts, delta0: float):
    """Minimum weighted radius over all single-carrier weights within cap.

    For each choice of carrier vertex the squared radius is a quadratic
    in s = weight^2, so the minimum over s in [0, (delta0 * L)^2] is
    attained at an endpoint or the parabola vertex; this evaluates all
    candidates in closed form.

    Returns:
        (r_min, ElementaryWeight) attaining the minimum.  A tiny negative
        squared radius from roundoff is clamped to zero (weights within
        the cap provably cannot reach zero radius).
    """
    simplex = tuple(simplex)
    verts = simplex_points(simplex, pts)
    j = len(verts) - 1
    ell, delta = edge_extremes(simplex, pts)
    if j == 0:
        return 0.0, ElementaryWeight(simplex[0], 0.0)
    vecs = verts[1:] - verts[0]
    rhs0 = (vecs * vecs).sum(axis=1)
    basis = _full_rank_frame(vecs, delta)
    a_mat = 2.0 * (vecs @ basis.T)
    lu_solve = np.linalg.solve  # small systems; direct solve per rhs
    t0 = lu_solve(a_mat, rhs0)
    s_max = (delta0 * ell) ** 2
    best = (float(t0 @ t0), 0.0, simplex[0])  # (r^2, s, carrier)
    for local, carrier in enumerate(simplex):
        d = np.ones(j) if local == 0 else np.zeros(j)
        if local > 0:
            d[local - 1] = -1.0
        t1 = lu_solve(a_mat, d)
        # r^2(s) = |t0 + s t1|^2 - s * [carrier is the base vertex]
        qa = float(t1 @ t1)
        qb = 2.0 * float(t0 @ t1) - (1.0 if local == 0 else 0.0)
        qc = float(t0 @ t0)
        cands = [0.0, s_max]
        if qa > 0.0:
            s_star = -qb / (2.0 * qa)
            if 0.0 < s_star < s_max:
                cands.append(s_star)
        for s in cands:
            r2 = qa * s * s + qb * s + qc
            if r2 < best[0]:
                best = (r2, s, carrier)
    r2, s, carrier = best
    return float(np.sqrt(max(r2, 0.0))), ElementaryWeight(carrier, float(np.sqrt(s)))


# ===== angles =====

def subspace_angle(bu: np.ndarray, bv: np.ndarray) -> float:
    """Largest principal angle between the row spans U of ``bu`` and V of
    ``bv``, two (k, N) bases, in radians.

    Measured as the worst angle a unit vector of U makes with its
    projection onto V; requires dim(U) <= dim(V).  Cosines come from the
    singular values of the cross-Gram matrix; for small angles the value
    is refined through the projection residual, which is numerically
    sharp near zero.

    Raises:
        DimensionMismatch: when dim(U) > dim(V).
        ValueError: the rows of a basis are not orthonormal at 1e-12.
    """
    check_orthonormal(bu)
    check_orthonormal(bv)
    if bu.shape[0] > bv.shape[0]:
        raise DimensionMismatch(
            f"dim(U)={bu.shape[0]} exceeds dim(V)={bv.shape[0]}")
    if bu.shape[0] == 0:
        return 0.0
    cross = bu @ bv.T
    cosines = np.linalg.svd(cross, compute_uv=False)
    cos_min = float(np.clip(cosines.min(), 0.0, 1.0))
    if cos_min < 0.7:
        return float(np.arccos(cos_min))
    resid = bu - cross @ bv
    sin_max = float(np.linalg.svd(resid, compute_uv=False).max())
    return float(np.arcsin(np.clip(sin_max, 0.0, 1.0)))


# ===== quality classification =====

def closure(simplices) -> frozenset:
    """Every nonempty face of the given sorted vertex tuples: the one face
    closure of the package.  The largest come first, so a simplex that is
    a face of one already walked skips its own walk."""
    closed = set()
    for simplex in sorted(set(simplices), key=len, reverse=True):
        if simplex not in closed:
            for k in range(1, len(simplex) + 1):
                closed.update(itertools.combinations(simplex, k))
    return frozenset(closed)


def gamma_classes(taus, pts, gamma0: float) -> list:
    """Class of every simplex of ``taus``, an (n, k) index array, against
    the quality threshold gamma0: the one implementation of the rule.

    GOOD when every i-face (i >= 1) has thickness >= gamma0**i; FLAKE
    when the simplex is not good but every proper face is; BAD_NON_FLAKE
    otherwise (such simplices always contain a flake face).  Edges count,
    so a simplex with coincident vertices is never GOOD.  One stacked
    thickness call per face size covers all rows.
    """
    if not 0.0 < gamma0 < 1.0:
        raise ValueError("gamma0 must be in (0, 1)")
    taus, pts = _simplex_rows(taus, pts)
    n, k = taus.shape
    proper_good = np.ones(n, dtype=bool)
    for size in range(2, k):
        combos = _combos(k, size)
        verts = pts[taus[:, combos]].reshape(n * len(combos), size,
                                             pts.shape[1])
        thick = _thicknesses(verts).reshape(n, len(combos))
        proper_good &= ~(thick < gamma0 ** (size - 1)).any(axis=1)
    self_good = _thicknesses(pts[taus]) >= gamma0 ** (k - 1)
    codes = np.where(proper_good, np.where(self_good, 0, 1), 2)
    members = list(GammaClass)  # GOOD, FLAKE, BAD_NON_FLAKE
    return [members[c] for c in codes.tolist()]


def classify_gamma(simplex, gamma0: float, pts) -> GammaClass:
    """``gamma_classes`` of one simplex."""
    return gamma_classes([tuple(simplex)], pts, gamma0)[0]


def flake_altitude_bound(k: int, delta: float, ell: float, gamma0: float) -> float:
    """Upper bound on any altitude of a k-dimensional flake:
    k * Delta^2 * gamma0 / ((k-1) * L).

    Raises:
        ValueError: for k < 2 or a nonpositive shortest edge.
    """
    if k < 2:
        raise ValueError("flakes have dimension at least 2")
    if ell <= 0:
        raise ValueError("shortest edge must be positive")
    return k * delta * delta * gamma0 / ((k - 1) * ell)
