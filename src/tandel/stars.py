"""Weighted Delaunay stars in tangent planes, and their union complex.

The star of a sample point p is computed inside the tangent plane
T_pM: every other site q is projected to chart coordinates u_q and
weighted by minus the squared norm of its normal component.  The power
cell of p in that weighted diagram is the polytope

    { t in R^m :  2 u_q . t  <=  |q - p|^2   for all q },

and each of its corners t* is equidistant (in ambient space) from p
and the sites tight at t*: the ball centred at c_p = p + B^T t* with
radius R_p = |t*| passes through them and contains no other site.
Corners therefore correspond exactly to the m-simplices of the star.

Cells are intersected with a bounding box, and the corners of the
result come from one Qhull halfspace intersection for every m (Barber,
Dobkin & Huhdanpaa, ACM TOMS 1996).  Corners supported by box
walls ("synthetic" corners) mark directions where the true cell runs
past the box, which on a compact manifold can only happen when the
sampling radius is violated there.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .errors import NeighborhoodTooSparse, SingularSystem, SparsityViolation
from .geometry import (
    ElementaryWeight,
    GammaClass,
    classify_gamma,
    edge_extremes,
    faces,
)
from .manifolds import Manifold, SampleSet, TangentChart, tangent_chart

COND_LIMIT = 1e12
# sites within PRUNE_MULT * epsilon of a base enter its first cell attempt
PRUNE_MULT = 8.0


@dataclass
class Star:
    """Star of one vertex: its cell corners and incident m-simplices.

    ``centers`` caches (c_p, R_p) per m-simplex (plus one entry for the
    full tight set of any degenerate corner).  ``corners`` holds the
    tangent coordinates of every cell corner; ``corner_simplex[i]`` is
    the simplex of corner i, or None for a synthetic (box-supported)
    corner, whose norm is then only a lower bound for the cell extent.
    """
    base: int
    chart: TangentChart
    centers: dict = field(default_factory=dict)
    simplices: set = field(default_factory=set)
    corners: np.ndarray = None
    corner_simplex: list = field(default_factory=list)

    def m_simplices(self):
        m = self.chart.manifold.m
        return [s for s in self.centers if len(s) == m + 1]

    def max_radius(self) -> float:
        """Largest corner norm, synthetic corners included; infinite
        for a star without corners, whose cell extent is unknown."""
        if self.corners is None or len(self.corners) == 0:
            return math.inf
        return float(np.sqrt((self.corners ** 2).sum(axis=1).max()))


def _site_arrays(p_idx, pts, neighbor_idx, chart):
    rel = pts[neighbor_idx] - pts[p_idx]
    u = rel @ chart.frame.basis.T
    b = (rel * rel).sum(axis=1)
    w2 = b - (u * u).sum(axis=1)
    return u, b, w2


# ===== corner extraction =====

def _cell_corners(u, b, box):
    """Corners of the cell {t : 2u.t <= b} inside the box [-box, box]^m.

    One Qhull halfspace intersection over the site rows and the 2m box
    walls.  t = 0 is the interior point: it is strictly inside every
    site row because each b > 0 (no site coincides with the base).

    Raises:
        SingularSystem: a site so close to the base, against the box,
            that Qhull fails or returns a corner at infinity.
    """
    m = u.shape[1]
    walls = np.full((m, 1), -float(box))
    eye = np.eye(m)
    halfspaces = np.vstack([np.column_stack([2.0 * u, -b]),
                            np.hstack([eye, walls]),
                            np.hstack([-eye, walls])])
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            corners = HalfspaceIntersection(
                halfspaces, np.zeros(m)).intersections
    except QhullError as exc:
        reason = str(exc).splitlines()[0]
    else:
        if np.isfinite(corners).all():
            return corners
        reason = "a corner at infinity"
    raise SingularSystem(
        f"power cell with its nearest site at distance "
        f"{np.sqrt(b.min()):.3g} in a box of {box:.3g}: {reason}")


def tangent_center(simplex, p: int, pts, chart: TangentChart):
    """Center on T_pM equidistant from all vertices of the simplex.

    Solves the equidistance system in chart coordinates; the center is
    returned in ambient coordinates together with its radius.

    Raises:
        SingularSystem: condition estimate of the system exceeds 1e12.
    """
    simplex = tuple(simplex)
    if p not in simplex:
        raise ValueError(f"{p} is not a vertex of {simplex}")
    others = [q for q in simplex if q != p]
    pts = np.asarray(pts, dtype=float)
    u, b, _ = _site_arrays(p, pts, others, chart)
    a_mat = 2.0 * u
    if len(others) == chart.manifold.m:
        cond = np.linalg.cond(a_mat)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularSystem(f"equidistance system cond={cond:.3e}")
        t = np.linalg.solve(a_mat, b)
    else:
        t, *_ = np.linalg.lstsq(a_mat, b, rcond=None)
        resid = np.abs(a_mat @ t - b).max()
        if resid > 1e-7 * max(1.0, np.abs(b).max()):
            raise SingularSystem(
                f"overdetermined equidistance residual {resid:.3e}")
    c = pts[p] + chart.frame.basis.T @ t
    return c, float(np.linalg.norm(t))


def _build_star(p, pts, tree, manifold, epsilon):
    m = manifold.m
    chart = tangent_chart(manifold, pts[p])
    prune_r = PRUNE_MULT * epsilon
    for _attempt in range(4):
        idx = np.array(sorted(
            i for i in tree.query_ball_point(pts[p], prune_r) if i != p),
            dtype=int)
        if len(idx) < m:
            raise NeighborhoodTooSparse(
                f"vertex {p} has {len(idx)} neighbors within {prune_r:.4g}")
        u, b, _w2 = _site_arrays(p, pts, idx, chart)
        if b.min() <= 0.0:
            raise SparsityViolation(
                f"sample points {p} and {idx[np.argmin(b)]} coincide")
        box = prune_r
        corners = _cell_corners(u, b, box)
        # tight sets per corner, in power units
        slack = b[None, :] - corners @ (2.0 * u).T
        tol = 1e-9 * max(float(b.max()), float((corners ** 2).sum(axis=1).max()))
        tights = [idx[np.abs(slack[i]) <= tol] for i in range(len(corners))]

        star = Star(base=p, chart=chart, corners=corners)
        ok = True
        seen = {}
        for i, tight in enumerate(tights):
            if len(tight) < m:
                star.corner_simplex.append(None)
                continue
            key = tuple(sorted(int(q) for q in tight))
            if key not in seen:
                c, r = tangent_center((p,) + key, p, pts, chart)
                # global emptiness: no site may be strictly inside
                d_min = float(tree.query(c)[0])
                if d_min < r * (1.0 - 1e-9):
                    if d_min >= prune_r - r:
                        # a site beyond the pruning radius interferes
                        ok = False
                        break
                    # tight site misclassified; treat corner as synthetic
                    seen[key] = None
                else:
                    seen[key] = (c, r)
            entry = seen[key]
            if entry is None:
                star.corner_simplex.append(None)
                continue
            full = tuple(sorted((p,) + key))
            star.corner_simplex.append(full)
            star.centers[full] = entry
            if len(key) > m:
                # degenerate corner: record every m-subset alongside the
                # full cospherical simplex
                for sub in itertools.combinations(key, m):
                    star.centers[tuple(sorted((p,) + sub))] = entry
        if not ok:
            prune_r *= 2.0
            continue
        if not star.m_simplices():
            raise NeighborhoodTooSparse(
                f"no {m}-simplex in the star of vertex {p}")
        for s in star.centers:
            for f in faces(s):
                if p in f:
                    star.simplices.add(f)
        return star
    raise NeighborhoodTooSparse(
        f"pruning radius for vertex {p} kept growing without closure")


def compute_star(p: int, sample: SampleSet, manifold: Manifold) -> Star:
    """Star of vertex p in the tangent-plane weighted Delaunay complex.

    The cell corners come from one halfspace intersection (Qhull) in
    any intrinsic dimension m.

    Raises:
        NeighborhoodTooSparse: no m-simplex exists around p, which
            signals that the claimed sampling radius does not hold.
        SparsityViolation: another sample point coincides with p.
    """
    pts = np.asarray(sample.points, dtype=float)
    tree = cKDTree(pts)
    return _build_star(p, pts, tree, manifold, sample.epsilon)


# ===== cosphericity stars =====

@dataclass
class CosphStar:
    """Almost-cospherical (m+1)-simplices seen from one vertex.

    Each entry pairs a simplex q * sigma^m (sigma^m in the star, with a
    small circumradius and good quality) with the elementary weight on
    q that would make q exactly cospherical with sigma^m's tangent ball.
    """
    base: int
    entries: list = field(default_factory=list)

    def simplices(self):
        return [s for s, _w in self.entries]


def _cosph_entries_for_center(cplx, sigma, c, r, delta0, gamma0, sites=None):
    """Entries tau = q * sigma seen through sigma's tangent ball (c, r).

    There are none unless sigma is a good m-simplex with r below the
    sampling radius.  A site q then gives an entry when its power gap
    |q - c|^2 - r^2 lies in [0, (delta0 * L(tau))^2], with
    L(tau) = min(L(sigma), min |q - sigma|); a gap down to -1e-9 r^2 is
    rounding of a site on the sphere and counts as 0.  ``sites``
    defaults to every sample point that can pass.
    """
    m = cplx.manifold.m
    if len(sigma) != m + 1 or r >= cplx.epsilon:
        return []
    if cplx.gamma_class(sigma, gamma0) is not GammaClass.GOOD:
        return []
    pts = cplx.points
    if sites is None:
        reach_out = r * (1.0 + delta0 ** 2) / (1.0 - delta0 ** 2) * (1.0 + 1e-9)
        sites = sorted(cplx.tree.query_ball_point(c, reach_out))
    sites = np.array([q for q in sites if q not in sigma], dtype=np.intp)
    site_pts = pts[sites]
    gap = ((site_pts - c) ** 2).sum(axis=1) - r * r
    # interference (a site inside the ball) would have been caught upstream
    outside = gap >= -1e-9 * max(r * r, 1e-30)
    if not outside.any():
        return []
    gap = np.maximum(gap, 0.0)
    ell_sigma, _ = edge_extremes(sigma, pts)
    dq = np.linalg.norm(site_pts[:, None, :] - pts[list(sigma)], axis=2)
    ell_tau = np.minimum(ell_sigma, dq.min(axis=1))
    # C pow, as the scalar (delta0 * ell) ** 2 was: ** 2 on an array
    # squares, which rounds differently in about one case in a thousand
    hit = outside & (gap <= np.float_power(delta0 * ell_tau, 2))
    return [(tuple(sorted(sigma + (q,))),
             ElementaryWeight(q, float(np.sqrt(g))))
            for q, g in zip(sites[hit].tolist(), gap[hit])]


def _merge_entries(best: dict, entries) -> bool:
    """Keep the smallest weight per tau in ``best``; True if it changed."""
    changed = False
    for tau, w in entries:
        if tau not in best or w.weight < best[tau].weight:
            best[tau] = w
            changed = True
    return changed


def cosph_star(p: int, delta0: float, cplx: "TangentialComplex",
               gamma0: float) -> CosphStar:
    """Entries tau = q * sigma^m that are almost cospherical at p.

    Scans every good m-simplex of St(p) whose tangent-ball radius is
    below the sampling radius, and every site q whose power gap against
    that ball is within delta0^2 * L(tau)^2.
    """
    if not 0.0 < delta0 < 0.25:
        raise ValueError("delta0 must lie in (0, 1/4)")
    best = {}
    for sigma, (c, r) in cplx.stars[p].centers.items():
        _merge_entries(best, _cosph_entries_for_center(
            cplx, sigma, c, r, delta0, gamma0))
    entries = [(tau, best[tau]) for tau in sorted(best)]
    return CosphStar(base=p, entries=entries)


# ===== the union complex =====

class TangentialComplex:
    """Union of the tangent-plane stars of every sample point."""

    def __init__(self, sample: SampleSet, manifold: Manifold):
        self.points = np.array(sample.points, dtype=float)
        self.epsilon = float(sample.epsilon)
        self.manifold = manifold
        self.tree = cKDTree(self.points)
        self.stars: dict[int, Star] = {}
        # max_radius() of every built star, in step with self.stars
        self.cell_radii = np.zeros(self.n_points)
        self._gamma_classes: dict = {}

    @property
    def n_points(self) -> int:
        return len(self.points)

    def _store_star(self, p: int) -> Star:
        star = _build_star(p, self.points, self.tree, self.manifold,
                           self.epsilon)
        self.stars[p] = star
        self.cell_radii[p] = star.max_radius()
        return star

    def build(self):
        for p in range(self.n_points):
            self._store_star(p)
        return self

    def recompute_star(self, p: int):
        return self._store_star(p)

    def gamma_class(self, simplex, gamma0: float) -> GammaClass:
        """``classify_gamma`` of a simplex of sample points, cached.

        Points are only ever appended, so a class never goes stale; the
        key is (simplex, gamma0).
        """
        key = (simplex, gamma0)
        got = self._gamma_classes.get(key)
        if got is None:
            got = classify_gamma(simplex, gamma0, self.points)
            self._gamma_classes[key] = got
        return got

    def simplices(self, max_dim: int | None = None) -> list:
        """All simplices of the complex (closure of the star union)."""
        out = set()
        for star in self.stars.values():
            for s in star.centers:
                for f in faces(s):
                    out.add(f)
        if max_dim is not None:
            out = {s for s in out if len(s) - 1 <= max_dim}
        return sorted(out, key=lambda s: (len(s), s))

    def m_simplices(self) -> list:
        m = self.manifold.m
        return [s for s in self.simplices(max_dim=m) if len(s) == m + 1]

    def consistency_report(self) -> dict:
        """Map m-simplex -> sorted list of its vertices whose stars miss it."""
        report = {}
        for s in self.m_simplices():
            missing = [v for v in s
                       if v in self.stars and s not in self.stars[v].centers]
            if missing:
                report[s] = missing
        return report

    def is_consistent(self) -> bool:
        return not self.consistency_report()

    # ---- incremental insertion ----

    def star_is_cut_by(self, p: int, x: np.ndarray) -> bool:
        """Exact test: does a site at x remove part of p's recorded cell?

        The cell is a polytope and the power difference against x is
        affine in t, so its minimum over the cell sits at a corner.
        """
        star = self.stars[p]
        base = self.points[star.base]
        rel = np.asarray(x, dtype=float) - base
        u_x = star.chart.frame.basis @ rel
        b_x = float(rel @ rel)
        if star.corners is None or len(star.corners) == 0:
            return True
        margin = b_x - 2.0 * (star.corners @ u_x)
        return bool(margin.min() <= 1e-9 * max(b_x, 1e-30))

    def insert_point(self, x) -> dict:
        """Append x and rebuild exactly the stars whose cells it cuts.

        x cuts the cell of p only if some corner t has
        2 u_x . t >= |x - p|^2 (1 - 1e-9) (``star_is_cut_by``), and
        |u_x| <= |x - p| with |t| <= rho_p = ``Star.max_radius()``, so
        only stars with |x - p| <= 2 rho_p can be cut (the factor
        1 + 1e-6 covers rounding).  Those candidates are tested with
        ``star_is_cut_by`` and the cut ones rebuilt; every other star is
        provably unchanged.  Returns the new vertex id, the rebuilt star
        ids, and the candidates that were left alone.  Cosph caches are
        the caller's.
        """
        x = np.asarray(x, dtype=float)
        new_idx = self.n_points
        self.points = np.vstack([self.points, x[None]])
        self.tree = cKDTree(self.points)
        reach = 2.0 * self.cell_radii * (1.0 + 1e-6)
        near = np.array(sorted(
            i for i in self.tree.query_ball_point(x, reach.max())
            if i != new_idx and i in self.stars), dtype=np.intp)
        dist = np.linalg.norm(self.points[near] - x, axis=1)
        recomputed = []
        untouched = []
        for p in near[dist <= reach[near]].tolist():
            if self.star_is_cut_by(p, x):
                self.recompute_star(p)
                recomputed.append(p)
            else:
                untouched.append(p)
        self.cell_radii = np.append(self.cell_radii, 0.0)
        self._store_star(new_idx)
        return {"index": new_idx, "recomputed": recomputed,
                "untouched": untouched}


def assemble_complex(sample: SampleSet,
                     manifold: Manifold) -> TangentialComplex:
    """Compute every star and return the union complex."""
    return TangentialComplex(sample, manifold).build()


# ===== export =====

def write_simplex_list(path, simplices):
    with open(path, "w") as fh:
        for s in sorted(simplices, key=lambda s: (len(s), s)):
            fh.write(" ".join(str(v) for v in s) + "\n")


def write_off(path, points, triangles):
    """OFF surface export (2-complex in R^3 only)."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != 3:
        raise ValueError("OFF export needs points in R^3")
    tris = [t for t in triangles if len(t) == 3]
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(points)} {len(tris)} 0\n")
        for row in points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        for t in tris:
            fh.write("3 " + " ".join(str(v) for v in t) + "\n")
