"""Weighted Delaunay stars in tangent planes, and their union complex.

The star of a sample point p is computed inside the tangent plane
T_pM, whose frame B is an (m, N) array of orthonormal rows: every other
site q is projected to u_q = B (q - p) and weighted by minus the squared
norm of its normal component.  The power cell of p in that weighted
diagram is the polytope

    { t in R^m :  2 u_q . t  <=  |q - p|^2   for all q },

and each of its corners t* is equidistant (in ambient space) from p
and the sites tight at t*: the ball centred at c_p = p + B^T t* with
radius R_p = |t*| passes through them and contains no other site.
Corners therefore correspond exactly to the m-simplices of the star.

Cells are intersected with a bounding box, and the corners of the
result come from one Qhull halfspace intersection for every m (Barber,
Dobkin & Huhdanpaa, ACM TOMS 1996).  Qhull finds which sites are tight
at each corner; a real corner is then stored as its equidistance
system's solution t*, the same value whichever route produced it.
Corners supported by box walls ("synthetic" corners) keep Qhull's
coordinates; they mark directions where the true cell runs past the
box, which on a compact manifold can only happen when the sampling
radius is violated there.

A star depends only on the sites within O(epsilon) of its vertex
(Boissonnat & Ghosh, DCG 2014), so stars are independent and are built
together: ``_build_stars`` takes a list of vertices (all of them for the
initial complex, the new one and the cut stars the clip cannot update
for an insertion) and runs rounds in which the ball queries, the
tangent frames, the equidistance solves and the emptiness queries are
one stacked call each, and the site arrays and their checks one stacked
pass per chunk of ``_SITE_CHUNK`` stars, while the Qhull cell, its
tight keys and the corner walk stay per star.  Each star comes out
bit-identical to building it alone, and a failing batch raises the
error of its first failing vertex.

An insertion changes a cell in one way only: it intersects the cell
with the new site's halfspace, the cavity step of incremental Delaunay
(Bowyer 1981; Watson 1981).  ``TangentialComplex.insert_point`` tests
all its candidate cells against the new site in one stack
(``_cells_cut_by``) and clips each simple cut cell (``_clip_stars``):
it keeps the corners on the site's side, adds one corner per crossing
edge, and checks the new corners' balls; a cut star the clip cannot
decide is rebuilt.  A clipped star is bitwise the star a rebuild makes,
up to the order of its corners.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .errors import (
    NeighborhoodTooSparse,
    PointNotOnManifold,
    SingularSystem,
    SparsityViolation,
    TandelError,
)
from .geometry import closure, simplex_blocks
from .manifolds import Manifold, SampleSet, tangent_frames

COND_LIMIT = 1e12
# sites within PRUNE_MULT * epsilon of a base enter its first cell attempt
PRUNE_MULT = 8.0
# stars per _site_arrays call: its product holds (sites of the chunk) x
# (_SITE_CHUNK * m) entries
_SITE_CHUNK = 8


@dataclass
class Star:
    """Star of one vertex: its cell corners and incident m-simplices.

    ``centers`` caches (c_p, R_p) per m-simplex (plus one entry for the
    full tight set of any degenerate corner).  ``corners`` holds the
    tangent coordinates of every cell corner; ``corner_simplex[i]`` is
    the simplex of corner i, or None for a synthetic (box-supported)
    corner, whose norm is then only a lower bound for the cell extent.
    A real corner is its simplex's solved tangent centre t, with
    c_p = p + B^T t and R_p = |t|, whether the star was built or
    clipped; a synthetic corner is where Qhull put it.  The order of the
    corners (and of ``centers``) depends on how the star was made, and
    no result depends on it.  ``frame`` is the (m, N) tangent frame B at
    the base point.
    """
    base: int
    frame: np.ndarray
    centers: dict = field(default_factory=dict)
    corners: np.ndarray = None
    corner_simplex: list = field(default_factory=list)

    def m_simplices(self):
        m = len(self.frame)
        return [s for s in self.centers if len(s) == m + 1]

    def max_radius(self) -> float:
        """Largest corner norm, synthetic corners included; infinite
        for a star without corners, whose cell extent is unknown."""
        if self.corners is None or len(self.corners) == 0:
            return math.inf
        return float(np.sqrt((self.corners ** 2).sum(axis=1).max()))


def _site_arrays(pts, bases, frames, balls):
    """Site rows of a chunk of at most ``_SITE_CHUNK`` stars, star after
    star, from one gather and one product.

    Star i has base p = ``bases[i]``, tangent frame B = ``frames[i]`` and
    the sites of ``balls[i]`` other than p, in the given order.  Each
    site q gives a row with u = B (q - p) and b = |q - p|^2.

    u is rel @ frames.reshape(-1, N).T, keeping each row's own m
    columns.  The frames are padded to ``_SITE_CHUNK`` and the product
    takes one zero row past the sites, so it is always the same
    matrix-matrix BLAS call, and a star's u does not depend on the other
    stars of its chunk.  For m >= 2 and at least two sites it is
    bit-identical to the one-star rel @ B.T (a single row or column
    would make numpy call a matrix-vector routine instead).

    Returns (idx, u, b, owner): the site id, u, b and star of every
    row; the rows of a star are contiguous.
    """
    k = len(bases)
    dim = pts.shape[1]
    m = frames.shape[1]
    lengths = [len(ball) for ball in balls]
    idx = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                      count=sum(lengths))
    owner = np.repeat(np.arange(k), lengths)
    keep = idx != bases[owner]
    idx, owner = idx[keep], owner[keep]
    rel = np.zeros((len(idx) + 1, dim))
    np.subtract(pts[idx], pts[bases[owner]], out=rel[:-1])
    b = (rel[:-1] * rel[:-1]).sum(axis=1)
    padded = np.zeros((_SITE_CHUNK, m, dim))
    padded[:k] = frames
    prod = rel @ padded.reshape(-1, dim).T
    u = prod[:-1].reshape(-1, _SITE_CHUNK, m)[np.arange(len(idx)), owner]
    return idx, u, b, owner


# ===== corner extraction =====

@functools.cache
def _box_walls(m):
    """The normals of the 2m box walls, t_i <= box then -t_i <= box;
    read-only, as every cell shares them."""
    walls = np.vstack([np.eye(m), -np.eye(m)])
    walls.flags.writeable = False
    return walls


def _cell_corners(u, b, box):
    """Corners of the cell {t : 2u.t <= b} inside the box [-box, box]^m.

    One Qhull halfspace intersection over the site rows and the 2m box
    walls.  t = 0 is the interior point: it is strictly inside every
    site row because each b > 0 (no site coincides with the base).

    Raises:
        SingularSystem: a site so close to the base, against the box,
            that Qhull fails or returns a corner at infinity.
    """
    n, m = u.shape
    halfspaces = np.empty((n + 2 * m, m + 1))
    halfspaces[:n, :m] = 2.0 * u
    halfspaces[:n, m] = -b
    halfspaces[n:, :m] = _box_walls(m)
    halfspaces[n:, m] = -float(box)
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


def tangent_centers(pts, base, others, basis):
    """Tangent centres of a stack of equidistance systems, solved at once.

    Row i asks for the point c = p + B^T t on the tangent plane at
    p = pts[base[i]], B = basis[i] (an m x N orthonormal frame), that is
    equidistant from p and the m sites q = pts[others[i]]: the system
    2 u_q . t = |q - p|^2 with u_q = B (q - p).  ``base`` and ``basis``
    may also be one index and one frame shared by every row.

    A row is accepted when the condition number of its matrix is finite
    and at most ``COND_LIMIT``; only accepted rows go to the stacked
    solve, so one singular row cannot fail the others.  Each step is the
    per-row arithmetic stacked (the same LAPACK and BLAS call per
    matrix), so a row comes out bit-identical to solving it alone; the
    centre is built as B^T @ t per row, not as t @ B, which rounds
    differently.

    Returns:
        (centres, r2, accepted, t): the K x N ambient centres, the squared
        radii t . t, the mask of accepted rows and the K x m tangent
        solutions t; rejected rows hold NaN.
    """
    pts = np.asarray(pts, dtype=float)
    rel = pts[np.asarray(others, dtype=np.intp)] - pts[base][..., None, :]
    basis_t = np.swapaxes(basis, -1, -2)
    a_mat = 2.0 * (rel @ basis_t)
    rhs = (rel * rel).sum(axis=-1)
    cond = np.linalg.cond(a_mat)
    accepted = np.isfinite(cond) & (cond <= COND_LIMIT)
    t = np.full(rhs.shape, np.nan)
    t[accepted] = np.linalg.solve(a_mat[accepted],
                                  rhs[accepted][..., None])[..., 0]
    centres = pts[base] + (basis_t @ t[..., None])[..., 0]
    return centres, np.vecdot(t, t), accepted, t


def tangent_center(simplex, p: int, pts, basis):
    """Center on T_pM, whose tangent frame is basis (m x N), equidistant
    from all vertices of a degenerate (cospherical) simplex: p and more
    than m other sites.

    The overdetermined system is solved by least squares and must fit to
    a residual of 1e-7; m-simplices are rows of ``tangent_centers``.
    Returns the center in ambient coordinates, its radius |t| and its
    tangent coordinates t.

    Raises:
        SingularSystem: the least-squares residual is too large.
    """
    simplex = tuple(simplex)
    if p not in simplex:
        raise ValueError(f"{p} is not a vertex of {simplex}")
    others = [q for q in simplex if q != p]
    pts = np.asarray(pts, dtype=float)
    _idx, u, b, _owner = _site_arrays(pts, np.array([p]), basis[None],
                                      [others])
    a_mat = 2.0 * u
    t, *_ = np.linalg.lstsq(a_mat, b, rcond=None)
    resid = np.abs(a_mat @ t - b).max()
    if resid > 1e-7 * max(1.0, np.abs(b).max()):
        raise SingularSystem(
            f"overdetermined equidistance residual {resid:.3e}")
    c = pts[p] + basis.T @ t
    return c, float(np.linalg.norm(t)), t


def _singular_message(simplex, p) -> str:
    return (f"equidistance system of {tuple(simplex)} at vertex {p} has a "
            f"condition number above {COND_LIMIT:g}")


def _cells(pts, bases, frames, balls, boxes):
    """Pruned cells of one ``_site_arrays`` chunk of stars.

    Star k has base ``bases[k]``, frame ``frames[k]``, the sites of
    ``balls[k]`` and the box [-boxes[k], boxes[k]]^m.  The site arrays
    and the checks are one stacked pass over the chunk; the cell corners
    (one Qhull call, ``_cell_corners``) and their tight keys are per star.

    Returns (cells, errors): cells lists (k, corners, keys) with the
    tight site key of each corner, and errors maps k to the error of a
    star without a cell:
        NeighborhoodTooSparse: fewer than m sites within the box.
        SparsityViolation: a site coincides with the base.
        SingularSystem: from ``_cell_corners``.
    """
    m = frames.shape[1]
    idx, u, b, owner = _site_arrays(pts, bases, frames, balls)
    starts = np.searchsorted(owner, np.arange(len(bases) + 1)).tolist()
    # the first site of each star that coincides with its base
    zero = np.flatnonzero(b <= 0.0)[::-1]
    coincident = dict(zip(owner[zero].tolist(), idx[zero].tolist()))
    cells, errors = [], {}
    for k, p in enumerate(bases.tolist()):
        r0, r1 = starts[k], starts[k + 1]
        if r1 - r0 < m:
            errors[k] = NeighborhoodTooSparse(
                f"vertex {p} has {r1 - r0} neighbors within {boxes[k]:.4g}")
        elif k in coincident:
            errors[k] = SparsityViolation(
                f"sample points {p} and {coincident[k]} coincide")
        else:
            try:
                corners = _cell_corners(u[r0:r1], b[r0:r1], float(boxes[k]))
            except SingularSystem as exc:
                errors[k] = exc
            else:
                cells.append((k, corners, _tight_keys(
                    idx[r0:r1], u[r0:r1], b[r0:r1], corners)))
    return cells, errors


def _tight_keys(idx, u, b, corners):
    """The tight site key of each corner of one cell, in power units; idx
    is sorted, so each key is too."""
    slack = b[None, :] - corners @ (2.0 * u).T
    tol = 1e-9 * max(float(b.max()), float((corners ** 2).sum(axis=1).max()))
    tight = np.abs(slack) <= tol
    sites = idx[np.nonzero(tight)[1]].tolist()
    ends = np.cumsum(tight.sum(axis=1)).tolist()
    return [tuple(sites[a:z]) for a, z in zip([0] + ends, ends)]


def _corner_star(p, frame, corners, keys, solved, pts, tree, prune_r):
    """Walk the corners in order into the star of p, or None when a site
    beyond the pruning radius interferes with a corner.

    ``solved`` maps each m-site key to (c, r, t, accepted, d_min), with t
    the tangent solution and d_min the distance from c to the nearest
    site.  A degenerate corner (more than m tight sites) is solved here
    by ``tangent_center``.  A real corner's row of ``corners`` becomes its
    key's solved t, so it does not depend on the Qhull call that found
    it; synthetic corners keep Qhull's coordinates.

    Raises:
        SingularSystem: at the first corner whose system is rejected.
        NeighborhoodTooSparse: the star has no m-simplex.
    """
    m = len(frame)
    star = Star(base=p, frame=frame, corners=corners)
    seen = {}
    for i, key in enumerate(keys):
        if len(key) < m:
            star.corner_simplex.append(None)
            continue
        if key not in seen:
            if len(key) == m:
                c, r, t, accepted, d_min = solved[key]
                if not accepted:
                    raise SingularSystem(_singular_message((p,) + key, p))
            else:
                c, r, t = tangent_center((p,) + key, p, pts, frame)
                d_min = float(tree.query(c)[0])
            # global emptiness: no site may be strictly inside
            if d_min < r * (1.0 - 1e-9):
                if d_min >= prune_r - r:
                    # a site beyond the pruning radius interferes
                    return None
                # tight site misclassified; treat corner as synthetic
                seen[key] = None
            else:
                seen[key] = (c, r, t)
        entry = seen[key]
        if entry is None:
            star.corner_simplex.append(None)
            continue
        c, r, corners[i] = entry
        full = tuple(sorted((p,) + key))
        star.corner_simplex.append(full)
        star.centers[full] = c, r
        if len(key) > m:
            # degenerate corner: record every m-subset alongside the
            # full cospherical simplex
            for sub in itertools.combinations(key, m):
                star.centers[tuple(sorted((p,) + sub))] = c, r
    if not star.m_simplices():
        raise NeighborhoodTooSparse(f"no {m}-simplex in the star of vertex {p}")
    return star


def _build_stars(bases, pts, tree, manifold, epsilon) -> list:
    """Stars of the given vertices, built together in rounds.

    The frames come from one ``tangent_frames`` stack.  A round takes
    every star still open: one ball query over their pruning radii
    (``PRUNE_MULT * epsilon`` in the first round), then per chunk of
    ``_SITE_CHUNK`` stars one gather and one product for their site
    arrays and a Qhull cell and its tight keys per star (``_cells``),
    one ``tangent_centers`` stack over the unique m-site keys of all of
    them, one emptiness query over the accepted centres, and then each
    star's corner walk (``_corner_star``).  A star with a site beyond its pruning radius
    inside a corner ball doubles its radius and goes to the next round,
    for at most 4 rounds.

    Every step is the per-star arithmetic stacked (row-wise solves and
    queries, and site products that are the one-star product's columns;
    see ``_site_arrays``), so a star comes out bit-identical to building
    it alone, and the stars do not depend on one another.  When some stars fail,
    the error raised is the one of the first failing vertex in the order
    given: the error building them one at a time in that order raises.
    Stars after a failed one are dropped, as they cannot change that.

    Raises:
        PointNotOnManifold: from ``tangent_frames``, naming the vertex.
        NeighborhoodTooSparse, SparsityViolation, SingularSystem: see
            ``_cells`` and ``_corner_star``; NeighborhoodTooSparse also
            for a star still open after 4 rounds.
    """
    bases = list(bases)
    try:
        frames = tangent_frames(manifold, pts[bases], labels=bases)
    except PointNotOnManifold:
        # the stars before the first off-manifold vertex fail first
        first = next(i for i, p in enumerate(bases)
                     if not manifold.contains(pts[p]))
        _build_stars(bases[:first], pts, tree, manifold, epsilon)
        raise
    m, n = manifold.m, len(bases)
    base_idx = np.array(bases, dtype=np.intp)
    stars = [None] * n
    errors = {}
    prune = np.full(n, PRUNE_MULT * epsilon)
    todo = list(range(n))
    for _round in range(4):
        if not todo:
            break
        near = tree.query_ball_point(pts[base_idx[todo]], prune[todo],
                                     return_sorted=True)
        cells = []
        for c0 in range(0, len(todo), _SITE_CHUNK):
            chunk = todo[c0:c0 + _SITE_CHUNK]
            got, failed = _cells(pts, base_idx[chunk], frames[chunk],
                                 near[c0:c0 + _SITE_CHUNK], prune[chunk])
            cells += [(chunk[k], corners, keys) for k, corners, keys in got]
            errors.update((chunk[k], exc) for k, exc in failed.items())
        # a star after a failed one cannot change the outcome
        cells = [cell for cell in cells if cell[0] < min(errors, default=n)]
        # the unique m-site keys of every cell: one stacked solve and one
        # emptiness query
        key_lists = [list(dict.fromkeys(k for k in keys if len(k) == m))
                     for _i, _corners, keys in cells]
        rows = np.repeat(np.array([i for i, _c, _k in cells], dtype=np.intp),
                         [len(own) for own in key_lists])
        others = np.array([k for own in key_lists for k in own],
                          dtype=np.intp).reshape(-1, m)
        centres, r2, accepted, t = tangent_centers(
            pts, base_idx[rows], others, frames[rows])
        d_min = np.full(len(rows), np.nan)
        if accepted.any():
            d_min[accepted] = tree.query(centres[accepted])[0]
        solved = list(zip(centres, np.sqrt(r2).tolist(), t,
                          accepted.tolist(), d_min.tolist()))
        todo = []
        start = 0
        for (i, corners, keys), own in zip(cells, key_lists):
            entries = dict(zip(own, solved[start:start + len(own)]))
            start += len(own)
            if i > min(errors, default=n):
                break
            try:
                star = _corner_star(bases[i], frames[i], corners, keys,
                                    entries, pts, tree, float(prune[i]))
            except TandelError as exc:
                errors[i] = exc
                continue
            if star is None:
                prune[i] *= 2.0
                todo.append(i)
            else:
                stars[i] = star
    for i in todo:
        errors[i] = NeighborhoodTooSparse(
            f"pruning radius for vertex {bases[i]} kept growing without "
            f"closure")
    if errors:
        raise errors[min(errors)]
    return stars


# ===== clipping a cut star =====

# how far the clip's tolerance exceeds the one of the rebuild it replaces
_CLIP_SAFETY = 4.0


def _clip_stars(stars, margins, radii, x_idx, pts, tree, epsilon) -> dict:
    """The cut stars that the new site x = pts[x_idx] changes simply,
    each with its cell clipped by x's halfspace.

    Star k has the corner margins ``margins[k]`` of x (b_x - 2 u_x . t,
    from ``_cells_cut_by``, padded) and the cell radius ``radii[k]``.
    The rebuild finds a corner's key as the sites within
    tol = 1e-9 max(b.max(), max |t|^2) of it, in power units.  A star
    is clipped only when a rebuild is sure to find what the clip finds:

    - every corner is real, with exactly m key sites and its own
      simplex, so the cell is a simple polytope;
    - its radius is below PRUNE_MULT * epsilon / 2.  A site q can bound
      the cell only where |t| >= |q - p| / 2, so no site beyond the first
      pruning radius does, the rebuild closes in its first round, and
      its tol is at most 1e-9 (PRUNE_MULT * epsilon)^2 = tol_1;
    - x is more than ``_CLIP_SAFETY`` * tol_1 from tight at every corner.

    The clip keeps the corners with positive margin.  Each edge (two
    corners sharing m - 1 key sites) with one corner kept and one dropped
    gives a new corner, whose key is the shared sites and x; the new keys
    of all stars are one ``tangent_centers`` stack.  One
    ``tree.query(k=m+2)`` over every corner of every clipped star then
    checks that no site other than the key lies within
    ``_CLIP_SAFETY`` * tol_1 of the corner's ball, which also makes the
    ball empty.  Kept corners keep their centre and solved t, and new
    ones are rows of the same stacked solve a rebuild runs, so a clipped
    star is bitwise the star a rebuild makes, up to the order of its
    corners.

    Returns {base: clipped star} for the stars that pass every check.
    """
    if not stars:
        return {}
    m = len(stars[0].frame)
    simple = [k for k, star in enumerate(stars)
              if star.corner_simplex and None not in star.corner_simplex
              and len(set(star.corner_simplex)) == len(star.corner_simplex)
              and all(len(s) == m + 1 for s in star.corner_simplex)]
    if not simple:
        return {}
    tol = _CLIP_SAFETY * 1e-9 * (PRUNE_MULT * epsilon) ** 2
    margins = margins[simple]
    counts = np.array([len(stars[k].corner_simplex) for k in simple])
    padding = np.arange(margins.shape[1]) >= counts[:, None]
    ready = ((radii[simple] < 0.5 * PRUNE_MULT * epsilon * (1.0 - 1e-6))
             & ~((np.abs(margins) <= tol) & ~padding).any(axis=1)).tolist()
    plans, new_keys, others = [], [], []
    for k, keep, go in zip(simple, (margins > 0.0).tolist(), ready):
        if not go:
            continue
        star = stars[k]
        p = star.base
        # edge -> its corners; a simple bounded cell has two per edge
        edges = {}
        for i, s in enumerate(star.corner_simplex):
            for j in range(m + 1):
                if s[j] != p:
                    edges.setdefault(s[:j] + s[j + 1:], []).append(i)
        if any(len(ends) != 2 for ends in edges.values()):
            continue
        cross = [edge for edge, (i, j) in edges.items() if keep[i] != keep[j]]
        kept = [i for i in range(len(star.corner_simplex)) if keep[i]]
        plans.append((star, kept, len(new_keys), len(cross)))
        # x has the largest id, so it ends every sorted new simplex
        new_keys += [edge + (x_idx,) for edge in cross]
        others += [[q for q in edge if q != p] + [x_idx] for edge in cross]
    if not plans:
        return {}
    owner = np.repeat(np.arange(len(plans)), [n for *_s, n in plans])
    bases = np.array([plan[0].base for plan in plans], dtype=np.intp)
    frames = np.array([plan[0].frame for plan in plans])
    centres, r2, accepted, t_new = tangent_centers(
        pts, bases[owner], np.array(others, dtype=np.intp).reshape(-1, m),
        frames[owner])
    solved = list(zip(centres, np.sqrt(r2).tolist()))
    accepted = accepted.tolist()
    clipped = []
    for star, kept, start, count in plans:
        end = start + count
        if not all(accepted[start:end]):
            continue
        simplices = [star.corner_simplex[i] for i in kept]
        centers = {s: star.centers[s] for s in simplices}
        centers.update(zip(new_keys[start:end], solved[start:end]))
        clipped.append(Star(
            base=star.base, frame=star.frame, centers=centers,
            corners=np.concatenate([star.corners[kept], t_new[start:end]]),
            corner_simplex=simplices + new_keys[start:end]))
    if not clipped:
        return {}
    # every corner ball: its m + 1 vertices on it, every other site
    # farther than the tolerance
    simplex = np.array([s for star in clipped for s in star.corner_simplex],
                       dtype=np.intp)
    ball = [star.centers[s] for star in clipped for s in star.corner_simplex]
    c = np.array([c for c, _r in ball])
    r = np.array([r for _c, r in ball])
    dist, near = tree.query(c, k=m + 2)
    is_vertex = (near[:, :, None] == simplex[:, None, :]).any(axis=2)
    clear = is_vertex | (dist * dist - (r * r)[:, None] > tol)
    ok = np.logical_and.reduceat(clear.all(axis=1), np.cumsum(
        [0] + [len(star.corner_simplex) for star in clipped[:-1]]))
    return {star.base: star for star, good in zip(clipped, ok.tolist())
            if good}


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

    @property
    def n_points(self) -> int:
        return len(self.points)

    def _store(self, stars):
        """Store stars and their cell radii."""
        for star in stars:
            self.stars[star.base] = star
            self.cell_radii[star.base] = star.max_radius()

    def build(self):
        self._store(_build_stars(range(self.n_points), self.points,
                                 self.tree, self.manifold, self.epsilon))
        return self

    def faces(self) -> tuple:
        """The ``geometry.closure`` of the star union: one sorted array of
        the simplices of each dimension."""
        keys = {s for star in self.stars.values() for s in star.centers}
        return closure(simplex_blocks(keys))

    def simplices(self) -> list:
        """All simplices of the complex, sorted by size and then by
        vertices."""
        return [s for rows in self.faces() for s in map(tuple, rows.tolist())]

    def m_simplices(self) -> list:
        """The m-simplices of the complex, sorted: the (m + 1)-vertex star
        keys and the (m + 1)-subsets of the larger keys of degenerate
        corners, as in the closure."""
        m = self.manifold.m
        out = set()
        for star in self.stars.values():
            for s in star.centers:
                if len(s) == m + 1:
                    out.add(s)
                else:
                    out.update(itertools.combinations(s, m + 1))
        return sorted(out)

    def consistency_report(self) -> dict:
        """Map m-simplex -> sorted list of its vertices whose stars miss it."""
        report = {}
        for s in self.m_simplices():
            missing = [v for v in s
                       if v in self.stars and s not in self.stars[v].centers]
            if missing:
                report[s] = missing
        return report

    # ---- incremental insertion ----

    def _cells_cut_by(self, bases, x):
        """Exact test for each star of bases: does a site at x remove part
        of its recorded cell?

        The cell is a polytope and the power difference against x, the
        margin |x - p|^2 - 2 u_x . t, is affine in t, so its minimum over
        the cell sits at a corner; the cell is cut when that minimum is at
        most 1e-9 |x - p|^2, and a star without corners always is.  The
        stars' corners are padded into one stack with t = 0, which lies
        inside every cell, so the padding changes no verdict; each star's
        products are the matrix-vector calls of testing it alone, row for
        row.

        Returns (cut, margin): the verdicts, and the margin of every
        corner, row k holding star k's corners in order, then padding.
        """
        stars = [self.stars[p] for p in bases]
        counts = np.array([0 if s.corners is None else len(s.corners)
                           for s in stars], dtype=np.intp)
        m = self.manifold.m
        corners = np.zeros((len(stars), counts.max(initial=0), m))
        for k, star in enumerate(stars):
            if counts[k]:
                corners[k, :counts[k]] = star.corners
        rel = np.asarray(x, dtype=float) - self.points[bases]
        frames = np.array([s.frame for s in stars]).reshape(
            len(stars), m, self.points.shape[1])
        u_x = frames @ rel[:, :, None]
        b_x = (rel[:, None, :] @ rel[:, :, None])[:, 0]
        margin = b_x - 2.0 * (corners @ u_x)[..., 0]
        cut = (counts == 0) | (margin.min(axis=1, initial=np.inf)
                               <= 1e-9 * np.maximum(b_x[:, 0], 1e-30))
        return cut, margin

    def insert_point(self, x) -> dict:
        """Append x and update exactly the stars whose cells it cuts: clip
        the simple ones, rebuild the rest.

        x cuts the cell of p only if some corner t has
        2 u_x . t >= |x - p|^2 (1 - 1e-9) (``_cells_cut_by``), and
        |u_x| <= |x - p| with |t| <= rho_p = ``Star.max_radius()``, so
        only stars with |x - p| <= 2 rho_p can be cut (the factor
        1 + 1e-6 covers rounding).  Those candidates are tested in one
        ``_cells_cut_by`` stack; every other star is provably unchanged.
        The cut stars that ``_clip_stars`` can update are clipped with
        x's halfspace, and the others are rebuilt with the new star in
        one ``_build_stars`` batch.  Either way a cut star comes out as a
        fresh build of it would.  The clipped stars are stored only once
        that batch returns, so an insertion whose build raises replaces
        no star.  The test reads only the old star it tests, so testing
        every candidate before updating any is the same as updating each
        as it is found cut.  Returns the new vertex id, the cut star ids
        (``recomputed``), those of them that were clipped, and the
        candidates that were left alone.  Cosph records are the caller's.
        """
        x = np.asarray(x, dtype=float)
        new_idx = self.n_points
        self.points = np.vstack([self.points, x[None]])
        self.tree = cKDTree(self.points)
        reach = 2.0 * self.cell_radii * (1.0 + 1e-6)
        near = np.array(self.tree.query_ball_point(x, reach.max(),
                                                   return_sorted=True),
                        dtype=np.intp)
        near = near[near != new_idx]
        dist = np.linalg.norm(self.points[near] - x, axis=1)
        candidates = [p for p in near[dist <= reach[near]].tolist()
                      if p in self.stars]
        cut, margin = self._cells_cut_by(candidates, x)
        rows = np.flatnonzero(cut).tolist()
        recomputed = [candidates[k] for k in rows]
        untouched = [p for p, c in zip(candidates, cut.tolist()) if not c]
        clipped = _clip_stars([self.stars[p] for p in recomputed],
                              margin[rows], self.cell_radii[recomputed],
                              new_idx, self.points, self.tree, self.epsilon)
        self.cell_radii = np.append(self.cell_radii, 0.0)
        built = _build_stars([p for p in recomputed if p not in clipped]
                             + [new_idx], self.points, self.tree,
                             self.manifold, self.epsilon)
        self._store(itertools.chain(clipped.values(), built))
        return {"index": new_idx, "recomputed": recomputed,
                "clipped": [p for p in recomputed if p in clipped],
                "untouched": untouched}


def assemble_complex(sample: SampleSet,
                     manifold: Manifold) -> TangentialComplex:
    """Compute every star and return the union complex."""
    return TangentialComplex(sample, manifold).build()


# ===== export =====

def write_simplex_list(path, faces):
    """One simplex per line, its vertex labels separated by spaces: the
    rows of each label array of ``faces`` in turn (``geometry.closure``
    gives them by dimension, each in sorted order)."""
    with open(path, "w") as fh:
        for rows in faces:
            fh.writelines(" ".join(map(str, s)) + "\n"
                          for s in np.asarray(rows).tolist())


def write_off(path, points, triangles):
    """OFF surface export (2-complex in R^3 only) of an (n, 3) array of
    vertex labels."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != 3:
        raise ValueError("OFF export needs points in R^3")
    tris = np.asarray(triangles, dtype=np.intp).reshape(-1, 3).tolist()
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(points)} {len(tris)} 0\n")
        for row in points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        for t in tris:
            fh.write("3 " + " ".join(map(str, t)) + "\n")
