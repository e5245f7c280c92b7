"""Shared fixtures: reference samples; the tangent frame at one point;
the faces of a simplex; the tuple-walk face closure; the one-vertex star
build; the one-at-a-time references for the power-cell corners, the
fixed-step torus sampler, the farthest-point net, the site arrays, the
cut test and the cosph scan; a bitwise comparison of two stars; a
refinement state around a built complex; and session-scoped refinement
runs."""
import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial import cKDTree

from tandel import stars
from tandel.geometry import (ElementaryWeight, GammaClass, _edge_lengths,
                             as_simplex, circumsphere, gamma_classes)
from tandel.manifolds import (FlatPatch, TorusOfRevolution, UnitSphere,
                              farthest_point_net, tangent_frames)
from tandel.refine import Parameters, RefinementState, refine_sample

# Property tests draw the same examples on every run (no example database
# replays earlier failures first), and a slow example is not a failure.
settings.register_profile("tandel", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tandel")

# Both end-to-end runs share one parameter set; they are expensive, so
# each is built at most once per session and only when a test asks.
RUN_PARAMS = dict(epsilon=0.3, gamma0=0.05, alpha=0.25, beta=4.5,
                  delta0=0.05, mode="practical", seed=11)


def disk_points(h=0.35, rings=5, hole_rings=0):
    """Staggered polar grid on the flat patch: fat simplices everywhere,
    with a convex rim so outward growth is box-supported and ignored."""
    pts = []
    for k in range(rings + 1):
        if k < hole_rings:
            continue
        r = k * h * (1 + 0.013 * k)
        if k == 0:
            pts.append((0.0, 0.0, 0.0))
            continue
        nk = int(round(2 * np.pi * k))
        for i in range(nk):
            t = 2 * np.pi * i / nk + 0.37 * k
            pts.append((r * np.cos(t), r * np.sin(t), 0.0))
    return np.array(pts)


def flat_sites(seed, n_ring=25, r_ring=0.85, eps_in=0.11):
    """Planar sites with bounded circumcenters: exact-circle rim + net.

    Any three rim points are exactly cocircular on the rim circle, whose
    disk contains interior sites, so rim triples are never Delaunay and
    every Delaunay circumcenter stays near the disk.  That keeps the
    witness domain for the scan oracles finite.
    """
    ang = 2 * np.pi * (np.arange(n_ring) + 0.37 * seed) / n_ring
    ring = np.column_stack([r_ring * np.cos(ang), r_ring * np.sin(ang),
                            np.zeros(n_ring)])
    flat = FlatPatch(2, 3)
    cloud = flat.sample(2500, seed=seed, extent=1.3) - np.array([0.65, 0.65, 0.0])
    cloud = cloud[np.linalg.norm(cloud[:, :2], axis=1) < r_ring - 0.12]
    net = farthest_point_net(cloud, eps=eps_in, seed=seed)
    return np.vstack([ring, net.points])


def faces(simplex, min_dim=0, max_dim=None):
    """Iterate faces of a simplex as sorted tuples, by dimension."""
    simplex = tuple(simplex)
    j = len(simplex) - 1
    hi = j if max_dim is None else min(max_dim, j)
    for dim in range(min_dim, hi + 1):
        yield from itertools.combinations(simplex, dim + 1)


def closure_by_walk(simplices) -> frozenset:
    """Every nonempty face of vertex collections, as sorted tuples: the
    tuple walk that is the reference for ``geometry.closure``."""
    closed = set()
    for simplex in {as_simplex(s) for s in simplices}:
        for k in range(1, len(simplex) + 1):
            closed.update(itertools.combinations(simplex, k))
    return frozenset(closed)


def compute_star(p, sample, manifold):
    """Star of vertex p in the tangent-plane weighted Delaunay complex: a
    one-vertex ``stars._build_stars``, with its errors."""
    pts = np.asarray(sample.points, dtype=float)
    return stars._build_stars([p], pts, cKDTree(pts), manifold,
                              sample.epsilon)[0]


def exact_flat_member(tri, sites):
    """Exact empty-circumdisk adjudication for planar triangles."""
    sp = circumsphere(as_simplex(tri), sites[:, :2])
    others = np.setdiff1d(np.arange(len(sites)), list(tri))
    dmin = np.linalg.norm(sites[others, :2] - sp.center, axis=1).min()
    return dmin >= sp.radius * (1 - 1e-9)


def corners_by_enumeration(u, b, box, m):
    """All feasible corners of the cell {t : 2u.t <= b} inside the box.

    The reference for ``stars._cell_corners``: rows are the site
    constraints plus the 2m box walls, and every feasible m-subset
    intersection is a corner candidate.
    """
    a_full = np.vstack([2.0 * u, np.eye(m), -np.eye(m)])
    b_full = np.concatenate([b, np.full(2 * m, box)])
    tol = 1e-9 * max(b_full.max(), 1.0)
    out = []
    for rows in itertools.combinations(range(len(a_full)), m):
        mat = a_full[list(rows)]
        # dependent rows meet in no single point (a solve of repeated
        # rows returns an arbitrary point on their common plane)
        with np.errstate(divide="ignore"):
            det = np.linalg.det(mat)
        if abs(det) <= 1e-12 * np.prod(np.linalg.norm(mat, axis=1)):
            continue
        t = np.linalg.solve(mat, b_full[list(rows)])
        if not np.isfinite(t).all():
            continue
        if (a_full @ t <= b_full + tol).all():
            out.append(t)
    if not out:
        return np.zeros((0, m))
    # dedupe by rounded coordinates
    arr = np.array(out)
    scale = max(box, 1.0)
    _, keep = np.unique(np.round(arr / scale, 9), axis=0, return_index=True)
    return arr[np.sort(keep)]


def torus_sample_reference(manifold, n, seed, history=None):
    """``TorusOfRevolution.sample`` with all 40 Newton steps on every row:
    the reference for the sampler that settles converged rows.  When
    ``history`` is a list, it receives the tube angles after each step."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, n)
    # stratified quantiles of the area-weighted tube angle
    w = (np.arange(n) + rng.uniform(0, 1, n)) / n
    w = w[rng.permutation(n)]
    v = 2.0 * np.pi * w - np.pi
    for _ in range(40):
        f = ((manifold.R * (v + np.pi) + manifold.r * np.sin(v))
             / (2 * np.pi * manifold.R))
        fp = (manifold.R + manifold.r * np.cos(v)) / (2 * np.pi * manifold.R)
        v = np.clip(v - (f - w) / fp, -np.pi, np.pi)
        if history is not None:
            history.append(v)
    return manifold.embed(u, v)


def farthest_point_net_reference(dense, eps, seed=0):
    """The greedy farthest-point net by a full scan per step.

    The reference for ``manifolds.farthest_point_net``: every step
    recomputes the distance from all n points to the new one, so a net
    costs O(n * |net|).  Returns (points, sparsity).
    """
    dense = np.asarray(dense, dtype=float)
    start = int(seed) % len(dense)
    chosen = [start]
    dist = np.linalg.norm(dense - dense[start], axis=1)
    while True:
        nxt = int(np.argmax(dist))
        if dist[nxt] <= eps:
            break
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(dense - dense[nxt], axis=1))
    pts = dense[chosen]
    if len(pts) == 1:
        return pts, math.inf
    return pts, float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())


def reference_star(p, sample, manifold):
    """``compute_star`` with its cell corners from the enumeration."""
    def enumerate_corners(u, b, box):
        return corners_by_enumeration(u, b, box, u.shape[1])

    with mock.patch.object(stars, "_cell_corners", enumerate_corners):
        return compute_star(p, sample, manifold)


def frame_at(manifold, p):
    """The (m, N) tangent frame at one point: a one-row ``tangent_frames``."""
    return tangent_frames(manifold, np.asarray(p, dtype=float)[None])[0]


def site_arrays_per_star(p, pts, idx, basis):
    """The site rows of one star, u = B (q - p) and b = |q - p|^2, from
    its own product: the reference for the stacked
    ``stars._site_arrays``."""
    rel = pts[idx] - pts[p]
    u = rel @ basis.T
    b = (rel * rel).sum(axis=1)
    return u, b


def star_is_cut_by(cplx, p, x):
    """Does a site at x remove part of p's recorded cell?  One star's
    test on its own: the reference for the stacked
    ``TangentialComplex._cells_cut_by``."""
    star = cplx.stars[p]
    rel = np.asarray(x, dtype=float) - cplx.points[star.base]
    u_x = star.frame @ rel
    b_x = float(rel @ rel)
    if star.corners is None or len(star.corners) == 0:
        return True
    margin = b_x - 2.0 * (star.corners @ u_x)
    return bool(margin.min() <= 1e-9 * max(b_x, 1e-30))


def assert_same_star_bitwise(a, b):
    """Stars a and b of one vertex are the same bit for bit, whatever the
    order of their corners: the centre and radius of every key, the
    corner simplices as a multiset, and the corners of each simplex."""
    assert a.base == b.base
    assert sorted(a.centers) == sorted(b.centers), a.base
    for key, (c, r) in a.centers.items():
        assert b.centers[key][0].tobytes() == c.tobytes(), (a.base, key)
        assert b.centers[key][1] == r, (a.base, key)

    def by_simplex(star):
        corners = {}
        for s, t in zip(star.corner_simplex, star.corners):
            corners.setdefault(s, []).append(t.tobytes())
        return {s: sorted(ts) for s, ts in corners.items()}

    assert by_simplex(a) == by_simplex(b), a.base
    assert a.max_radius() == b.max_radius(), a.base


def cosph_state(cplx, delta0, gamma0):
    """A refinement state around a built complex, with the given delta0
    and gamma0: what the cosph scan reads."""
    params = Parameters(epsilon=cplx.epsilon, gamma0=gamma0, alpha=0.25,
                        beta=4.5, delta0=delta0)
    return RefinementState(cplx, params, None)


def cosph_scan_per_star(cplx, p, delta0, gamma0, sites=None):
    """The cosph scan of one star on its own: the reference for the
    stacked ``refine._cosph_scan``, which scans a list of stars at once.
    It classifies with ``geometry.gamma_classes``, uncached."""
    m = cplx.manifold.m
    pts = cplx.points
    small = [(s, c, r) for s, (c, r) in cplx.stars[p].centers.items()
             if len(s) == m + 1 and r < cplx.epsilon]
    # gamma_classes rejects an empty list, which is one-dimensional
    classes = (gamma_classes([s for s, _c, _r in small], pts, gamma0)
               if small else [])
    chosen = [row for row, cls in zip(small, classes)
              if cls is GammaClass.GOOD]
    if not chosen:
        return {}
    sig = np.array([s for s, _c, _r in chosen], dtype=np.intp)
    cen = np.array([c for _s, c, _r in chosen])
    rad = np.array([r for _s, _c, r in chosen])
    reach = rad * (1.0 + delta0 ** 2) / (1.0 - delta0 ** 2) * (1.0 + 1e-9)
    if sites is None:
        near = cplx.tree.query_ball_point(cen, reach)
        ci = np.repeat(np.arange(len(sig)), [len(h) for h in near])
        qi = np.array([q for h in near for q in h], dtype=np.intp)
    else:
        qs = np.asarray(sites, dtype=np.intp)
        ci = np.repeat(np.arange(len(sig)), len(qs))
        qi = np.tile(qs, len(sig))
        within = np.linalg.norm(pts[qi] - cen[ci], axis=1) <= reach[ci]
        ci, qi = ci[within], qi[within]
    keep = (sig[ci] != qi[:, None]).all(axis=1)
    ci, qi = ci[keep], qi[keep]
    r2 = rad[ci] * rad[ci]
    gap = ((pts[qi] - cen[ci]) ** 2).sum(axis=1) - r2
    outside = gap >= -1e-9 * np.maximum(r2, 1e-30)
    if not outside.any():
        return {}
    ci, qi, gap = ci[outside], qi[outside], gap[outside]
    ell_sigma = _edge_lengths(pts[sig]).min(axis=1)
    dq = np.linalg.norm(pts[qi][:, None, :] - pts[sig[ci]], axis=2)
    ell_tau = np.minimum(ell_sigma[ci], dq.min(axis=1))
    hit = gap <= np.float_power(delta0 * ell_tau, 2)
    best = {}
    for i, q, g, w in zip(ci[hit].tolist(), qi[hit].tolist(),
                          gap[hit].tolist(),
                          np.sqrt(np.maximum(gap[hit], 0.0)).tolist()):
        sigma = chosen[i][0]
        tau = tuple(sorted(sigma + (q,)))
        if tau not in best or (g, sigma) < best[tau][:2]:
            best[tau] = (g, sigma, ElementaryWeight(q, w))
    return {tau: (w, sigma) for tau, (_g, sigma, w) in best.items()}


@pytest.fixture(scope="session")
def sphere_run():
    manifold = UnitSphere(2, 3)
    params = Parameters(**RUN_PARAMS)
    dense = manifold.sample(20000, seed=params.seed)
    net = farthest_point_net(dense, eps=params.epsilon, seed=params.seed)
    t0 = time.perf_counter()
    state = refine_sample(net, manifold, params)
    elapsed = time.perf_counter() - t0
    return state, manifold, params, elapsed


@pytest.fixture(scope="session")
def torus_run():
    manifold = TorusOfRevolution(R=2.0, r=0.5)
    params = Parameters(**RUN_PARAMS)
    dense = manifold.sample(60000, seed=params.seed)
    net = farthest_point_net(dense, eps=params.epsilon, seed=params.seed)
    t0 = time.perf_counter()
    state = refine_sample(net, manifold, params)
    elapsed = time.perf_counter() - t0
    return state, manifold, params, elapsed
