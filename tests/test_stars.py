"""Tangent-plane star construction and the union complex, and the cosph
scan of ``refine`` over built stars."""
import itertools

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from conftest import (assert_same_star_bitwise, cell_corners, compute_star,
                      cosph_scan_per_star, cosph_state, faces, flat_sites,
                      frame_at, plane_cells_by, reference_star,
                      site_arrays_per_star, star_is_cut_by)
from test_acceptance import _lattice_patch
from tandel import stars as stars_module
from tandel.errors import (NeighborhoodTooSparse, PointNotOnManifold,
                           SingularSystem, SparsityViolation, UnsupportedDim)
from tandel.geometry import (ElementaryWeight, GammaClass, as_simplex,
                             circumsphere, classify_gamma, edge_extremes)
from tandel.manifolds import (
    FlatPatch,
    SampleSet,
    UnitSphere,
    TorusOfRevolution,
    farthest_point_net,
    tangent_frames,
)
from tandel.refine import _cosph_scan
from tandel.stars import (
    COND_LIMIT,
    PRUNE_MULT,
    _SITE_CHUNK,
    Star,
    TangentialComplex,
    _build_stars,
    _cell_corners,
    _site_arrays,
    assemble_complex,
    tangent_center,
    tangent_centers,
    write_off,
    write_simplex_list,
)
from tandel.verify import (
    ambient_delaunay_bruteforce,
    euler_characteristic,
    manifold_complex_check,
)

# the star under test (its cell from the routine the build runs for its
# m), and the same star from the reference corners
BUILDS = pytest.mark.parametrize(
    "build", [compute_star, reference_star], ids=["qhull", "enumerate"])

OCTA = np.array([
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
])


def octa_sample(eps=1.0):
    return SampleSet(points=OCTA, epsilon=eps, sparsity=np.sqrt(2.0))


# ===== star of a vertex =====

class TestOctahedronStar:
    @BUILDS
    def test_north_pole_star(self, build):
        star = build(0, octa_sample(), UnitSphere(2, 3))
        assert sorted(star.m_simplices()) == [
            (0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)]
        for s, (c, r) in star.centers.items():
            assert r == pytest.approx(np.sqrt(2.0), rel=1e-12)
            assert abs(c[2] - 1.0) < 1e-12
            assert sorted(np.abs(c[:2])) == pytest.approx([1.0, 1.0])
            # ambient equidistance to every vertex of the simplex
            for v in s:
                assert np.linalg.norm(c - OCTA[v]) == pytest.approx(r, rel=1e-12)

    def test_cell_is_the_unit_square(self):
        star = compute_star(0, octa_sample(), UnitSphere(2, 3))
        real = [t for t, s in zip(star.corners, star.corner_simplex)
                if s is not None]
        assert len(real) == 4
        got = sorted(tuple(np.round(np.abs(t), 9)) for t in real)
        assert got == [(1.0, 1.0)] * 4
        assert star.max_radius() == pytest.approx(np.sqrt(2.0))

    def test_neighbors_and_weights(self):
        # the pruned sites of the north pole as the star build sees them
        sample = octa_sample()
        idx = sorted(i for i in cKDTree(OCTA).query_ball_point(
            OCTA[0], PRUNE_MULT * sample.epsilon) if i != 0)
        assert idx == [1, 2, 3, 4, 5]
        frame = frame_at(UnitSphere(2, 3), OCTA[0])
        got, u, b, owner = _site_arrays(OCTA, np.array([0]), frame[None],
                                        [idx])
        assert got.tolist() == idx and owner.tolist() == [0] * 5
        w2 = b - (u * u).sum(axis=1)
        # squared weight = minus the squared normal part of each site
        assert sorted(-w2) == pytest.approx([-4.0, -1.0, -1.0, -1.0, -1.0])
        norms = sorted(np.linalg.norm(u, axis=1))
        assert norms == pytest.approx([0.0, 1.0, 1.0, 1.0, 1.0])
        assert sorted(b) == pytest.approx([2.0, 2.0, 2.0, 2.0, 4.0])

    def test_simplices_closure(self):
        star = compute_star(0, octa_sample(), UnitSphere(2, 3))
        assert all(0 in s for s in star.centers)
        assert sorted(star.centers) == sorted(star.m_simplices())
        closure = {f for s in star.centers for f in faces(s) if 0 in f}
        assert {(0,), (0, 1), (0, 1, 2)} <= closure
        assert (1, 2) not in closure


def test_too_sparse_raises():
    with pytest.raises(NeighborhoodTooSparse):
        compute_star(0, octa_sample(eps=0.05), UnitSphere(2, 3))


def test_circle_is_unsupported_dim(monkeypatch):
    """A cell's corners come from routines for m = 2 and m >= 3 only, so
    the complex of a curve refuses to start, before any star is built."""
    circle = UnitSphere(1, 2)
    sample = SampleSet(points=circle.sample(12, seed=1), epsilon=0.6,
                       sparsity=0.0)

    def no_build(*_args):
        raise AssertionError("a star was built")

    monkeypatch.setattr(stars_module, "_build_stars", no_build)
    with pytest.raises(UnsupportedDim, match=r"^tangential complex needs "
                                             r"m >= 2, not 1$"):
        assemble_complex(sample, circle)


def test_tangent_center_octahedron():
    frame = frame_at(UnitSphere(2, 3), OCTA[0])
    centres, r2, accepted, t = tangent_centers(OCTA, 0, [(1, 2)], frame)
    assert accepted.tolist() == [True]
    assert np.sqrt(r2[0]) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.abs(centres[0]) == pytest.approx([1.0, 1.0, 1.0])
    # the tangent solution: r2 = t . t and c = p + B^T t
    assert r2[0] == np.vecdot(t[0], t[0])
    assert centres[0].tobytes() == (OCTA[0] + frame.T @ t[0]).tobytes()


def test_tangent_center_singular():
    frame = frame_at(UnitSphere(2, 3), OCTA[0])
    # antipodal equator points project to opposite rays: rank-1 system
    centres, r2, accepted, t = tangent_centers(OCTA, 0, [(1, 3), (1, 2)],
                                               frame)
    assert accepted.tolist() == [False, True]
    assert np.isnan(centres[0]).all() and np.isnan(r2[0])
    assert np.isnan(t[0]).all()
    # a degenerate corner's least-squares solve: the four square
    # corners fit, a non-cocircular quadruple does not
    flat_frame = frame_at(FlatPatch(2, 3), SQUARE[0])
    c, r, t = tangent_center((0, 1, 2, 3), 0, SQUARE, flat_frame)
    assert c == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    assert r == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert r == float(np.linalg.norm(t))
    kite = SQUARE.copy()
    kite[2, 1] = 1.2
    with pytest.raises(SingularSystem):
        tangent_center((0, 1, 2, 3), 0, kite, flat_frame)
    with pytest.raises(ValueError):
        tangent_center((1, 2, 3), 0, OCTA, frame)


# ===== flat patch agrees with the classical Delaunay triangulation =====

class TestFlatDelaunay:
    def test_interior_star_matches_scipy(self):
        M = FlatPatch(2, 3)
        pts = M.sample(60, seed=3)
        sample = SampleSet(points=pts, epsilon=0.5, sparsity=0.0)
        centroid = pts.mean(axis=0)
        p = int(np.argmin(np.linalg.norm(pts - centroid, axis=1)))
        star = compute_star(p, sample, M)
        tri = Delaunay(pts[:, :2])
        want = sorted(tuple(sorted(int(v) for v in s))
                      for s in tri.simplices if p in s)
        assert sorted(star.m_simplices()) == want

    def test_whole_complex_matches_scipy(self):
        M = FlatPatch(2, 3)
        pts = M.sample(45, seed=8)
        # the cell box must reach past the farthest circumcenter (8.32 here)
        # or hull slivers drop out of the stars
        sample = SampleSet(points=pts, epsilon=1.5, sparsity=0.0)
        cplx = assemble_complex(sample, M)
        tri = Delaunay(pts[:, :2])
        want = sorted(tuple(sorted(int(v) for v in s)) for s in tri.simplices)
        assert cplx.m_simplices() == want
        assert cplx.consistency_report() == {}


# ===== built stars agree with the enumeration reference =====

def _assert_same_star(a, b):
    assert sorted(a.centers) == sorted(b.centers)
    for s in a.centers:
        ca, ra = a.centers[s]
        cb, rb = b.centers[s]
        assert ra == pytest.approx(rb, rel=1e-9)
        assert np.allclose(ca, cb, atol=1e-9)


class TestDualRoutes:
    def sphere_net(self):
        M = UnitSphere(2, 3)
        dense = M.sample(3000, seed=11)
        return M, farthest_point_net(dense, 0.25, seed=0)

    def test_sphere_stars_agree(self):
        M, net = self.sphere_net()
        for p in range(0, len(net.points), 7):
            _assert_same_star(compute_star(p, net, M),
                              reference_star(p, net, M))

    def test_torus_stars_agree(self):
        M = TorusOfRevolution()
        dense = M.sample(4000, seed=5)
        net = farthest_point_net(dense, 0.12, seed=0)
        for p in range(0, len(net.points), 37):
            a = compute_star(p, net, M)
            b = reference_star(p, net, M)
            assert sorted(a.centers) == sorted(b.centers)

    def test_flat_corner_sets_agree(self):
        M = FlatPatch(2, 3)
        pts = M.sample(30, seed=21)
        sample = SampleSet(points=pts, epsilon=0.6, sparsity=0.0)
        for p in range(0, 30, 5):
            a = compute_star(p, sample, M)
            b = reference_star(p, sample, M)
            ka = sorted(tuple(np.round(t, 8)) for t in a.corners)
            kb = sorted(tuple(np.round(t, 8)) for t in b.corners)
            assert ka == kb

    def test_three_sphere_stars_agree(self):
        M = UnitSphere(3, 4)
        net = farthest_point_net(M.sample(20000, seed=1), 0.6, seed=1)
        for p in (0, len(net.points) // 2, len(net.points) - 1):
            a = compute_star(p, net, M)
            b = reference_star(p, net, M)
            _assert_same_star(a, b)
            assert a.m_simplices()


# ===== three-manifolds =====

def test_three_sphere_complex_is_closed_manifold():
    M = UnitSphere(3, 4)
    net = farthest_point_net(M.sample(20000, seed=1), 0.45, seed=1)
    cplx = assemble_complex(net, M)
    assert not cplx.consistency_report()
    ok, diagnostics = manifold_complex_check(cplx.m_simplices(), 3)
    assert ok, diagnostics
    assert euler_characteristic(cplx.m_simplices()) == 0


def test_flat_three_patch_matches_ambient_delaunay():
    M = FlatPatch(3, 4)
    net = farthest_point_net(M.sample(4000, seed=3), 0.3, seed=3)
    cplx = assemble_complex(net, M)
    tets = set(cplx.m_simplices())
    assert tets
    flat = net.points[:, :3]
    ambient = set(ambient_delaunay_bruteforce(flat).of_dim(3))
    assert tets <= ambient
    # a corner within the 8 epsilon cell box in norm is inside the box,
    # so only ambient tetrahedra of larger circumradius may be missing
    box = 8.0 * net.epsilon
    for t in ambient - tets:
        assert circumsphere(as_simplex(t), flat).radius > box


def test_radius_bound_on_sphere_net():
    M = UnitSphere(2, 3)
    dense = M.sample(3000, seed=1)
    net = farthest_point_net(dense, 0.25, seed=0)
    cplx = assemble_complex(net, M)
    for star in cplx.stars.values():
        for s, (c, r) in star.centers.items():
            assert r <= 4.0 * net.epsilon


# ===== degenerate (cospherical) corners =====

SQUARE = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                   [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


class TestCocircularSquare:
    def sample(self):
        return SampleSet(points=SQUARE, epsilon=1.0, sparsity=1.0)

    @BUILDS
    def test_degenerate_corner_emits_all_subsets(self, build):
        star = build(0, self.sample(), FlatPatch(2, 3))
        assert sorted(star.centers, key=lambda s: (len(s), s)) == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
        for s, (c, r) in star.centers.items():
            assert c == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
            assert r == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_complex_is_consistent_and_shared(self):
        cplx = assemble_complex(self.sample(), FlatPatch(2, 3))
        assert not cplx.consistency_report()
        # every vertex sees the one cocircular corner
        full = (0, 1, 2, 3)
        for v in range(4):
            assert full in cplx.stars[v].centers
        assert full in cplx.simplices()
        assert len(cplx.m_simplices()) == 4

    def test_cosph_witness_weight_zero(self):
        cplx = assemble_complex(self.sample(), FlatPatch(2, 3))
        (entries,) = _cosph_scan(cosph_state(cplx, 0.2, 0.1), [0])
        assert list(entries) == [(0, 1, 2, 3)]
        w, sigma = entries[(0, 1, 2, 3)]
        assert 0 in sigma and w.carrier not in sigma
        assert tuple(sorted(sigma + (w.carrier,))) == (0, 1, 2, 3)
        assert w.weight == pytest.approx(0.0, abs=1e-9)


class TestCosphGaps:
    def almost_square(self, y3):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [1.0, 1.0, 0.0], [0.0, y3, 0.0]])
        return SampleSet(points=pts, epsilon=1.0, sparsity=1.0)

    def test_small_gap_entry_value(self):
        cplx = assemble_complex(self.almost_square(1.02), FlatPatch(2, 3))
        (entries,) = _cosph_scan(cosph_state(cplx, 0.2, 0.1), [0])
        assert list(entries) == [(0, 1, 2, 3)]
        w, sigma = entries[(0, 1, 2, 3)]
        # two star simplices see the same tau; the smaller gap wins:
        # sigma=(0,2,3) has center (0.49, 0.51) and the witness is site 1
        assert sigma == (0, 2, 3)
        assert w.carrier == 1
        assert w.weight == pytest.approx(np.sqrt(0.02), rel=1e-9)

    def test_gap_beyond_threshold_is_ignored(self):
        cplx = assemble_complex(self.almost_square(1.2), FlatPatch(2, 3))
        assert _cosph_scan(cosph_state(cplx, 0.2, 0.1), [0]) == [{}]

    def test_delta0_domain(self):
        cplx = assemble_complex(self.almost_square(1.2), FlatPatch(2, 3))
        state = cosph_state(cplx, 0.2, 0.1)
        for bad in (0.0, 0.25, 0.3, -0.1):
            # Parameters itself rejects 0 and -0.1; the scan must too
            state.params.delta0 = bad
            with pytest.raises(ValueError):
                _cosph_scan(state, [0])

    def test_generic_net_has_no_entries_at_tiny_delta0(self):
        M = UnitSphere(2, 3)
        dense = M.sample(2500, seed=2)
        net = farthest_point_net(dense, 0.3, seed=0)
        cplx = assemble_complex(net, M)
        state = cosph_state(cplx, 0.001, 0.01)
        for p in range(0, len(net.points), 11):
            assert _cosph_scan(state, [p]) == [{}]


# ===== one scan against the per-centre reference =====

def _entries_for_center(cplx, sigma, c, r, delta0, gamma0, sites=None):
    """Reference: the per-centre scan the stacked one replaced.  With
    ``sites`` it has no reach filter, as the one-site witness path had."""
    m = cplx.manifold.m
    if len(sigma) != m + 1 or r >= cplx.epsilon:
        return []
    if classify_gamma(sigma, gamma0, cplx.points) is not GammaClass.GOOD:
        return []
    pts = cplx.points
    if sites is None:
        reach_out = r * (1.0 + delta0 ** 2) / (1.0 - delta0 ** 2) * (1.0 + 1e-9)
        sites = sorted(cplx.tree.query_ball_point(c, reach_out))
    sites = np.array([q for q in sites if q not in sigma], dtype=np.intp)
    site_pts = pts[sites]
    gap = ((site_pts - c) ** 2).sum(axis=1) - r * r
    outside = gap >= -1e-9 * max(r * r, 1e-30)
    if not outside.any():
        return []
    gap = np.maximum(gap, 0.0)
    ell_sigma, _ = edge_extremes(sigma, pts)
    dq = np.linalg.norm(site_pts[:, None, :] - pts[list(sigma)], axis=2)
    ell_tau = np.minimum(ell_sigma, dq.min(axis=1))
    hit = outside & (gap <= np.float_power(delta0 * ell_tau, 2))
    return [(tuple(sorted(sigma + (q,))),
             ElementaryWeight(q, float(np.sqrt(g))))
            for q, g in zip(sites[hit].tolist(), gap[hit])]


def _merged_entries(cplx, p, delta0, gamma0, sites=None):
    """Reference: the smallest weight per tau over every centre of St(p)."""
    best = {}
    for sigma, (c, r) in cplx.stars[p].centers.items():
        for tau, w in _entries_for_center(cplx, sigma, c, r, delta0,
                                          gamma0, sites):
            if tau not in best or w.weight < best[tau].weight:
                best[tau] = w
    return best


def _generator(cplx, p, tau):
    """Reference: the star m-simplex whose tangent ball exhibits tau,
    smallest gap, the first in sorted order on a tie."""
    star = cplx.stars[p]
    best = None
    for sigma in sorted(star.centers):
        if len(sigma) != cplx.manifold.m + 1 or not set(sigma) <= set(tau):
            continue
        (q,) = set(tau) - set(sigma)
        c, r = star.centers[sigma]
        gap = float(((cplx.points[q] - c) ** 2).sum() - r * r)
        if best is None or gap < best[0]:
            best = (gap, sigma)
    return best[1]


def _torus_net_complex():
    torus = TorusOfRevolution(2.0, 0.5)
    net = farthest_point_net(torus.sample(60000, seed=11), eps=0.3, seed=11)
    return assemble_complex(net, torus)


def _sphere_net_complex():
    sphere = UnitSphere(2, 3)
    net = farthest_point_net(sphere.sample(8000, seed=2), eps=0.3, seed=2)
    return assemble_complex(net, sphere)


def _grid_complex():
    # exact binary coordinates: every grid square is exactly cocircular,
    # so its three triangles at a vertex tie on the gap
    g = np.arange(6) * 0.25
    pts = np.array([(x, y, 0.0) for x in g for y in g])
    return assemble_complex(SampleSet(points=pts, epsilon=0.5, sparsity=0.0),
                            FlatPatch(2, 3))


@pytest.mark.parametrize("build,delta0,min_entries,min_ties", [
    (_torus_net_complex, 0.05, 0, 0),
    (_torus_net_complex, 0.24, 20, 0),
    (_sphere_net_complex, 0.24, 10, 0),
    (_grid_complex, 0.05, 50, 50),
], ids=["torus", "torus-d0.24", "sphere-d0.24", "grid"])
def test_scan_matches_per_centre_reference(build, delta0, min_entries,
                                           min_ties):
    """On every star: the same taus, weight values and generators as the
    per-centre scan, merge and generator search; and with the sites
    within the witness radius passed explicitly, the same taus and
    weights as the unfiltered per-centre scan over those sites."""
    cplx = build()
    gamma0 = 0.05
    state = cosph_state(cplx, delta0, gamma0)
    r_w = 2.1 * cplx.epsilon
    n_entries = n_ties = 0
    for p in cplx.stars:
        (got,) = _cosph_scan(state, [p])
        want = _merged_entries(cplx, p, delta0, gamma0)
        assert sorted(got) == sorted(want), p
        for tau, w in want.items():
            weight, sigma = got[tau]
            assert weight.weight == w.weight, (p, tau)
            assert sigma == _generator(cplx, p, tau), (p, tau)
            assert weight.carrier == (set(tau) - set(sigma)).pop()
            gaps = [float(((cplx.points[q] - c) ** 2).sum() - r * r)
                    for s, (c, r) in cplx.stars[p].centers.items()
                    if len(s) == len(tau) - 1 and set(s) < set(tau)
                    for q in set(tau) - set(s)]
            n_ties += len(gaps) != len(set(gaps))
        n_entries += len(want)
        sites = sorted(cplx.tree.query_ball_point(cplx.points[p], r_w))
        (got,) = _cosph_scan(state, [p], sites=sites)
        want = _merged_entries(cplx, p, delta0, gamma0, sites=sites)
        assert sorted(got) == sorted(want), p
        assert all(got[tau][0].weight == w.weight for tau, w in want.items())
    assert n_entries >= min_entries
    assert n_ties >= min_ties


def _three_sphere_net_complex_045():
    s3 = UnitSphere(3, 4)
    net = farthest_point_net(s3.sample(20000, seed=1), eps=0.45, seed=1)
    return assemble_complex(net, s3)


def _flat_complex(seed):
    return lambda: assemble_complex(
        SampleSet(points=flat_sites(seed), epsilon=0.25, sparsity=0.0),
        FlatPatch(2, 3))


def _lattice_complex():
    return assemble_complex(_lattice_patch(), FlatPatch(2, 3))


@pytest.mark.parametrize("build,gamma0,n_bare", [
    (_torus_net_complex, 0.05, 0), (_three_sphere_net_complex_045, 0.05, 0),
    *((_flat_complex(seed), 0.05, 0) for seed in range(1, 6)),
    (_lattice_complex, 0.3, 0), (_lattice_complex, 0.5, 1)],
    ids=["torus", "s3", "flat1", "flat2", "flat3", "flat4", "flat5",
         "lattice", "lattice-g0.5"])
def test_stacked_cosph_scan_matches_per_star_loop(build, gamma0, n_bare):
    """One scan over every star, and one witness scan of the stars
    around a site against that site alone, give each star bitwise the
    record of scanning it on its own: the same taus in the same order,
    carriers, weights and generators.  A star none of whose small
    m-simplices is good (``n_bare`` of them) gets an empty record."""
    cplx = build()
    delta0 = 0.24
    state = cosph_state(cplx, delta0, gamma0)
    m = cplx.manifold.m
    bases = list(cplx.stars)[::-1]

    def same(got, want):
        assert list(got) == list(want)
        for tau, (w, sigma) in want.items():
            assert got[tau][0].carrier == w.carrier, tau
            assert got[tau][0].weight == w.weight, tau
            assert got[tau][1] == sigma, tau

    full = _cosph_scan(state, bases)
    assert len(full) == len(bases)
    for p, got in zip(bases, full):
        same(got, cosph_scan_per_star(cplx, p, delta0, gamma0))
    bare = [k for k, p in enumerate(bases)
            if all(classify_gamma(s, gamma0, cplx.points)
                   is not GammaClass.GOOD
                   for s, (_c, r) in cplx.stars[p].centers.items()
                   if len(s) == m + 1 and r < cplx.epsilon)]
    assert len(bare) == n_bare
    assert all(full[k] == {} for k in bare)
    n_witnessed = 0
    for x in bases:
        around = [int(p) for p in cplx.tree.query_ball_point(
            cplx.points[x], 2.1 * cplx.epsilon, return_sorted=True) if p != x]
        got = _cosph_scan(state, around, sites=(x,))
        for p, own in zip(around, got):
            same(own, cosph_scan_per_star(cplx, p, delta0, gamma0,
                                          sites=(x,)))
            n_witnessed += bool(own)
    assert sum(map(bool, full)) > 0 and n_witnessed > 0
    assert _cosph_scan(state, []) == []
    assert _cosph_scan(state, [], sites=(0,)) == []


# ===== stacked tangent centres against the per-corner solve =====

def _tangent_center_per_corner(simplex, p, pts, frame):
    """One corner's equidistance system, solved alone: the reference for
    the stacked solve in ``_build_stars``.  Returns (c, r, t)."""
    others = [q for q in simplex if q != p]
    u, b = site_arrays_per_star(p, pts, others, frame)
    a_mat = 2.0 * u
    if len(others) == len(frame):
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
    return pts[p] + frame.T @ t, float(np.linalg.norm(t)), t


def _star_per_corner(p, cplx):
    """The star of p with every corner's centre solved and checked for
    emptiness one at a time, in corner order.  A real corner is its own
    solve's t; a synthetic one keeps the coordinates of the cell that
    ``cell_corners`` finds."""
    pts, tree, m = cplx.points, cplx.tree, cplx.manifold.m
    frame = frame_at(cplx.manifold, pts[p])
    prune_r = PRUNE_MULT * cplx.epsilon
    while True:
        idx = np.array(sorted(
            i for i in tree.query_ball_point(pts[p], prune_r) if i != p))
        u, b = site_arrays_per_star(p, pts, idx, frame)
        corners = cell_corners(u, b, prune_r)
        slack = b[None, :] - corners @ (2.0 * u).T
        tol = 1e-9 * max(b.max(), (corners ** 2).sum(axis=1).max())
        centers, corner_simplex, seen, real = {}, [], {}, {}
        for row in slack:
            key = tuple(sorted(int(q) for q in idx[np.abs(row) <= tol]))
            if len(key) < m:
                corner_simplex.append(None)
                continue
            if key not in seen:
                c, r, t = _tangent_center_per_corner((p,) + key, p, pts,
                                                     frame)
                d_min = float(tree.query(c)[0])
                if d_min >= r * (1.0 - 1e-9):
                    seen[key] = (c, r, t)
                elif d_min >= prune_r - r:
                    break
                else:
                    seen[key] = None
            if seen[key] is None:
                corner_simplex.append(None)
                continue
            c, r, t = seen[key]
            real[len(corner_simplex)] = t
            full = tuple(sorted((p,) + key))
            corner_simplex.append(full)
            centers[full] = (c, r)
            if len(key) > m:
                for sub in itertools.combinations(key, m):
                    centers[tuple(sorted((p,) + sub))] = (c, r)
        else:
            for i, t in real.items():
                corners[i] = t
            return centers, corner_simplex, corners
        # a site beyond the pruning radius interferes: widen and redo
        prune_r *= 2.0


def _three_sphere_net_complex():
    s3 = UnitSphere(3, 4)
    net = farthest_point_net(s3.sample(20000, seed=1), eps=0.6, seed=1)
    return assemble_complex(net, s3)


@pytest.mark.parametrize("build", [
    _torus_net_complex, _sphere_net_complex, _three_sphere_net_complex,
    _grid_complex], ids=["torus", "sphere", "s3", "grid"])
def test_stacked_star_matches_per_corner_solve(build):
    """Every star: the same centre keys, bitwise-equal centres and radii,
    corner simplices and corners as solving each corner on its own."""
    cplx = build()
    n_degenerate = 0
    for p, star in cplx.stars.items():
        centers, corner_simplex, corners = _star_per_corner(p, cplx)
        assert list(star.centers) == list(centers), p
        for key, (c, r) in centers.items():
            got_c, got_r = star.centers[key]
            assert got_c.tobytes() == c.tobytes(), (p, key)
            assert got_r == r and type(got_r) is float, (p, key)
        assert star.corner_simplex == corner_simplex, p
        assert star.corners.tobytes() == corners.tobytes(), p
        n_degenerate += any(len(s) > cplx.manifold.m + 1
                            for s in star.centers)
    if build is _grid_complex:
        # the lstsq path for cospherical corners ran too
        assert n_degenerate > 0


def test_stacked_centres_reject_singular_rows_only():
    # row 0 is the antipodal (rank-1) system of test_tangent_center_singular
    frame = frame_at(UnitSphere(2, 3), OCTA[0])
    centres, r2, accepted, t = tangent_centers(
        OCTA, 0, [[1, 3], [1, 2], [2, 3]], frame)
    assert accepted.tolist() == [False, True, True]
    assert np.isnan(centres[0]).all() and np.isnan(r2[0])
    for row, others in ((1, (1, 2)), (2, (2, 3))):
        c, r, t_one = _tangent_center_per_corner((0,) + others, 0, OCTA,
                                                 frame)
        assert centres[row].tobytes() == c.tobytes()
        assert np.sqrt(r2[row]) == r
        assert t[row].tobytes() == t_one.tobytes()


def test_condition_bounds_decide_as_cond(monkeypatch):
    """``_well_conditioned`` gives the verdict of ``np.linalg.cond`` on
    rows of every condition number, from the bounds far from COND_LIMIT
    and from ``np.linalg.cond`` near it and on singular rows."""
    rng = np.random.default_rng(3)
    exact = []
    real_cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond",
                        lambda a: exact.append(len(a)) or real_cond(a))
    for m in (2, 3):
        kappa = np.concatenate([
            10.0 ** rng.uniform(0.0, 30.0, 400),
            COND_LIMIT * (1.0 + np.linspace(-1e-6, 1e-6, 21)),
            COND_LIMIT * np.array([0.49, 0.51, 1.99, 2.01])])
        rows = []
        for k in kappa:
            left = np.linalg.qr(rng.normal(size=(m, m)))[0]
            right = np.linalg.qr(rng.normal(size=(m, m)))[0]
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            rows.append(left @ np.diag(scale * np.geomspace(1.0, 1.0 / k, m))
                        @ right)
        a_mat = np.array(rows + [np.zeros((m, m)), np.ones((m, m))])
        want = real_cond(a_mat)
        exact.clear()
        got = stars_module._well_conditioned(a_mat)
        assert got.tolist() == (np.isfinite(want)
                                & (want <= COND_LIMIT)).tolist()
        # the bounds decide some rows and the SVD the others; the lower
        # bound is about sqrt(cond) for m = 2, so it rejects only rows
        # with cond above about 1e25
        assert 0 < sum(exact) < len(a_mat)


# ===== batch star builds =====

def _batch(sample, manifold, bases):
    pts = np.asarray(sample.points, dtype=float)
    return _build_stars(bases, pts, cKDTree(pts), manifold, sample.epsilon)


def _assert_identical_stars(a, b):
    assert a.base == b.base
    assert a.corners.tobytes() == b.corners.tobytes(), a.base
    assert a.corner_simplex == b.corner_simplex, a.base
    assert list(a.centers) == list(b.centers), a.base
    for key, (c, r) in a.centers.items():
        assert b.centers[key][0].tobytes() == c.tobytes(), (a.base, key)
        assert b.centers[key][1] == r, (a.base, key)
    assert a.frame.tobytes() == b.frame.tobytes()


def _torus_net():
    torus = TorusOfRevolution(2.0, 0.5)
    return farthest_point_net(torus.sample(60000, seed=11), eps=0.3,
                              seed=11), torus


def _three_sphere_net():
    s3 = UnitSphere(3, 4)
    return farthest_point_net(s3.sample(20000, seed=1), eps=0.45,
                              seed=1), s3


def _flat_net(seed):
    return lambda: (SampleSet(points=flat_sites(seed), epsilon=0.25,
                              sparsity=0.0), FlatPatch(2, 3))


@pytest.mark.parametrize("make", [
    _torus_net, _three_sphere_net, *(_flat_net(seed) for seed in range(1, 6)),
    lambda: (octa_sample(), UnitSphere(2, 3)),
], ids=["torus", "s3", "flat1", "flat2", "flat3", "flat4", "flat5", "octa"])
def test_batch_build_equals_one_star_builds(make):
    """Every star of one batch over all vertices, and of the batch in
    reverse order, is bitwise the star built on its own; on the nets the
    batch spans several ``_site_arrays`` chunks."""
    sample, manifold = make()
    n = len(sample.points)
    assert n > 4 * _SITE_CHUNK or n == len(OCTA)
    batch = _batch(sample, manifold, range(n))
    backward = _batch(sample, manifold, range(n - 1, -1, -1))[::-1]
    for p in range(n):
        alone = compute_star(p, sample, manifold)
        _assert_identical_stars(batch[p], alone)
        _assert_identical_stars(backward[p], alone)


@pytest.mark.parametrize("make", [_torus_net, _three_sphere_net],
                         ids=["torus", "s3"])
def test_site_arrays_match_per_star_product(make):
    """Chunk by chunk over every vertex, as a batch build gathers them,
    the stacked site rows are bitwise each star's own rel @ B.T and
    |q - p|^2, for N = 3 and N = 4."""
    sample, manifold = make()
    pts = np.asarray(sample.points, dtype=float)
    tree = cKDTree(pts)
    n = len(pts)
    frames = tangent_frames(manifold, pts)
    balls = tree.query_ball_point(pts, PRUNE_MULT * sample.epsilon,
                                  return_sorted=True)
    assert n > 4 * _SITE_CHUNK
    for c0 in range(0, n, _SITE_CHUNK):
        chunk = np.arange(c0, min(n, c0 + _SITE_CHUNK))
        idx, u, b, owner = _site_arrays(pts, chunk, frames[chunk],
                                        balls[c0:c0 + _SITE_CHUNK])
        for k, p in enumerate(chunk):
            want_idx = np.array([q for q in balls[p] if q != p])
            want_u, want_b = site_arrays_per_star(p, pts, want_idx,
                                                  frame_at(manifold, pts[p]))
            assert idx[owner == k].tolist() == want_idx.tolist()
            assert u[owner == k].tobytes() == want_u.tobytes(), p
            assert b[owner == k].tobytes() == want_b.tobytes(), p


def _widening_sample():
    """Vertex 3 lies beyond the first pruning radius of vertex 0
    (8 * 0.1) but inside the tangent ball of its corner (1, 2)."""
    pts = np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0], [0.0, 0.7, 0.0],
                    [0.6, 0.6, 0.0]])
    return SampleSet(points=pts, epsilon=0.1, sparsity=0.0)


def test_batch_widens_a_star_in_a_second_round(monkeypatch):
    sample, flat = _widening_sample(), FlatPatch(2, 3)
    rounds = []
    real = stars_module.tangent_centers
    monkeypatch.setattr(stars_module, "tangent_centers",
                        lambda *args: rounds.append(set(args[1].tolist()))
                        or real(*args))
    batch = _batch(sample, flat, range(4))
    # one stacked solve per round; vertices 1 and 2 close in the first
    assert rounds == [{0, 1, 2, 3}, {0, 3}]
    assert 3 in {v for s in batch[0].centers for v in s}
    monkeypatch.setattr(stars_module, "tangent_centers", real)
    for p in range(4):
        _assert_identical_stars(batch[p], compute_star(p, sample, flat))


def test_batch_raises_the_first_failing_base_error(monkeypatch):
    flat = FlatPatch(2, 3)
    pts = np.vstack([_widening_sample().points,
                     [[10.0, 10.0, 0.0],                     # 4: alone
                      [5.0, -5.0, 1e-3],                     # 5: off M
                      [20.0, 20.0, 0.0], [20.0, 20.0, 0.0],  # 6, 7: one
                      [20.3, 20.0, 0.0]]])
    sample = SampleSet(points=pts, epsilon=0.1, sparsity=0.0)
    alone = (NeighborhoodTooSparse, "vertex 4 has 0 neighbors")
    for bases, (error, message) in [
            ([4, 5], alone),
            ([5, 4], (PointNotOnManifold, "residual 1.000e-03")),
            ([0, 6, 4], (SparsityViolation, "points 6 and 7 coincide")),
            ([1, 4, 6], alone)]:
        with pytest.raises(error, match=message):
            _batch(sample, flat, bases)
        # building them one at a time in that order raises the same
        with pytest.raises(error, match=message):
            for p in bases:
                compute_star(p, sample, flat)
    # vertex 0 fails only in its second round, after vertex 4 has failed
    real = stars_module._plane_cells

    def second_round_fails(idx, u, b, starts, boxes):
        return [SingularSystem("second round") if box > PRUNE_MULT * 0.1
                else cell
                for cell, box in zip(real(idx, u, b, starts, boxes), boxes)]

    monkeypatch.setattr(stars_module, "_plane_cells", second_round_fails)
    with pytest.raises(SingularSystem, match="second round"):
        _batch(sample, flat, [0, 4])
    with pytest.raises(NeighborhoodTooSparse, match="vertex 4"):
        _batch(sample, flat, [4, 0])


# ===== the plane route against the Qhull route =====

def _turned_torus_net(seed):
    """The ``_torus_net`` points turned about the torus axis by an angle
    drawn from seed, as the benchmark turns its torus net."""
    net, torus = _torus_net()
    theta = 2.0 * np.pi * np.random.default_rng(seed).random()
    c, s = np.cos(theta), np.sin(theta)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return SampleSet(points=net.points @ turn.T, epsilon=net.epsilon,
                     sparsity=net.sparsity), torus


@pytest.mark.parametrize("make", [
    *(_flat_net(seed) for seed in range(1, 4)),
    lambda: (_lattice_patch(), FlatPatch(2, 3)),
    lambda: _turned_torus_net(1),
], ids=["flat1", "flat2", "flat3", "lattice", "torus"])
def test_plane_route_equals_qhull_route(make, monkeypatch):
    """An m = 2 build makes no Qhull call, and each of its stars is
    bitwise the star whose cells come from ``_cell_corners`` and
    ``_tight_keys``: the same keys, centres and radii, the same real
    corners for each simplex, and synthetic corners within rounding."""
    sample, manifold = make()
    n = len(sample.points)

    def no_qhull(*_args):
        raise AssertionError("an m = 2 build called _cell_corners")

    monkeypatch.setattr(stars_module, "_cell_corners", no_qhull)
    stars = _batch(sample, manifold, range(n))
    monkeypatch.undo()
    monkeypatch.setattr(stars_module, "_plane_cells",
                        plane_cells_by(_cell_corners))
    qhull = _batch(sample, manifold, range(n))
    n_synthetic = 0
    for a, b in zip(stars, qhull):
        assert list(a.centers) != [] and sorted(a.centers) == sorted(b.centers)
        for key, (c, r) in a.centers.items():
            assert b.centers[key][0].tobytes() == c.tobytes(), (a.base, key)
            assert b.centers[key][1] == r, (a.base, key)
        real = {}
        for star in (a, b):
            real[star is a] = sorted((s, t.tobytes()) for s, t in zip(
                star.corner_simplex, star.corners) if s is not None)
        assert real[True] == real[False], a.base
        synth_a = a.corners[[s is None for s in a.corner_simplex]]
        synth_b = b.corners[[s is None for s in b.corner_simplex]]
        assert len(synth_a) == len(synth_b), a.base
        if len(synth_a):
            gap = np.abs(synth_a[:, None] - synth_b[None]).max(axis=2)
            assert gap.min(axis=1).max() <= 1e-12 * sample.epsilon, a.base
            assert gap.min(axis=0).max() <= 1e-12 * sample.epsilon, a.base
        n_synthetic += len(synth_a)
    # the flat patches have rim cells that reach the box
    assert n_synthetic > 0 or isinstance(manifold, TorusOfRevolution)


def test_three_sphere_build_uses_qhull(monkeypatch):
    calls = []
    real = stars_module._cell_corners
    monkeypatch.setattr(stars_module, "_cell_corners",
                        lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(stars_module, "_plane_cells", None)
    sample, manifold = _three_sphere_net()
    _batch(sample, manifold, range(4))
    assert len(calls) >= 4


def test_batch_off_manifold_error_names_the_base():
    # vertex 5 is the first row of the batch, and the error names the
    # vertex, not its place in the batch
    flat = FlatPatch(2, 3)
    pts = np.vstack([_widening_sample().points,
                     [[10.0, 10.0, 0.0], [5.0, -5.0, 1e-3]]])
    sample = SampleSet(points=pts, epsilon=0.1, sparsity=0.0)
    message = r"^point 5: residual 1\.000e-03 exceeds 1e-09$"
    with pytest.raises(PointNotOnManifold, match=message):
        _batch(sample, flat, [5, 4])
    with pytest.raises(PointNotOnManifold, match=message):
        compute_star(5, sample, flat)


# ===== union complex bookkeeping =====

def test_octahedron_complex_counts():
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    tris = cplx.m_simplices()
    assert len(tris) == 8
    edges = [s for s in cplx.simplices() if len(s) == 2]
    verts = [s for s in cplx.simplices() if len(s) == 1]
    assert len(edges) == 12
    assert len(verts) == 6
    assert not cplx.consistency_report()


def test_consistency_report_flags_missing_star_entry():
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    removed = (0, 1, 2)
    del cplx.stars[0].centers[removed]
    report = cplx.consistency_report()
    assert report == {removed: [0]}


# ===== incremental insertion =====

class TestInsertPoint:
    def build_flat(self, n=40, seed=13, extent=1.0, eps=0.5):
        M = FlatPatch(2, 3)
        pts = M.sample(n, seed, extent=extent)
        sample = SampleSet(points=pts, epsilon=eps, sparsity=0.0)
        return M, pts, assemble_complex(sample, M)

    def fresh(self, M, pts, eps):
        return assemble_complex(
            SampleSet(points=pts, epsilon=eps, sparsity=0.0), M)

    def assert_same_stars(self, cplx, ref):
        """Every star has the keys of a fresh build, with the same
        centres and radii bit for bit, and its cell radius."""
        assert cplx.m_simplices() == ref.m_simplices()
        for p in range(cplx.n_points):
            assert sorted(cplx.stars[p].centers) == \
                sorted(ref.stars[p].centers), p
            for s in cplx.stars[p].centers:
                ca, ra = cplx.stars[p].centers[s]
                cb, rb = ref.stars[p].centers[s]
                assert ra == rb, (p, s)
                assert ca.tobytes() == cb.tobytes(), (p, s)
            assert cplx.cell_radii[p] == ref.stars[p].max_radius()

    def assert_rebuilt(self, cplx, info, ref, p):
        """p was cut and rebuilt, not clipped, into the star of a fresh
        build, corners included."""
        assert p in info["recomputed"] and p not in info["clipped"]
        assert_same_star_bitwise(cplx.stars[p], ref.stars[p])

    def test_insert_matches_full_rebuild(self):
        M, pts, cplx = self.build_flat()
        x = np.array([0.431, 0.277, 0.0])
        info = cplx.insert_point(x)
        assert info["index"] == 40
        ref = self.fresh(M, cplx.points, 0.5)
        self.assert_same_stars(cplx, ref)
        # every cut star here is interior and simple, so it was clipped
        assert info["clipped"] == info["recomputed"]
        for p in info["clipped"]:
            assert_same_star_bitwise(cplx.stars[p], ref.stars[p])

    def test_far_insert_leaves_far_stars_alone(self):
        M, pts, cplx = self.build_flat(n=120, seed=4, extent=8.0, eps=0.6)
        x = np.array([7.8, 7.8, 0.0])
        before = {p: cplx.stars[p] for p in range(120)}
        far = [p for p in range(120) if np.linalg.norm(pts[p] - x)
               > 2.0 * before[p].max_radius() * (1.0 + 1e-6)]
        assert far, "fixture should contain stars beyond twice their radius"
        cplx.insert_point(x)
        for p in far:
            assert cplx.stars[p] is before[p]
        # and the result still equals a full rebuild
        ref = self.fresh(M, cplx.points, 0.6)
        assert cplx.m_simplices() == ref.m_simplices()

    def test_star_without_corners_is_always_rebuilt(self):
        M, pts, cplx = self.build_flat(n=120, seed=4, extent=8.0, eps=0.6)
        x = np.array([7.8, 7.8, 0.0])
        far = int(np.argmax(np.linalg.norm(pts - x, axis=1)))
        cplx.stars[far].corners = np.zeros((0, 2))
        cplx.cell_radii[far] = cplx.stars[far].max_radius()
        assert cplx.cell_radii[far] == np.inf
        info = cplx.insert_point(x)
        assert far in info["recomputed"]
        assert cplx.cell_radii[far] == cplx.stars[far].max_radius() < np.inf

    def test_uncut_candidates_are_skipped_but_correct(self):
        M, pts, cplx = self.build_flat(n=60, seed=9)
        x = np.array([0.912, 0.104, 0.0])
        info = cplx.insert_point(x)
        assert info["untouched"], "some candidate cells should be uncut"
        assert info["recomputed"], "the new site must cut someone's cell"
        ref = self.fresh(M, cplx.points, 0.5)
        for p in info["untouched"]:
            assert sorted(cplx.stars[p].centers) == sorted(ref.stars[p].centers)

    def test_cut_far_across_an_empty_disk(self):
        """A rim vertex of a hole of radius about 7 eps has a cell corner
        near the hole's centre, so a site on the far side of the hole cuts
        its cell from more than 12 eps away: a fixed rebuild radius of
        12 eps would leave that star stale."""
        eps = 0.1
        rng = np.random.default_rng(3)
        rings = []
        for k, (r, n) in enumerate([(0.7, 44), (0.8, 50), (0.9, 57)]):
            t = 2 * np.pi * (np.arange(n) + 0.5 * k) / n
            rr = r * (1 + 0.02 * rng.uniform(-1, 1, n)) if k == 0 \
                else np.full(n, r)
            rings.append(np.column_stack([rr * np.cos(t), rr * np.sin(t),
                                          np.zeros(n)]))
        pts = np.vstack(rings)
        M = FlatPatch(2, 3)
        cplx = self.fresh(M, pts, eps)
        rim = int(np.argmax(cplx.cell_radii[:44]))
        x = -0.55 * pts[rim] / np.linalg.norm(pts[rim])
        far_cut = [p for p in cplx.stars
                   if np.linalg.norm(pts[p] - x) > 12 * eps
                   and star_is_cut_by(cplx, p, x)]
        assert far_cut == [rim]
        info = cplx.insert_point(x)
        assert rim in info["recomputed"]
        self.assert_same_stars(cplx, self.fresh(M, cplx.points, eps))

    # ---- clip or rebuild ----

    def test_hull_star_with_synthetic_corners_is_rebuilt(self):
        M, pts, cplx = self.build_flat()
        hull = [p for p, star in cplx.stars.items()
                if None in star.corner_simplex]
        assert hull
        h = hull[0]
        out = pts[h] - pts.mean(axis=0)
        x = pts[h] + 0.1 * out / np.linalg.norm(out)
        info = cplx.insert_point(x)
        ref = self.fresh(M, cplx.points, 0.5)
        self.assert_rebuilt(cplx, info, ref, h)
        self.assert_same_stars(cplx, ref)

    def test_degenerate_rim_corner_is_rebuilt(self):
        """A rim vertex of the lattice's removed vertex has one corner
        with its five cocircular rim neighbours."""
        M, sample = FlatPatch(2, 3), _lattice_patch()
        cplx = assemble_complex(sample, M)
        hole = np.array([1.2, 0.4 * np.sqrt(3.0), 0.0])
        rim = [p for p in range(cplx.n_points)
               if abs(np.linalg.norm(cplx.points[p] - hole) - 0.4) < 1e-9]
        assert len(rim) == 6
        v = rim[0]
        assert any(s is not None and len(s) == 6
                   for s in cplx.stars[v].corner_simplex)
        info = cplx.insert_point(cplx.points[v]
                                 + 0.35 * (cplx.points[v] - hole))
        ref = self.fresh(M, cplx.points, sample.epsilon)
        self.assert_rebuilt(cplx, info, ref, v)
        self.assert_same_stars(cplx, ref)

    def test_site_on_a_corner_ball_is_rebuilt(self):
        """x opposite p on the ball of p's first corner is tight there,
        so the clip cannot tell which sites a rebuild finds tight."""
        M, pts, cplx = self.build_flat()
        p = 3
        s = cplx.stars[p].corner_simplex[0]
        c, r = cplx.stars[p].centers[s]
        x = 2.0 * c - pts[p]
        assert np.linalg.norm(x - c) == pytest.approx(r, rel=1e-12)
        info = cplx.insert_point(x)
        ref = self.fresh(M, cplx.points, 0.5)
        for q in s:
            self.assert_rebuilt(cplx, info, ref, q)
        assert any(len(k) == 4 for k in cplx.stars[p].centers)
        self.assert_same_stars(cplx, ref)

    def test_widened_star_is_rebuilt(self):
        """As in ``_widening_sample``, vertex 0 sees sites 1 and 2 within
        its first pruning radius, and a ring beyond it that bounds its
        cell: the star comes from a second round and its corners, all
        real, reach past half the first radius."""
        eps = 0.1
        rings = [np.array([[0.0, 0.0, 0.0], [0.7, 0.0, 0.0],
                           [0.0, 0.7, 0.0]])]
        for r, n in [(0.9, 12), (1.2, 16), (1.5, 20)]:
            a = 2 * np.pi * (np.arange(n) + 0.5 * (n == 16)) / n
            rings.append(np.column_stack([r * np.cos(a), r * np.sin(a),
                                          np.zeros(n)]))
        M, pts = FlatPatch(2, 3), np.vstack(rings)
        cplx = self.fresh(M, pts, eps)
        star = cplx.stars[0]
        assert None not in star.corner_simplex
        assert any(np.linalg.norm(pts[v]) > PRUNE_MULT * eps
                   for s in star.corner_simplex for v in s)
        assert cplx.cell_radii[0] > 0.5 * PRUNE_MULT * eps
        info = cplx.insert_point(np.array([-0.2, -0.1, 0.0]))
        ref = self.fresh(M, cplx.points, eps)
        self.assert_rebuilt(cplx, info, ref, 0)
        self.assert_same_stars(cplx, ref)

    def test_failed_new_star_replaces_no_star(self, monkeypatch):
        """x off the patch fails the new star's chart after the clip has
        run: every star and cell radius stays as it was."""
        M, pts, cplx = self.build_flat()
        before = dict(cplx.stars)
        radii = cplx.cell_radii.copy()
        clips = []
        real = stars_module._clip_stars
        monkeypatch.setattr(stars_module, "_clip_stars",
                            lambda *args: clips.append(real(*args))
                            or clips[-1])
        with pytest.raises(PointNotOnManifold):
            cplx.insert_point(np.array([0.431, 0.277, 1e-3]))
        assert clips and clips[0]
        assert set(cplx.stars) == set(before)
        assert all(cplx.stars[p] is star for p, star in before.items())
        assert cplx.cell_radii[:len(radii)].tobytes() == radii.tobytes()


# ===== exports =====

def test_simplex_list_round_trip(tmp_path):
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    path = tmp_path / "octa.txt"
    write_simplex_list(path, [cplx.m_simplices()])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 8
    assert lines[0].split() == ["0", "1", "2"]
    got = sorted(tuple(int(v) for v in ln.split()) for ln in lines)
    assert got == cplx.m_simplices()


@pytest.mark.parametrize("run", ["lattice", "torus_run"])
def test_m_simplices_are_those_of_the_closure(run, request):
    """The m-simplices read off the star keys equal the closure's, on the
    lattice patch, whose cocircular hexagons are wider star keys, and on
    the refined torus."""
    cplx = (_lattice_complex() if run == "lattice"
            else request.getfixturevalue(run)[0].complex)
    m = cplx.manifold.m
    wide = {s for star in cplx.stars.values() for s in star.centers
            if len(s) > m + 1}
    assert bool(wide) == (run == "lattice")
    assert cplx.m_simplices() == [s for s in cplx.simplices()
                                  if len(s) == m + 1]


def test_m_simplices_take_subsets_of_a_wide_key():
    """A wide key held by one star alone still gives every (m + 1)-subset,
    those without its base included, as the closure does."""
    square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    cplx = TangentialComplex(SampleSet(points=square, epsilon=1.0,
                                       sparsity=1.0), FlatPatch(2, 3))
    keys = [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3)]
    cplx.stars = {0: Star(base=0, frame=np.eye(2, 3),
                          centers=dict.fromkeys(keys))}
    assert cplx.m_simplices() == keys[1:] + [(1, 2, 3)]
    assert cplx.m_simplices() == [s for s in cplx.simplices() if len(s) == 3]


def test_off_export(tmp_path):
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    path = tmp_path / "octa.off"
    write_off(path, cplx.points, cplx.m_simplices())
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "OFF"
    assert lines[1].split() == ["6", "8", "0"]
    assert len(lines) == 2 + 6 + 8
    assert lines[2 + 6].startswith("3 ")
    with pytest.raises(ValueError):
        write_off(tmp_path / "bad.off", np.zeros((3, 2)), [(0, 1, 2)])
