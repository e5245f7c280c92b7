"""Tangent-plane star construction, cosphericity scans, and the union complex."""
import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from conftest import reference_star
from tandel.errors import NeighborhoodTooSparse, SingularSystem
from tandel.geometry import (ElementaryWeight, GammaClass, as_simplex,
                             circumsphere, edge_extremes, faces)
from tandel.manifolds import (
    FlatPatch,
    SampleSet,
    UnitSphere,
    TorusOfRevolution,
    farthest_point_net,
    tangent_chart,
)
from tandel.stars import (
    PRUNE_MULT,
    TangentialComplex,
    _cosph_scan,
    _site_arrays,
    assemble_complex,
    compute_star,
    cosph_star,
    tangent_center,
    write_off,
    write_simplex_list,
)
from tandel.verify import (
    ambient_delaunay_bruteforce,
    euler_characteristic,
    manifold_complex_check,
)

# the star under test, and the same star from the reference corners
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
        chart = tangent_chart(UnitSphere(2, 3), OCTA[0])
        u, b, w2 = _site_arrays(0, OCTA, idx, chart)
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


def test_tangent_center_octahedron():
    chart = tangent_chart(UnitSphere(2, 3), OCTA[0])
    c, r = tangent_center((0, 1, 2), 0, OCTA, chart)
    assert r == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.abs(c) == pytest.approx([1.0, 1.0, 1.0])


def test_tangent_center_singular():
    chart = tangent_chart(UnitSphere(2, 3), OCTA[0])
    # antipodal equator points project to opposite rays: rank-1 system
    with pytest.raises(SingularSystem):
        tangent_center((0, 1, 3), 0, OCTA, chart)
    with pytest.raises(ValueError):
        tangent_center((1, 2, 3), 0, OCTA, chart)


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
        assert cplx.is_consistent()
        assert cplx.consistency_report() == {}


# ===== Qhull corners agree with the enumeration reference =====

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
    assert cplx.is_consistent()
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
        assert cplx.is_consistent()
        # every vertex sees the one cocircular corner
        full = (0, 1, 2, 3)
        for v in range(4):
            assert full in cplx.stars[v].centers
        assert full in cplx.simplices()
        assert len(cplx.m_simplices()) == 4

    def test_cosph_witness_weight_zero(self):
        cplx = assemble_complex(self.sample(), FlatPatch(2, 3))
        entries = cosph_star(0, 0.2, cplx, gamma0=0.1)
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
        entries = cosph_star(0, 0.2, cplx, gamma0=0.1)
        assert list(entries) == [(0, 1, 2, 3)]
        w, sigma = entries[(0, 1, 2, 3)]
        # two star simplices see the same tau; the smaller gap wins:
        # sigma=(0,2,3) has center (0.49, 0.51) and the witness is site 1
        assert sigma == (0, 2, 3)
        assert w.carrier == 1
        assert w.weight == pytest.approx(np.sqrt(0.02), rel=1e-9)

    def test_gap_beyond_threshold_is_ignored(self):
        cplx = assemble_complex(self.almost_square(1.2), FlatPatch(2, 3))
        assert cosph_star(0, 0.2, cplx, gamma0=0.1) == {}

    def test_delta0_domain(self):
        cplx = assemble_complex(self.almost_square(1.2), FlatPatch(2, 3))
        for bad in (0.0, 0.25, 0.3, -0.1):
            with pytest.raises(ValueError):
                cosph_star(0, bad, cplx, gamma0=0.1)

    def test_generic_net_has_no_entries_at_tiny_delta0(self):
        M = UnitSphere(2, 3)
        dense = M.sample(2500, seed=2)
        net = farthest_point_net(dense, 0.3, seed=0)
        cplx = assemble_complex(net, M)
        for p in range(0, len(net.points), 11):
            assert cosph_star(p, 0.001, cplx, gamma0=0.01) == {}


# ===== one scan against the per-centre reference =====

def _entries_for_center(cplx, sigma, c, r, delta0, gamma0, sites=None):
    """Reference: the per-centre scan the stacked one replaced.  With
    ``sites`` it has no reach filter, as the one-site witness path had."""
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
    r_w = 2.1 * cplx.epsilon
    n_entries = n_ties = 0
    for p in cplx.stars:
        got = cosph_star(p, delta0, cplx, gamma0)
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
        got = _cosph_scan(cplx, p, delta0, gamma0, sites=sites)
        want = _merged_entries(cplx, p, delta0, gamma0, sites=sites)
        assert sorted(got) == sorted(want), p
        assert all(got[tau][0].weight == w.weight for tau, w in want.items())
    assert n_entries >= min_entries
    assert n_ties >= min_ties


# ===== union complex bookkeeping =====

def test_octahedron_complex_counts():
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    tris = cplx.m_simplices()
    assert len(tris) == 8
    edges = [s for s in cplx.simplices() if len(s) == 2]
    verts = [s for s in cplx.simplices() if len(s) == 1]
    assert len(edges) == 12
    assert len(verts) == 6
    assert cplx.is_consistent()


def test_consistency_report_flags_missing_star_entry():
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    removed = (0, 1, 2)
    del cplx.stars[0].centers[removed]
    report = cplx.consistency_report()
    assert report == {removed: [0]}
    assert not cplx.is_consistent()


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
        assert cplx.m_simplices() == ref.m_simplices()
        for p in range(cplx.n_points):
            assert sorted(cplx.stars[p].centers) == \
                sorted(ref.stars[p].centers), p
            for s in cplx.stars[p].centers:
                ca, ra = cplx.stars[p].centers[s]
                cb, rb = ref.stars[p].centers[s]
                assert ra == pytest.approx(rb, rel=1e-9)
                assert np.allclose(ca, cb, atol=1e-9)
            assert cplx.cell_radii[p] == ref.stars[p].max_radius()

    def test_insert_matches_full_rebuild(self):
        M, pts, cplx = self.build_flat()
        x = np.array([0.431, 0.277, 0.0])
        info = cplx.insert_point(x)
        assert info["index"] == 40
        self.assert_same_stars(cplx, self.fresh(M, cplx.points, 0.5))

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
                   and cplx.star_is_cut_by(p, x)]
        assert far_cut == [rim]
        info = cplx.insert_point(x)
        assert rim in info["recomputed"]
        self.assert_same_stars(cplx, self.fresh(M, cplx.points, eps))


# ===== exports =====

def test_simplex_list_round_trip(tmp_path):
    cplx = assemble_complex(octa_sample(), UnitSphere(2, 3))
    path = tmp_path / "octa.txt"
    write_simplex_list(path, cplx.m_simplices())
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 8
    assert lines[0].split() == ["0", "1", "2"]
    got = sorted(tuple(int(v) for v in ln.split()) for ln in lines)
    assert got == cplx.m_simplices()


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
