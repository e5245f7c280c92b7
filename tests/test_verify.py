"""Brute-force Delaunay oracles, structural checks, and protection audits."""
import itertools
import math

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree
from scipy.sparse import coo_matrix

from tandel.errors import (
    DenseSampleTooCoarse,
    DisconnectedGraph,
    EmptyInput,
    TooLarge,
    UnsupportedDim,
)
from tandel.geometry import as_simplex, circumsphere
from tandel.manifolds import (
    FlatPatch,
    GeodesicGraph,
    SampleSet,
    TorusOfRevolution,
    UnitSphere,
    build_geodesic_graph,
    farthest_point_net,
)
from tandel.stars import TangentialComplex
from tandel.verify import (
    AbstractComplex,
    ambient_delaunay_bruteforce,
    as_complex,
    complex_compare,
    euler_characteristic,
    intrinsic_delaunay_oracle,
    manifold_complex_check,
    oracle_match_report,
    power_protection_audit,
    restricted_delaunay_oracle,
    _delaunay_by_lifting,
    _delaunay_by_sphere_enumeration,
    _scan_rows,
    _TIE_WINDOW_CAP,
)

from conftest import exact_flat_member, flat_sites

OCTA = np.array([
    [0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
])

OCTA_FACES = sorted([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 1, 4),
    (1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 4, 5),
])

# the unique 7-vertex torus triangulation: two vertex-transitive orbits
TORUS7 = sorted(
    [tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    + [tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]
)


# ===== abstract complexes =====

class TestAbstractComplex:
    def test_face_closure(self):
        k = AbstractComplex.from_simplices([(2, 0, 1)])
        assert len(k) == 7
        assert (0,) in k and (0, 1) in k and (0, 1, 2) in k
        assert k.counts() == {0: 3, 1: 3, 2: 1}

    def test_duplicates_collapse(self):
        k = AbstractComplex.from_simplices([(0, 1), (1, 0), (0, 1)])
        assert k.counts() == {0: 2, 1: 1}

    def test_filtered_and_vertices(self):
        k = AbstractComplex.from_simplices([(0, 1, 2, 3)])
        assert k.filtered(1).max_dim == 1
        assert k.vertices == [0, 1, 2, 3]

    def test_as_complex_passthrough(self):
        k = AbstractComplex.from_simplices([(0, 1)])
        assert as_complex(k) is k
        assert as_complex([(0, 1)]).simplices == k.simplices


class TestComplexCompare:
    def test_identity(self):
        k = AbstractComplex.from_simplices(OCTA_FACES)
        diff = complex_compare(k, k)
        assert diff.equal and not diff.only_first and not diff.only_second

    def test_one_missing_face(self):
        whole = AbstractComplex.from_simplices(OCTA_FACES)
        holed = AbstractComplex.from_simplices(OCTA_FACES[1:])
        diff = complex_compare(whole, holed)
        assert not diff.equal
        assert diff.only_first == {2: [OCTA_FACES[0]]}
        assert diff.only_second == {}


class TestEulerCharacteristic:
    def test_octahedron(self):
        assert euler_characteristic(AbstractComplex.from_simplices(OCTA_FACES)) == 2

    def test_single_triangle(self):
        assert euler_characteristic(AbstractComplex.from_simplices([(0, 1, 2)])) == 1

    def test_minimal_torus(self):
        k = AbstractComplex.from_simplices(TORUS7)
        assert k.counts() == {0: 7, 1: 21, 2: 14}
        assert euler_characteristic(k) == 0


# ===== ambient brute force =====

class TestAmbientDelaunay:
    def test_three_generic_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
        k = ambient_delaunay_bruteforce(pts)
        assert k.counts() == {0: 3, 1: 3, 2: 1}

    def test_unit_square_is_one_cocircular_clique(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        k = ambient_delaunay_bruteforce(pts)
        # one empty circle through all four corners: every subset survives
        assert len(k) == 15
        assert (0, 1, 2, 3) in k
        assert (0, 2) in k and (1, 3) in k   # both diagonals

    def test_square_with_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                        [0.5, 0.5]])
        k = ambient_delaunay_bruteforce(pts)
        assert (0, 1, 2, 3) not in k
        assert sorted(k.of_dim(2)) == [(0, 1, 4), (0, 3, 4), (1, 2, 4),
                                       (2, 3, 4)]
        assert k.counts() == {0: 5, 1: 8, 2: 4}

    def test_octahedron_full_cospherical_clique(self):
        k = ambient_delaunay_bruteforce(OCTA)
        # all six vertices on one empty sphere: the whole powerset
        assert len(k) == 63
        for f in OCTA_FACES:
            assert f in k
        assert (1, 2, 3, 4) in k   # equatorial quadruple
        assert (0, 1, 2, 3, 4, 5) in k

    def test_collinear_points_chain(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0], [6.0, 0.0]])
        k = ambient_delaunay_bruteforce(pts)
        assert sorted(k.of_dim(1)) == [(0, 2), (1, 2), (1, 3)]
        assert k.of_dim(2) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_routes_agree_on_generic_planar_sets(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(9, 2))
        a = _delaunay_by_sphere_enumeration(pts)
        b = _delaunay_by_lifting(pts)
        assert a.simplices == b.simplices
        qhull = {tuple(sorted(s)) for s in Delaunay(pts).simplices}
        assert set(a.of_dim(2)) == qhull

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routes_agree_in_three_dimensions(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 3))
        a = _delaunay_by_sphere_enumeration(pts)
        b = _delaunay_by_lifting(pts)
        assert a.simplices == b.simplices

    def test_size_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooLarge):
            ambient_delaunay_bruteforce(rng.uniform(size=(201, 2)))
        with pytest.raises(TooLarge):
            ambient_delaunay_bruteforce(rng.uniform(size=(10, 5)))
        with pytest.raises(EmptyInput):
            ambient_delaunay_bruteforce(np.zeros((0, 2)))


# ===== restricted oracle =====

class TestRestrictedOracle:
    def test_octahedron_faces_exactly(self):
        sph = UnitSphere(2, 3)
        res = restricted_delaunay_oracle(OCTA, sph, sph.sample(60000, seed=4))
        assert sorted(res.complex.of_dim(2)) == OCTA_FACES
        assert res.complex.counts() == {0: 6, 1: 12, 2: 8}
        assert 0.0 < res.band < 0.25 * np.sqrt(2.0)
        assert res.resolution == res.band
        assert res.n_witnesses == 60000

    def test_antipodal_pair_is_an_edge(self):
        sph = UnitSphere(2, 3)
        two = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        res = restricted_delaunay_oracle(two, sph, sph.sample(20000, seed=4))
        assert sorted(res.complex.simplices) == [(0,), (0, 1), (1,)]

    def test_coarse_witnesses_rejected(self):
        sph = UnitSphere(2, 3)
        with pytest.raises(DenseSampleTooCoarse):
            restricted_delaunay_oracle(OCTA, sph, sph.sample(30, seed=1))

    def test_empty_inputs_rejected(self):
        sph = UnitSphere(2, 3)
        with pytest.raises(EmptyInput):
            restricted_delaunay_oracle(np.zeros((0, 3)), sph,
                                       sph.sample(100, seed=0))


# ===== intrinsic oracle =====

class TestIntrinsicOracle:
    def test_octahedron_faces(self):
        sph = UnitSphere(2, 3)
        graph = build_geodesic_graph(sph, 20000, seed=9)
        res = intrinsic_delaunay_oracle(OCTA, sph, graph)
        assert sorted(res.complex.of_dim(2)) == OCTA_FACES
        assert res.notes["snap_max"] <= graph.h

    def test_disconnected_graph_rejected(self):
        sph = UnitSphere(2, 3)
        caps = np.vstack([
            sph.sample(200, seed=0) * [1, 1, 0.05] + [0, 0, 0.99],
            sph.sample(200, seed=1) * [1, 1, 0.05] - [0, 0, 0.99],
        ])
        caps /= np.linalg.norm(caps, axis=1, keepdims=True)
        tree = cKDTree(caps)
        pairs = tree.query_pairs(0.2, output_type="ndarray")
        w = np.linalg.norm(caps[pairs[:, 0]] - caps[pairs[:, 1]], axis=1)
        mat = coo_matrix(
            (np.r_[w, w], (np.r_[pairs[:, 0], pairs[:, 1]],
                           np.r_[pairs[:, 1], pairs[:, 0]])),
            shape=(len(caps), len(caps))).tocsr()
        graph = GeodesicGraph(points=caps, h=0.2, matrix=mat, tree=tree)
        sites = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(DisconnectedGraph):
            intrinsic_delaunay_oracle(sites, sph, graph, band=0.05)


# ===== batched witness scan against the per-subset loop =====

def _reference_scan_rows(dist_rows, sites, band, collect, delta_cap, spreads,
                         clean):
    """The witness scan as one lstsq per (witness, subset): the reference
    the batched ``_scan_rows`` must reproduce exactly."""
    n_sites = dist_rows.shape[1]
    d0 = dist_rows.min(axis=1)
    counts = (dist_rows <= (d0 + collect)[:, None]).sum(axis=1)
    for row in np.flatnonzero(counts >= 2):
        d_row = dist_rows[row]
        order = np.argsort(d_row)
        w = min(int(counts[row]), _TIE_WINDOW_CAP)
        window = order[:w]
        win_d = d_row[window]
        beyond = float(d_row[order[w]]) if w < n_sites else math.inf
        base = float(win_d[0])
        for k in range(2, w + 1):
            for local in itertools.combinations(range(w), k):
                val = float(win_d[local[-1]]) - base  # window is sorted
                if val > collect:
                    continue
                key = tuple(sorted(int(window[i]) for i in local))
                known = spreads.get(key, math.inf)
                if val >= known and key in clean:
                    continue
                if k >= 3:
                    p = sites[[window[i] for i in local]]
                    rows = p[1:] - p[0]
                    rhs = 0.5 * (win_d[list(local[1:])] ** 2
                                 - win_d[local[0]] ** 2)
                    delta, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
                    if float(np.linalg.norm(delta)) > delta_cap:
                        continue
                if val < known:
                    spreads[key] = val
                if val <= band / 3.0 and key not in clean:
                    in_set = set(local)
                    outside = beyond
                    for i in range(w):
                        if i not in in_set:
                            outside = min(outside, float(win_d[i]))
                            break
                    if outside - (base + val) >= band:
                        clean.add(key)


def _scan_fixture(seed):
    """Sites and two distance blocks with exact ties, wide windows,
    collinear triples and far-field witnesses.

    Sites: a 5 x 5 integer grid in the plane z = 0 (its rows and columns
    give collinear triples) plus random off-plane sites.  Witnesses at
    half-integer grid points see exact ties: four sites at sqrt(1/2) and
    eight at sqrt(5/2), so with a wide collect the 8-site window cap
    falls inside an exact tie.  Far-field witnesses see angularly
    compressed near-ties that only the locality test rejects.
    """
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(5.0), np.arange(5.0))
    grid = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(25)])
    sites = np.vstack([grid, rng.uniform([0, 0, -1], [4, 4, 1], (6, 3))])
    half = rng.choice(4, (12, 2)) + 0.5
    near = rng.uniform(-0.5, 4.5, (40, 3)) * [1.0, 1.0, 0.3]
    ang = rng.uniform(0.0, 2.0 * np.pi, 10)
    far = np.column_stack([2 + 30 * np.cos(ang), 2 + 30 * np.sin(ang),
                           np.zeros(10)])
    witnesses = np.vstack([np.column_stack([half, np.zeros(12)]), near, far])
    dist = np.linalg.norm(witnesses[:, None, :] - sites[None], axis=2)
    # planted ties: copy a row's nearest distance onto its next sites
    for row in rng.choice(np.arange(12, 52), 8, replace=False):
        order = np.argsort(dist[row])
        dist[row, order[1:rng.integers(2, 5)]] = dist[row, order[0]]
    split = rng.integers(20, 42)
    return sites, dist[:split], dist[split:]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("band", [0.1, 0.4])
def test_batched_scan_matches_loop(seed, band):
    sites, first, second = _scan_fixture(seed)
    collect, delta_cap = 3.0 * band, 2.0 * band
    both = np.vstack([first, second])
    ordered = np.sort(both, axis=1)
    counts = (both <= (ordered[:, 0] + collect)[:, None]).sum(axis=1)
    if band == 0.4:
        cap = _TIE_WINDOW_CAP
        assert (counts > cap).any()
        assert (ordered[counts > cap, cap - 1]
                == ordered[counts > cap, cap]).any()
    results = []
    for scan, cap_delta in [(_reference_scan_rows, delta_cap),
                            (_scan_rows, delta_cap),
                            (_reference_scan_rows, math.inf)]:
        spreads, clean = {}, set()
        for block in (first, second):
            scan(block, sites, band, collect, cap_delta, spreads, clean)
        results.append((spreads, clean))
    (ref_spreads, ref_clean), (spreads, clean), (loose, _) = results
    assert spreads == ref_spreads
    assert clean == ref_clean
    assert all(type(v) is float for v in spreads.values())
    assert any(len(key) >= 3 for key in ref_spreads)
    assert ref_clean
    assert loose != ref_spreads, "delta_cap rejects nothing in this fixture"


# ===== flat-patch coherence: every route agrees =====

@pytest.fixture(scope="module")
def case():
    flat = FlatPatch(2, 3)
    sites = flat_sites(0)
    gap = cKDTree(sites).query(sites, k=2)[0][:, 1].min()
    sample = SampleSet(points=sites, epsilon=0.25, sparsity=gap)
    cplx = TangentialComplex(sample, flat)
    cplx.build()
    return flat, sites, as_complex(cplx.simplices())


class TestFlatCoherence:
    """One seeded instance of the four-way equality; the acceptance
    suite sweeps twenty of them."""

    def test_tangential_equals_ambient(self, case):
        _flat, sites, k_tan = case
        amb = ambient_delaunay_bruteforce(sites).filtered(2)
        assert complex_compare(k_tan, amb).equal

    def test_restricted_scan_matches(self, case):
        flat, sites, k_tan = case
        step = 0.03
        ax = np.arange(-1.3, 1.3 + step, step)
        gx, gy = np.meshgrid(ax, ax)
        dense = np.column_stack([gx.ravel(), gy.ravel(),
                                 np.zeros(gx.size)])
        res = restricted_delaunay_oracle(sites, flat, dense)
        match = oracle_match_report(k_tan, res, 2)
        assert match.equal_at_resolution
        assert match.missing == [] and match.extra == []
        # sub-resolution leftovers all adjudicated exactly
        tris = set(k_tan.of_dim(2))
        for t in res.candidates(2):
            assert exact_flat_member(t, sites) == (t in tris)

    def test_intrinsic_scan_matches(self, case):
        flat, sites, k_tan = case
        step = 0.025
        ax = np.arange(-1.05, 1.05 + step, step)
        gx, gy = np.meshgrid(ax, ax)
        grid = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        grid = grid[np.linalg.norm(grid[:, :2], axis=1) <= 1.05]
        nodes = np.vstack([grid, sites])
        tree = cKDTree(nodes)
        h = 4.5 * step
        pairs = tree.query_pairs(h, output_type="ndarray")
        w = np.linalg.norm(nodes[pairs[:, 0]] - nodes[pairs[:, 1]], axis=1)
        mat = coo_matrix(
            (np.r_[w, w], (np.r_[pairs[:, 0], pairs[:, 1]],
                           np.r_[pairs[:, 1], pairs[:, 0]])),
            shape=(len(nodes), len(nodes))).tocsr()
        graph = GeodesicGraph(points=nodes, h=h, matrix=mat, tree=tree)
        # on a flat patch graph error is pure zigzag: calibrate it
        from scipy.sparse.csgraph import dijkstra
        src = np.arange(0, len(grid), len(grid) // 20)
        dg = dijkstra(mat, directed=False, indices=src)
        de = np.linalg.norm(nodes[src][:, None, :] - nodes[None, :, :], axis=2)
        mask = (de > 0) & (de < 0.7)
        err = float(np.abs(dg - de)[mask].max())
        band = 2 * (step / np.sqrt(2.0) * 1.01) + 2 * err
        res = intrinsic_delaunay_oracle(sites, flat, graph, band=band)
        match = oracle_match_report(k_tan, res, 2)
        assert match.equal_at_resolution
        assert match.missing == [] and match.extra == []
        tris = set(k_tan.of_dim(2))
        for t in res.candidates(2):
            assert exact_flat_member(t, sites) == (t in tris)


# ===== manifold-complex check =====

class TestManifoldComplexCheck:
    def test_octahedron_boundary(self):
        ok, diag = manifold_complex_check(
            AbstractComplex.from_simplices(OCTA_FACES), 2)
        assert ok
        assert not diag["bad_ridges"] and not diag["bad_links"]

    def test_minimal_torus(self):
        ok, _diag = manifold_complex_check(
            AbstractComplex.from_simplices(TORUS7), 2)
        assert ok

    def test_three_triangles_on_one_edge(self):
        k = AbstractComplex.from_simplices([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        ok, diag = manifold_complex_check(k, 2)
        assert not ok
        assert ((0, 1), 3) in diag["bad_ridges"]

    def test_punctured_octahedron(self):
        ok, diag = manifold_complex_check(
            AbstractComplex.from_simplices(OCTA_FACES[1:]), 2)
        assert not ok
        assert diag["bad_ridges"]

    def test_pinched_vertex_link(self):
        # two triangle fans sharing only vertex 0: every edge is in one
        # or two triangles around each fan, but 0's link is two cycles
        k = AbstractComplex.from_simplices([
            (0, 1, 2), (0, 2, 3), (0, 1, 3),
            (0, 4, 5), (0, 5, 6), (0, 4, 6),
        ])
        ok, diag = manifold_complex_check(k, 2)
        assert not ok
        assert 0 in diag["bad_links"]

    def test_cross_polytope_boundary_in_dim_three(self):
        # vertices +/- e_i in R^4; facets pick one sign per axis
        tets = [tuple(sorted((0 + s0, 2 + s1, 4 + s2, 6 + s3)))
                for s0 in (0, 1) for s1 in (0, 1)
                for s2 in (0, 1) for s3 in (0, 1)]
        k = AbstractComplex.from_simplices(tets)
        assert len(k.of_dim(3)) == 16
        ok, diag = manifold_complex_check(k, 3)
        assert ok, diag
        assert euler_characteristic(k) == 0

    def test_two_tetrahedra_on_one_triangle_plus_one(self):
        k = AbstractComplex.from_simplices([
            (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)])
        ok, diag = manifold_complex_check(k, 3)
        assert not ok
        assert ((0, 1, 2), 3) in diag["bad_ridges"]

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDim):
            manifold_complex_check(
                AbstractComplex.from_simplices([(0, 1, 2, 3, 4)]), 4)


# ===== power protection =====

class TestPowerProtection:
    def test_octahedron_margin_is_four(self):
        k = AbstractComplex.from_simplices(OCTA_FACES)
        rep = power_protection_audit(k, OCTA, UnitSphere(2, 3), 1e-9)
        assert rep.ok
        assert len(rep.entries) == 24
        assert rep.min_margin == pytest.approx(4.0, rel=1e-12)
        for e in rep.entries:
            assert e.radius == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_cocircular_square_margin_zero(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                       dtype=float)
        k = AbstractComplex.from_simplices([(0, 1, 2)])
        rep = power_protection_audit(k, pts, FlatPatch(2, 3), 1e-9)
        assert not rep.ok
        assert rep.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_single_triangle_one_competitor_exact(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [4, 4, 0]],
                       dtype=float)
        k = AbstractComplex.from_simplices([(0, 1, 2)])
        rep = power_protection_audit(k, pts, FlatPatch(2, 3), 1.0)
        center = np.array([0.5, 0.5, 0.0])
        expect = ((pts[3] - center) ** 2).sum() - 0.5
        assert rep.ok
        assert rep.min_margin == pytest.approx(expect, rel=1e-12)

    def test_vertices_only_margin_is_infinite(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        k = AbstractComplex.from_simplices([(0, 1, 2)])
        rep = power_protection_audit(k, pts, FlatPatch(2, 3), 1.0)
        assert rep.ok
        assert len(rep.entries) == 3
        assert all(e.margin == math.inf for e in rep.entries)
        assert rep.min_margin == math.inf

    def test_nearest_competitor_listed_first_sets_margin(self):
        # competitors come before the simplex's vertices in the point list
        pts = np.array([[5, 5, 0], [1.5, 1.5, 0], [4, -3, 0],
                        [0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        k = AbstractComplex.from_simplices([(3, 4, 5)])
        rep = power_protection_audit(k, pts, FlatPatch(2, 3), 1.0)
        center = np.array([0.5, 0.5, 0.0])
        expect = ((pts[1] - center) ** 2).sum() - 0.5
        assert rep.ok
        assert [e.vertex for e in rep.entries] == [3, 4, 5]
        for e in rep.entries:
            assert e.margin == pytest.approx(expect, rel=1e-12)

    def test_singular_system_counts_as_failure(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 5, 0]],
                       dtype=float)
        k = AbstractComplex.from_simplices([(0, 1, 2)])
        rep = power_protection_audit(k, pts, FlatPatch(2, 3), 0.0)
        assert not rep.ok
        assert all(e.error is not None for e in rep.entries)
        assert len(rep.failures()) == 3
