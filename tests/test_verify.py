"""Brute-force Delaunay oracles, structural checks, and protection audits."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial import Delaunay, cKDTree
from scipy.sparse import coo_matrix

from tandel.errors import (
    DenseSampleTooCoarse,
    DisconnectedGraph,
    EmptyInput,
    TooLarge,
    UnsupportedDim,
)
from tandel.geometry import as_simplex, circumsphere, closure, simplex_blocks
from tandel.manifolds import (
    FlatPatch,
    GeodesicGraph,
    SampleSet,
    TorusOfRevolution,
    UnitSphere,
    build_geodesic_graph,
    farthest_point_net,
)
from tandel.stars import COND_LIMIT, TangentialComplex, assemble_complex
from tandel import verify
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
    _scan_rows,
    _TIE_WINDOW_CAP,
)

from conftest import (_delaunay_by_sphere_enumeration, closure_by_walk,
                      exact_flat_member, flat_sites, frame_at)

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

    def test_repeated_label_is_refused(self):
        with pytest.raises(ValueError, match=r"simplex \(1, 1, 2\)$"):
            AbstractComplex.from_simplices([(0, 1), (2, 1, 1)])

    def test_empty(self):
        k = AbstractComplex.from_simplices([])
        assert (len(k), k.max_dim, k.counts(), k.vertices) == (0, -1, {}, [])
        assert k.rows(2).shape == (0, 3) and k.of_dim(0) == []
        assert k == AbstractComplex(()) and k.simplices == frozenset()


def _simplex_lists(labels):
    """Lists of vertex collections of mixed sizes, each in a drawn order,
    with repeats, over labels drawn from ``labels``."""
    simplex = st.lists(labels, min_size=1, max_size=5, unique=True)
    return st.lists(simplex, max_size=12).flatmap(
        lambda items: st.permutations(items + items[:len(items) // 3]))


# small ranges repeat labels and simplices; the wide one overflows the
# mixed-radix key of ``geometry.closure`` and takes its column sort
_LABELS = [st.integers(0, 9), st.integers(-4, 30),
           st.integers(0, 2 ** 40).map(lambda v: v * 97)]


class TestArrayClosure:
    """``geometry.closure`` and the ``AbstractComplex`` accessors against
    the tuple walk of ``conftest.closure_by_walk``."""

    @pytest.mark.parametrize("labels", _LABELS,
                             ids=["small", "signed", "wide"])
    @given(data=st.data())
    def test_closure_equals_tuple_walk(self, labels, data):
        items = data.draw(_simplex_lists(labels))
        ref = closure_by_walk(items)
        # the same simplices cut into blocks at drawn places
        blocks = simplex_blocks(items)
        cuts = [data.draw(st.integers(0, len(b))) for b in blocks]
        faces = closure([part for b, c in zip(blocks, cuts)
                         for part in (b[:c], b[c:])])
        assert len(faces) == max(map(len, ref), default=0)
        for d, rows in enumerate(faces):
            assert rows.dtype == np.intp and rows.shape[1] == d + 1
            want = sorted(s for s in ref if len(s) == d + 1)
            assert list(map(tuple, rows.tolist())) == want

    @pytest.mark.parametrize("labels", _LABELS,
                             ids=["small", "signed", "wide"])
    @given(data=st.data())
    def test_accessors_equal_tuple_walk(self, labels, data):
        items = data.draw(_simplex_lists(labels))
        ref = closure_by_walk(items)
        k = AbstractComplex.from_simplices(items)
        top = max(map(len, ref), default=0) - 1
        assert k.simplices == ref and len(k) == len(ref)
        assert k.max_dim == top
        assert k.counts() == {
            d: sum(len(s) == d + 1 for s in ref) for d in range(top + 1)}
        assert k.vertices == sorted(s[0] for s in ref if len(s) == 1)
        for d in range(-1, top + 2):
            assert k.of_dim(d) == sorted(s for s in ref if len(s) == d + 1)
            assert k.filtered(d).simplices == {s for s in ref
                                               if len(s) <= d + 1}
        for s in list(ref)[:5]:
            assert s[::-1] in k
        other_items = data.draw(_simplex_lists(labels))
        other = AbstractComplex(closure(simplex_blocks(other_items)))
        assert (k == other) == (ref == closure_by_walk(other_items))
        same = AbstractComplex.from_simplices(reversed(sorted(ref)))
        assert k == same and hash(k) == hash(same)


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

UNIT_CUBE = np.array(list(itertools.product(range(2), repeat=3)), float)
GRID_3X3 = np.array(list(itertools.product(range(3), repeat=2)), float)
BLOCK_2X2X3 = np.array(list(itertools.product(range(2), range(2), range(3))),
                       float)
DEGENERATE_SETS = {
    "square": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "square_with_center": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                    [0.0, 1.0], [0.5, 0.5]]),
    "octahedron": OCTA,
    "collinear_chain": np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 0.0],
                                 [6.0, 0.0]]),
    "unit_cube": UNIT_CUBE,
    "cube_with_center": np.vstack([UNIT_CUBE, [[0.5, 0.5, 0.5]]]),
}


def unit_cubes(grid):
    """The vertex labels of every unit cube of an integer grid, sorted."""
    label = {tuple(p): i for i, p in enumerate(grid.astype(int).tolist())}
    cubes = []
    for corner in label:
        cube = [label.get(tuple(c + d for c, d in zip(corner, step)))
                for step in itertools.product(range(2), repeat=3)]
        if None not in cube:
            cubes.append(tuple(sorted(cube)))
    return sorted(cubes)


class TestAmbientDelaunay:
    def test_three_generic_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [0.3, 0.9]])
        k = ambient_delaunay_bruteforce(pts)
        assert k.counts() == {0: 3, 1: 3, 2: 1}

    def test_unit_square_is_one_cocircular_clique(self):
        k = ambient_delaunay_bruteforce(DEGENERATE_SETS["square"])
        # one empty circle through all four corners: every subset survives
        assert len(k) == 15
        assert (0, 1, 2, 3) in k
        assert (0, 2) in k and (1, 3) in k   # both diagonals

    def test_square_with_center(self):
        k = ambient_delaunay_bruteforce(DEGENERATE_SETS["square_with_center"])
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
        k = ambient_delaunay_bruteforce(DEGENERATE_SETS["collinear_chain"])
        assert sorted(k.of_dim(1)) == [(0, 2), (1, 2), (1, 3)]
        assert k.of_dim(2) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_routes_agree_on_generic_planar_sets(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(9, 2))
        a = _delaunay_by_sphere_enumeration(pts)
        b = ambient_delaunay_bruteforce(pts)
        assert a.simplices == b.simplices
        qhull = {tuple(sorted(s)) for s in Delaunay(pts).simplices}
        assert set(a.of_dim(2)) == qhull

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_routes_agree_in_three_dimensions(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 3))
        a = _delaunay_by_sphere_enumeration(pts)
        b = ambient_delaunay_bruteforce(pts)
        assert a.simplices == b.simplices

    @pytest.mark.parametrize("name", sorted(DEGENERATE_SETS))
    def test_agrees_with_enumeration_on_degenerate_sets(self, name):
        """Cospherical and collinear sets, whose cells Qhull triangulates
        arbitrarily; for the cube with its centre the triangulation
        holds flat simplices, which have no circumsphere."""
        pts = DEGENERATE_SETS[name]
        assert (ambient_delaunay_bruteforce(pts)
                == _delaunay_by_sphere_enumeration(pts))

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_enumeration_on_lattice_subsets(self, seed):
        """5 to 8 points of the 3 x 3 planar grid and of the 2 x 2 x 3
        block: cospherical groups, collinear runs and coplanar sets."""
        rng = np.random.default_rng(seed)
        for grid in (GRID_3X3, BLOCK_2X2X3):
            n = int(rng.integers(5, 9))
            pts = grid[rng.choice(len(grid), n, replace=False)]
            assert (ambient_delaunay_bruteforce(pts)
                    == _delaunay_by_sphere_enumeration(pts)), pts.tolist()

    def test_block_of_two_unit_cubes(self):
        k = ambient_delaunay_bruteforce(BLOCK_2X2X3)
        cubes = unit_cubes(BLOCK_2X2X3)
        assert k.of_dim(7) == cubes
        assert k == AbstractComplex.from_simplices(cubes)

    def test_grid_of_eight_unit_cubes(self):
        grid = np.array(list(itertools.product(range(3), repeat=3)), float)
        k = ambient_delaunay_bruteforce(grid)
        assert k == AbstractComplex.from_simplices(unit_cubes(grid))

    def test_size_guards(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooLarge):
            ambient_delaunay_bruteforce(rng.uniform(size=(201, 2)))
        with pytest.raises(TooLarge):
            ambient_delaunay_bruteforce(rng.uniform(size=(10, 5)))
        with pytest.raises(EmptyInput):
            ambient_delaunay_bruteforce(np.zeros((0, 2)))


# ===== restricted oracle =====

def within_band(res):
    """The simplices a scan saw with spread within its band, sorted."""
    return sorted(s for s, spread in res.spreads.items() if spread <= res.band)


class TestRestrictedOracle:
    def test_octahedron_faces_exactly(self):
        sph = UnitSphere(2, 3)
        res = restricted_delaunay_oracle(OCTA, sph, sph.sample(60000, seed=4))
        seen = within_band(res)
        assert [s for s in seen if len(s) == 3] == OCTA_FACES
        assert as_complex(seen).counts() == {0: 6, 1: 12, 2: 8}
        assert 0.0 < res.band < 0.25 * np.sqrt(2.0)
        assert res.n_witnesses == 60000

    def test_antipodal_pair_is_an_edge(self):
        sph = UnitSphere(2, 3)
        two = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        res = restricted_delaunay_oracle(two, sph, sph.sample(20000, seed=4))
        assert within_band(res) == [(0, 1)]

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
        assert [s for s in within_band(res) if len(s) == 3] == OCTA_FACES
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


def _ridge_counts(top_cells: list) -> dict:
    counts: dict = {}
    for cell in top_cells:
        for ridge in itertools.combinations(cell, len(cell) - 1):
            counts[ridge] = counts.get(ridge, 0) + 1
    return counts


def _is_single_cycle(edges: list) -> bool:
    """True when the edge list forms one simple closed cycle."""
    if not edges:
        return False
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    if len(edges) != len(deg):
        return False
    return _is_connected(list(deg.keys()), edges)


def _is_connected(nodes: list, edges: list) -> bool:
    if not nodes:
        return False
    adj: dict = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(nodes)


def _manifold_check_by_scan(cplx, m):
    """``manifold_complex_check`` with every vertex and edge link found
    by a scan over all top cells and judged one at a time: the
    reference for the array checks."""
    k = as_complex(cplx)
    top = k.of_dim(m)
    diagnostics = {"bad_ridges": [], "bad_links": [], "impure": []}
    if not top:
        diagnostics["impure"] = sorted(k.simplices)
        return False, diagnostics
    covered = AbstractComplex.from_simplices(top).simplices
    diagnostics["impure"] = sorted(k.simplices - covered)
    for ridge, count in sorted(_ridge_counts(top).items()):
        if count != 2:
            diagnostics["bad_ridges"].append((ridge, count))
    for v in k.vertices:
        link = [tuple(w for w in cell if w != v)
                for cell in top if v in cell]
        if m == 2:
            if not _is_single_cycle(link):
                diagnostics["bad_links"].append(v)
            continue
        if not link:
            diagnostics["bad_links"].append(v)
            continue
        link_ridges = _ridge_counts(link)
        closed = all(c == 2 for c in link_ridges.values())
        nodes = sorted({w for tri in link for w in tri})
        connected = _is_connected(nodes, list(link_ridges.keys()))
        chi = len(nodes) - len(link_ridges) + len(set(link))
        if not (closed and connected and chi == 2):
            diagnostics["bad_links"].append(v)
    if m == 3:
        for edge in k.of_dim(1):
            around = [tuple(w for w in cell if w not in edge)
                      for cell in top if set(edge) <= set(cell)]
            if not _is_single_cycle(around):
                diagnostics["bad_links"].append(edge)
    ok = (not diagnostics["bad_ridges"] and not diagnostics["bad_links"]
          and not diagnostics["impure"])
    return ok, diagnostics


_CROSS_POLYTOPE = [tuple(sorted((0 + s0, 2 + s1, 4 + s2, 6 + s3)))
                   for s0 in (0, 1) for s1 in (0, 1)
                   for s2 in (0, 1) for s3 in (0, 1)]
_BROKEN = {
    "three-on-an-edge": ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], 2),
    "punctured-octahedron": (OCTA_FACES[1:], 2),
    "pinched-vertex": ([(0, 1, 2), (0, 2, 3), (0, 1, 3),
                        (0, 4, 5), (0, 5, 6), (0, 4, 6)], 2),
    "impure-extra-edge": (OCTA_FACES + [(0, 5), (6,)], 2),
    "three-on-a-triangle": ([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)], 3),
    "cross-polytope-minus-one": (_CROSS_POLYTOPE[1:], 3),
    "cross-polytope-minus-one-negative-labels": (
        [tuple(v - 4 for v in t) for t in _CROSS_POLYTOPE[1:]], 3),
    # every ridge and edge link is fine, but the two cone points have
    # torus links (chi 0)
    "suspended-torus": ([(7,) + t for t in TORUS7]
                        + [(8,) + t for t in TORUS7], 3),
    # 0 and 1 are antipodal, so their edge lies in no tetrahedron
    "cross-polytope-plus-a-diagonal": (_CROSS_POLYTOPE + [(0, 1)], 3),
    "two-cross-polytopes-on-a-vertex": (
        _CROSS_POLYTOPE + [tuple(v + 7 if v else 0 for v in t)
                           for t in _CROSS_POLYTOPE], 3),
}


@pytest.mark.parametrize("name", sorted(_BROKEN))
def test_manifold_check_matches_scan_on_broken_complexes(name):
    simplices, m = _BROKEN[name]
    k = AbstractComplex.from_simplices(simplices)
    got = manifold_complex_check(k, m)
    assert got == _manifold_check_by_scan(k, m)
    assert got[0] is False


def test_manifold_check_matches_scan_on_outputs(torus_run):
    state = torus_run[0]
    torus_out = as_complex(state.complex.simplices())
    s3 = UnitSphere(3, 4)
    s3_out = as_complex(assemble_complex(
        farthest_point_net(s3.sample(20000, seed=1), eps=0.45, seed=1),
        s3).m_simplices())
    flat = FlatPatch(2, 3)
    flat_out = as_complex(assemble_complex(
        farthest_point_net(flat.sample(3000, seed=4), eps=0.12, seed=4),
        flat).m_simplices())
    for k, m, closed in ((torus_out, 2, True), (s3_out, 3, True),
                         (AbstractComplex.from_simplices(_CROSS_POLYTOPE), 3,
                          True),
                         (flat_out, 2, False)):
        got = manifold_complex_check(k, m)
        assert got == _manifold_check_by_scan(k, m)
        assert got[0] is closed
    # the patch's boundary: ridges in one triangle and links that are paths
    assert got[1]["bad_ridges"] and got[1]["bad_links"]


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


# ===== protection audit against the per-entry scan =====

def _audit_per_entry(cplx, points, manifold, threshold):
    """Each (m-simplex, vertex) entry solved alone and its margin taken
    over a scan of every point outside the simplex: the reference for
    the stacked solve and the KD-tree candidate ball."""
    pts = np.asarray(points, dtype=float)
    m = manifold.m
    entries = []
    for simplex in as_complex(cplx).of_dim(m):
        outside = np.ones(len(pts), dtype=bool)
        outside[list(simplex)] = False
        competitors = pts[outside]
        for p in simplex:
            others = [q for q in simplex if q != p]
            basis = frame_at(manifold, pts[p])
            a_mat = 2.0 * ((pts[others] - pts[p]) @ basis.T)
            b = ((pts[others] - pts[p]) ** 2).sum(axis=1)
            cond = np.linalg.cond(a_mat)
            if not np.isfinite(cond) or cond > COND_LIMIT:
                entries.append((simplex, p, math.nan, math.nan, False,
                                f"tangent center system for {simplex} at "
                                f"vertex {p} is singular"))
                continue
            t = np.linalg.solve(a_mat, b)
            center = pts[p] + basis.T @ t
            r2 = float(t @ t)
            margin = (float((((competitors - center) ** 2).sum(axis=1)
                             - r2).min())
                      if len(competitors) else math.inf)
            entries.append((simplex, p, margin, math.sqrt(r2),
                            margin > threshold, None))
    return entries


def _assert_audit_matches_scan(cplx, pts, manifold, threshold):
    rep = power_protection_audit(cplx, pts, manifold, threshold)
    want = _audit_per_entry(cplx, pts, manifold, threshold)
    assert len(rep.entries) == len(want)
    for e, (simplex, p, margin, radius, ok, error) in zip(rep.entries, want):
        assert (e.simplex, e.vertex, e.ok, e.error) == (simplex, p, ok, error)
        for got, ref in ((e.margin, margin), (e.radius, radius)):
            assert type(got) is float
            assert got == ref or (math.isnan(got) and math.isnan(ref)), (
                simplex, p, got, ref)
    return rep


def test_audit_matches_scan_on_outputs(torus_run):
    state, torus = torus_run[0], torus_run[1]
    _assert_audit_matches_scan(state.complex.simplices(), state.complex.points,
                               torus, 2.8e-6)
    s3 = UnitSphere(3, 4)
    net = farthest_point_net(s3.sample(20000, seed=1), eps=0.45, seed=1)
    cplx = assemble_complex(net, s3)
    _assert_audit_matches_scan(cplx.m_simplices(), cplx.points, s3, 1e-6)
    flat = FlatPatch(2, 3)
    net = farthest_point_net(flat.sample(3000, seed=4), eps=0.12, seed=4)
    cplx = assemble_complex(net, flat)
    _assert_audit_matches_scan(cplx.m_simplices(), cplx.points, flat, 1e-6)


def test_audit_singular_row_fails_alone():
    # one collinear triangle among good ones: its rows are rejected and
    # the stacked solve of the others still runs
    pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0],
                    [1, 1.2, 0], [2.5, 0.8, 0], [-1, 2, 0]], dtype=float)
    k = AbstractComplex.from_simplices(
        [(0, 1, 2), (0, 1, 3), (1, 3, 4), (1, 2, 5), (0, 3, 6)])
    rep = _assert_audit_matches_scan(k, pts, FlatPatch(2, 3), 1e-3)
    bad = {e.simplex for e in rep.entries if e.error is not None}
    assert bad == {(0, 1, 2)}
    assert sum(e.error is None for e in rep.entries) == 12


def test_audit_no_competitors_and_exact_cosphere():
    flat = FlatPatch(2, 3)
    tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    rep = _assert_audit_matches_scan([(0, 1, 2)], tri, flat, 1.0)
    assert all(e.margin == math.inf for e in rep.entries)
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                      dtype=float)
    rep = _assert_audit_matches_scan([(0, 1, 2), (0, 2, 3)], square, flat,
                                     0.0)
    assert all(e.margin == 0.0 for e in rep.entries)
    assert not _assert_audit_matches_scan([], square, flat, 0.0).entries


class _QueryLog(cKDTree):
    """A KD-tree that records the (rows, k) of every k-nearest query."""

    calls: list = []

    def query(self, x, k=1, **kwargs):
        self.calls.append((len(x), k))
        return super().query(x, k=k, **kwargs)


def _queries(monkeypatch):
    calls = []
    monkeypatch.setattr(_QueryLog, "calls", calls)
    monkeypatch.setattr(verify, "cKDTree", _QueryLog)
    return calls


def test_audit_widens_past_tied_competitors(monkeypatch):
    # six sites tied at distance 2 from the centre (0.5, 0.5) of the
    # triangle: the first five neighbours end inside the ball, so the
    # query is repeated with k = 10, which reaches a far site
    flat = FlatPatch(2, 3)
    tie = [(2, 0), (-2, 0), (1.2, 1.6), (-1.6, -1.2), (1.6, -1.2),
           (-1.2, 1.6)]
    far = [(3, 4), (-4, 3), (0, -5)]
    tri = [(0, 0), (1, 0), (0, 1)]
    pts = np.array([(x, y, 0.0) for x, y in tri]
                   + [(0.5 + x, 0.5 + y, 0.0) for x, y in tie + far])
    calls = _queries(monkeypatch)
    rep = _assert_audit_matches_scan([(0, 1, 2)], pts, flat, 1.0)
    assert calls == [(3, 5), (3, 10)]
    assert rep.ok and rep.min_margin == pytest.approx(3.5, rel=1e-12)
    # without the far sites every neighbour stays tied until k = n = 9
    calls.clear()
    _assert_audit_matches_scan([(0, 1, 2)], pts[:9], flat, 1.0)
    assert calls == [(3, 5), (3, 9)]


def test_audit_on_m_plus_two_points_caps_k(monkeypatch):
    # k = m + 3 would ask for more sites than there are
    flat = FlatPatch(2, 3)
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.9, 1.1, 0]],
                   dtype=float)
    calls = _queries(monkeypatch)
    rep = _assert_audit_matches_scan([(0, 1, 2), (1, 2, 3)], pts, flat, 0.0)
    assert calls == [(6, 4)]
    assert rep.ok
