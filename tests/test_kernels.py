"""The power-cell corners and the flake prefilters against exact references."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import corners_by_enumeration
from tandel._kernels import flake_pair_candidates, flake_triple_candidates
from tandel.errors import SingularSystem, SparsityViolation
from tandel.geometry import GammaClass, classify_gamma, min_weighted_radius
from tandel.manifolds import FlatPatch, SampleSet
from tandel.stars import _cell_corners, compute_star


def _canon(poly, decimals=9):
    """Cell corners as a set of rounded tuples (order-insensitive)."""
    return {tuple(np.round(p, decimals)) for p in poly}


def _same_corners(got, want, tol):
    """Every corner of each set lies within tol of one of the other."""
    if len(got) == 0 or len(want) == 0:
        return len(got) == len(want)
    d = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
    return d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol


def test_square_cell():
    a = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    poly = _cell_corners(a / 2, b, 5.0)
    assert _canon(poly) == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_unclipped_cell_is_box():
    a = np.array([[1.0, 0.0]])
    b = np.array([100.0])
    poly = _cell_corners(a / 2, b, 2.0)
    assert _canon(poly) == {(2.0, 2.0), (2.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)}


def test_far_constraint_is_culled_without_changing_result():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(3, 12))
        a = rng.normal(size=(k, 2))
        b = rng.uniform(0.2, 2.0, size=k)
        base = _canon(_cell_corners(a / 2, b, 3.0))
        far = np.vstack([a, rng.normal(size=(1, 2))])
        far_b = np.append(b, 1e6)
        assert _canon(_cell_corners(far / 2, far_b, 3.0)) == base


def test_degenerate_rows():
    # a zero-normal row with b > 0 holds everywhere and changes nothing
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    poly = _cell_corners(a / 2, np.array([4.0, 1.0]), 2.0)
    assert _canon(poly) == {(1.0, 2.0), (1.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)}


def _flat_with_neighbor(offset):
    """A flat sample whose vertex 0 is the origin and vertex 40 lies at
    ``offset`` from it along the first axis."""
    pts = FlatPatch(2, 3).sample(40, seed=3)
    pts[0] = 0.0
    pts = np.vstack([pts, [[offset, 0.0, 0.0]]])
    return SampleSet(points=pts, epsilon=0.5, sparsity=0.0)


@pytest.mark.parametrize("offset", [0.0, 1e-170])
def test_coincident_base_is_named(offset):
    # exactly equal, or so close that the squared distance underflows
    sample = _flat_with_neighbor(offset)
    with pytest.raises(SparsityViolation, match="points 0 and 40 coincide"):
        compute_star(0, sample, FlatPatch(2, 3))
    with pytest.raises(SparsityViolation, match="points 40 and 0 coincide"):
        compute_star(40, sample, FlatPatch(2, 3))


@pytest.mark.parametrize("offset,message", [
    (1e-160, "Qhull precision error"),
    (1e-16, "Qhull precision error"),
    (1e-14, "corner at infinity"),
])
def test_near_coincident_base_is_singular(offset, message):
    # Qhull works on the dual points 2u/b of the cell rows: this site's
    # lies about 2/offset from the origin, the others within a few units,
    # and Qhull either fails or returns a corner at infinity
    with pytest.raises(SingularSystem, match=message):
        compute_star(0, _flat_with_neighbor(offset), FlatPatch(2, 3))


def _cells(m, max_sites):
    """Random cells {t : 2u.t <= b} in R^m: site rows, offsets, box."""
    return st.integers(1, max_sites).flatmap(lambda k: st.tuples(
        hnp.arrays(float, (k, m), elements=st.floats(-2.0, 2.0)),
        hnp.arrays(float, k, elements=st.floats(0.05, 4.0)),
        st.floats(0.5, 4.0)))


@pytest.mark.parametrize("m,max_sites", [(2, 40), (3, 14)])
def test_qhull_matches_enumeration(m, max_sites):
    @given(_cells(m, max_sites))
    def check(cell):
        u, b, box = cell
        got = _cell_corners(u, b, box)
        want = corners_by_enumeration(u, b, box, m)
        assert _same_corners(got, want, 1e-7 * max(box, 1.0))

    check()


def test_flake_pairs_match_exact_classification():
    rng = np.random.default_rng(29)
    gamma0 = 0.2
    for _ in range(60):
        n = int(rng.integers(2, 25))
        x = rng.normal(size=3)
        cand = x + rng.normal(size=(n, 3)) * rng.uniform(0.05, 1.0)
        r_cap = float(rng.uniform(0.3, 1.5))
        got = {tuple(p) for p in flake_pair_candidates(x, cand, gamma0, r_cap)}
        pts = np.vstack([x[None], cand])
        for i in range(n):
            for j in range(i + 1, n):
                tri = (0, i + 1, j + 1)
                if classify_gamma(tri, gamma0, pts) is not GammaClass.FLAKE:
                    continue
                r_min, _ = min_weighted_radius(tri, pts, 0.0)
                if r_min < r_cap:
                    # every exact hit must survive the prefilter
                    assert (i, j) in got
        # and every prefilter hit must at least be a thin triangle
        for (i, j) in got:
            tri = (0, i + 1, j + 1)
            assert classify_gamma(tri, gamma0 * 1.001, pts) is not GammaClass.GOOD


def test_flake_triples_cover_exact_hits():
    rng = np.random.default_rng(41)
    gamma0 = 0.3
    for _ in range(25):
        n = int(rng.integers(3, 14))
        x = rng.normal(size=3)
        cand = x + rng.normal(size=(n, 3)) * rng.uniform(0.1, 0.6)
        # flatten a little so near-degenerate 3-simplices actually occur
        cand[:, 2] *= 0.05
        x = x * np.array([1.0, 1.0, 0.05])
        r_cap = float(rng.uniform(0.5, 2.0))
        got = {tuple(t) for t in
               flake_triple_candidates(x, cand, gamma0, r_cap)}
        pts = np.vstack([x[None], cand])
        for i in range(n):
            for j in range(i + 1, n):
                for l in range(j + 1, n):
                    tet = (0, i + 1, j + 1, l + 1)
                    if classify_gamma(tet, gamma0, pts) is not GammaClass.FLAKE:
                        continue
                    r_min, _ = min_weighted_radius(tet, pts, 0.0)
                    if r_min < r_cap:
                        assert (i, j, l) in got
