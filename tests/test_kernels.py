"""The power-cell corners and the flake prefilter against exact references."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import compute_star, corners_by_enumeration
from tandel._kernels import flake_candidates
from tandel.errors import SingularSystem, SparsityViolation
from tandel.geometry import (GammaClass, classify_gamma, edge_extremes,
                             min_weighted_radius)
from tandel.manifolds import FlatPatch, SampleSet
from tandel.stars import _cell_corners


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


def _near_tight_flake(rng, k, dim, gamma0):
    """A regular (k-1)-simplex of diameter delta plus an apex above its
    centroid whose altitude puts the thickness a hair below gamma0^k:
    det G sits just under the kernel's bound, which the regular face
    makes tight."""
    delta = float(rng.uniform(0.1, 0.4))
    face = np.eye(k) * delta / np.sqrt(2.0)  # regular, in the first k axes
    centroid = face.mean(axis=0)
    normal = np.ones(k) / np.sqrt(k)  # orthogonal to the face's hull
    h = k * delta * gamma0 ** k * (1.0 - 1e-4)
    x = np.zeros(dim)
    x[:k] = centroid + h * normal
    cand = np.zeros((k, dim))
    cand[:, :k] = face
    return x, cand


@pytest.mark.parametrize("delta0", [0.0, 0.05])
@pytest.mark.parametrize("k,max_n", [(2, 25), (3, 13), (4, 9)])
def test_flake_candidates_cover_exact_hits(k, max_n, delta0):
    rng = np.random.default_rng(29 + k)
    gamma0 = 0.3
    dim = max(3, k)
    edge_scale = 1.0 / np.sqrt(1.0 - 4.0 * delta0 ** 2)
    for trial in range(30):
        r_cap = float(rng.uniform(0.5, 2.0))
        if trial % 5 == 0:
            x, cand = _near_tight_flake(rng, k, dim, gamma0)
        else:
            n = int(rng.integers(k, max_n + 1))
            x = rng.normal(size=dim)
            cand = x + rng.normal(size=(n, dim)) * rng.uniform(0.05, 0.6)
            if trial % 2:
                # flatten so near-degenerate k-simplices actually occur
                cand[:, -1] = x[-1] + 0.05 * (cand[:, -1] - x[-1])
        rows = flake_candidates(x, cand, gamma0, r_cap * edge_scale, k)
        assert rows.shape[1] == k
        assert [tuple(r) for r in rows] == sorted(tuple(r) for r in rows)
        got = {tuple(r) for r in rows}
        pts = np.vstack([x[None], cand])
        for sigma in itertools.combinations(range(len(cand)), k):
            tau = (0,) + tuple(i + 1 for i in sigma)
            if classify_gamma(tau, gamma0, pts) is not GammaClass.FLAKE:
                continue
            # the thinness test holds for every flake; the edge test for
            # every flake with short edges, which every hit has
            if edge_extremes(tau, pts)[1] <= 2.0 * r_cap * edge_scale:
                assert sigma in got
            r_min, _ = min_weighted_radius(tau, pts, delta0)
            if r_min < r_cap:
                assert sigma in got
        if k == 2:
            # and every pair that survives is at least a thin triangle
            for (i, j) in got:
                tri = (0, i + 1, j + 1)
                assert classify_gamma(tri, gamma0 * 1.001,
                                      pts) is not GammaClass.GOOD
