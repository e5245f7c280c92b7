"""The power-cell corners and the flake prefilter against exact references."""
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import compute_star, corners_by_enumeration
from tandel._kernels import flake_candidates
from tandel.errors import SingularSystem, SparsityViolation
from tandel.geometry import (GammaClass, classify_gamma, edge_extremes,
                             min_weighted_radius)
from tandel.manifolds import FlatPatch, SampleSet
from tandel.stars import _cell_corners, _plane_cells, _tight_keys


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


@pytest.mark.parametrize("offset", [1e-160, 1e-16, 1e-14])
def test_near_coincident_base_is_singular(offset):
    # the site's line passes offset / 2 from the base, so its slack is
    # within the key tolerance at every corner of the cell; the corner it
    # shares with one other site has an equidistance system whose rows
    # differ in scale by about 1 / offset
    with pytest.raises(SingularSystem, match="condition number above"):
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


@st.composite
def _plane_sites(draw):
    """Site rows of a tangent-plane cell as a star build makes them: the
    base at the origin, sites q in R^3 with u = (q_0, q_1) and
    b = |q|^2, and a box.  Random sites may come with a planted
    cocircular group (sites on a circle through the base, whose lines
    meet in one point), a collinear group, far sites that never bind,
    and one site whose line passes a relative gap ``just`` from the
    farthest corner of the rest of the cell, so that the first omitted
    site sits just inside or just outside the certificate."""
    # no coordinate below 1e-6 but 0: a line within about 1e-14 of
    # parallel to another crosses it in a corner of almost 180 degrees,
    # which this route keeps and Qhull merges away
    coord = st.floats(-2.0, 2.0).map(lambda x: x if abs(x) > 1e-6 else 0.0)
    rows = draw(st.lists(st.tuples(coord, coord, st.floats(-0.5, 0.5)),
                         min_size=1, max_size=30))
    # and up to 40 scattered sites, so that most cells leave sites out
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scattered = rng.uniform(-2.0, 2.0, (draw(st.integers(0, 40)), 3))
    scattered[:, 2] *= 0.25
    q = np.vstack([np.array(rows, dtype=float), scattered])
    if draw(st.booleans()):
        # cocircular: a circle through the base with centre c
        c = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
        angles = np.radians(draw(st.lists(st.integers(0, 359), min_size=2,
                                          max_size=5, unique=True)))
        ring = c + np.linalg.norm(c) * np.column_stack(
            [np.cos(angles), np.sin(angles)])
        q = np.vstack([q, np.column_stack([ring, np.zeros(len(ring))])])
    if draw(st.booleans()):
        # collinear with the base
        d = np.array([draw(coord), draw(coord), 0.0])
        scales = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4))
        q = np.vstack([q, np.outer(scales, d)])
    if draw(st.booleans()):
        far = np.array(draw(st.lists(coord, min_size=2, max_size=8)))
        half = len(far) // 2
        q = np.vstack([q, np.column_stack(
            [far[:half], far[half:2 * half],
             np.full(half, draw(st.floats(5.0, 8.0)))])])
    box = draw(st.floats(0.5, 4.0))
    just = draw(st.sampled_from([None, -1e-6, -1e-12, 0.0, 1e-12, 1e-9,
                                 1e-6, 1e-3]))
    return q, box, just


def _plane_rows(q):
    """u and b of sites q, without sites near the base and without a
    second site on the line of an earlier one (two sites on one line
    would make equal keys at distinct corners)."""
    q = q[(q * q).sum(axis=1) > 1e-4]
    u, b = q[:, :2].copy(), (q * q).sum(axis=1)
    norm = np.hypot(u[:, 0], u[:, 1])
    lines = np.column_stack([u, b]) / np.where(norm > 0, norm, 1.0)[:, None]
    lines[norm == 0] = np.arange((norm == 0).sum())[:, None]
    _, first = np.unique(lines, axis=0, return_index=True)
    first = np.sort(first)
    return u[first], b[first]


@settings(max_examples=200)
@given(_plane_sites())
def test_plane_cells_match_qhull_and_enumeration(cell):
    """The cell of one star from ``_plane_cells`` has the corners of
    ``_cell_corners`` and of the enumeration, and the tight keys
    ``_tight_keys`` finds at either's corners."""
    q, box, just = cell
    u, b = _plane_rows(q)
    assume(len(b) > 0)
    if just is not None:
        corners = corners_by_enumeration(u, b, box, 2)
        far = corners[np.argmax((corners * corners).sum(axis=1))]
        if (np.abs(far) < box * (1.0 - 1e-6)).all():
            u, b = _plane_rows(np.vstack(
                [q, [[*(2.0 * far * (1.0 + just)), 0.0]]]))
    # the enumeration accepts corners infeasible by up to 1e-9 max b,
    # which near-parallel lines can give
    want = corners_by_enumeration(u, b, box, 2)
    excess = np.maximum((2.0 * want @ u.T - b).max(axis=1),
                        np.abs(want).max(axis=1) - box)
    assume((excess <= 1e-12 * max(b.max(), 1.0)).all())
    idx = np.arange(len(b))
    (got,) = _plane_cells(idx, u, b, [0, len(b)], [box])
    assert not isinstance(got, Exception)
    corners, keys = got
    for reference in (_cell_corners(u, b, box), want):
        assert _same_corners(corners, reference, 1e-7 * max(box, 1.0))
        assert set(keys) == set(_tight_keys(idx, u, b, reference))
    # a degenerate corner is found once
    assert len(set(k for k in keys if len(k) > 2)) == sum(
        len(k) > 2 for k in keys)


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
