"""Simplex geometry: frozen values plus randomized consistency checks."""
import itertools

import numpy as np
import pytest

from conftest import faces
from tandel.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    NegativeSquaredRadius,
)
from tandel.geometry import (
    ElementaryWeight,
    GammaClass,
    _altitudes,
    _edge_lengths,
    _span_frame,
    _thicknesses,
    affine_ranks,
    altitude,
    as_simplex,
    circumsphere,
    classify_gamma,
    edge_extremes,
    flake_altitude_bound,
    gamma_classes,
    min_weighted_radius,
    simplex_frame,
    subspace_angle,
    thickness,
    weighted_center,
)

RIGHT = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])


def rand_simplex(rng, j, n_ambient, spread=1.0):
    pts = rng.normal(size=(j + 1, n_ambient)) * spread
    return tuple(range(j + 1)), pts


# ===== basic measures =====

def test_as_simplex_sorts_and_rejects_duplicates():
    assert as_simplex([4, 1, 2]) == (1, 2, 4)
    with pytest.raises(ValueError):
        as_simplex([1, 1, 2])


def test_edge_extremes_right_triangle():
    ell, delta = edge_extremes((0, 1, 2), RIGHT)
    assert ell == pytest.approx(3.0)
    assert delta == pytest.approx(5.0)


def test_edge_extremes_vertex_is_zero():
    assert edge_extremes((1,), RIGHT) == (0.0, 0.0)


def test_altitude_onto_hypotenuse():
    assert altitude(0, (0, 1, 2), UNIT_RIGHT) == pytest.approx(1 / np.sqrt(2))


def test_altitude_of_edge_is_length():
    assert altitude(2, (0, 2), RIGHT) == pytest.approx(4.0)


def test_altitude_rejects_non_vertex():
    with pytest.raises(ValueError):
        altitude(7, (0, 1, 2), RIGHT)


def test_thickness_conventions():
    assert thickness((0,), RIGHT) == 1.0
    assert thickness((0, 1), RIGHT) == 1.0  # every nondegenerate edge
    pts = np.array([[1.0, 2.0], [1.0, 2.0]])
    assert thickness((0, 1), pts) == 0.0


def test_thickness_equilateral():
    # altitude sqrt(3)/2, j=2, Delta=1
    assert thickness((0, 1, 2), EQUILATERAL) == pytest.approx(np.sqrt(3) / 4)


def test_triangle_thickness_equals_area_over_diameter_squared():
    rng = np.random.default_rng(7)
    for _ in range(200):
        simplex, pts = rand_simplex(rng, 2, 3)
        ab, ac = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * np.linalg.norm(np.cross(ab, ac))
        _, delta = edge_extremes(simplex, pts)
        assert thickness(simplex, pts) == pytest.approx(
            area / delta**2, rel=1e-9)


def test_thickness_is_at_most_one():
    rng = np.random.default_rng(11)
    for j in (1, 2, 3, 4):
        for _ in range(50):
            simplex, pts = rand_simplex(rng, j, 6)
            assert 0.0 <= thickness(simplex, pts) <= 1.0 + 1e-12


def _near_degenerate_simplex(rng, j, n_ambient):
    """A j-simplex with one vertex 1e-14..1e-2 off the opposite face's hull."""
    simplex, pts = rand_simplex(rng, j, n_ambient)
    v = int(rng.integers(0, j + 1))
    others = np.delete(pts, v, axis=0)
    w = rng.uniform(size=j)
    off = rng.normal(size=n_ambient)
    off *= 10.0 ** rng.uniform(-14.0, -2.0) / np.linalg.norm(off)
    pts[v] = (w / w.sum()) @ others + off
    return simplex, pts


@pytest.mark.parametrize("near_degenerate", [False, True])
def test_thickness_is_min_public_altitude_over_j_delta_bitwise(near_degenerate):
    make = _near_degenerate_simplex if near_degenerate else rand_simplex
    rng = np.random.default_rng(31 + near_degenerate)
    for j in (2, 3, 4):
        for _ in range(200):
            simplex, pts = make(rng, j, int(rng.integers(j, j + 3)))
            _, delta = edge_extremes(simplex, pts)
            alt = min(altitude(v, simplex, pts) for v in simplex)
            assert thickness(simplex, pts) == alt / (j * delta)


def test_nondegenerate_edge_thickness_is_exactly_one():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        simplex, pts = rand_simplex(rng, 1, int(rng.integers(1, 7)),
                                    spread=10.0 ** rng.uniform(-6.0, 6.0))
        assert thickness(simplex, pts) == 1.0


# ===== circumspheres =====

def test_circumsphere_right_isoceles():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    sph = circumsphere((0, 1, 2), pts)
    assert sph.center == pytest.approx([1.0, 1.0])
    assert sph.radius == pytest.approx(np.sqrt(2))


def test_circumsphere_regular_tetrahedron():
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, np.sqrt(3) / 2, 0.0],
        [0.5, np.sqrt(3) / 6, np.sqrt(2.0 / 3.0)],
    ])
    sph = circumsphere((0, 1, 2, 3), pts)
    assert sph.radius == pytest.approx(np.sqrt(3.0 / 8.0))


def test_circumsphere_single_vertex():
    sph = circumsphere((2,), RIGHT)
    assert sph.radius == 0.0
    assert sph.center == pytest.approx(RIGHT[2])


def test_circumsphere_equidistant_and_in_hull():
    rng = np.random.default_rng(3)
    for j in (1, 2, 3):
        for _ in range(100):
            simplex, pts = rand_simplex(rng, j, 5)
            sph = circumsphere(simplex, pts)
            dists = np.linalg.norm(pts - sph.center, axis=1)
            assert dists == pytest.approx(np.full(j + 1, sph.radius), rel=1e-8)
            basis = simplex_frame(simplex, pts)
            rel = sph.center - pts[simplex[0]]
            resid = rel - basis.T @ (basis @ rel)
            assert np.linalg.norm(resid) < 1e-8 * max(sph.radius, 1.0)


def test_circumsphere_collinear_raises():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateSimplex):
        circumsphere((0, 1, 2), pts)


# ===== weighted centers =====

def test_weighted_center_edge_carrier_far():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    c, r = weighted_center((0, 1), ElementaryWeight(1, 1.0), pts)
    assert c == pytest.approx([0.75, 0.0])
    assert r == pytest.approx(0.75)


def test_weighted_center_edge_carrier_base():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    c, r = weighted_center((0, 1), ElementaryWeight(0, 1.0), pts)
    assert c == pytest.approx([1.25, 0.0])
    assert r == pytest.approx(0.75)


def test_weighted_center_zero_weight_matches_circumsphere():
    rng = np.random.default_rng(19)
    for j in (1, 2, 3):
        for _ in range(50):
            simplex, pts = rand_simplex(rng, j, 4)
            sph = circumsphere(simplex, pts)
            c, r = weighted_center(simplex, ElementaryWeight(simplex[0]), pts)
            assert c == pytest.approx(sph.center, abs=1e-9)
            assert r == pytest.approx(sph.radius, rel=1e-9)


def test_weighted_center_equalizes_power():
    rng = np.random.default_rng(23)
    for j in (1, 2, 3):
        for _ in range(100):
            simplex, pts = rand_simplex(rng, j, 5)
            ell, _ = edge_extremes(simplex, pts)
            carrier = int(rng.integers(0, j + 1))
            w = 0.3 * ell
            c, r = weighted_center(simplex, ElementaryWeight(carrier, w), pts)
            powers = np.linalg.norm(pts - c, axis=1) ** 2
            powers[carrier] -= w * w
            assert powers == pytest.approx(np.full(j + 1, r * r), abs=1e-9)


def test_weighted_center_rejects_foreign_carrier():
    with pytest.raises(ValueError):
        weighted_center((0, 1), ElementaryWeight(5, 0.1), RIGHT)


def test_weighted_center_vertex_with_weight_raises():
    with pytest.raises(NegativeSquaredRadius):
        weighted_center((0,), ElementaryWeight(0, 0.5), RIGHT)


def test_elementary_weight_validity_cap():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    # L = 2, cap with delta0=0.25 is 0.5
    assert ElementaryWeight(1, 0.5).is_valid_for((0, 1, 2), pts, 0.25)
    assert not ElementaryWeight(1, 0.51).is_valid_for((0, 1, 2), pts, 0.25)
    assert not ElementaryWeight(9, 0.0).is_valid_for((0, 1, 2), pts, 0.25)
    with pytest.raises(ValueError):
        ElementaryWeight(0, -0.1)


def test_min_weighted_radius_edge():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    r, omega = min_weighted_radius((0, 1), pts, 0.5)
    assert r == pytest.approx(0.75)
    assert omega.weight == pytest.approx(1.0)


def test_min_weighted_radius_equilateral_side_two():
    pts = 2.0 * EQUILATERAL
    r, omega = min_weighted_radius((0, 1, 2), pts, 0.5)
    # circumradius 2/sqrt(3); best single-carrier weight w=1 at the cap
    assert r == pytest.approx(np.sqrt(13.0 / 12.0))
    assert omega.weight == pytest.approx(1.0)


def test_min_weighted_radius_zero_cap_is_circumradius():
    rng = np.random.default_rng(31)
    for _ in range(50):
        simplex, pts = rand_simplex(rng, 2, 3)
        r, omega = min_weighted_radius(simplex, pts, 0.0)
        assert r == pytest.approx(circumsphere(simplex, pts).radius)
        assert omega.weight == 0.0


def test_min_weighted_radius_matches_grid_search():
    rng = np.random.default_rng(37)
    delta0 = 0.35
    for j in (1, 2, 3):
        for _ in range(40):
            simplex, pts = rand_simplex(rng, j, 4)
            ell, _ = edge_extremes(simplex, pts)
            r_closed, _ = min_weighted_radius(simplex, pts, delta0)
            grid = np.linspace(0.0, delta0 * ell, 120)
            r_grid = min(
                weighted_center(simplex, ElementaryWeight(c, w), pts)[1]
                for c in simplex
                for w in grid
            )
            assert r_closed <= r_grid + 1e-12
            assert r_closed == pytest.approx(r_grid, abs=1e-4 * max(ell, 1.0))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_affine_ranks_match_per_simplex_rank(j):
    """The batched rank equals the per-simplex ``_span_frame`` rank, and
    ``min_weighted_radius`` rejects exactly the rank-deficient rows."""
    rng = np.random.default_rng(61 + j)
    for n_ambient in (j, j + 1, j + 2):
        blocks = []
        for _ in range(150):
            make = (_near_degenerate_simplex if rng.uniform() < 0.7
                    else rand_simplex)
            blocks.append(make(rng, j, n_ambient)[1])
        pts = np.vstack(blocks)
        taus = np.arange(len(pts)).reshape(-1, j + 1)
        got = affine_ranks(taus, pts)
        assert got.shape == (len(taus),)
        deficient = 0
        for tau, rank in zip(taus.tolist(), got.tolist()):
            _, delta = edge_extremes(tau, pts)
            _, ref = _span_frame(pts[tau[1:]] - pts[tau[0]], delta)
            assert rank == ref
            if rank < j:
                deficient += 1
                with pytest.raises(DegenerateSimplex):
                    min_weighted_radius(tau, pts, 0.05)
            else:
                min_weighted_radius(tau, pts, 0.05)
        if j > 1:
            # both sides of the cutoff are exercised
            assert 0 < deficient < len(taus)


def test_affine_ranks_trivial_shapes():
    pts = RIGHT
    assert affine_ranks(np.zeros((0, 3), dtype=int), pts).shape == (0,)
    assert affine_ranks([[0], [2]], pts).tolist() == [0, 0]
    assert affine_ranks([[0, 1, 2], [0, 0, 1]], pts).tolist() == [2, 1]
    with pytest.raises(ValueError):
        affine_ranks([0, 1, 2], pts)


# ===== subspace angles =====

def test_subspace_angle_plane_vs_plane():
    u = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0]])
    s = 1 / np.sqrt(2)
    v = np.array([[1.0, 0.0, 0.0],
                  [0.0, s, s]])
    assert subspace_angle(u, v) == pytest.approx(np.pi / 4)


def test_subspace_angle_line_into_plane():
    s = 1 / np.sqrt(2)
    u = np.array([[0.0, s, s]])
    v = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0]])
    assert subspace_angle(u, v) == pytest.approx(np.pi / 4)


def test_subspace_angle_tiny_angles_are_sharp():
    for theta in (1e-5, 1e-8, 1e-10):
        u = np.array([[np.cos(theta), np.sin(theta)]])
        v = np.array([[1.0, 0.0]])
        assert subspace_angle(u, v) == pytest.approx(theta, rel=1e-3)


def test_subspace_angle_identical_is_zero():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(2, 5))
    q, _ = np.linalg.qr(m.T)
    basis = q.T.copy()
    assert subspace_angle(basis, basis) < 1e-12


def test_subspace_angle_dimension_mismatch():
    u = np.eye(3)[:2]
    v = np.eye(3)[:1]
    with pytest.raises(DimensionMismatch):
        subspace_angle(u, v)


def test_affine_frame_rejects_skew_basis():
    with pytest.raises(ValueError):
        subspace_angle(np.array([[1.0, 0.0], [0.7, 0.7]]), np.eye(2))


# ===== classification =====

def test_faces_enumeration_counts():
    fs = list(faces((0, 1, 2, 3)))
    assert len(fs) == 15  # 4 + 6 + 4 + 1
    assert (0, 3) in fs
    assert list(faces((0, 1, 2, 3), min_dim=2, max_dim=2)) == list(
        itertools.combinations(range(4), 3))


def test_classify_good_equilateral():
    assert classify_gamma((0, 1, 2), 0.3, EQUILATERAL) is GammaClass.GOOD


def test_classify_flake_thin_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.001]])
    # edges are fine, the triangle itself is nearly degenerate
    assert classify_gamma((0, 1, 2), 0.1, pts) is GammaClass.FLAKE


def test_classify_bad_non_flake_contains_flake_face():
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 0.001, 0.0],
        [0.5, 0.3, 0.8],
    ])
    assert classify_gamma((0, 1, 2, 3), 0.1, pts) is GammaClass.BAD_NON_FLAKE
    # and the offending face really is a flake
    assert classify_gamma((0, 1, 2), 0.1, pts) is GammaClass.FLAKE


def test_classify_coincident_vertices_never_good():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert classify_gamma((0, 1, 2), 0.2, pts) is GammaClass.BAD_NON_FLAKE


def test_classify_rejects_bad_threshold():
    with pytest.raises(ValueError):
        classify_gamma((0, 1, 2), 1.5, EQUILATERAL)


def test_good_is_hereditary():
    rng = np.random.default_rng(43)
    gamma0 = 0.15
    found = 0
    for _ in range(300):
        simplex, pts = rand_simplex(rng, 3, 4)
        if classify_gamma(simplex, gamma0, pts) is not GammaClass.GOOD:
            continue
        found += 1
        for f in faces(simplex, min_dim=1):
            assert classify_gamma(f, gamma0, pts) is GammaClass.GOOD
    assert found > 20


def test_bad_non_flake_contains_some_flake():
    rng = np.random.default_rng(47)
    gamma0 = 0.4
    found = 0
    for _ in range(400):
        simplex, pts = rand_simplex(rng, 3, 3)
        if classify_gamma(simplex, gamma0, pts) is not GammaClass.BAD_NON_FLAKE:
            continue
        found += 1
        assert any(
            classify_gamma(f, gamma0, pts) is GammaClass.FLAKE
            for f in faces(simplex, min_dim=2)
        )
    assert found > 20


# The per-face scalar chain the stacked gamma0 rule replaced: one SVD per
# (face, vertex) and one thickness call per face.  The stacked rule must
# reproduce it bit for bit.

def _scalar_altitude(v, simplex, pts, delta):
    face = [i for i in simplex if i != v]
    rel = pts[v] - pts[face[0]]
    if len(face) > 1:
        basis, _ = _span_frame(pts[face[1:]] - pts[face[0]], delta)
        rel = rel - basis.T @ (basis @ rel)
    return float(np.linalg.norm(rel))


def _scalar_thickness(simplex, pts):
    j = len(simplex) - 1
    if j == 0:
        return 1.0
    _, delta = edge_extremes(simplex, pts)
    if delta == 0.0:
        return 0.0
    if j == 1:
        return 1.0
    alt = min(_scalar_altitude(v, simplex, pts, delta) for v in simplex)
    return float(alt / (j * delta))


def _scalar_class(simplex, gamma0, pts):
    j = len(simplex) - 1
    if j == 0:
        return GammaClass.GOOD
    proper_good = all(_scalar_thickness(f, pts) >= gamma0 ** (len(f) - 1)
                      for f in faces(simplex, min_dim=1, max_dim=j - 1))
    if not proper_good:
        return GammaClass.BAD_NON_FLAKE
    if _scalar_thickness(simplex, pts) >= gamma0 ** j:
        return GammaClass.GOOD
    return GammaClass.FLAKE


def _quality_stack(rng, k, n_ambient, count):
    """``count`` seeded k-vertex simplices in one point array, a third
    random and the rest with one vertex 1e-14..0.32 off the affine hull of
    the others, at scales 1e-3..1e3; row i of the returned index array
    is simplex i."""
    blocks = []
    for _ in range(count):
        pts = rng.normal(size=(k, n_ambient))
        if k >= 2 and rng.uniform() < 2 / 3:
            v = int(rng.integers(k))
            others = np.delete(pts, v, axis=0)
            w = rng.uniform(size=k - 1)
            off = rng.normal(size=n_ambient)
            off *= 10.0 ** rng.uniform(-14.0, -0.5) / np.linalg.norm(off)
            pts[v] = (w / w.sum()) @ others + off
        blocks.append(pts * 10.0 ** rng.uniform(-3.0, 3.0))
    pts = np.vstack(blocks)
    return np.arange(len(pts)).reshape(count, k), pts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_stacked_quality_rule_matches_scalar_chain_bitwise(k):
    rng = np.random.default_rng(71 + k)
    seen = set()
    for n_ambient in (2, 3, 4):
        taus, pts = _quality_stack(rng, k, n_ambient, 200)
        rows = [tuple(t) for t in taus.tolist()]
        ref = [_scalar_thickness(s, pts) for s in rows]
        assert _thicknesses(pts[taus]).tolist() == ref
        assert [thickness(s, pts) for s in rows] == ref
        if k >= 2:
            delta = _edge_lengths(pts[taus]).max(axis=-1)
            want = [_scalar_altitude(v, s, pts, d)
                    for s, d in zip(rows, delta.tolist()) for v in s]
            assert [altitude(v, s, pts) for s in rows for v in s] == want
            apex = [v for s in rows for v in s]
            face = [[u for u in s if u != v] for s in rows for v in s]
            stacked = _altitudes(pts[apex], pts[face], np.repeat(delta, k))
            assert stacked.tolist() == want
        for gamma0 in (0.05, 0.2, 0.5):
            want = [_scalar_class(s, gamma0, pts) for s in rows]
            assert gamma_classes(taus, pts, gamma0) == want
            assert [classify_gamma(s, gamma0, pts) for s in rows] == want
            seen.update(want)
    # every verdict the simplex size allows is reached (a flake needs a
    # triangle, a bad non-flake a flake face)
    assert len(seen) == (1 if k <= 2 else min(k - 1, 3))


def test_stacked_quality_rule_coincident_vertices():
    rng = np.random.default_rng(79)
    for k in (2, 3, 4, 5):
        taus, pts = _quality_stack(rng, k, 3, 50)
        pts[taus[:, 1]] = pts[taus[:, 0]]
        rows = [tuple(t) for t in taus.tolist()]
        assert _thicknesses(pts[taus]).tolist() == [0.0] * len(rows)
        assert gamma_classes(taus, pts, 0.2) == [
            _scalar_class(s, 0.2, pts) for s in rows]


def test_gamma_classes_batch_shapes():
    for k in (1, 2, 3, 4, 5):
        assert gamma_classes(np.zeros((0, k), dtype=int), RIGHT, 0.2) == []
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.001],
                    [0.5, np.sqrt(3) / 2]])
    assert gamma_classes([[0, 1, 2], [0, 1, 3]], pts, 0.1) == [
        GammaClass.FLAKE, GammaClass.GOOD]
    assert gamma_classes([[1], [3]], pts, 0.1) == [GammaClass.GOOD] * 2
    with pytest.raises(ValueError):
        gamma_classes([0, 1, 2], pts, 0.1)
    with pytest.raises(ValueError):
        gamma_classes([[0, 1, 2]], pts, 1.0)
    with pytest.raises(IndexError):
        gamma_classes([[0, 1, -1]], pts, 0.1)


def test_flake_altitude_bound_values():
    # k Delta^2 gamma0 / ((k-1) L)
    assert flake_altitude_bound(2, 1.0, 0.5, 0.02) == pytest.approx(0.08)
    assert flake_altitude_bound(3, 2.0, 1.0, 0.1) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        flake_altitude_bound(1, 1.0, 0.5, 0.02)
    with pytest.raises(ValueError):
        flake_altitude_bound(2, 1.0, 0.0, 0.02)


def test_flake_altitude_bound_holds_on_random_flakes():
    rng = np.random.default_rng(53)
    gamma0 = 0.3
    found = 0
    for _ in range(600):
        simplex, pts = rand_simplex(rng, 2, 3)
        if classify_gamma(simplex, gamma0, pts) is not GammaClass.FLAKE:
            continue
        found += 1
        ell, delta = edge_extremes(simplex, pts)
        bound = flake_altitude_bound(2, delta, ell, gamma0)
        for v in simplex:
            assert altitude(v, simplex, pts) <= bound * (1 + 1e-9)
    assert found > 20
