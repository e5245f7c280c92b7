"""Builtin manifolds: projections, tangent frames, lifts, nets, point I/O."""
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (farthest_point_net_reference, frame_at,
                      torus_sample_reference)
from tandel.errors import (
    EmptyInput,
    MedialAxisProximity,
    NoConvergence,
    OutOfChart,
    PointNotOnManifold,
)
from tandel import manifolds as manifolds_module
from tandel.geometry import subspace_angle
from tandel.manifolds import (
    CliffordTorus,
    FlatPatch,
    TorusOfRevolution,
    UnitSphere,
    closest_point,
    covering_radius_estimate,
    farthest_point_net,
    lift_from_tangent,
    parse_manifold,
    read_points,
    read_table,
    tangent_frames,
    write_points,
)

ALL_SPECS = ["sphere:m=2,N=3", "sphere:m=2,N=5", "sphere:m=3,N=4",
             "torus:R=2,r=0.5", "clifford:r=0.70710678", "flat:m=2,N=3"]


@pytest.fixture(params=ALL_SPECS)
def manifold(request):
    return parse_manifold(request.param)


# ===== construction and parsing =====

def test_spec_string_round_trip():
    for spec in ["sphere:m=2,N=3", "torus:R=2,r=0.5", "clifford:r=0.5",
                 "flat:m=3,N=5"]:
        M = parse_manifold(spec)
        again = parse_manifold(M.spec_string())
        assert type(again) is type(M)
        assert again.spec_string() == M.spec_string()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_manifold("moebius:w=1")
    with pytest.raises(ValueError):
        parse_manifold("clifford:")


@pytest.mark.parametrize("spec, message", [
    ("torus:R=3,rr=1", "unknown field 'rr'"),
    ("sphere:m=2,N=3,k=9", "unknown field 'k'"),
    ("torus:R=3,r=1,r=2", "repeats field 'r'"),
    ("clifford:r=nan", "field 'r' is not a finite float: 'nan'"),
    ("torus:R=inf,r=0.5", "field 'R' is not a finite float"),
    ("sphere:m=2.5,N=3", "field 'm' is not a finite int"),
    ("flat:m=2", "missing field 'N'"),
])
def test_parse_names_the_bad_field(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_manifold(spec)


def test_parse_torus_defaults():
    assert parse_manifold("torus:r=0.25").spec_string() == "torus:R=2,r=0.25"
    assert parse_manifold("torus").spec_string() == "torus:R=2,r=0.5"


def test_constructor_validation():
    with pytest.raises(ValueError):
        UnitSphere(3, 3)
    with pytest.raises(ValueError):
        TorusOfRevolution(1.0, 1.5)
    with pytest.raises(ValueError):
        CliffordTorus(-1.0)
    with pytest.raises(ValueError):
        FlatPatch(2, 2)


def test_reach_values():
    assert UnitSphere(2, 3).reach == 1.0
    assert TorusOfRevolution(2, 0.5).reach == 0.5
    assert TorusOfRevolution(2, 1.5).reach == 0.5
    assert CliffordTorus(1 / math.sqrt(2)).reach == pytest.approx(1 / math.sqrt(2))
    assert math.isinf(FlatPatch(2, 3).reach)


def test_reach_matches_sampled_medial_distance():
    # on each compact builtin the minimum distance from the manifold to
    # its medial axis is the reach
    for M in [TorusOfRevolution(2, 0.5), CliffordTorus(0.8), UnitSphere(2, 4)]:
        pts = M.sample(500, seed=3)
        dmin = min(M.medial_distance(p) for p in pts)
        assert dmin >= M.reach - 1e-9
        assert dmin <= M.reach * 1.05


def test_torus_normal_ray_probe():
    # walking inward along the tube normal from the tube top keeps the
    # same foot point until the core circle (the reach) is hit
    M = TorusOfRevolution(2, 0.5)
    p = np.array([2.0, 0.0, 0.5])
    for d in (0.1, 0.3, 0.48):
        foot = closest_point(M, np.array([2.0, 0.0, 0.5 - d]))
        assert foot == pytest.approx(p, abs=1e-12)
    with pytest.raises(MedialAxisProximity):
        closest_point(M, np.array([2.0, 0.0, 0.0]))


# ===== closest point =====

def test_closest_point_sphere_radial():
    M = UnitSphere(2, 3)
    assert closest_point(M, np.array([2.0, 0.0, 0.0])) == pytest.approx(
        [1.0, 0.0, 0.0])


def test_closest_point_torus_tube():
    M = TorusOfRevolution(2, 0.5)
    foot = closest_point(M, np.array([2.0, 0.0, 0.2]))
    assert foot == pytest.approx([2.0, 0.0, 0.5])
    resid = frame_at(M, foot) @ (np.array([2.0, 0.0, 0.2]) - foot)
    assert np.abs(resid).max() < 1e-9


def test_closest_point_flat_drops_normal_coords():
    M = FlatPatch(2, 3)
    assert closest_point(M, np.array([0.3, -1.2, 7.0])) == pytest.approx(
        [0.3, -1.2, 0.0])


def test_closest_point_clifford():
    M = CliffordTorus(1.0)
    foot = closest_point(M, np.array([1.0, 0.0, 0.0, 2.0]))
    assert foot == pytest.approx([1.0, 0.0, 0.0, 1.0])


def test_closest_point_medial_axis_raises():
    with pytest.raises(MedialAxisProximity):
        closest_point(UnitSphere(2, 3), np.zeros(3))
    with pytest.raises(MedialAxisProximity):
        closest_point(UnitSphere(2, 4), np.array([0.0, 0.0, 0.0, 0.5]))
    with pytest.raises(MedialAxisProximity):
        closest_point(TorusOfRevolution(2, 0.5), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(MedialAxisProximity):
        closest_point(CliffordTorus(1.0), np.array([0.0, 0.0, 1.0, 1.0]))


def test_foot_point_orthogonality(manifold):
    rng = np.random.default_rng(5)
    pts = manifold.sample(20, seed=8)
    cap = 0.3 * min(manifold.reach, 1.0) if math.isfinite(manifold.reach) else 0.5
    for p, normal in zip(pts, manifold._frames(pts)[1]):
        off = rng.normal(size=(manifold.N - manifold.m,))
        off *= cap * rng.uniform(0.1, 1.0) / np.linalg.norm(off)
        x = p + normal.T @ off
        foot = closest_point(manifold, x)
        resid = frame_at(manifold, foot) @ (x - foot)
        assert np.abs(resid).max() < 1e-9
        # along pure normal offsets within the reach the foot is p itself
        assert foot == pytest.approx(p, abs=1e-6)


# ===== tangent frames =====

def test_sphere_chart_at_pole_is_xy_plane():
    M = UnitSphere(2, 3)
    pole = np.array([0.0, 0.0, 1.0])
    assert np.abs(frame_at(M, pole)[:, 2]).max() < 1e-12
    assert M._frames(pole[None])[1][0] == pytest.approx(
        np.array([[0.0, 0.0, 1.0]]))


def test_torus_chart_at_outer_equator():
    M = TorusOfRevolution(2, 0.5)
    frame = frame_at(M, np.array([2.5, 0.0, 0.0]))
    got = {tuple(np.round(np.abs(row), 12)) for row in frame}
    assert got == {(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    gram = frame @ frame.T
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_chart_rejects_off_manifold_point():
    with pytest.raises(PointNotOnManifold):
        frame_at(UnitSphere(2, 3), np.array([1.1, 0.0, 0.0]))
    with pytest.raises(PointNotOnManifold):
        frame_at(FlatPatch(2, 3), np.array([0.0, 0.0, 1e-6]))


def test_chart_frames_are_orthogonal_complements(manifold):
    pts = manifold.sample(10, seed=21)
    assert tangent_frames(manifold, pts).shape == (10, manifold.m, manifold.N)
    assert manifold._frames(pts)[1].shape == (
        10, manifold.N - manifold.m, manifold.N)


def test_project_base_to_origin(manifold):
    # tangent coordinates B (x - p): the base goes to the origin, and so
    # does every normal offset from it
    p = manifold.sample(1, seed=2)[0]
    frame = frame_at(manifold, p)
    assert (frame @ (p - p)).tolist() == [0.0] * manifold.m
    normal = manifold._frames(p[None])[1][0]
    offsets = p + normal.T @ np.linspace(0.1, 0.3, manifold.N - manifold.m)
    assert frame @ (offsets - p) == pytest.approx(np.zeros(manifold.m),
                                                  abs=1e-12)


def test_sphere_projection_example():
    pole = np.array([0.0, 0.0, 1.0])
    y = frame_at(UnitSphere(2, 3), pole) @ (np.array([0.6, 0.0, 0.8]) - pole)
    assert sorted(np.abs(y)) == pytest.approx([0.0, 0.6], abs=1e-12)


# ===== stacked frames =====

def _scalar_frames(manifold, p):
    """The frames of one point by the closed forms, one point at a time,
    and the angles of the point for the torus lifts: the reference for
    ``Manifold._frames`` and ``_params_of``."""
    if isinstance(manifold, UnitSphere):
        k = manifold.m + 1
        pb = p[:k] / np.linalg.norm(p[:k])
        u = np.linalg.svd(np.eye(k) - np.outer(pb, pb))[0]
        tan = np.zeros((manifold.m, manifold.N))
        tan[:, :k] = u[:, : manifold.m].T
        nrm = np.zeros((manifold.N - manifold.m, manifold.N))
        nrm[0, :k] = pb
        for i in range(manifold.N - k):
            nrm[1 + i, k + i] = 1.0
        return tan, nrm, None
    if isinstance(manifold, TorusOfRevolution):
        u = math.atan2(p[1], p[0])
        v = math.atan2(p[2], math.hypot(p[0], p[1]) - manifold.R)
        cu, su, cv, sv = math.cos(u), math.sin(u), math.cos(v), math.sin(v)
        return (np.array([[-su, cu, 0.0], [-sv * cu, -sv * su, cv]]),
                np.array([[cv * cu, cv * su, sv]]), (u, v))
    if isinstance(manifold, CliffordTorus):
        t1, t2 = math.atan2(p[1], p[0]), math.atan2(p[3], p[2])
        c1, s1, c2, s2 = (math.cos(t1), math.sin(t1), math.cos(t2),
                          math.sin(t2))
        return (np.array([[-s1, c1, 0.0, 0.0], [0.0, 0.0, -s2, c2]]),
                np.array([[c1, s1, 0.0, 0.0], [0.0, 0.0, c2, s2]]),
                (t1, t2))
    eye = np.eye(manifold.N)
    return eye[: manifold.m], eye[manifold.m:], None


@pytest.mark.parametrize("spec", ALL_SPECS + ["sphere:m=3,N=5",
                                              "flat:m=3,N=5"])
def test_stacked_charts_match_scalar_frames(spec):
    """Every row of one stack is bitwise the closed-form frame of its
    point; ``np.arctan2`` and ``np.hypot`` round differently from
    ``math`` on some inputs, so a vectorised angle would show here.  The
    torus lifts recompute the angles of their base point with
    ``_params_of``, which must give the angles of the frame."""
    manifold = parse_manifold(spec)
    pts = manifold.sample(2000, seed=17)
    frames = tangent_frames(manifold, pts)
    assert frames.shape == (len(pts), manifold.m, manifold.N)
    normals = manifold._frames(pts)[1]
    for p, frame, normal in zip(pts, frames, normals):
        tan, nrm, params = _scalar_frames(manifold, p)
        assert frame.tobytes() == tan.tobytes()
        assert normal.tobytes() == nrm.tobytes()
        if params is not None:
            assert manifold._params_of(p.tolist()) == params
        assert frame_at(manifold, p).tobytes() == tan.tobytes()
        assert manifold._frames(p[None])[1][0].tobytes() == nrm.tobytes()


def test_stacked_charts_check_frames_once(monkeypatch):
    checks = []
    real = manifolds_module.check_orthonormal
    monkeypatch.setattr(manifolds_module, "check_orthonormal",
                        lambda bases: checks.append(bases.shape) or real(bases))
    M = TorusOfRevolution(2, 0.5)
    frames = tangent_frames(M, M.sample(50, seed=3))
    assert frames.shape == (50, 2, 3)
    assert checks == [(50, 2, 3), (50, 1, 3)]


def test_stacked_charts_reject_a_bad_frame_stack(monkeypatch):
    M = FlatPatch(2, 3)
    tan, nrm = M._frames(M.sample(4, seed=1))
    tan[2, 1] = tan[2, 0]
    monkeypatch.setattr(M, "_frames", lambda points: (tan, nrm))
    with pytest.raises(ValueError, match="not orthonormal"):
        tangent_frames(M, M.sample(4, seed=1))
    tan[2, 1] = [0.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="not orthogonal"):
        tangent_frames(M, M.sample(4, seed=1))


def test_stacked_charts_name_the_first_bad_row():
    M = UnitSphere(2, 3)
    pts = M.sample(6, seed=4)
    pts[2] *= 1.25
    pts[4] *= 1.5
    with pytest.raises(PointNotOnManifold, match="residual 2.500e-01"):
        tangent_frames(M, pts)
    assert tangent_frames(M, pts[:0]).shape == (0, 2, 3)


def test_off_manifold_error_names_the_point():
    M = UnitSphere(2, 3)
    pts = M.sample(6, seed=4)
    pts[2] *= 1.25
    pts[4] *= 1.5
    with pytest.raises(PointNotOnManifold,
                       match=r"^point 2: residual 2\.500e-01 exceeds 1e-09$"):
        tangent_frames(M, pts)
    # a caller that passes a subset names its rows by their labels
    with pytest.raises(PointNotOnManifold, match=r"^point 17: residual 2\.5"):
        tangent_frames(M, pts, labels=[10, 11, 17, 13, 14, 15])


# ===== lifts =====

def test_sphere_lift_example():
    M = UnitSphere(2, 3)
    pole = np.array([0.0, 0.0, 1.0])
    frame = frame_at(M, pole)
    y = frame @ (np.array([0.6, 0.0, 0.8]) - pole)
    lifted = lift_from_tangent(M, pole, frame, y)
    assert lifted == pytest.approx([0.6, 0.0, 0.8], abs=1e-12)
    # ambient embedding of y sits 0.2 above the lift; lemma bound is 0.72
    emb = pole + frame.T @ y
    assert np.linalg.norm(emb - lifted) == pytest.approx(0.2)


def test_lift_origin_is_base(manifold):
    p = manifold.sample(1, seed=11)[0]
    assert lift_from_tangent(manifold, p, frame_at(manifold, p),
                             np.zeros(manifold.m)) == pytest.approx(p)


def test_lift_default_cap():
    """Every lift is capped at the reach."""
    M = UnitSphere(2, 3)
    pole = np.array([0.0, 0.0, 1.0])
    frame = frame_at(M, pole)
    with pytest.raises(OutOfChart, match=r"^\|y\| = 1 >= reach 1$"):
        lift_from_tangent(M, pole, frame, np.array([1.0, 0.0]))
    lifted = lift_from_tangent(M, pole, frame, np.array([0.999, 0.0]))
    assert M.implicit_residual(lifted) < 1e-9  # just inside


def test_lift_round_trip(manifold):
    rng = np.random.default_rng(13)
    cap = min(manifold.reach, 2.0)
    for p in manifold.sample(15, seed=17):
        frame = frame_at(manifold, p)
        y = rng.normal(size=manifold.m)
        y *= rng.uniform(0.05, 0.4) * cap / np.linalg.norm(y)
        lifted = lift_from_tangent(manifold, p, frame, y)
        assert manifold.implicit_residual(lifted) < 1e-9
        back = frame @ (lifted - p)
        assert back == pytest.approx(y, abs=1e-9)


def test_torus_lift_without_solution_raises():
    """The chart inverse itself, past the reach cap of
    ``lift_from_tangent``, which a lift between reach/2 and the reach
    may also meet."""
    M = TorusOfRevolution(2, 0.5)
    p = np.array([2.5, 0.0, 0.0])
    # the tube circle only reaches r=0.5 along the second tangent axis
    with pytest.raises(NoConvergence):
        M._lift(p, frame_at(M, p), np.array([0.0, 0.9]))


def test_clifford_lift_per_block_cap():
    """The chart inverse itself: a coordinate past one circle's radius."""
    M = CliffordTorus(0.5)
    p = M.sample(1, seed=3)[0]
    with pytest.raises(OutOfChart, match="per-circle"):
        M._lift(p, frame_at(M, p), np.array([0.6, 0.0]))


# ===== the sampling-theory inequalities =====

def test_sphere_distance_to_tangent_is_sharp():
    # on the unit sphere d(y, T_x) equals |x-y|^2 / 2 exactly
    M = UnitSphere(2, 3)
    pts = M.sample(60, seed=29)
    for x in pts[:10]:
        frame = frame_at(M, x)
        for y in pts:
            rel = y - x
            d_tan = np.linalg.norm(rel - frame.T @ (frame @ rel))
            assert d_tan == pytest.approx((rel @ rel) / 2.0, abs=1e-12)


def test_distance_to_tangent_bound(manifold):
    if not math.isfinite(manifold.reach):
        pytest.skip("bound trivial for the flat patch")
    pts = manifold.sample(120, seed=31)
    for x in pts[:15]:
        frame = frame_at(manifold, x)
        for y in pts:
            r = np.linalg.norm(y - x)
            if not 0 < r < manifold.reach:
                continue
            rel = y - x
            d_tan = np.linalg.norm(rel - frame.T @ (frame @ rel))
            assert d_tan <= r * r / (2 * manifold.reach) * (1 + 1e-9)


def test_lift_gap_bound(manifold):
    if not math.isfinite(manifold.reach):
        pytest.skip("lift gap is zero on the flat patch")
    rng = np.random.default_rng(37)
    for p in manifold.sample(15, seed=41):
        frame = frame_at(manifold, p)
        y = rng.normal(size=manifold.m)
        r = rng.uniform(0.02, 0.25) * manifold.reach
        y *= r / np.linalg.norm(y)
        lifted = lift_from_tangent(manifold, p, frame, y)
        emb = p + frame.T @ y
        assert np.linalg.norm(emb - lifted) <= 2 * r * r / manifold.reach


def test_tangent_variation_bound(manifold):
    if not math.isfinite(manifold.reach):
        pytest.skip("tangent space is constant on the flat patch")
    pts = manifold.sample(200, seed=43)
    frames = [frame_at(manifold, p) for p in pts[:40]]
    for i, ci in enumerate(frames):
        for j, cj in enumerate(frames):
            if i == j:
                continue
            r = np.linalg.norm(pts[i] - pts[j])
            if r > manifold.reach / 4:
                continue
            ang = subspace_angle(ci, cj)
            assert math.sin(ang) < 6 * r / manifold.reach


# ===== nets =====

def test_net_is_sparse_and_covers():
    M = UnitSphere(2, 3)
    dense = M.sample(2000, seed=47)
    net = farthest_point_net(dense, 0.5, seed=0)
    assert net.sparsity > 0.5
    from scipy.spatial import cKDTree
    d, _ = cKDTree(net.points).query(dense)
    assert d.max() <= 0.5
    assert net.epsilon == 0.5


def test_net_determinism_and_seed_start():
    rng = np.random.default_rng(53)
    dense = rng.normal(size=(300, 3))
    a = farthest_point_net(dense, 0.8, seed=7)
    b = farthest_point_net(dense, 0.8, seed=7)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.points[0], dense[7])


def test_net_single_point_when_eps_huge():
    dense = np.random.default_rng(59).normal(size=(50, 2))
    net = farthest_point_net(dense, 1e6)
    assert len(net.points) == 1
    assert math.isinf(net.sparsity)


def test_net_empty_input():
    with pytest.raises(EmptyInput):
        farthest_point_net(np.zeros((0, 3)), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_net_rejects_non_finite_row(bad):
    dense = np.random.default_rng(71).normal(size=(50, 3))
    dense[17, 1] = bad
    with pytest.raises(ValueError, match="input point 17 is not finite"):
        farthest_point_net(dense, 0.5)


@pytest.mark.parametrize("eps", [-0.1, np.nan])
def test_net_rejects_negative_or_nan_eps(eps):
    dense = np.random.default_rng(73).normal(size=(50, 3))
    with pytest.raises(ValueError, match="eps >= 0"):
        farthest_point_net(dense, eps)


def _square_lattice():
    """An exact integer grid: many points tie for farthest at each step."""
    g = np.arange(25, dtype=float)
    x, y = np.meshgrid(g, g)
    return np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])


def _duplicated_cloud():
    cloud = np.random.default_rng(79).normal(size=(400, 3))
    return np.vstack([cloud, cloud[::3], cloud[:50]])


def _flat_cloud():
    return FlatPatch(2, 3).sample(2500, seed=3, extent=1.3)


def _ragged_cloud():
    """A cloud whose size is not a multiple of the net's block size."""
    n = 7 * manifolds_module._NET_BLOCK + 13
    return np.random.default_rng(83).normal(size=(n, 3))


def _cube_lattice():
    """An exact integer cube of more than three superblocks of the net's
    scan: many points tie for farthest at each step, in different blocks."""
    side = 20
    superblock = manifolds_module._NET_BLOCK * manifolds_module._NET_SUPER
    assert side ** 3 > 3 * superblock
    g = np.arange(side, dtype=float)
    return np.stack(np.meshgrid(g, g, g), axis=-1).reshape(-1, 3)


NET_REFERENCE_CASES = {
    # the benchmark's torus net and the end-to-end test's sphere net
    "torus-60k": (lambda: TorusOfRevolution(2.0, 0.5).sample(60000, seed=11),
                  0.3, 11),
    "sphere-20k": (lambda: UnitSphere(2, 3).sample(20000, seed=11), 0.3, 11),
    "three-sphere-20k": (lambda: UnitSphere(3, 4).sample(20000, seed=1),
                         0.45, 1),
    "flat": (_flat_cloud, 0.11, 3),
    "lattice": (_square_lattice, 2.5, 0),
    "lattice-eps-on-tie": (_square_lattice, 3.0, 312),
    "duplicates": (_duplicated_cloud, 0.7, 5),
    "duplicates-eps-zero": (_duplicated_cloud, 0.0, 5),
    "eps-above-diameter": (_flat_cloud, 10.0, 8),
    "clifford-20k": (lambda: CliffordTorus(0.70710678).sample(20000, seed=3),
                     0.4, 3),
    "ragged": (_ragged_cloud, 0.5, 2),
    "cube-lattice": (_cube_lattice, 3.0, 4321),
}


@pytest.mark.parametrize("case", sorted(NET_REFERENCE_CASES))
def test_net_equals_full_scan_reference(case):
    make, eps, seed = NET_REFERENCE_CASES[case]
    dense = make()
    net = farthest_point_net(dense, eps, seed=seed)
    want_pts, want_sparsity = farthest_point_net_reference(dense, eps, seed)
    assert np.array_equal(net.points, want_pts)
    assert net.sparsity == want_sparsity


_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))


@given(st.integers(1, 60).flatmap(lambda n: st.integers(1, 4).flatmap(
           lambda d: hnp.arrays(float, (n, d), elements=_coord))),
       st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0)),
       st.integers(0, 100))
def test_net_equals_reference_on_small_clouds(dense, eps, seed):
    net = farthest_point_net(dense, eps, seed=seed)
    want_pts, want_sparsity = farthest_point_net_reference(dense, eps, seed)
    assert np.array_equal(net.points, want_pts)
    assert net.sparsity == want_sparsity


def test_benchmark_torus_input_is_pinned():
    """The benchmark's torus input, bit for bit: the 60k dense sample
    (seed 11) and its net at eps 0.3 (seed 11).  A change to the sampler
    or the net that moves a bit of either fails here."""
    dense = TorusOfRevolution(2, 0.5).sample(60000, seed=11)
    net = farthest_point_net(dense, 0.3, seed=11)
    assert hashlib.sha256(dense.tobytes()).hexdigest() == (
        "efa6196c09caa015ae1b4c27df5f6ba0d38bb923dcae8ed519c5cc100076a227")
    assert hashlib.sha256(net.points.tobytes()).hexdigest() == (
        "4650d69c3443dbba951b8a2b9054ed88be284ef171747a78aaeb5e9e8fa13b1c")


def test_covering_radius_estimate_tracks_density():
    M = TorusOfRevolution(2, 0.5)
    dense = M.sample(4000, seed=61)
    cov = covering_radius_estimate(M, dense, seed=2)
    assert cov < 0.25
    net = farthest_point_net(dense, 0.6, seed=0)
    cov_net = covering_radius_estimate(M, net.points, seed=2)
    assert cov < cov_net <= 0.6 + cov + 1e-9


# ===== samples and I/O =====

def test_samples_lie_on_manifold(manifold):
    pts = manifold.sample(400, seed=79)
    assert pts.shape == (400, manifold.N)
    assert max(manifold.implicit_residual(p) for p in pts) <= 1e-9
    again = manifold.sample(400, seed=79)
    assert np.array_equal(pts, again)


@pytest.mark.parametrize("R, r", [(2, 0.5), (3, 1), (1, 0.9)])
@pytest.mark.parametrize("n, seed", [(0, 1), (1, 2), (7, 3), (1000, 5),
                                     (60000, 11), (200000, 13)])
def test_torus_sample_equals_fixed_step_reference(R, r, n, seed):
    M = TorusOfRevolution(R, r)
    got = M.sample(n, seed)
    want = torus_sample_reference(M, n, seed)
    assert got.shape == (n, 3)
    assert got.tobytes() == want.tobytes()


def test_torus_sample_settles_fixed_points_and_two_cycles():
    """The benchmark's 60k sample has rows of both settled kinds, so both
    branches of the sampler run in the reference test above."""
    history = []
    M = TorusOfRevolution(2, 0.5)
    torus_sample_reference(M, 60000, 11, history)
    bits = np.array(history).view(np.int64)
    fixed = (bits[1:] == bits[:-1]).any(axis=0)
    cycle = (bits[2:] == bits[:-2]).any(axis=0) & ~fixed
    assert fixed.sum() > 40000
    assert cycle.sum() > 10000


def test_torus_sample_covers_tube_angle():
    pts = TorusOfRevolution(2, 0.5).sample(3000, seed=83)
    assert pts[:, 2].max() > 0.48
    assert pts[:, 2].min() < -0.48
    rho = np.hypot(pts[:, 0], pts[:, 1])
    assert rho.min() < 1.55
    assert rho.max() > 2.45


def test_flat_sample_extent():
    pts = FlatPatch(2, 4).sample(100, seed=89, extent=3.0)
    assert pts[:, :2].min() >= 0.0
    assert pts[:, :2].max() <= 3.0
    assert np.abs(pts[:, 2:]).max() == 0.0


def test_point_io_round_trip(tmp_path):
    pts = np.random.default_rng(97).normal(size=(17, 3))
    path = tmp_path / "pts.txt"
    write_points(path, pts)
    back = read_points(path)
    assert back == pytest.approx(pts, abs=0)


def test_point_io_csv_and_comments(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# heading\n1.0, 2.0, 3.0\n4 5 6\n\n")
    assert read_points(path) == pytest.approx(
        np.array([[1.0, 2, 3], [4, 5, 6]]))


def test_point_io_ragged_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError,
                       match=r"bad.txt:2: 2 columns, the first row has 3$"):
        read_points(path)


def test_point_io_bad_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# heading\n1 2 3\n4 abc 6\n")
    with pytest.raises(ValueError, match=r"bad.txt:3: could not convert "
                                         r"string to float: 'abc'$"):
        read_points(path)


def _table_by_lines(text, number, comma):
    """The per-line parse that ``read_table`` answers like: (values,
    widths, lines), or the first line holding a bad token."""
    values, widths, lines = [], [], []
    for ln, line in enumerate(text.split("\n"), 1):
        line = line.split("#", 1)[0]
        tokens = line.split(",") if comma and "," in line else line.split()
        try:
            row = [number(t) for t in tokens]
        except ValueError:
            return ln
        if row:
            values += row
            widths.append(len(row))
            lines.append(ln)
    return values, widths, lines


_GOOD_TOKENS = {int: st.integers(-10 ** 12, 10 ** 12).map(str),
                float: st.floats(allow_nan=False, allow_infinity=False,
                                 width=64).map(repr)}
_BAD_TOKENS = ["x", "1.5", "-", "+", "2e", ".", "1-", "1.2.3", "--1", "0x1"]


@pytest.mark.parametrize("number,comma", [(int, False), (float, True)],
                         ids=["int", "float-comma"])
@settings(max_examples=200)
@given(data=st.data())
def test_read_table_answers_like_the_line_parse(number, comma, data):
    """Values, widths and lines of random tables with comments, blank
    lines, runs of blanks, comma rows and the odd bad token; a bad table
    names its first bad line."""
    token = st.one_of(_GOOD_TOKENS[number], _GOOD_TOKENS[number],
                      _GOOD_TOKENS[number], st.sampled_from(_BAD_TOKENS))
    blanks = st.sampled_from([" ", "\t", "  ", " \t "])
    # a comma line most often has commas between all its tokens
    seps = st.one_of(blanks, st.just(","), st.just(", ")) if comma \
        else blanks
    line = st.tuples(st.lists(st.tuples(token, seps), max_size=4),
                     st.booleans(), blanks,
                     st.sampled_from(["", "# note", "#1, 2"])).map(
        lambda t: t[2] + "".join(
            tok + (sep if i + 1 < len(t[0]) or t[1] else "")
            for i, (tok, sep) in enumerate(t[0])) + t[2] + t[3])
    text = "\n".join(data.draw(st.lists(line, max_size=6)))
    want = _table_by_lines(text, number, comma)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        path.write_text(text)
        dtype = np.intp if number is int else float
        if isinstance(want, int):
            with pytest.raises(ValueError, match=rf"t.txt:{want}: could not "
                                                 rf"convert string to"):
                read_table(path, dtype, comma=comma)
            return
        values, widths, lines = read_table(path, dtype, comma=comma)
    assert values.tolist() == want[0]
    assert widths.tolist() == want[1] and lines.tolist() == want[2]


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_point_io_non_finite_row(tmp_path, bad):
    path = tmp_path / "bad.txt"
    path.write_text(f"1 2 3\n\n4, {bad}, 6\n")
    with pytest.raises(ValueError, match=r"bad.txt:3: non-finite coordinate"):
        read_points(path)


@pytest.mark.parametrize("manifold,point", [
    (UnitSphere(2, 3), [np.nan, 0.0, 1.0]),
    (FlatPatch(2, 3), [0.0, 0.0, np.nan]),
], ids=["sphere", "flat"])
def test_tangent_chart_nan_point_is_off_manifold(manifold, point):
    # a NaN residual compares false against the tolerance either way
    with pytest.raises(PointNotOnManifold):
        frame_at(manifold, point)
