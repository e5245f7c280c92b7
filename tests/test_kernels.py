"""The 2-D cell clip and the flake prefilters against exact references."""
import numpy as np

from tandel._kernels import (
    clip_power_cell,
    flake_pair_candidates,
    flake_triple_candidates,
)
from tandel.geometry import GammaClass, classify_gamma, min_weighted_radius
from tandel.stars import _corners_by_enumeration


def _canon(poly, decimals=9):
    """Polygon corners as a set of rounded tuples (order-insensitive)."""
    return {tuple(np.round(p, decimals)) for p in poly}


def test_square_cell():
    a = np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    poly = clip_power_cell(a, b, 5.0)
    assert _canon(poly) == {(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_unclipped_cell_is_box():
    a = np.array([[1.0, 0.0]])
    b = np.array([100.0])
    poly = clip_power_cell(a, b, 2.0)
    assert _canon(poly) == {(2.0, 2.0), (2.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)}


def test_empty_cell():
    a = np.array([[1.0, 0.0], [-1.0, 0.0]])
    b = np.array([-1.0, -1.0])
    assert len(clip_power_cell(a, b, 10.0)) == 0


def test_far_constraint_is_culled_without_changing_result():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(3, 12))
        a = rng.normal(size=(k, 2))
        b = rng.uniform(0.2, 2.0, size=k)
        base = _canon(clip_power_cell(a, b, 3.0))
        far = np.vstack([a, rng.normal(size=(1, 2))])
        far_b = np.append(b, 1e6)
        assert _canon(clip_power_cell(far, far_b, 3.0)) == base


def test_degenerate_rows():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    poly = clip_power_cell(a, np.array([4.0, 1.0]), 2.0)
    assert _canon(poly) == {(1.0, 2.0), (1.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)}
    assert len(clip_power_cell(a, np.array([-4.0, 1.0]), 2.0)) == 0


def test_clip_paths_agree():
    # the clip against corner enumeration, which solves every pair of
    # constraints (the site rows 2u.t <= b, so u = a / 2) and the box walls
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        a = rng.normal(size=(k, 2))
        b = rng.uniform(-0.1, 3.0, size=k)
        box = float(rng.uniform(0.5, 4.0))
        ref = _corners_by_enumeration(a / 2, b, box, 2)
        out = clip_power_cell(a, b, box)
        assert _canon(out, 7) == _canon(ref, 7)


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
