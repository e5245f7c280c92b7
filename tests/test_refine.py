"""Refinement: derived constants, hypotheses, picking, hitting sets, the loop."""
import itertools
import math
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from tandel import refine as refine_module
from tandel.errors import (
    AttemptBudgetExhausted,
    DegenerateSimplex,
    HypothesesFailed,
    SparsityViolation,
)
from tandel.geometry import (
    ElementaryWeight,
    GammaClass,
    classify_gamma,
    edge_extremes,
    min_weighted_radius,
)
from tandel.manifolds import (FlatPatch, SampleSet, TorusOfRevolution,
                              UnitSphere, closest_point, farthest_point_net,
                              tangent_chart)
from tandel.refine import (
    ConfigKind,
    _witness_radius,
    Parameters,
    UnfitConfiguration,
    check_hypotheses,
    classify_configurations,
    derive_constants,
    find_hitting_set,
    first_unfit,
    insert,
    make_state,
    pick_valid,
    read_parameters,
    refine,
    refine_sample,
    unit_ball_volume,
    write_parameters,
)
from tandel.stars import (Star, TangentialComplex, _cosph_scan,
                          assemble_complex)
from tandel.verify import euler_characteristic, manifold_complex_check

from conftest import disk_points

SPHERE = UnitSphere(2, 3)
FLAT = FlatPatch(2, 3)


def params_ok(**over):
    base = dict(epsilon=0.3, gamma0=0.05, alpha=0.25, beta=4.5, delta0=0.05,
                mode="practical", seed=0)
    base.update(over)
    return Parameters(**base)


# ===== derived constants =====

class TestConstants:
    def test_frozen_universal_constants(self):
        c = derive_constants(params_ok(), SPHERE)
        assert c.eps_tilde0 == pytest.approx(1.0 / 4624.0, rel=1e-15)
        assert c.mu0 == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_frozen_beta_terms(self):
        c = derive_constants(params_ok(beta=4.5), SPHERE)
        assert c.beta_prime == pytest.approx(4.5 * 289.0 / 288.0, rel=1e-13)
        assert c.b_hyp == pytest.approx(1088484486.0, rel=1e-13)
        assert c.b_lemma == pytest.approx(10078132.0, rel=1e-13)
        assert c.b_eff == c.b_hyp

    def test_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_scale_ratio(self):
        c = derive_constants(params_ok(epsilon=0.3), SPHERE)
        assert c.eps_tilde == pytest.approx(0.3, rel=1e-15)
        flat = derive_constants(params_ok(), FLAT)
        assert flat.eps_tilde == 0.0
        assert not math.isfinite(flat.xi)

    def test_overlap_margin_guard(self):
        with pytest.raises(ValueError):
            derive_constants(params_ok(), SPHERE, xi=0.9, a_vol=4.0)

    def test_d_vol_uses_the_larger_b(self):
        c = derive_constants(params_ok(beta=4.5), SPHERE)
        want = math.pi * ((c.b_hyp + 1.0) * 4 + 4.0 * 9)
        assert c.d_vol == pytest.approx(want, rel=1e-13)


# ===== hypotheses =====

class TestHypotheses:
    def test_beta_floor_value(self):
        rep = check_hypotheses(params_ok(alpha=0.25, delta0=0.1), SPHERE)
        h1 = rep.item("H1")
        assert h1.bound == pytest.approx(1849600.0 / 685773.0, rel=1e-12)
        assert round(h1.bound, 3) == 2.697

    def test_practical_acceptance(self):
        rep = check_hypotheses(params_ok(), SPHERE)
        assert rep.ok
        assert rep.item("H0").satisfied and rep.item("H1").satisfied

    def test_alpha_too_large(self):
        rep = check_hypotheses(params_ok(alpha=0.6), SPHERE)
        assert not rep.item("H0").satisfied
        assert not rep.ok

    def test_beta_too_small(self):
        rep = check_hypotheses(params_ok(beta=2.0), SPHERE)
        assert not rep.item("H1").satisfied
        assert not rep.ok

    def test_delta0_vs_gamma0(self):
        rep = check_hypotheses(params_ok(gamma0=0.3, delta0=0.1), SPHERE)
        assert rep.item("H3").satisfied
        rep = check_hypotheses(params_ok(gamma0=0.1, delta0=0.2), SPHERE)
        assert not rep.item("H3").satisfied

    def test_strict_mode_rejects_practical_scales(self):
        rep = check_hypotheses(params_ok(mode="strict"), SPHERE)
        assert not rep.ok
        assert "H5" in rep.failed()
        h5 = rep.item("H5")
        # the scale is off by many orders of magnitude, honestly so
        assert h5.value / h5.bound > 1e12

    def test_strict_state_raises(self):
        pts = SPHERE.sample(400, seed=0)
        net = farthest_point_net(pts, 0.35, seed=0)
        with pytest.raises(HypothesesFailed):
            make_state(net, SPHERE, params_ok(mode="strict", epsilon=0.35))


# ===== parameter files =====

class TestParameterIO:
    def test_round_trip(self, tmp_path):
        p = params_ok(seed=7, pick_attempt_budget=250)
        path = tmp_path / "run.params"
        write_parameters(path, p)
        assert read_parameters(path) == p

    def test_comments_and_case(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "# demo\nepsilon = 0.3\ngamma0 = 0.05\nalpha = 0.25\n"
            "beta = 4.5  # floor-checked later\ndelta0 = 0.05\nmode = Practical\n")
        p = read_parameters(path)
        assert p.mode == "practical"
        assert p.beta == 4.5
        assert p.seed == 0

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("epsilon = 0.3\nwat = 1\n")
        with pytest.raises(ValueError):
            read_parameters(path)

    def test_lenient_construction(self):
        # representable even though the checker rejects it
        p = params_ok(alpha=0.6)
        assert p.alpha == 0.6
        for bad in (dict(epsilon=-1.0), dict(gamma0=1.5), dict(delta0=0.0),
                    dict(mode="loose"), dict(beta=0.0)):
            with pytest.raises(ValueError):
                params_ok(**bad)


# ===== picking region =====

class TestPickingRegion:
    def test_volume_m3_value(self):
        # nu_3 * (alpha R)^3 at alpha=1/4, R=1/2
        vol = unit_ball_volume(3) * (0.25 * 0.5) ** 3
        assert vol == pytest.approx(0.0081812, abs=1e-7)


# ===== hitting sets =====

class TestHittingSet:
    def padded_state(self, extra, epsilon=1.3):
        """a, b close together plus a remote guard ring so stars exist."""
        ring = [(6 * np.cos(t) + 0.05 * k, 6 * np.sin(t) + 0.03 * k, 0.0)
                for k, t in enumerate(np.linspace(0, 2 * np.pi, 10)[:-1])]
        pts = np.array(list(extra) + ring)
        sample = SampleSet(points=pts, epsilon=epsilon, sparsity=0.0)
        return make_state(sample, FLAT, params_ok(epsilon=epsilon,
                                                   gamma0=0.15, beta=4.5))

    def test_thin_pair_is_found(self):
        state = self.padded_state([(0.0, 0.0, 0.0), (0.2, 0.0, 0.0)])
        x = np.array([0.1, 0.008, 0.0])
        # the triangle over (a, b) from x is a flake with a modest ball
        tau_pts = np.vstack([state.complex.points, x[None]])
        tau = (0, 1, len(tau_pts) - 1)
        assert classify_gamma(tau, 0.15, tau_pts) is GammaClass.FLAKE
        rmin, _ = min_weighted_radius(tau, tau_pts, 0.05)
        assert rmin < 4.5 * 0.4
        assert rmin < 1.3 / (1.0 - 4 * 0.05 ** 2)  # inside the local cap too
        assert find_hitting_set(x, 0.4, state) == (0, 1)

    def test_small_beta_sees_nothing(self):
        state = self.padded_state([(0.0, 0.0, 0.0), (0.2, 0.0, 0.0)])
        state.params.beta = 0.5
        x = np.array([0.1, 0.003, 0.0])
        assert find_hitting_set(x, 0.4, state) is None

    def test_fat_position_sees_nothing(self):
        state = self.padded_state([(0.0, 0.0, 0.0), (0.2, 0.0, 0.0)])
        x = np.array([0.1, 0.35, 0.0])
        assert find_hitting_set(x, 0.4, state) is None

    def test_tiny_gamma0_sees_nothing(self):
        state = self.padded_state([(0.0, 0.0, 0.0), (0.2, 0.0, 0.0)])
        state.params.gamma0 = 0.001
        x = np.array([0.1, 0.003, 0.0])
        assert find_hitting_set(x, 0.4, state) is None


# ===== hitting sets: degenerate-first order =====
#
# find_hitting_set drops affinely degenerate candidates in one batched
# rank test before any gamma0 classification, and takes every subset
# size from one prefilter kernel.  The reference below is the
# classify-first scan it replaced, with its own pair and triple
# prefilters and an unfiltered walk over larger subsets; both must give
# the same answer.

def flake_pair_candidates(x, cand, gamma0, r_cap):
    """Pairs (i, j) whose triangle with apex x has its shortest edge
    below 2 * r_cap and area / diameter^2 below gamma0^2."""
    g4 = float(gamma0) ** 4
    four_rcap_sq = 4.0 * float(r_cap) ** 2
    k = len(cand)
    if k < 2:
        return np.zeros((0, 2), dtype=np.int64)
    rel = cand - x
    d_x = (rel * rel).sum(axis=1)
    gram = rel @ rel.T
    ii, jj = np.triu_indices(k, 1)
    d_ij = d_x[ii] + d_x[jj] - 2.0 * gram[ii, jj]
    lmin = np.minimum(np.minimum(d_x[ii], d_x[jj]), d_ij)
    dmax = np.maximum(np.maximum(d_x[ii], d_x[jj]), d_ij)
    area_sq = np.maximum(
        0.25 * (d_x[ii] * d_x[jj] - gram[ii, jj] ** 2), 0.0)
    keep = (
        (lmin > 0.0)
        & (lmin < four_rcap_sq)
        & (area_sq < g4 * dmax * dmax * (1.0 + 1e-9))
    )
    return np.stack([ii[keep], jj[keep]], axis=1).astype(np.int64)


def flake_triple_candidates(x, cand, gamma0, r_cap):
    """Triples (i, j, l) whose 3-simplex with apex x has its shortest
    edge below 2 * r_cap and det Gram below (27/4) gamma0^6 Delta^6."""
    g3 = float(gamma0) ** 3
    four_rcap_sq = 4.0 * float(r_cap) ** 2
    k = len(cand)
    if k < 3:
        return np.zeros((0, 3), dtype=np.int64)
    rel = cand - x
    d_x = (rel * rel).sum(axis=1)
    gram = rel @ rel.T
    out = []
    det_cap_coef = (27.0 / 4.0) * g3 * g3 * (1.0 + 1e-9)
    for i in range(k - 2):
        for j in range(i + 1, k - 1):
            d_ij = d_x[i] + d_x[j] - 2.0 * gram[i, j]
            for l in range(j + 1, k):
                d_il = d_x[i] + d_x[l] - 2.0 * gram[i, l]
                d_jl = d_x[j] + d_x[l] - 2.0 * gram[j, l]
                edges = (d_x[i], d_x[j], d_x[l], d_ij, d_il, d_jl)
                lmin = min(edges)
                if lmin <= 0.0 or lmin >= four_rcap_sq:
                    continue
                dmax = max(edges)
                g_ii, g_jj, g_ll = d_x[i], d_x[j], d_x[l]
                g_ij, g_il, g_jl = gram[i, j], gram[i, l], gram[j, l]
                det = (g_ii * (g_jj * g_ll - g_jl * g_jl)
                       - g_ij * (g_ij * g_ll - g_jl * g_il)
                       + g_il * (g_ij * g_jl - g_jj * g_il))
                if det < det_cap_coef * dmax ** 3:
                    out.append((i, j, l))
    return (np.array(out, dtype=np.int64) if out
            else np.zeros((0, 3), dtype=np.int64))


def classify_first_hitting_set(x, r_ref, state):
    params = state.params
    pts = state.complex.points
    m = state.manifold.m
    r_cap = min(params.beta * r_ref,
                params.epsilon / (1.0 - 4.0 * params.delta0 ** 2))
    edge_scale = 1.0 / math.sqrt(1.0 - 4.0 * params.delta0 ** 2)
    r_query = 2.0 * r_cap * edge_scale * (1.0 + 1e-9)
    cand = sorted(state.complex.tree.query_ball_point(np.asarray(x), r_query))
    if not cand:
        return None
    cand_pts = pts[cand]
    x = np.asarray(x, dtype=float)
    pts_aug = np.vstack([pts, x[None]])
    x_idx = len(pts)

    def confirmed(local_sigma):
        sigma = tuple(int(cand[i]) for i in local_sigma)
        tau = tuple(sorted(sigma)) + (x_idx,)
        if classify_gamma(tau, params.gamma0, pts_aug) is not GammaClass.FLAKE:
            return None
        try:
            rmin, _w = min_weighted_radius(tau, pts_aug, params.delta0)
        except DegenerateSimplex:
            return None
        return sigma if rmin < r_cap else None

    rows = [flake_pair_candidates(x, cand_pts, params.gamma0,
                                  r_cap * edge_scale)]
    if m + 1 >= 3:
        rows.append(flake_triple_candidates(x, cand_pts, params.gamma0,
                                            r_cap * edge_scale))
    for block in rows:
        for row in block:
            got = confirmed(row)
            if got:
                return got
    if m + 1 >= 4:
        d_edge = 2.0 * r_cap * edge_scale * (1.0 + 1e-9)
        dmat = np.linalg.norm(cand_pts[:, None] - cand_pts[None], axis=2)
        for k in range(4, m + 2):
            combos = np.array(list(itertools.combinations(range(len(cand)),
                                                          k)),
                              dtype=np.int64).reshape(-1, k)
            iu, ju = np.triu_indices(k, 1)
            longest = dmat[combos[:, iu], combos[:, ju]].max(axis=1,
                                                             initial=0.0)
            for combo in combos[longest <= d_edge]:
                got = confirmed(combo)
                if got:
                    return got
    return None


def draws_near_edges(state, seed, n):
    """Seeded points on the manifold near short sample edges, where thin
    simplices with x as a vertex (hits and near-misses) are common."""
    rng = np.random.default_rng(seed)
    pts = state.complex.points
    m = state.manifold.m
    _, nbrs = state.complex.tree.query(pts, k=min(4, len(pts)))
    for _ in range(n):
        i = int(rng.integers(len(pts)))
        a, b = pts[i], pts[int(rng.choice(nbrs[i][1:]))]
        span = np.linalg.norm(b - a)
        off = np.zeros(len(a))
        off[:m] = rng.normal(size=m)
        off *= span * 10.0 ** rng.uniform(-3.0, -0.3) / np.linalg.norm(off)
        x = a + rng.uniform(0.2, 0.8) * (b - a) + off
        yield closest_point(state.manifold, x), state.epsilon * rng.uniform(0.3, 1.0)


@pytest.fixture(scope="module")
def hexagon_state():
    """Flat triangular lattice with its centre removed: the hexagonal rim
    is cocircular and every sample quadruple is coplanar."""
    s = 0.4
    pts = [(s * (i + 0.5 * j), s * math.sqrt(3.0) / 2.0 * j, 0.0)
           for j in range(-4, 5) for i in range(-6, 7)]
    pts = np.array([p for p in pts if 0.1 < math.hypot(p[0], p[1]) < 1.3])
    sample = SampleSet(points=pts, epsilon=0.5, sparsity=0.0)
    return make_state(sample, FLAT, params_ok(epsilon=0.5, gamma0=0.3))


FLAT3 = FlatPatch(3, 4)


@pytest.fixture(scope="module")
def flat3_state():
    sample = SampleSet(points=FLAT3.sample(14, seed=1), epsilon=0.5,
                       sparsity=0.0)
    return make_state(sample, FLAT3, params_ok(epsilon=0.5, gamma0=0.3))


THREE_SPHERE = UnitSphere(3, 4)


@pytest.fixture(scope="module")
def three_sphere_net():
    """126 points: every star sees the whole sphere."""
    return farthest_point_net(THREE_SPHERE.sample(20000, seed=1), 0.45,
                              seed=1)


@pytest.fixture(scope="module")
def three_sphere_state(three_sphere_net):
    return make_state(three_sphere_net, THREE_SPHERE,
                      params_ok(epsilon=0.45))


def short_subsets(x, cand, r_cap, k):
    """How many k-subsets of cand have every edge of their simplex with
    x at most 2 * r_cap (the edge test alone, by brute force)."""
    verts = np.vstack([x[None], cand])
    d = np.linalg.norm(verts[:, None] - verts[None], axis=2)
    d_edge = 2.0 * r_cap * (1.0 + 1e-9)
    return sum(d[np.ix_(tau, tau)].max() <= d_edge
               for tau in ((0,) + sigma for sigma in
                           itertools.combinations(range(1, len(verts)), k)))


def assert_same_answers(state, draws):
    answers = []
    for x, r_ref in draws:
        got = find_hitting_set(x, r_ref, state)
        assert got == classify_first_hitting_set(x, r_ref, state)
        answers.append(got)
    return answers


class TestDegenerateFirstHittingSet:
    def test_hexagon_lattice(self, hexagon_state):
        answers = assert_same_answers(
            hexagon_state, draws_near_edges(hexagon_state, 5, 30))
        assert any(a is None for a in answers)
        assert any(a is not None for a in answers)

    def test_refined_sphere(self, sphere_cap_state):
        answers = assert_same_answers(
            sphere_cap_state, draws_near_edges(sphere_cap_state, 6, 40))
        assert any(a is None for a in answers)
        assert any(a is not None for a in answers)

    @pytest.mark.parametrize("beta,gamma0", [(4.5, 0.15), (0.5, 0.15),
                                             (4.5, 0.001)])
    def test_padded_states(self, beta, gamma0):
        state = TestHittingSet().padded_state([(0.0, 0.0, 0.0),
                                               (0.2, 0.0, 0.0)])
        state.params.beta = beta
        state.params.gamma0 = gamma0
        rng = np.random.default_rng(7)
        draws = [(np.array([rng.uniform(-0.1, 0.3),
                            10.0 ** rng.uniform(-4.0, -0.3), 0.0]), 0.4)
                 for _ in range(40)]
        assert_same_answers(state, draws)

    def test_k4_branch_on_flat_3_patch(self, flat3_state, monkeypatch):
        widths = []
        ranks = refine_module.affine_ranks

        def spy(taus, pts):
            widths.append(np.shape(taus))
            return ranks(taus, pts)

        monkeypatch.setattr(refine_module, "affine_ranks", spy)
        answers = assert_same_answers(
            flat3_state, draws_near_edges(flat3_state, 8, 30))
        # 4-subsets of sample points reached the shared rank filter
        assert any(k == 5 and n > 0 for n, k in widths)
        assert any(a is not None for a in answers)

    def test_k4_thinness_on_three_sphere(self, three_sphere_state,
                                         monkeypatch):
        counts = []
        kernel = refine_module.flake_candidates

        def spy(x, cand, gamma0, r_cap, k):
            rows = kernel(x, cand, gamma0, r_cap, k)
            if k == 4:
                counts.append((len(rows), short_subsets(x, cand, r_cap, k)))
            return rows

        monkeypatch.setattr(refine_module, "flake_candidates", spy)
        answers = assert_same_answers(
            three_sphere_state, draws_near_edges(three_sphere_state, 2, 4))
        # curved 4-simplices are mostly thick, so unlike on the flat
        # 3-patch the thinness test drops most short 4-subsets
        assert sum(kept for kept, _ in counts) < sum(s for _, s in counts) / 10
        assert any(a is not None and len(a) == 4 for a in answers)
        assert any(a is None for a in answers)

    def test_no_coplanar_tetrahedron_is_classified(self, hexagon_state,
                                                   monkeypatch):
        sizes = []
        widths = []
        classify = refine_module.classify_gamma
        ranks = refine_module.affine_ranks

        def spy_classify(tau, gamma0, pts):
            sizes.append(len(tau))
            return classify(tau, gamma0, pts)

        def spy_ranks(taus, pts):
            widths.append(np.shape(taus))
            return ranks(taus, pts)

        monkeypatch.setattr(refine_module, "classify_gamma", spy_classify)
        monkeypatch.setattr(refine_module, "affine_ranks", spy_ranks)
        for x, r_ref in draws_near_edges(hexagon_state, 9, 40):
            find_hitting_set(x, r_ref, hexagon_state)
        # tetrahedra with x as a vertex were candidates, none was classified
        assert any(k == 4 and n > 0 for n, k in widths)
        assert 3 in sizes
        assert 4 not in sizes


# ===== pick_valid =====

class TestPickValid:
    def test_budget_exhaustion_out_of_chart(self):
        octa = np.array([[0, 0, 1.0], [1, 0, 0], [0, 1, 0], [-1, 0, 0],
                         [0, -1, 0], [0, 0, -1.0]])
        sample = SampleSet(points=octa, epsilon=1.8, sparsity=np.sqrt(2))
        state = make_state(sample, SPHERE,
                           params_ok(epsilon=1.8, pick_attempt_budget=5))
        cfg = UnfitConfiguration(ConfigKind.BAD_STAR, 0, (0, 1, 2), 3.0,
                                 np.array([3.0, 0.0]))
        with pytest.raises(AttemptBudgetExhausted):
            pick_valid(cfg, state)

    def test_pick_lands_in_region(self):
        pts = FLAT.sample(50, seed=3)
        sample = SampleSet(points=pts, epsilon=0.5, sparsity=0.0)
        state = make_state(sample, FLAT, params_ok(epsilon=0.5, seed=12))
        cfg = first_unfit(state)
        star = state.complex.stars[0]
        c, r = next(iter(star.centers.values()))
        target = star.chart.frame.basis @ (c - star.chart.base)
        cfg = UnfitConfiguration(ConfigKind.BAD_STAR, 0,
                                 next(iter(star.centers)), r, target)
        x = pick_valid(cfg, state)
        assert np.linalg.norm(x - c) <= 0.25 * r * (1 + 1e-9)
        # same seed and counter state picks the same point
        state2 = make_state(sample, FLAT, params_ok(epsilon=0.5, seed=12))
        assert np.allclose(pick_valid(cfg, state2), x)


# ===== insertion guards =====

def test_insert_sparsity_violation():
    pts = FLAT.sample(30, seed=5)
    sample = SampleSet(points=pts, epsilon=0.5, sparsity=0.0)
    state = make_state(sample, FLAT, params_ok(epsilon=0.5))
    with pytest.raises(SparsityViolation):
        insert(pts[4] + 1e-9, state)


# ===== witness radius =====

def _full_scan_witness_update(state, p, x_idx, entries):
    """Reference: the cosph entries an uncut star p gains from the new
    site x_idx, scanning every m-simplex with uncached classification
    (the loop insert ran on every uncut candidate before the radius)."""
    pts = state.complex.points
    x = pts[x_idx]
    m = state.manifold.m
    delta0, gamma0 = state.params.delta0, state.params.gamma0
    best = dict(entries)
    for sigma, (c, r) in state.complex.stars[p].centers.items():
        if len(sigma) != m + 1 or r >= state.epsilon:
            continue
        if classify_gamma(sigma, gamma0, pts) is not GammaClass.GOOD:
            continue
        gap = float(((x - c) ** 2).sum() - r * r)
        if gap < 0.0:
            continue
        ell_sigma, _ = edge_extremes(sigma, pts)
        dq = np.linalg.norm(pts[list(sigma)] - x, axis=1)
        ell_tau = min(ell_sigma, float(dq.min()))
        if gap <= (delta0 * ell_tau) ** 2:
            tau = tuple(sorted(sigma + (x_idx,)))
            w = ElementaryWeight(x_idx, float(np.sqrt(gap)))
            if tau not in best or w.weight < best[tau].weight:
                best[tau] = w
    return [(tau, best[tau]) for tau in sorted(best)]


@pytest.mark.parametrize("eps,seed", [(0.3, 2), (0.35, 1)])
def test_witness_radius_matches_full_candidate_scan(monkeypatch, eps, seed):
    real_insert = refine_module.insert
    gains = []

    def checked_insert(*args, **kwargs):
        state = args[1]
        before = {p: dict(cs) for p, cs in state.cosph.items()}
        info = real_insert(*args, **kwargs)
        x_idx = info["index"]
        pts = state.complex.points
        for p in set(before) - set(info["recomputed"]):
            old = [(tau, w) for tau, (w, _s) in sorted(before[p].items())]
            want = _full_scan_witness_update(state, p, x_idx, old)
            got = state.cosph[p]
            assert [(tau, got[tau][0]) for tau in sorted(got)] == want, \
                (x_idx, p)
            # old entries keep their generator; a new one is tau minus x
            for tau, (w, sigma) in got.items():
                if tau in before[p]:
                    assert (w, sigma) == before[p][tau]
                else:
                    assert sigma == tuple(v for v in tau if v != x_idx)
            if want != old:
                gains.append(np.linalg.norm(pts[p] - pts[x_idx]) / eps)
        return info

    monkeypatch.setattr(refine_module, "insert", checked_insert)
    # delta0 near its 1/4 ceiling widens the cosph window, so these
    # seeded runs add witness entries from stars beyond epsilon
    params = params_ok(epsilon=eps, delta0=0.24, seed=seed)
    dense = SPHERE.sample(8000, seed=seed)
    state = refine_sample(farthest_point_net(dense, eps=eps, seed=seed),
                          SPHERE, params)
    assert state.final_audit["radius_ok"]
    assert max(gains) > 1.0


def test_rebuilt_stars_are_exactly_the_cut_ones(monkeypatch):
    """At every insertion of a seeded torus refinement (rule 1 and both
    kinds of rule-2 pick), the rebuilt stars are those whose cells the
    new site cuts, over all stars."""
    real_insert_point = TangentialComplex.insert_point
    seen = []

    def spied(cplx, x):
        cut = {p for p in cplx.stars if cplx.star_is_cut_by(p, x)}
        info = real_insert_point(cplx, x)
        assert set(info["recomputed"]) == cut, info["index"]
        assert len(info["recomputed"]) == len(cut)
        seen.append(len(cut))
        return info

    monkeypatch.setattr(TangentialComplex, "insert_point", spied)
    torus = TorusOfRevolution(2.0, 0.5)
    dense = torus.sample(20000, seed=3)
    state = refine_sample(farthest_point_net(dense, eps=0.3, seed=3),
                          torus, params_ok(seed=3))
    assert state.counters["rule1"] > 0
    assert state.counters["rule2_cosph"] > 0
    assert state.counters["rule2_inconsistent"] > 0
    assert len(seen) == len(state.events)
    assert min(seen) > 0


def test_site_beyond_witness_radius_adds_no_entry():
    """Sampled over good triangles with r < eps and sites in the gap
    window around their tangent ball: every site that gives an entry is
    closer to the vertex than _witness_radius, and a site just past it on
    the farthest ray (from the vertex through the centre) gives none."""
    eps, delta0, gamma0 = 0.3, 0.24, 0.05
    r_w = _witness_radius(eps, delta0)
    assert r_w == pytest.approx(eps * (1 + math.sqrt(1 + 4 * delta0 ** 2)),
                                rel=2e-6)
    rng = np.random.default_rng(5)
    n_entries = 0
    for _ in range(200):
        r = eps * rng.uniform(0.5, 1.0 - 1e-9)
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, 3))
        sigma_pts = np.column_stack([r * np.cos(ang), r * np.sin(ang),
                                     np.zeros(3)])
        if classify_gamma((0, 1, 2), gamma0, sigma_pts) is not GammaClass.GOOD:
            continue
        c = np.zeros(3)
        phi = rng.uniform(0.0, 2 * np.pi, 40)
        rho = r * np.sqrt(1.0 + rng.uniform(0.0, 4 * delta0 ** 2, 40))
        near = c + np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                                    np.zeros(40)])
        p = sigma_pts[0]
        ray = (c - p) / np.linalg.norm(c - p)
        beyond = p + r_w * (1.0 + 1e-9) * ray
        pts = np.vstack([sigma_pts, near, beyond[None]])
        cplx = TangentialComplex(
            SampleSet(points=pts, epsilon=eps, sparsity=0.0), FLAT)
        cplx.stars[0] = Star(base=0, chart=tangent_chart(FLAT, p),
                             centers={(0, 1, 2): (c, r)})
        got = _cosph_scan(cplx, 0, delta0, gamma0,
                          sites=range(3, len(pts)))
        for tau, (w, sigma) in got.items():
            assert sigma == (0, 1, 2)
            assert w.carrier != len(pts) - 1
            for v in range(3):
                assert np.linalg.norm(pts[w.carrier] - pts[v]) < r_w
        n_entries += len(got)
    assert n_entries > 100


# ===== full runs =====
#
# A refinement run only terminates when outward growth is impossible:
# compact manifolds, or flat samples whose boundary cells are fat (a
# convex rim makes the unbounded directions box-supported, which flat
# classification correctly ignores).  Jittered rectangles fail that --
# near-collinear rim triples put real corners far outside and rule 1
# then grows the patch without end.  The fixture below is a staggered
# polar grid: fat everywhere, optionally with the middle rings removed.

def hole_sample(eps=0.5):
    return SampleSet(points=disk_points(hole_rings=2), epsilon=eps,
                     sparsity=0.0)


@pytest.fixture(scope="module")
def flat_hole_state():
    params = params_ok(epsilon=0.5, gamma0=0.02, seed=1)
    return refine_sample(hole_sample(), FLAT, params)


class TestFlatHoleRun:
    def test_rule1_fills_the_hole(self, flat_hole_state):
        state = flat_hole_state
        assert state.counters["rule1"] >= 1
        assert first_unfit(state) is None
        audit = state.final_audit
        assert audit["radius_ok"]
        assert audit["bad_m_simplices"] == 0
        assert audit["sparsity_ok"]

    def test_event_log_format_and_rule1_distance(self, flat_hole_state):
        state = flat_hole_state
        pat = re.compile(
            r"^(RULE1|RULE2) base=\d+ simplex=(synthetic|\d+(,\d+)*) "
            r"inserted=[-+0-9.e,]+ dist_to_P=[-+0-9.e]+$")
        assert state.event_log
        floor = (1.0 - 8.0 / 4624.0) * 0.5
        for line in state.event_log:
            assert pat.match(line), line
            if line.startswith("RULE1"):
                d = float(line.rsplit("=", 1)[1])
                assert d >= floor * (1 - 1e-9)

    def test_refined_complex_matches_full_rebuild(self, flat_hole_state):
        state = flat_hole_state
        fresh = assemble_complex(
            SampleSet(points=state.complex.points, epsilon=0.5, sparsity=0.0),
            FLAT)
        assert state.complex.m_simplices() == fresh.m_simplices()

    def test_determinism(self, flat_hole_state):
        params = params_ok(epsilon=0.5, gamma0=0.02, seed=1)
        rerun = refine_sample(hole_sample(), FLAT, params)
        assert rerun.event_log == flat_hole_state.event_log

    def test_priority_order_in_classification(self):
        sample = hole_sample()
        params = params_ok(epsilon=0.5, gamma0=0.02, seed=1)
        state = make_state(sample, FLAT, params)
        configs = classify_configurations(state)
        assert configs, "hole fixture must start unfit"
        order = {ConfigKind.BIG: 0, ConfigKind.BAD_STAR: 1,
                 ConfigKind.BAD_COSPH: 2}
        ranks = [order[c.kind] for c in configs]
        assert ranks == sorted(ranks)
        assert configs[0].kind is ConfigKind.BIG
        got = first_unfit(state)
        assert got.kind is configs[0].kind
        assert got.base == configs[0].base
        assert got.simplex == configs[0].simplex


class TestCocircularQuadrupleRun:
    def sample(self):
        square = [(0.5 * np.cos(t), 0.5 * np.sin(t), 0.0)
                  for t in np.pi / 4 + np.pi / 2 * np.arange(4)]
        ring = [(1.5 * np.cos(t + 0.1) * (1 + 0.01 * k),
                 1.5 * np.sin(t + 0.1) * (1 + 0.01 * k), 0.0)
                for k, t in enumerate(np.linspace(0, 2 * np.pi, 9)[:-1])]
        pts = np.array(square + ring)
        return SampleSet(points=pts, epsilon=1.3, sparsity=0.0)

    def test_rule2_protects_the_quadruple(self):
        params = params_ok(epsilon=1.3, gamma0=0.05, delta0=0.05, seed=3)
        state = make_state(self.sample(), FLAT, params)
        configs = classify_configurations(state)
        assert configs
        assert all(c.kind is ConfigKind.BAD_COSPH for c in configs)
        assert configs[0].simplex == (0, 1, 2, 3)
        state = refine(state)
        assert state.counters["rule2_cosph"] >= 1
        assert state.counters["rule1"] == 0
        assert state.final_audit["bad_cosph_entries"] == 0
        assert first_unfit(state) is None
        # the witness point lands near the cocircular center
        assert len(state.events) == 1
        x = state.events[0]["x"]
        assert np.linalg.norm(x[:2]) <= 0.25 * 0.5 * (1 + 1e-9)


def test_quiet_sample_is_a_fixed_point():
    sample = SampleSet(points=disk_points(), epsilon=0.5, sparsity=0.0)
    params = params_ok(epsilon=0.5, gamma0=0.005, delta0=0.01, seed=0)
    state = refine_sample(sample, FLAT, params)
    assert state.events == []
    assert state.final_audit["radius_ok"]
    assert state.final_audit["bad_m_simplices"] == 0


@pytest.fixture(scope="module")
def sphere_cap_state():
    dense = SPHERE.sample(2500, seed=7)
    net = farthest_point_net(dense, 0.35, seed=0)
    keep = net.points[net.points[:, 2] <= 0.8]
    sample = SampleSet(points=keep, epsilon=0.35, sparsity=net.sparsity)
    params = params_ok(epsilon=0.35, gamma0=0.02, seed=4)
    return refine_sample(sample, SPHERE, params)


def test_three_sphere_refinement(three_sphere_net):
    state = refine_sample(three_sphere_net, THREE_SPHERE,
                          params_ok(epsilon=0.45, seed=1))
    assert len(three_sphere_net.points) == 126
    assert state.complex.n_points == 191
    assert state.counters["rule1"] == 65 == len(state.events)
    assert first_unfit(state) is None
    audit = state.final_audit
    assert audit["radius_ok"] and audit["sparsity_ok"]
    assert audit["bad_m_simplices"] == 0
    assert audit["bad_cosph_entries"] == 0
    assert audit["inconsistencies"] == 0
    tets = state.complex.m_simplices()
    ok, diagnostics = manifold_complex_check(tets, 3)
    assert ok, diagnostics
    assert euler_characteristic(tets) == 0


class TestSphereCapRun:
    def test_cap_gets_filled(self, sphere_cap_state):
        state = sphere_cap_state
        assert state.counters["rule1"] >= 1
        assert first_unfit(state) is None
        audit = state.final_audit
        assert audit["radius_ok"]
        assert audit["bad_m_simplices"] == 0
        assert audit["sparsity_ok"]
        # new points actually live on the sphere, some high up in the cap
        inserted = np.array([e["x"] for e in state.events])
        assert np.allclose(np.linalg.norm(inserted, axis=1), 1.0, atol=1e-9)
        assert inserted[:, 2].max() > 0.8

    def test_rebuild_agreement_after_run(self, sphere_cap_state):
        state = sphere_cap_state
        fresh = assemble_complex(
            SampleSet(points=state.complex.points, epsilon=0.35,
                      sparsity=0.0), SPHERE)
        assert state.complex.m_simplices() == fresh.m_simplices()
