"""Acceptance battery: every shipping requirement, one test per criterion.

Each test is named test_criterion_<n>_<label> so the verbose test report
carries one pass/fail line per criterion; on success the test also
prints an `[acceptance] criterion <n>` line with its measured numbers.
The two expensive end-to-end refinement runs come from session-scoped
fixtures (see conftest) shared with the rest of the suite.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from tandel.cli import main
from tandel.errors import NegativeSquaredRadius
from tandel.geometry import (
    AffineFrame,
    ElementaryWeight,
    GammaClass,
    altitude,
    circumsphere,
    classify_gamma,
    edge_extremes,
    faces,
    flake_altitude_bound,
    simplex_frame,
    subspace_angle,
    thickness,
    weighted_center,
)
from tandel.manifolds import (
    FlatPatch,
    SampleSet,
    TorusOfRevolution,
    UnitSphere,
    lift_from_tangent,
    project_to_tangent,
    tangent_chart,
)
from tandel.refine import (
    EPS_TILDE0,
    MU0,
    ConfigKind,
    Parameters,
    _rule1,
    _star_bigs,
    find_hitting_set,
    first_unfit,
    insert,
    make_state,
    pick_valid,
    refine_sample,
)
from tandel.stars import TangentialComplex
from tandel.verify import (
    ambient_delaunay_bruteforce,
    as_complex,
    complex_compare,
    euler_characteristic,
    intrinsic_delaunay_oracle,
    manifold_complex_check,
    oracle_match_report,
    power_protection_audit,
    restricted_delaunay_oracle,
)

from conftest import exact_flat_member, flat_sites

REL = 1e-9
FLAT = FlatPatch(2, 3)
S2 = UnitSphere(2, 3)
T2 = TorusOfRevolution(2.0, 0.5)


def _ok(n, label, detail):
    print(f"[acceptance] criterion {n} ({label}): PASS -- {detail}")


def rand_simplex(rng, j, n_ambient, spread=1.0):
    pts = rng.normal(size=(j + 1, n_ambient)) * spread
    return tuple(range(j + 1)), pts


# ===== criterion 1: lemma property suite =====

N_LEMMA = 10_000


def _altitudes(simplex, pts):
    return np.array([altitude(v, simplex, pts) for v in simplex])


def _unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _suite_thickness_perturbation(rng):
    """Moving every vertex by at most (1-xi) * T^2 L / 14 keeps each
    altitude above xi times its old value, keeps T*Delta above xi times
    its old value, and keeps thickness above (1 - 2 rho/Delta) xi T,
    itself at least (6/7) xi T."""
    checked = 0
    while checked < N_LEMMA:
        j = int(rng.integers(1, 4))
        n = int(rng.integers(j + 1, 6))
        simplex, pts = rand_simplex(rng, j, n)
        ell, delta = edge_extremes(simplex, pts)
        alts = _altitudes(simplex, pts)
        ups = float(alts.min() / (j * delta))
        if ups < 1e-6:
            continue
        xi = float(rng.uniform(1e-3, 1.0))
        rho = float(rng.uniform(0.0, 1.0)) * (1.0 - xi) * ups ** 2 * ell / 14.0
        moves = _unit_rows(rng, pts.shape)
        moves *= rho * rng.uniform(0.9, 1.0, size=(len(pts), 1))
        tpts = pts + moves
        talts = _altitudes(simplex, tpts)
        _, tdelta = edge_extremes(simplex, tpts)
        tups = float(talts.min() / (j * tdelta))
        assert np.all(talts >= xi * alts * (1.0 - REL))
        assert tups * tdelta >= xi * ups * delta * (1.0 - REL)
        floor = (1.0 - 2.0 * rho / delta) * xi * ups
        assert tups >= floor * (1.0 - REL)
        assert floor >= (6.0 / 7.0) * xi * ups * (1.0 - REL)
        checked += 1
    return checked


def _suite_circumscribing_balls(rng):
    """After a perturbation within T^2 L / 28, projecting an old
    circumscribing center onto the new equal-power flat yields a
    circumscribing ball whose center moved < 8 eps rho / (T Delta) and
    whose radius moved < 9 eps rho / (T Delta); with the first vertex
    pinned the radius moves no more than the center."""
    checked = 0
    while checked < N_LEMMA:
        j = int(rng.integers(1, 4))
        n = int(rng.integers(j + 1, 6))
        simplex, pts = rand_simplex(rng, j, n)
        ell, delta = edge_extremes(simplex, pts)
        alts = _altitudes(simplex, pts)
        ups = float(alts.min() / (j * delta))
        if ups < 1e-5:
            continue
        sp = circumsphere(simplex, pts)
        frame = simplex_frame(simplex, pts)
        w = rng.normal(size=n)
        w -= frame.basis.T @ (frame.basis @ w)
        wn = float(np.linalg.norm(w))
        if wn > 1e-12:
            w *= rng.uniform(0.0, 1.5) * sp.radius / wn
        else:
            w[:] = 0.0
        c = sp.center + w
        r = float(np.linalg.norm(c - pts[0]))
        eps = r * (1.0 + rng.uniform(1e-6, 0.3))
        rho = float(rng.uniform(1e-3, 1.0)) * ups ** 2 * ell / 28.0
        keep_first = bool(rng.integers(0, 2))
        moves = _unit_rows(rng, pts.shape)
        moves *= rho * rng.uniform(0.9, 1.0, size=(len(pts), 1))
        if keep_first:
            moves[0] = 0.0
        tpts = pts + moves
        tsp = circumsphere(simplex, tpts)
        tframe = simplex_frame(simplex, tpts)
        d = c - tsp.center
        tc = tsp.center + d - tframe.basis.T @ (tframe.basis @ d)
        dists = np.linalg.norm(tpts - tc, axis=1)
        tr = float(dists.mean())
        assert dists.max() - dists.min() <= 1e-9 * max(tr, 1e-12)
        scale = eps * rho / (ups * delta)
        assert np.linalg.norm(tc - c) <= 8.0 * scale * (1.0 + REL)
        assert abs(tr - r) <= 9.0 * scale * (1.0 + REL)
        if keep_first:
            assert abs(tr - r) <= np.linalg.norm(tc - c) * (1.0 + REL) + 1e-15
        checked += 1
    return checked


def _suite_whitney_angle(rng):
    """A j-simplex whose vertices sit within h of a k-flat (k >= j)
    tilts against that flat by at most sin = 2h / (T Delta)."""
    checked = 0
    while checked < N_LEMMA:
        n = int(rng.integers(3, 7))
        j = int(rng.integers(1, min(n, 4)))
        k = int(rng.integers(j, n))
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0].T
        h_basis, n_basis = basis[:k], basis[k:]
        offset = rng.normal(size=n)
        coords = rng.normal(size=(j + 1, k))
        lift = rng.uniform(-1.0, 1.0, size=(j + 1, n - k))
        scale_h = 10.0 ** rng.uniform(-5.0, -0.7)
        pts = offset + coords @ h_basis + scale_h * (lift @ n_basis)
        h = float(scale_h * np.linalg.norm(lift, axis=1).max())
        simplex = tuple(range(j + 1))
        ell, delta = edge_extremes(simplex, pts)
        ups = thickness(simplex, pts)
        sin_angle = math.sin(subspace_angle(
            simplex_frame(simplex, pts), AffineFrame(offset, h_basis)))
        bound = 2.0 * h / (ups * delta) if ups * delta > 0 else math.inf
        assert sin_angle <= bound * (1.0 + REL) + 1e-12
        checked += 1
    return checked


def _suite_altitude_ratio(rng):
    """The dihedral sine between the facets opposite p and opposite q
    equals D(p, s)/D(p, s_q) and D(q, s)/D(q, s_p) exactly."""
    checked = 0
    while checked < N_LEMMA:
        j = int(rng.integers(2, 5))
        n = int(rng.integers(j, j + 3))
        simplex, pts = rand_simplex(rng, j, n)
        if thickness(simplex, pts) < 1e-3:
            continue
        p, q = (int(v) for v in rng.choice(j + 1, size=2, replace=False))
        face_p = tuple(v for v in simplex if v != p)
        face_q = tuple(v for v in simplex if v != q)
        sin_angle = math.sin(subspace_angle(
            simplex_frame(face_p, pts), simplex_frame(face_q, pts)))
        r1 = altitude(p, simplex, pts) / altitude(p, face_q, pts)
        r2 = altitude(q, simplex, pts) / altitude(q, face_p, pts)
        tol = REL * max(r1, r2, sin_angle) + 1e-14
        assert abs(sin_angle - r1) <= tol
        assert abs(sin_angle - r2) <= tol
        checked += 1
    return checked


def _suite_flake_altitudes(rng):
    """Every altitude of a k-dimensional flake stays below
    k Delta^2 gamma0 / ((k-1) L).  Flakes are planted: a good base gets
    an apex hovering just off its affine hull."""
    checked = 0
    draws = 0
    while checked < N_LEMMA:
        draws += 1
        assert draws < 6 * N_LEMMA, "flake generator is starving"
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k, k + 3))
        gamma0 = float(rng.uniform(0.15, 0.4))
        base = rng.normal(size=(k, n))
        bsimp = tuple(range(k))
        if k > 1 and classify_gamma(bsimp, gamma0, base) is not GammaClass.GOOD:
            continue
        bframe = simplex_frame(bsimp, base)
        _, delta_b = edge_extremes(bsimp, base)
        normal = rng.normal(size=n)
        normal -= bframe.basis.T @ (bframe.basis @ normal)
        nn = float(np.linalg.norm(normal))
        if nn < 1e-12:
            continue
        wiggle = bframe.basis.T @ rng.uniform(-0.2, 0.2, size=bframe.basis.shape[0])
        h = delta_b * gamma0 ** k * k * rng.uniform(0.05, 0.9)
        apex = base.mean(axis=0) + wiggle * delta_b + normal / nn * h
        pts = np.vstack([base, apex])
        simplex = tuple(range(k + 1))
        if classify_gamma(simplex, gamma0, pts) is not GammaClass.FLAKE:
            continue
        ell, delta = edge_extremes(simplex, pts)
        bound = flake_altitude_bound(k, delta, ell, gamma0)
        for v in simplex:
            assert altitude(v, simplex, pts) < bound * (1.0 + REL)
        checked += 1
    return checked


def _suite_elementary_weights(rng):
    """A single-carrier weight within delta0 * L never grows when
    restricted to a face, never hides an edge longer than
    2R/(1 - delta0^2), and shifts the radius by at most delta0^2/T
    relative to the unweighted circumradius."""
    checked = 0
    while checked < N_LEMMA:
        j = int(rng.integers(1, 4))
        n = int(rng.integers(j, j + 3))
        simplex, pts = rand_simplex(rng, j, n)
        ups = thickness(simplex, pts)
        if ups < 1e-4:
            continue
        ell, delta = edge_extremes(simplex, pts)
        delta0 = float(rng.uniform(0.01, 0.25))
        carrier = int(rng.integers(0, j + 1))
        weight = float(rng.uniform(0.0, 1.0)) * delta0 * ell
        omega = ElementaryWeight(carrier, weight)
        assert omega.is_valid_for(simplex, pts, delta0)
        try:
            _c, r_w = weighted_center(simplex, omega, pts)
        except NegativeSquaredRadius:
            continue
        r0 = circumsphere(simplex, pts).radius
        for f in faces(simplex, min_dim=1, max_dim=j - 1):
            sub = (ElementaryWeight(carrier, weight) if carrier in f
                   else ElementaryWeight(f[0], 0.0))
            assert sub.is_valid_for(f, pts, delta0)
            _c1, r_face = weighted_center(f, sub, pts)
            assert r_face <= r_w * (1.0 + REL)
        assert delta <= 2.0 * r_w / (1.0 - delta0 ** 2) * (1.0 + REL)
        lo = 1.0 - delta0 ** 2 / ups
        hi = 1.0 + delta0 ** 2 / ups
        ratio = r_w / r0
        assert ratio >= lo - REL * max(1.0, abs(lo))
        assert ratio <= hi + REL * max(1.0, abs(hi))
        checked += 1
    return checked


def test_criterion_1_lemma_property_suite():
    t0 = time.perf_counter()
    suites = [
        ("thickness under perturbation", _suite_thickness_perturbation, 101),
        ("circumscribing balls", _suite_circumscribing_balls, 102),
        ("Whitney angle bound", _suite_whitney_angle, 103),
        ("altitude ratio identity", _suite_altitude_ratio, 104),
        ("flake altitude bound", _suite_flake_altitudes, 105),
        ("elementary weight function", _suite_elementary_weights, 106),
    ]
    for label, suite, seed in suites:
        n = suite(np.random.default_rng(seed))
        assert n == N_LEMMA, label
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _ok(1, "lemma property suite", f"6 suites x {N_LEMMA} instances, {dt:.1f}s")


# ===== criterion 2: manifold bound suite =====

N_PAIRS = 10_000


def _sphere_point(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _sphere_offset(x, rng, theta):
    u = rng.normal(size=3)
    u -= x * (x @ u)
    u /= np.linalg.norm(u)
    return math.cos(theta) * x + math.sin(theta) * u


def _torus_pair(rng, max_chord):
    """A torus point plus a second one within the requested chord."""
    while True:
        u, v = rng.uniform(0.0, 2.0 * np.pi, size=2)
        du, dv = rng.normal(size=2) * max_chord * np.array([0.3, 0.9])
        x = T2.embed(u, v)
        y = T2.embed(u + du, v + dv)
        r = float(np.linalg.norm(y - x))
        if 1e-6 < r < max_chord * (1.0 - 1e-12):
            return x, y, r


def _dist_to_tangent(x, y, manifold):
    chart = tangent_chart(manifold, x)
    rel = y - x
    return float(np.linalg.norm(rel - chart.frame.basis.T
                                @ (chart.frame.basis @ rel)))


def _suite_federer(rng):
    worst_slack = 0.0
    for _ in range(N_PAIRS // 2):
        x = _sphere_point(rng)
        theta = rng.uniform(1e-4, 2.0 * math.asin(0.5) * 0.9999)
        y = _sphere_offset(x, rng, theta)
        r = float(np.linalg.norm(y - x))
        d = _dist_to_tangent(x, y, S2)
        bound = r * r / 2.0
        assert d <= bound + 1e-9
        worst_slack = max(worst_slack, bound - d)
    assert worst_slack < 1e-9, "the sphere case must be an equality"
    for _ in range(N_PAIRS - N_PAIRS // 2):
        x, y, r = _torus_pair(rng, T2.reach)
        d = _dist_to_tangent(x, y, T2)
        assert d <= r * r / (2.0 * T2.reach) * (1.0 + REL)


def _suite_lift_displacement(rng):
    for manifold, count, seed in ((S2, N_PAIRS // 2, 201),
                                  (T2, N_PAIRS - N_PAIRS // 2, 202)):
        rch = manifold.reach
        xs = manifold.sample(count, seed=seed)
        for x in xs:
            chart = tangent_chart(manifold, x)
            r = float(rng.uniform(1e-3, rch / 4.0))
            v = _unit_rows(rng, manifold.m) * r
            y = lift_from_tangent(chart, v)
            z = chart.base + chart.frame.basis.T @ v
            assert np.linalg.norm(z - y) <= 2.0 * r * r / rch * (1.0 + REL)


def _suite_tangent_variation(rng):
    for _ in range(N_PAIRS // 2):
        x = _sphere_point(rng)
        theta = rng.uniform(1e-4, 2.0 * math.asin(0.125))
        y = _sphere_offset(x, rng, theta)
        r = float(np.linalg.norm(y - x))
        ang = subspace_angle(tangent_chart(S2, x).frame,
                             tangent_chart(S2, y).frame)
        assert math.sin(ang) < 6.0 * r * (1.0 + REL)
    for _ in range(N_PAIRS - N_PAIRS // 2):
        x, y, r = _torus_pair(rng, T2.reach / 4.0)
        ang = subspace_angle(tangent_chart(T2, x).frame,
                             tangent_chart(T2, y).frame)
        assert math.sin(ang) < 6.0 * r / T2.reach * (1.0 + REL)


def _torus_cap_graph(u0, v0, span_u, span_v, n_u, n_v):
    """Chordal neighborhood graph on a parameter-space grid patch."""
    us = u0 + np.linspace(-span_u, span_u, n_u)
    vs = v0 + np.linspace(-span_v, span_v, n_v)
    uu, vv = np.meshgrid(us, vs)
    nodes = T2.embed(uu.ravel(), vv.ravel())
    tree = cKDTree(nodes)
    gaps = tree.query(nodes, k=2)[0][:, 1]
    h = 3.0 * float(gaps.max())
    pairs = tree.query_pairs(h, output_type="ndarray")
    w = np.linalg.norm(nodes[pairs[:, 0]] - nodes[pairs[:, 1]], axis=1)
    mat = coo_matrix(
        (np.r_[w, w], (np.r_[pairs[:, 0], pairs[:, 1]],
                       np.r_[pairs[:, 1], pairs[:, 0]])),
        shape=(len(nodes), len(nodes))).tocsr()
    return nodes, mat, h, tree


def _suite_metric_distortion(rng):
    # sphere: geodesics in closed form, caps of geodesic radius rch/100
    r_cap = 1.0 / 100.0
    bound = 23.0 * r_cap ** 2
    done = 0
    while done < N_PAIRS // 2:
        p = _sphere_point(rng)
        chart = tangent_chart(S2, p)
        cap = [_sphere_offset(p, rng, rng.uniform(0.0, 0.99 * r_cap))
               for _ in range(12)]
        proj = [project_to_tangent(chart, x) for x in cap]
        for i in range(len(cap)):
            for k in range(i + 1, len(cap)):
                d_m = math.acos(max(-1.0, min(1.0, float(cap[i] @ cap[k]))))
                d_e = float(np.linalg.norm(proj[i] - proj[k]))
                assert abs(d_m - d_e) <= bound * (1.0 + REL)
                done += 1
    # torus: graph oracle on a dense cap, allowing 2h additive slack
    r_cap = T2.reach / 100.0
    bound = 23.0 * r_cap ** 2 / T2.reach
    done = 0
    while done < N_PAIRS - N_PAIRS // 2:
        u0, v0 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        p = T2.embed(u0, v0)
        chart = tangent_chart(T2, p)
        ring = T2.R + T2.r * math.cos(v0)
        nodes, mat, h, tree = _torus_cap_graph(
            u0, v0, 1.4 * r_cap / ring, 1.4 * r_cap / T2.r, 42, 42)
        center = int(tree.query(p)[1])
        d0 = dijkstra(mat, directed=False, indices=center)
        inside = np.where(d0 <= 0.9 * r_cap)[0]
        sel = rng.permutation(inside)[:16]
        d_g = dijkstra(mat, directed=False, indices=sel)[:, sel]
        proj = np.array([project_to_tangent(chart, nodes[i]) for i in sel])
        for i in range(len(sel)):
            for k in range(i + 1, len(sel)):
                d_e = float(np.linalg.norm(proj[i] - proj[k]))
                assert abs(d_g[i, k] - d_e) <= bound + 2.0 * h + 1e-12
                done += 1


def _suite_geodesic_bound(rng):
    # sphere: exact geodesics against the chordal bound
    for _ in range(N_PAIRS // 2):
        d_e = float(rng.uniform(0.01, 0.5 * (1.0 - 1e-12)))
        d_m = 2.0 * math.asin(d_e / 2.0)
        assert d_m <= d_e * (1.0 + 2.0 * d_e) * (1.0 + REL)
    # torus: cap graphs wide enough to contain the relevant geodesics
    rch = T2.reach
    done = 0
    while done < N_PAIRS - N_PAIRS // 2:
        u0, v0 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        ring = T2.R + T2.r * math.cos(v0)
        nodes, mat, h, tree = _torus_cap_graph(
            u0, v0, 0.62 / (T2.R - T2.r), 0.62 / T2.r, 192, 160)
        p = T2.embed(u0, v0)
        center = int(tree.query(p)[1])
        d0 = dijkstra(mat, directed=False, indices=center)
        core = np.where(d0 <= 0.30)[0]
        sel = rng.permutation(core)[:40]
        d_g = dijkstra(mat, directed=False, indices=sel)[:, sel]
        d_e = np.linalg.norm(nodes[sel][:, None, :] - nodes[sel][None, :, :],
                             axis=2)
        for i in range(len(sel)):
            for k in range(i + 1, len(sel)):
                if not 0.05 <= d_e[i, k] <= rch / 2.0:
                    continue
                bound = d_e[i, k] * (1.0 + 2.0 * d_e[i, k] / rch)
                assert d_g[i, k] <= bound + 2.0 * h + 1e-12
                done += 1
                if done >= N_PAIRS - N_PAIRS // 2:
                    return


def test_criterion_2_manifold_bound_suite():
    t0 = time.perf_counter()
    suites = [
        ("distance to tangent space", _suite_federer, 201),
        ("tangent lift displacement", _suite_lift_displacement, 202),
        ("tangent variation", _suite_tangent_variation, 203),
        ("metric distortion", _suite_metric_distortion, 204),
        ("geodesic bound", _suite_geodesic_bound, 205),
    ]
    for label, suite, seed in suites:
        suite(np.random.default_rng(seed))
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _ok(2, "manifold bound suite",
        f"5 bounds x {N_PAIRS} pairs (sphere + torus), {dt:.1f}s")


# ===== criterion 3: flat-patch exactness =====

def _flat_grid(step, extent):
    ax = np.arange(-extent, extent + step, step)
    gx, gy = np.meshgrid(ax, ax)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


def _flat_geodesic_graph(sites, step=0.025):
    """Grid-plus-sites graph over the disk, with its zigzag calibration."""
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
    src = np.arange(0, len(grid), len(grid) // 20)
    dg = dijkstra(mat, directed=False, indices=src)
    de = np.linalg.norm(nodes[src][:, None, :] - nodes[None, :, :], axis=2)
    mask = (de > 0) & (de < 0.7)
    err = float(np.abs(dg - de)[mask].max())
    band = 2.0 * (step / math.sqrt(2.0) * 1.01) + 2.0 * err

    from tandel.manifolds import GeodesicGraph
    return GeodesicGraph(points=nodes, h=h, matrix=mat, tree=tree), band


def test_criterion_3_flat_patch_exactness():
    t0 = time.perf_counter()
    n_sites = []
    witnesses = _flat_grid(0.03, 1.3)
    for seed in range(20):
        sites = flat_sites(seed)
        assert 50 <= len(sites) <= 200
        n_sites.append(len(sites))
        gap = cKDTree(sites).query(sites, k=2)[0][:, 1].min()
        cplx = TangentialComplex(
            SampleSet(points=sites, epsilon=0.25, sparsity=float(gap)), FLAT)
        cplx.build()
        k_tan = as_complex(cplx.simplices())
        tris = set(k_tan.of_dim(2))
        amb = ambient_delaunay_bruteforce(sites).filtered(2)
        assert complex_compare(k_tan, amb).equal

        res = restricted_delaunay_oracle(sites, FLAT, witnesses)
        match = oracle_match_report(k_tan, res, 2)
        assert match.equal_at_resolution
        assert match.missing == [] and match.extra == []
        for t in res.candidates(2):
            assert exact_flat_member(t, sites) == (t in tris)

        graph, band = _flat_geodesic_graph(sites)
        res_i = intrinsic_delaunay_oracle(sites, FLAT, graph, band=band)
        match_i = oracle_match_report(k_tan, res_i, 2)
        assert match_i.equal_at_resolution
        assert match_i.missing == [] and match_i.extra == []
        for t in res_i.candidates(2):
            assert exact_flat_member(t, sites) == (t in tris)
    dt = time.perf_counter() - t0
    _ok(3, "flat-patch exactness",
        f"20 seeds, {min(n_sites)}-{max(n_sites)} sites, "
        f"tangential = ambient = restricted = intrinsic, {dt:.1f}s")


# ===== criteria 4 and 5: end-to-end refinement audits =====

def _end_to_end_battery(state, manifold, params, elapsed, witness_n, chi):
    eps = params.epsilon
    assert len(state.events) < 10_000
    assert elapsed < 300.0
    assert state.events, "the net is coarse enough that rules must fire"
    min_dist = min(e["dist"] for e in state.events)
    assert min_dist > eps / 9.0

    pts = state.complex.points
    for star in state.complex.stars.values():
        for sx in star.m_simplices():
            _c, r = star.centers[sx]
            assert r < eps
            assert classify_gamma(sx, params.gamma0, pts) is GammaClass.GOOD
    assert all(not entries for entries in state.cosph.values())
    audit = state.final_audit
    assert audit["cosph_entries"] == 0
    assert audit["inconsistencies"] == 0

    k = as_complex(state.complex.simplices())
    threshold = params.delta0 ** 2 * MU0 ** 2 * eps ** 2
    protection = power_protection_audit(k, pts, manifold, threshold)
    assert protection.ok
    assert protection.min_margin > threshold

    ok, diagnostics = manifold_complex_check(k, manifold.m)
    assert ok, diagnostics
    assert euler_characteristic(k) == chi

    witnesses = manifold.sample(witness_n, seed=7)
    res = restricted_delaunay_oracle(pts, manifold, witnesses)
    match = oracle_match_report(k, res, manifold.m)
    assert match.equal_at_resolution
    assert match.missing == [] and match.extra == []
    return (f"{len(pts)} vertices, {len(state.events)} insertions, "
            f"{elapsed:.1f}s, min event gap {min_dist:.3f} > eps/9, "
            f"protection margin {protection.min_margin:.3e} > "
            f"{threshold:.3e}, chi={chi}, oracle band {match.band:.4f}")


def test_criterion_4_sphere_end_to_end(sphere_run):
    state, manifold, params, elapsed = sphere_run
    detail = _end_to_end_battery(state, manifold, params, elapsed,
                                 witness_n=60_000, chi=2)
    _ok(4, "sphere end-to-end", detail)


def test_criterion_5_torus_end_to_end(torus_run):
    state, manifold, params, elapsed = torus_run
    detail = _end_to_end_battery(state, manifold, params, elapsed,
                                 witness_n=180_000, chi=0)
    _ok(5, "torus end-to-end", detail)


# ===== criterion 6: constant reproduction =====

def test_criterion_6_constant_reproduction(tmp_path):
    assert EPS_TILDE0 == 1.0 / 4624.0
    assert MU0 == 1.0 / 9.0

    out = tmp_path / "hyp.json"
    code = main(["hypotheses", "--manifold", "sphere:m=2,N=3",
                 "--alpha", "0.25", "--delta0", "0.1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    consts = rep["constants"]
    assert consts["eps_tilde0"] == 1.0 / 4624.0
    assert consts["eps_tilde0_fraction"] == "1/4624"
    assert consts["mu0"] == 1.0 / 9.0
    assert consts["mu0_fraction"] == "1/9"
    h1 = next(it for it in rep["items"] if it["name"] == "H1")
    # the beta floor at alpha=1/4, delta0=1/10 is the exact rational
    # 2 / ((1 - 1/100)(3/4 - 9/9248)) = 1849600/685773 = 2.6971...;
    # its four-significant-digit display is 2.697
    exact = 1849600.0 / 685773.0
    assert abs(h1["bound"] - exact) < 1e-6
    assert f"{h1['bound']:.4g}" == "2.697"

    out2 = tmp_path / "hyp_strict.json"
    code = main(["hypotheses", "--manifold", "sphere:m=2,N=3",
                 "--epsilon", "0.3", "--mode", "strict", "--out", str(out2)])
    assert code == 1
    rep2 = json.loads(out2.read_text())
    assert rep2["ok"] is False
    h5 = next(it for it in rep2["items"] if it["name"] == "H5")
    bound = 0.05 ** 2 * 0.05 ** 4 / 1.1e9
    assert not h5["satisfied"]
    assert h5["bound"] == pytest.approx(bound, rel=1e-12)
    assert h5["value"] == pytest.approx(0.3, rel=1e-12)
    assert h5["margin_ratio"] == pytest.approx(0.3 / bound, rel=1e-9)
    assert h5["margin_ratio"] > 1.0
    _ok(6, "constant reproduction",
        f"eps0=1/4624, mu0=1/9, beta floor {h1['bound']:.10f} (display "
        f"{h1['bound']:.4g}), strict H5 margin ratio {h5['margin_ratio']:.3e}")


# ===== criterion 7: rule priority and pick validity =====

def _instrumented_replay(sample, manifold, params):
    """The production loop with its invariants asserted at every step:
    rule 2 only ever fires when no big configuration exists anywhere,
    and every accepted pick still has no hitting set."""
    state = make_state(sample, manifold, params)
    fired = {"rule1": 0, "rule2_star": 0, "rule2_cosph": 0,
             "rule2_inconsistent": 0}
    audits = 0
    for _ in range(state.params.iteration_cap):
        config = first_unfit(state)
        if config is None:
            break
        if config.kind is ConfigKind.BIG:
            _rule1(state, config)
            fired["rule1"] += 1
        else:
            for p in sorted(state.complex.stars):
                assert not _star_bigs(state, p), \
                    "rule 2 about to fire while a big configuration exists"
            x = pick_valid(config, state)
            assert find_hitting_set(x, config.radius, state) is None
            audits += 1
            key = {ConfigKind.BAD_STAR: "rule2_star",
                   ConfigKind.BAD_COSPH: "rule2_cosph",
                   ConfigKind.INCONSISTENT: "rule2_inconsistent"}[config.kind]
            fired[key] += 1
            state.counters[key] += 1
            insert(x, state, rule="RULE2", base=config.base,
                   simplex=config.simplex)
    else:
        raise AssertionError("replay did not reach quiescence")
    return state, fired, audits


def _cocircular_patch():
    """Four exactly cocircular points guarded by a ring: the diagonal is
    ambiguous until rule 2 protects it."""
    square = [(0.5 * np.cos(t), 0.5 * np.sin(t), 0.0)
              for t in np.pi / 4 + np.pi / 2 * np.arange(4)]
    ring = [(1.5 * np.cos(t + 0.1) * (1 + 0.01 * k),
             1.5 * np.sin(t + 0.1) * (1 + 0.01 * k), 0.0)
            for k, t in enumerate(np.linspace(0, 2 * np.pi, 9)[:-1])]
    return SampleSet(points=np.array(square + ring), epsilon=1.3, sparsity=0.0)


def _lattice_patch():
    """Triangular lattice with three engineered defects: a void wide
    enough to leave big corners, a removed vertex whose hexagonal rim is
    exactly cocircular, and a planted thin triangle whose circumdisk
    bulges into its own emptied cavity."""
    s = 0.4
    rows = []
    for j_row in range(-7, 8):
        for i in range(-9, 10):
            x = s * (i + 0.5 * j_row)
            y = s * (math.sqrt(3.0) / 2.0) * j_row
            if x * x + y * y <= 2.05 ** 2:
                rows.append((x, y, 0.0))
    pts = np.array(rows)

    def drop_near(arr, center, radius):
        d = np.linalg.norm(arr[:, :2] - np.asarray(center), axis=1)
        return arr[d > radius]

    pts = drop_near(pts, (0.0, 0.0), 0.45)          # seven-vertex void
    pts = drop_near(pts, (3.0 * s, s * math.sqrt(3.0)), 0.05)
    c_flake = (-3.0 * s, s * math.sqrt(3.0))
    pts = drop_near(pts, c_flake, 0.05)
    mid_y = c_flake[1] - s * math.sqrt(3.0) / 2.0
    apex = (c_flake[0], mid_y - 0.06, 0.0)
    return SampleSet(points=np.vstack([pts, [apex]]),
                     epsilon=0.5, sparsity=0.0)


def test_criterion_7_rule_priority_and_pick_validity():
    quad_params = Parameters(epsilon=1.3, gamma0=0.05, alpha=0.25, beta=4.5,
                             delta0=0.05, mode="practical", seed=3)
    _state_q, fired_q, audits_q = _instrumented_replay(
        _cocircular_patch(), FLAT, quad_params)
    assert fired_q["rule2_cosph"] >= 1
    assert audits_q >= 1

    lat_params = Parameters(epsilon=0.5, gamma0=0.3, alpha=0.25, beta=4.5,
                            delta0=0.05, mode="practical", seed=5)
    state_l, fired_l, audits_l = _instrumented_replay(
        _lattice_patch(), FLAT, lat_params)
    assert fired_l["rule1"] >= 1
    assert fired_l["rule2_cosph"] >= 1
    assert fired_l["rule2_star"] >= 1
    assert audits_l == sum(v for k, v in fired_l.items() if k != "rule1")

    # the replay is the production loop: same input, same output
    production = refine_sample(_lattice_patch(), FLAT, lat_params)
    assert len(production.events) == len(state_l.events)
    assert np.allclose(production.complex.points, state_l.complex.points)
    n_rule2_logged = sum(1 for line in production.event_log
                         if line.startswith("RULE2"))
    assert n_rule2_logged == audits_l

    _ok(7, "rule priority and pick validity",
        f"cocircular patch: {fired_q}, lattice patch: {fired_l}, "
        f"{audits_q + audits_l} accepted picks re-audited, none hit")
