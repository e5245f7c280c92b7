"""Slow, independent checks for simplicial complexes built by fast routes.

Everything here recomputes from first principles: Delaunay membership by
exhaustive empty-sphere tests, restricted/intrinsic Delaunay membership
by nearest-site scans over dense witness samples, combinatorial manifold
tests on the abstract complex, and power-protection margins solved
directly in tangent charts.  None of it shares code with the incremental
construction, so agreement between the two routes is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import Delaunay, cKDTree
from scipy.sparse.csgraph import dijkstra

from .errors import (
    DenseSampleTooCoarse,
    DisconnectedGraph,
    EmptyInput,
    SingularSystem,
    TooLarge,
    UnsupportedDim,
)
from .geometry import as_simplex, circumsphere
from .manifolds import Manifold, covering_radius_estimate, tangent_chart

# Hard ceilings for the exhaustive routes; beyond them the cost curve is
# steep enough that silently grinding on would look like a hang.
MAX_BRUTE_POINTS = 200
MAX_BRUTE_AMBIENT_DIM = 4
MAX_SUBSET_ENUM_POINTS = 12

_EMPTINESS_REL_TOL = 1e-9


# ===== Abstract complexes =====


@dataclass(frozen=True)
class AbstractComplex:
    """A face-closed set of simplices over integer vertex labels.

    Simplices are stored as sorted tuples; construction closes the input
    under taking faces, so every face of a member is a member.
    """

    simplices: frozenset

    @staticmethod
    def from_simplices(items) -> "AbstractComplex":
        closed = set()
        for item in items:
            simplex = as_simplex(item)
            if simplex in closed:
                continue
            for k in range(1, len(simplex) + 1):
                for face in itertools.combinations(simplex, k):
                    closed.add(face)
        return AbstractComplex(simplices=frozenset(closed))

    def __len__(self) -> int:
        return len(self.simplices)

    def __contains__(self, item) -> bool:
        return as_simplex(item) in self.simplices

    def of_dim(self, d: int) -> list:
        return sorted(s for s in self.simplices if len(s) == d + 1)

    @property
    def vertices(self) -> list:
        return [s[0] for s in self.of_dim(0)]

    @property
    def max_dim(self) -> int:
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def counts(self) -> dict:
        out = {}
        for s in self.simplices:
            out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
        return dict(sorted(out.items()))

    def filtered(self, max_dim: int) -> "AbstractComplex":
        kept = frozenset(s for s in self.simplices if len(s) - 1 <= max_dim)
        return AbstractComplex(simplices=kept)


def as_complex(obj) -> AbstractComplex:
    """Coerce an iterable of vertex tuples (or a complex) to AbstractComplex."""
    if isinstance(obj, AbstractComplex):
        return obj
    return AbstractComplex.from_simplices(obj)


def euler_characteristic(obj) -> int:
    cplx = as_complex(obj)
    return sum(((-1) ** d) * n for d, n in cplx.counts().items())


@dataclass(frozen=True)
class ComplexDiff:
    """Symmetric difference of two complexes, bucketed by dimension."""

    equal: bool
    only_first: dict
    only_second: dict


def complex_compare(first, second, max_dim: int | None = None) -> ComplexDiff:
    """Compare two complexes, optionally ignoring simplices above max_dim."""
    a = as_complex(first)
    b = as_complex(second)
    if max_dim is not None:
        a = a.filtered(max_dim)
        b = b.filtered(max_dim)
    only_a: dict = {}
    only_b: dict = {}
    for s in sorted(a.simplices - b.simplices):
        only_a.setdefault(len(s) - 1, []).append(s)
    for s in sorted(b.simplices - a.simplices):
        only_b.setdefault(len(s) - 1, []).append(s)
    return ComplexDiff(equal=not only_a and not only_b,
                       only_first=only_a, only_second=only_b)


# ===== Exhaustive ambient Delaunay =====


def _equidistant_locus(verts: np.ndarray, scale: float):
    """Particular equidistant point and null directions for a vertex set.

    Returns (c0, null_basis) where c0 is equidistant from all vertices and
    c0 + span(null_basis rows) is the full locus, or None when no
    equidistant point exists (e.g. three collinear points).
    """
    vecs = verts[1:] - verts[0]
    rhs = 0.5 * (vecs * vecs).sum(axis=1)
    if len(vecs) == 0:
        return verts[0].copy(), np.eye(verts.shape[1])
    z, *_ = np.linalg.lstsq(vecs, rhs, rcond=None)
    if np.abs(vecs @ z - rhs).max() > _EMPTINESS_REL_TOL * scale * scale:
        return None
    _, svals, vt = np.linalg.svd(vecs)
    rank = int((svals > 1e-12 * max(svals[0], 1.0)).sum()) if len(svals) else 0
    null_basis = vt[rank:]
    return verts[0] + z, null_basis


def _subset_admits_empty_sphere(points, subset, scale) -> bool:
    """Decide by linear feasibility whether some empty sphere circumscribes."""
    verts = points[list(subset)]
    locus = _equidistant_locus(verts, scale)
    if locus is None:
        return False
    c0, null_basis = locus
    rest = np.ones(len(points), dtype=bool)
    rest[list(subset)] = False
    if not rest.any():
        return True
    q = points[rest]
    v0 = verts[0]
    # |c - q|^2 >= |c - v0|^2 is linear in the center c.
    lhs_dir = 2.0 * (q - v0)
    bound = (q * q).sum(axis=1) - v0 @ v0 - lhs_dir @ c0
    bound = bound + _EMPTINESS_REL_TOL * scale * scale
    if null_basis.shape[0] == 0:
        return bool((bound >= 0.0).all())
    a_ub = lhs_dir @ null_basis.T
    res = linprog(np.zeros(null_basis.shape[0]), A_ub=a_ub, b_ub=bound,
                  bounds=[(None, None)] * null_basis.shape[0],
                  method="highs")
    return res.status == 0


def _delaunay_by_sphere_enumeration(points: np.ndarray) -> AbstractComplex:
    """Literal definition: test every vertex subset for an empty sphere."""
    n = len(points)
    if n > MAX_SUBSET_ENUM_POINTS:
        raise TooLarge(
            f"subset enumeration over {n} points would test 2^{n} spheres")
    scale = _diameter(points)
    found = [(i,) for i in range(n)]
    for k in range(2, n + 1):
        for subset in itertools.combinations(range(n), k):
            if _subset_admits_empty_sphere(points, subset, scale):
                found.append(subset)
    return AbstractComplex.from_simplices(found)


def _diameter(points: np.ndarray) -> float:
    hi = points.max(axis=0)
    lo = points.min(axis=0)
    return float(max(np.linalg.norm(hi - lo), 1e-300))


def _affine_coordinates(points: np.ndarray, scale: float):
    """Rotate points into the coordinates of their affine span."""
    center = points.mean(axis=0)
    shifted = points - center
    _, svals, vt = np.linalg.svd(shifted, full_matrices=False)
    rank = int((svals > 1e-9 * scale).sum()) if len(svals) else 0
    return shifted @ vt[:rank].T, rank


def _all_cospherical(points: np.ndarray, scale: float) -> bool:
    """True when one sphere passes through every point."""
    design = np.hstack([2.0 * points, np.ones((len(points), 1))])
    target = (points * points).sum(axis=1)
    sol, *_ = np.linalg.lstsq(design, target, rcond=None)
    return bool(np.abs(design @ sol - target).max()
                <= _EMPTINESS_REL_TOL * scale * scale)


def _delaunay_by_lifting(points: np.ndarray) -> AbstractComplex:
    """Delaunay complex via qhull plus merging of cospherical groups.

    qhull triangulates degenerate (cospherical) cells arbitrarily; each
    output simplex is widened to the full set of points lying on its
    circumsphere, which restores the degenerate cells as single simplices
    whose faces then enter by closure.
    """
    n = len(points)
    scale = _diameter(points)
    coords, rank = _affine_coordinates(points, scale)
    if n <= rank + 1 or _all_cospherical(coords, scale):
        # Every subset shares one empty circumscribing sphere.
        return AbstractComplex.from_simplices([tuple(range(n))])
    if rank == 1:
        order = np.argsort(coords[:, 0])
        pairs = [tuple(sorted((int(order[i]), int(order[i + 1]))))
                 for i in range(n - 1)]
        return AbstractComplex.from_simplices(pairs)
    tri = Delaunay(coords)
    tol = _EMPTINESS_REL_TOL * scale
    groups = set()
    for simplex in tri.simplices:
        sphere = circumsphere(as_simplex(simplex), coords)
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        group = np.flatnonzero(dist <= sphere.radius + tol)
        groups.add(tuple(int(i) for i in sorted(group)))
    return AbstractComplex.from_simplices(groups)


def ambient_delaunay_bruteforce(points) -> AbstractComplex:
    """Delaunay complex of a small point set, degenerate simplices included.

    A simplex belongs to the complex exactly when some sphere through all
    of its vertices has no input point strictly inside (at relative
    tolerance 1e-9 of the input diameter).  Cospherical groups therefore
    appear as simplices on the whole group: the four corners of a square
    form a 3-simplex, and every subset of a point set lying on a common
    empty sphere is included.

    Up to 10 points, every vertex subset is tested by linear
    feasibility; larger inputs use a Delaunay triangulation of the
    lifted points with cospherical merging.

    Args:
        points: (n, N) array with n <= 200 and N <= 4.

    Returns:
        AbstractComplex over indices into ``points``.

    Raises:
        TooLarge: the input exceeds what exhaustive checking can afford.
        EmptyInput: no points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise EmptyInput("ambient Delaunay of an empty point set")
    n, dim = points.shape
    if n > MAX_BRUTE_POINTS:
        raise TooLarge(f"{n} points exceeds the brute-force cap "
                       f"{MAX_BRUTE_POINTS}")
    if dim > MAX_BRUTE_AMBIENT_DIM:
        raise TooLarge(f"ambient dimension {dim} exceeds the brute-force "
                       f"cap {MAX_BRUTE_AMBIENT_DIM}")
    if n <= 10:
        return _delaunay_by_sphere_enumeration(points)
    return _delaunay_by_lifting(points)


# ===== Scan oracles over dense witness samples =====


@dataclass
class OracleResult:
    """Nearest-site scan outcome, with per-simplex witness quality.

    For every candidate simplex seen during the scan, ``spreads`` records
    the best witness value: how far the simplex's vertices were from
    being the witness's jointly-nearest sites (zero at an exact
    coincidence).  A value no larger than the scan band is the
    membership criterion; smaller values are stronger evidence.  Claims
    finer than ``band`` are not supported by the scan, which is why
    comparisons go through :func:`oracle_match_report` rather than raw
    set equality.
    """

    spreads: dict
    clean: set
    band: float
    covering: float
    n_witnesses: int
    n_sites: int
    notes: dict = field(default_factory=dict)

    @property
    def resolution(self) -> float:
        return self.band

    def complex_at(self, slack: float) -> AbstractComplex:
        members = [s for s, spread in self.spreads.items() if spread <= slack]
        members += [(i,) for i in range(self.n_sites)]
        return AbstractComplex.from_simplices(members)

    @property
    def complex(self) -> AbstractComplex:
        return self.complex_at(self.band)

    def candidates(self, dim: int) -> list:
        """Every simplex of the given dimension seen at any spread."""
        return sorted(s for s in self.spreads if len(s) == dim + 1)


_TIE_WINDOW_CAP = 8
# Witness rows scanned per batch; bounds the (rows x subsets) work arrays.
_SCAN_CHUNK_ROWS = 512


@functools.lru_cache(maxsize=None)
def _window_subsets(w: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k-subsets of w window slots and each one's first free slot.

    Subsets are sorted slot tuples in ``itertools.combinations`` order.
    The first free slot is the smallest slot outside the subset, or w
    when the subset fills the window.
    """
    combos = np.array(list(itertools.combinations(range(w), k)),
                      dtype=np.intp).reshape(-1, k)
    # slots are sorted and distinct, so combo[j] == j holds exactly on the
    # prefix 0..f-1 the subset contains, and f is its first free slot
    first_free = (combos == np.arange(k)).sum(axis=1)
    for arr in (combos, first_free):
        arr.flags.writeable = False
    return combos, first_free


def _min_norm_step_norms(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Norms of the minimum-norm least-squares solutions of a x = rhs.

    ``a`` is a stack of (M, N) systems.  Singular values at or below
    eps * max(M, N) times the largest are dropped, the cutoff
    ``np.linalg.lstsq`` applies with ``rcond=None``.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    coef = np.einsum("eij,ei->ej", u, rhs) * inv
    step = np.einsum("ejn,ej->en", vt, coef)
    return np.sqrt((step * step).sum(axis=1))


def _scan_rows(dist_rows: np.ndarray, sites: np.ndarray, band: float,
               collect: float, delta_cap: float, spreads: dict,
               clean: set) -> None:
    """Accumulate witness evidence from a block of distance rows.

    Each witness contributes every subset of its tie window (the sites
    within ``collect`` of its nearest site, capped at the closest
    _TIE_WINDOW_CAP).  The recorded value for a subset is how far its
    farthest member is from being the nearest site; a true joint-nearest
    coincidence drives it to zero.  Subsets of three or more sites must
    also pass a locality test: the least-squares equidistance correction
    (the step from the witness to the nearest point where the subset's
    sites are equidistant) must stay within ``delta_cap``, which rejects
    far-field witnesses that see angularly-compressed near-ties toward
    site clusters with no nearby equidistance point.

    A subset is additionally marked *clean* when some witness sees it
    sharply: value at most band/3 while every outside site stays at
    least one full band farther away.  Clean evidence is what a missing
    simplex is judged by; a near-tie among five sites marks nothing
    clean, because the scan genuinely cannot tell which way such a
    configuration resolves.

    Every (witness, subset) pair is judged on its own and the results
    are merged by minimum value and any-clean, so the rows are processed
    in batches of _SCAN_CHUNK_ROWS with all subsets of one size at once.
    """
    d0 = dist_rows.min(axis=1)
    counts = (dist_rows <= (d0 + collect)[:, None]).sum(axis=1)
    rows = np.flatnonzero(counts >= 2)
    for start in range(0, len(rows), _SCAN_CHUNK_ROWS):
        chunk = rows[start:start + _SCAN_CHUNK_ROWS]
        _scan_chunk(dist_rows[chunk], counts[chunk], sites, band, collect,
                    delta_cap, spreads, clean)


def _scan_chunk(block: np.ndarray, counts: np.ndarray, sites: np.ndarray,
                band: float, collect: float, delta_cap: float,
                spreads: dict, clean: set) -> None:
    """Judge every window subset of a block of rows with >= 2 near sites."""
    n_rows, n_sites = block.shape
    order = np.argsort(block, axis=1)
    width = np.minimum(counts, _TIE_WINDOW_CAP)
    top = int(width.max())
    win_all = order[:, :top]
    win_d_all = np.take_along_axis(block, win_all, axis=1)
    # distance to the first site past the window (none when it holds all)
    past = order[np.arange(n_rows), np.minimum(width, n_sites - 1)]
    beyond = np.where(width < n_sites, block[np.arange(n_rows), past],
                      math.inf)
    found: dict = {}
    for w in np.unique(width).tolist():
        sel = width == w
        window = win_all[sel, :w]
        win_d = win_d_all[sel, :w]
        base = win_d[:, 0]
        ext_d = np.column_stack([win_d, beyond[sel]])
        for k in range(2, w + 1):
            combos, first_free = _window_subsets(w, k)
            val = win_d[:, combos[:, -1]] - base[:, None]  # window is sorted
            row, sub = np.nonzero(val <= collect)
            slots = combos[sub]
            val = val[row, sub]
            outside = ext_d[row, first_free[sub]]
            sharp = ((val <= band / 3.0)
                     & (outside - (base[row] + val) >= band))
            found.setdefault(k, []).append(
                (window[row[:, None], slots], win_d[row[:, None], slots],
                 val, sharp))
    for k, parts in found.items():
        members, member_d, val, sharp = (np.concatenate(col)
                                         for col in zip(*parts))
        if k >= 3 and len(val):
            p = sites[members]
            rhs = 0.5 * (member_d[:, 1:] ** 2 - member_d[:, :1] ** 2)
            local = _min_norm_step_norms(p[:, 1:] - p[:, :1], rhs) <= delta_cap
            members, val, sharp = members[local], val[local], sharp[local]
        _merge_evidence(np.sort(members, axis=1), val, sharp, spreads, clean)


def _merge_evidence(keys: np.ndarray, val: np.ndarray, sharp: np.ndarray,
                    spreads: dict, clean: set) -> None:
    """Fold per-witness evidence into the per-simplex minimum and clean set."""
    if len(keys) == 0:
        return
    order = np.lexsort(keys.T[::-1])
    keys, val, sharp = keys[order], val[order], sharp[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    best = np.minimum.reduceat(val, starts)
    any_sharp = np.logical_or.reduceat(sharp, starts)
    for key, v, c in zip(map(tuple, keys[starts].tolist()), best.tolist(),
                         any_sharp.tolist()):
        if v < spreads.get(key, math.inf):
            spreads[key] = v
        if c:
            clean.add(key)


def _scan_oracle(dist_matrix_blocks, sites: np.ndarray, band: float,
                 covering: float, n_witnesses: int,
                 collect_factor: float = 3.0) -> OracleResult:
    spreads: dict = {}
    clean: set = set()
    for block in dist_matrix_blocks:
        _scan_rows(block, sites, band, collect_factor * band, 2.0 * band,
                   spreads, clean)
    return OracleResult(spreads=spreads, clean=clean, band=band,
                        covering=covering, n_witnesses=n_witnesses,
                        n_sites=len(sites))


def _chordal_blocks(witnesses: np.ndarray, sites: np.ndarray,
                    block_rows: int = 1024):
    for start in range(0, len(witnesses), block_rows):
        chunk = witnesses[start:start + block_rows]
        diff = chunk[:, None, :] - sites[None, :, :]
        yield np.sqrt((diff * diff).sum(axis=2))


def _min_site_gap(sites: np.ndarray) -> float:
    if len(sites) < 2:
        return math.inf
    d, _ = cKDTree(sites).query(sites, k=2)
    return float(d[:, 1].min())


def restricted_delaunay_oracle(points, manifold: Manifold, dense,
                               band: float | None = None) -> OracleResult:
    """Scan a dense on-manifold sample for nearest-site coincidences.

    A simplex is reported present when some dense witness point has the
    simplex's vertices as exactly its nearest sites, with their distances
    agreeing within the band (default: twice the covering radius of the
    dense sample, the distance by which a true equidistance point can be
    missed).

    Raises:
        DenseSampleTooCoarse: the band cannot separate adjacent sites.
    """
    sites = np.asarray(points, dtype=float)
    witnesses = np.asarray(dense, dtype=float)
    if len(sites) == 0 or len(witnesses) == 0:
        raise EmptyInput("oracle needs sites and witnesses")
    covering = covering_radius_estimate(manifold, witnesses)
    if band is None:
        band = 2.0 * covering
    gap = _min_site_gap(sites)
    if band >= 0.5 * gap:
        raise DenseSampleTooCoarse(
            f"band {band:.3g} cannot separate sites {gap:.3g} apart; "
            f"use a denser witness sample")
    return _scan_oracle(_chordal_blocks(witnesses, sites), sites,
                        float(band), covering, len(witnesses))


def intrinsic_delaunay_oracle(points, manifold: Manifold, graph,
                              band: float | None = None) -> OracleResult:
    """Nearest-site scan under graph-geodesic distances.

    Sites are snapped to their nearest graph nodes and every node acts
    as a witness; distances are shortest paths in the graph.  The band
    accounts for node covering, snapping error, and the additive path
    overestimate of the graph metric.

    Raises:
        DisconnectedGraph: some witness cannot reach every site.
    """
    sites = np.asarray(points, dtype=float)
    if len(sites) == 0:
        raise EmptyInput("oracle needs sites")
    snap_dist, snap_idx = graph.tree.query(sites)
    dist = dijkstra(graph.matrix, directed=False, indices=snap_idx)
    if not np.isfinite(dist).all():
        raise DisconnectedGraph("geodesic graph does not connect all sites "
                                "to all witnesses")
    covering = covering_radius_estimate(manifold, graph.points)
    if band is None:
        band = 2.0 * (covering + float(snap_dist.max())) + 2.0 * graph.h
    gap_sites = _min_site_gap(sites)
    if band >= 0.5 * gap_sites:
        raise DenseSampleTooCoarse(
            f"geodesic band {band:.3g} cannot separate sites "
            f"{gap_sites:.3g} apart; use a denser graph")
    result = _scan_oracle([dist.T], sites, float(band), covering,
                          dist.shape[1])
    result.notes["snap_max"] = float(snap_dist.max())
    result.notes["graph_h"] = float(graph.h)
    return result


@dataclass(frozen=True)
class OracleMatch:
    """Comparison of a complex against a scan oracle at a resolution margin.

    ``missing`` holds oracle simplices with clean witnesses (sharp value,
    uncontested gap) that the complex lacks; ``extra`` holds complex
    simplices the oracle cannot see even at factor times the band.
    Disagreements the scan saw only at contested or marginal evidence are
    listed as ambiguous and do not fail the match: they sit below the
    scan's resolution and need an exact route to adjudicate.
    """

    equal_at_resolution: bool
    missing: list
    extra: list
    ambiguous: list
    band: float
    factor: float


def oracle_match_report(cplx, oracle: OracleResult, dim: int,
                        factor: float = 3.0) -> OracleMatch:
    """Judge complex-vs-oracle equality honestly at the scan resolution."""
    target = as_complex(cplx)
    claimed = set(target.of_dim(dim))
    missing, extra, ambiguous = [], [], []
    seen = {s: v for s, v in oracle.spreads.items() if len(s) == dim + 1}
    for simplex, spread in sorted(seen.items()):
        if simplex in claimed:
            continue
        if simplex in oracle.clean:
            missing.append(simplex)
        elif spread <= oracle.band:
            ambiguous.append(simplex)
    for simplex in sorted(claimed):
        spread = seen.get(simplex, math.inf)
        if spread > oracle.band * factor:
            extra.append(simplex)
        elif spread > oracle.band:
            ambiguous.append(simplex)
    return OracleMatch(equal_at_resolution=not missing and not extra,
                       missing=missing, extra=extra, ambiguous=ambiguous,
                       band=oracle.band, factor=factor)


# ===== Combinatorial manifold tests =====


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


def _vertex_link(top_cells: list, v: int) -> list:
    return [tuple(w for w in cell if w != v) for cell in top_cells if v in cell]


def manifold_complex_check(cplx, m: int) -> tuple[bool, dict]:
    """Test whether a complex triangulates a closed m-manifold.

    For m == 2: every edge must lie in exactly two triangles and every
    vertex link must be a single simple cycle.  For m == 3: every
    triangle must lie in exactly two tetrahedra, every edge link must be
    a single simple cycle, and every vertex link must be a closed
    connected surface of Euler characteristic 2.  The complex must also
    be pure (every simplex a face of an m-simplex).

    Returns:
        (ok, diagnostics) where diagnostics names the offending
        vertices, ridges, and impure simplices.

    Raises:
        UnsupportedDim: m outside {2, 3}.
    """
    if m not in (2, 3):
        raise UnsupportedDim(f"manifold test supports m in {{2, 3}}, not {m}")
    k = as_complex(cplx)
    top = k.of_dim(m)
    diagnostics: dict = {"bad_ridges": [], "bad_links": [], "impure": []}
    if not top:
        diagnostics["impure"] = sorted(k.simplices)
        return False, diagnostics
    covered = AbstractComplex.from_simplices(top).simplices
    diagnostics["impure"] = sorted(k.simplices - covered)
    for ridge, count in sorted(_ridge_counts(top).items()):
        if count != 2:
            diagnostics["bad_ridges"].append((ridge, count))
    for v in k.vertices:
        link = _vertex_link(top, v)
        if m == 2:
            if not _is_single_cycle(link):
                diagnostics["bad_links"].append(v)
            continue
        # m == 3: the link must be a closed connected surface with chi 2.
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


# ===== Power-protection audit =====


@dataclass(frozen=True)
class ProtectionEntry:
    simplex: tuple
    vertex: int
    margin: float
    radius: float
    ok: bool
    error: str | None = None


@dataclass
class ProtectionReport:
    """Power-protection margins of every top simplex in every vertex chart."""

    threshold: float
    entries: list

    @property
    def ok(self) -> bool:
        return bool(self.entries) and all(e.ok for e in self.entries)

    @property
    def min_margin(self) -> float:
        margins = [e.margin for e in self.entries if e.error is None]
        return min(margins) if margins else math.nan

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]


def power_protection_audit(cplx, points, manifold: Manifold,
                           threshold: float) -> ProtectionReport:
    """Measure how safely each top simplex wins its tangent power cell.

    For each m-simplex and each of its vertices p, the center C on the
    tangent plane at p equidistant from the simplex vertices is solved
    directly; the margin is min over points q outside the simplex of
    |C - q|^2 - R^2.  An entry passes when its margin exceeds the
    threshold; a simplex whose center system is numerically singular is
    reported as a failing entry rather than raised.
    """
    pts = np.asarray(points, dtype=float)
    k = as_complex(cplx)
    m = manifold.m
    entries = []
    charts: dict = {}
    for simplex in k.of_dim(m):
        outside = np.ones(len(pts), dtype=bool)
        outside[list(simplex)] = False
        competitors = pts[outside]
        for p in simplex:
            others = [q for q in simplex if q != p]
            if p not in charts:
                charts[p] = tangent_chart(manifold, pts[p])
            chart = charts[p]
            u = (pts[others] - pts[p]) @ chart.frame.basis.T
            b = ((pts[others] - pts[p]) ** 2).sum(axis=1)
            a_mat = 2.0 * u
            try:
                if (a_mat.shape[0] != m
                        or np.linalg.cond(a_mat) > 1e12):
                    raise SingularSystem(
                        f"tangent center system for {simplex} at vertex {p} "
                        f"is singular")
                t = np.linalg.solve(a_mat, b)
            except (SingularSystem, np.linalg.LinAlgError) as exc:
                entries.append(ProtectionEntry(
                    simplex=simplex, vertex=p, margin=math.nan,
                    radius=math.nan, ok=False, error=str(exc)))
                continue
            center = pts[p] + chart.frame.basis.T @ t
            r2 = float(t @ t)
            if len(competitors) == 0:
                margin = math.inf
            else:
                margin = float((((competitors - center) ** 2).sum(axis=1)
                                - r2).min())
            entries.append(ProtectionEntry(
                simplex=simplex, vertex=p, margin=margin,
                radius=math.sqrt(r2), ok=margin > threshold))
    return ProtectionReport(threshold=threshold, entries=entries)
