"""Slow, independent checks for simplicial complexes built by fast routes.

Everything here recomputes from first principles: ambient Delaunay
membership by one route, a Delaunay triangulation whose simplices are
widened to every point on their circumspheres; restricted/intrinsic
Delaunay membership by nearest-site scans over dense witness samples;
combinatorial manifold tests on index arrays of the abstract complex's
top cells; and power-protection margins against every other point.  A
margin comes from the KD-tree neighbours of its centre: one k-nearest
query, widened (k doubled) only where the k-th neighbour may still tie
the nearest competitor, returns a set of sites that holds the scan's
minimiser, so it equals a scan over all points bit for bit.  The oracles share no
code with the incremental construction, so agreement between the two
routes is meaningful.  The protection audit shares only the
tangent-centre solve (``stars.tangent_centers``): it measures margins
of the output, whose centres are defined by that solve, and does not
judge membership.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    DenseSampleTooCoarse,
    DisconnectedGraph,
    EmptyInput,
    TooLarge,
    UnsupportedDim,
)
from .geometry import (_combos, affine_ranks, as_simplex, circumsphere,
                       closure, simplex_blocks, unique_rows)
from .manifolds import (Manifold, closest_pair, covering_radius_estimate,
                        tangent_frames)
from .stars import tangent_centers

# Hard ceilings for the ambient Delaunay check; beyond them the cost
# curve is steep enough that silently grinding on would look like a hang.
MAX_BRUTE_POINTS = 200
MAX_BRUTE_AMBIENT_DIM = 4

_EMPTINESS_REL_TOL = 1e-9
# a claimed simplex the restricted oracle sees only beyond this many
# bands is extra; between one band and this, it is ambiguous
EXTRA_BAND_FACTOR = 3.0
# the dimensions m whose closed-manifold test ``manifold_complex_check``
# knows
MANIFOLD_CHECK_DIMS = (2, 3)


# ===== Abstract complexes =====


@dataclass(frozen=True, eq=False)
class AbstractComplex:
    """A face-closed set of simplices over integer vertex labels.

    ``faces[d]`` is the (n_d, d + 1) integer array of the d-simplices,
    each row sorted ascending, the rows distinct and in lexicographic
    order, for d = 0 .. ``max_dim``: the form ``geometry.closure``
    returns, which the constructor takes.  ``from_simplices`` closes
    vertex collections.  ``rows``, ``of_dim``, ``counts``, ``vertices``,
    ``max_dim`` and ``filtered`` read the arrays; ``simplices``, the set
    of sorted vertex tuples, is built on first use for set algebra.  Two
    complexes are equal when they hold the same simplices.
    """

    faces: tuple

    @staticmethod
    def from_simplices(items) -> "AbstractComplex":
        """The closure of vertex collections of any sizes."""
        return AbstractComplex(closure(simplex_blocks(items)))

    @functools.cached_property
    def simplices(self) -> frozenset:
        return frozenset(s for d in range(len(self.faces))
                         for s in self.of_dim(d))

    def __len__(self) -> int:
        return sum(map(len, self.faces))

    def __contains__(self, item) -> bool:
        return as_simplex(item) in self.simplices

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbstractComplex):
            return NotImplemented
        return (len(self.faces) == len(other.faces)
                and all(np.array_equal(a, b)
                        for a, b in zip(self.faces, other.faces)))

    def __hash__(self) -> int:
        return hash(tuple(rows.tobytes() for rows in self.faces))

    def rows(self, d: int) -> np.ndarray:
        """The (n_d, d + 1) array of the d-simplices."""
        if 0 <= d < len(self.faces):
            return self.faces[d]
        return np.zeros((0, d + 1), dtype=np.intp)

    def of_dim(self, d: int) -> list:
        """The d-simplices as sorted vertex tuples, in sorted order."""
        return list(map(tuple, self.rows(d).tolist()))

    @property
    def vertices(self) -> list:
        return self.rows(0)[:, 0].tolist()

    @property
    def max_dim(self) -> int:
        return len(self.faces) - 1

    def counts(self) -> dict:
        return {d: len(rows) for d, rows in enumerate(self.faces)}

    def filtered(self, max_dim: int) -> "AbstractComplex":
        return AbstractComplex(self.faces[:max(max_dim + 1, 0)])


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


def complex_compare(first, second) -> ComplexDiff:
    """Compare two complexes simplex by simplex."""
    a = as_complex(first)
    b = as_complex(second)
    only_a: dict = {}
    only_b: dict = {}
    for s in sorted(a.simplices - b.simplices):
        only_a.setdefault(len(s) - 1, []).append(s)
    for s in sorted(b.simplices - a.simplices):
        only_b.setdefault(len(s) - 1, []).append(s)
    return ComplexDiff(equal=not only_a and not only_b,
                       only_first=only_a, only_second=only_b)


# ===== Ambient Delaunay =====


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


def ambient_delaunay_bruteforce(points) -> AbstractComplex:
    """Delaunay complex of a small point set, degenerate simplices included.

    A simplex belongs to the complex exactly when some sphere through all
    of its vertices has no input point strictly inside (at relative
    tolerance 1e-9 of the input diameter).  Cospherical groups therefore
    appear as simplices on the whole group: the four corners of a square
    form a 3-simplex, and every subset of a point set lying on a common
    empty sphere is included.

    One route decides every input: a Delaunay triangulation of the
    points in the coordinates of their affine span (Qhull, through the
    lifting map; Barber, Dobkin & Huhdanpaa, ACM TOMS 1996), each simplex
    widened to every point on its circumsphere.  Qhull triangulates a
    cospherical cell arbitrarily, so the widening restores the cell as
    one simplex, whose faces then enter by closure.  The triangulation
    of a cell may hold flat simplices, below full affine rank, which
    have no circumsphere; they are skipped, since the cell's full-rank
    simplices already give its whole group.  A point set on one sphere
    is one simplex, and a collinear one is the chain of its neighbours.

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
    simplices = Delaunay(coords).simplices
    tol = _EMPTINESS_REL_TOL * scale
    groups = set()
    for simplex in simplices[affine_ranks(simplices, coords) == rank]:
        sphere = circumsphere(as_simplex(simplex), coords)
        dist = np.linalg.norm(coords - sphere.center, axis=1)
        group = np.flatnonzero(dist <= sphere.radius + tol)
        groups.add(tuple(int(i) for i in sorted(group)))
    return AbstractComplex.from_simplices(groups)


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
    n_witnesses: int
    notes: dict = field(default_factory=dict)

    def candidates(self, dim: int) -> list:
        """Every simplex of the given dimension seen at any spread."""
        return sorted(s for s in self.spreads if len(s) == dim + 1)


_TIE_WINDOW_CAP = 8
# Witness rows scanned per batch; bounds the (rows x subsets) work arrays.
_SCAN_CHUNK_ROWS = 512
# A witness's tie window holds the sites within this many bands of its nearest.
_COLLECT_FACTOR = 3.0
_CHORDAL_BLOCK_ROWS = 1024


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
            combos = _combos(w, k)
            # sorted distinct slots: combo[j] == j exactly on the prefix
            # 0..f-1, so f is the first slot outside (w if none is)
            first_free = (combos == np.arange(k)).sum(axis=1)
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
                 n_witnesses: int) -> OracleResult:
    spreads: dict = {}
    clean: set = set()
    for block in dist_matrix_blocks:
        _scan_rows(block, sites, band, _COLLECT_FACTOR * band, 2.0 * band,
                   spreads, clean)
    return OracleResult(spreads=spreads, clean=clean, band=band,
                        n_witnesses=n_witnesses)


def _chordal_blocks(witnesses: np.ndarray, sites: np.ndarray):
    for start in range(0, len(witnesses), _CHORDAL_BLOCK_ROWS):
        chunk = witnesses[start:start + _CHORDAL_BLOCK_ROWS]
        diff = chunk[:, None, :] - sites[None, :, :]
        yield np.sqrt((diff * diff).sum(axis=2))


def restricted_delaunay_oracle(points, manifold: Manifold,
                               dense) -> OracleResult:
    """Scan a dense on-manifold sample for nearest-site coincidences.

    A simplex is reported present when some dense witness point has the
    simplex's vertices as exactly its nearest sites, with their distances
    agreeing within the band: twice the covering radius of the dense
    sample, the distance by which a true equidistance point can be
    missed.

    Raises:
        DenseSampleTooCoarse: the band cannot separate adjacent sites.
    """
    sites = np.asarray(points, dtype=float)
    witnesses = np.asarray(dense, dtype=float)
    if len(sites) == 0 or len(witnesses) == 0:
        raise EmptyInput("oracle needs sites and witnesses")
    band = 2.0 * covering_radius_estimate(manifold, witnesses)
    gap = closest_pair(sites)[0]
    if band >= 0.5 * gap:
        raise DenseSampleTooCoarse(
            f"band {band:.3g} cannot separate sites {gap:.3g} apart; "
            f"use a denser witness sample")
    return _scan_oracle(_chordal_blocks(witnesses, sites), sites, band,
                        len(witnesses))


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
    if band is None:
        covering = covering_radius_estimate(manifold, graph.points)
        band = 2.0 * (covering + float(snap_dist.max())) + 2.0 * graph.h
    gap_sites = closest_pair(sites)[0]
    if band >= 0.5 * gap_sites:
        raise DenseSampleTooCoarse(
            f"geodesic band {band:.3g} cannot separate sites "
            f"{gap_sites:.3g} apart; use a denser graph")
    result = _scan_oracle([dist.T], sites, float(band), dist.shape[1])
    result.notes["snap_max"] = float(snap_dist.max())
    result.notes["graph_h"] = float(graph.h)
    return result


@dataclass(frozen=True)
class OracleMatch:
    """Comparison of a complex against a scan oracle at a resolution margin.

    ``missing`` holds oracle simplices with clean witnesses (sharp value,
    uncontested gap) that the complex lacks; ``extra`` holds complex
    simplices the oracle cannot see even at ``EXTRA_BAND_FACTOR`` times
    the band.
    Disagreements the scan saw only at contested or marginal evidence are
    listed as ambiguous and do not fail the match: they sit below the
    scan's resolution and need an exact route to adjudicate.
    """

    equal_at_resolution: bool
    missing: list
    extra: list
    ambiguous: list
    band: float


def oracle_match_report(cplx, oracle: OracleResult, dim: int) -> OracleMatch:
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
        if spread > oracle.band * EXTRA_BAND_FACTOR:
            extra.append(simplex)
        elif spread > oracle.band:
            ambiguous.append(simplex)
    return OracleMatch(equal_at_resolution=not missing and not extra,
                       missing=missing, extra=extra, ambiguous=ambiguous,
                       band=oracle.band)


# ===== Combinatorial manifold tests =====


def _split_cells(cells: np.ndarray, size: int):
    """Each size-vertex face of every cell and the cell's other vertices,
    as two row stacks in (cell, ``_combos`` order) order."""
    width = cells.shape[1]
    faces = _combos(width, size)
    # the complements of lexicographic k-subsets come in reverse order
    rest = _combos(width, width - size)[::-1]
    return (cells[:, faces].reshape(-1, size),
            cells[:, rest].reshape(-1, width - size))


def _link_components(owner_parts, n_labels: int, n_owners: int):
    """Connected components of every owner's link graph, in one call.

    ``owner_parts`` holds (owner, rest) pairs of stacks: row i puts the
    vertices ``rest[i]`` of one top cell in the link of owner
    ``owner[i]`` (a global owner index), joined pairwise by link edges.
    Returns the number of components of each owner's link.
    """
    pairs = []
    for owner, rest in owner_parts:
        node = owner[:, None] * n_labels + rest
        pairs += [node[:, [a, b]] for a, b in _combos(rest.shape[1], 2)]
    # a link cell has two vertices or more, so every node ends an edge
    nodes, at = np.unique(np.concatenate(pairs).reshape(-1),
                          return_inverse=True)
    edges = at.reshape(-1, 2)
    graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                       shape=(len(nodes), len(nodes)))
    n_comp, label = connected_components(graph, directed=False)
    # links of different owners share no node, so each component has one
    owner_of = np.empty(n_comp, dtype=np.intp)
    owner_of[label] = nodes // n_labels
    return np.bincount(owner_of, minlength=n_owners)


def manifold_complex_check(cplx, m: int) -> tuple[bool, dict]:
    """Test whether a complex triangulates a closed m-manifold.

    For m == 2: every edge must lie in exactly two triangles and every
    vertex link must be a single simple cycle.  For m == 3: every
    triangle must lie in exactly two tetrahedra, every edge link must be
    a single simple cycle, and every vertex link must be a closed
    connected surface of Euler characteristic 2.  The complex must also
    be pure (every simplex a face of an m-simplex).

    The checks run on the complex's array of top cells.  The ridges are
    counted by one sort of their row keys (``geometry.unique_rows``).
    The complex is pure exactly when the closure of its top cells has as
    many faces of each dimension as the complex.  A node of the link of
    a face f is a vertex w with f + w in a top cell, and its degree is the
    number of top cells on the ridge through f + w (for a vertex link in
    m = 3, whether that ridge count is 2 decides closedness).  So a
    codimension-2 link is a single cycle and an m = 3 vertex link is
    closed exactly when the face has a top cell and lies in no bad
    ridge, and what remains is connectedness, judged for every link at
    once by one ``connected_components`` call, and for m = 3 vertex
    links the Euler characteristic, from per-vertex face counts.

    Returns:
        (ok, diagnostics) where diagnostics names the offending
        vertices, ridges, and impure simplices.

    Raises:
        UnsupportedDim: m outside {2, 3}.
    """
    if m not in MANIFOLD_CHECK_DIMS:
        raise UnsupportedDim(f"manifold test supports m in "
                             f"{set(MANIFOLD_CHECK_DIMS)}, not {m}")
    k = as_complex(cplx)
    top = k.rows(m)
    diagnostics: dict = {"bad_ridges": [], "bad_links": [], "impure": []}
    if not len(top):
        diagnostics["impure"] = sorted(k.simplices)
        return False, diagnostics
    # labels from 0 (the rows are sorted), so that they index counts and
    # key link nodes
    lo = int(top[0, 0])
    top = top - lo
    ridge_of, _rest = _split_cells(top, m)
    ridges, ridge_at, ridge_count = unique_rows(ridge_of)
    bad = ridge_count != 2
    diagnostics["bad_ridges"] = list(zip(
        map(tuple, (ridges[bad] + lo).tolist()), ridge_count[bad].tolist()))
    # the ridge opposite position j of a cell comes (m - j)-th
    bad_ridge_at = bad[ridge_at.reshape(-1, m + 1)][:, ::-1]

    # faces of the top-cell closure, and the owners of the judged links:
    # vertices (m = 2) or edges and vertices (m = 3)
    closed = {m: top, m - 1: ridges}
    n_labels = int(top.max()) + 1
    parts, judged, offset = [], [], 0
    for d in range(m - 2, -1, -1):
        face_of, rest = _split_cells(top, d + 1)
        faces, owner, _count = unique_rows(face_of)
        closed[d] = faces
        # a face lies in a bad ridge when some top cell on it has one
        # opposite a vertex outside the face
        positions = _combos(m + 1, m - d)[::-1]
        in_bad = bad_ridge_at[:, positions].any(axis=2).reshape(-1)
        bad_face = np.bincount(owner[in_bad], minlength=len(faces)) > 0
        if d == 0 and m == 3:
            # chi of a vertex link: edges - triangles + tetrahedra on it
            chi = sum((-1) ** j * np.bincount(closed[j + 1].reshape(-1),
                                              minlength=n_labels)
                      for j in range(3))
            bad_face |= chi[faces[:, 0]] != 2
        parts.append((owner + offset, rest))
        judged.append((faces, bad_face, offset))
        offset += len(faces)
    components = _link_components(parts, n_labels, offset)

    counts = k.counts()
    if counts != {d: len(faces) for d, faces in closed.items()}:
        covered = AbstractComplex(
            tuple(closed[d] + lo for d in range(m + 1))).simplices
        diagnostics["impure"] = sorted(k.simplices - covered)
    bad_links = {}
    for faces, bad_face, start in judged:
        d = faces.shape[1] - 1
        bad_face |= components[start:start + len(faces)] != 1
        # a face of the complex outside the closure has an empty link
        bad_links[d] = sorted(
            [tuple(s) for s in (faces[bad_face] + lo).tolist()]
            + [s for s in diagnostics["impure"] if len(s) == d + 1])
    diagnostics["bad_links"] = [v for (v,) in bad_links[0]]
    if m == 3:
        diagnostics["bad_links"] += bad_links[1]
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
    """Power-protection margins of every top simplex in the tangent plane
    of each of its vertices.

    Entry i is vertex ``vertices[i]`` of simplex ``simplices[i]``; a row
    whose centre system was rejected as singular has ``accepted`` False
    and NaN margin and radius.
    """

    threshold: float
    simplices: np.ndarray
    vertices: np.ndarray
    margins: np.ndarray
    radii: np.ndarray
    accepted: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return self.accepted & (self.margins > self.threshold)

    @property
    def ok(self) -> bool:
        return bool(len(self.margins)) and bool(self.passed.all())

    @property
    def min_margin(self) -> float:
        margins = self.margins[self.accepted]
        return float(margins.min()) if len(margins) else math.nan

    def _entries(self, rows) -> list:
        out = []
        for i in rows:
            simplex = tuple(self.simplices[i].tolist())
            p = int(self.vertices[i])
            if not self.accepted[i]:
                out.append(ProtectionEntry(
                    simplex=simplex, vertex=p, margin=math.nan,
                    radius=math.nan, ok=False,
                    error=f"tangent center system for {simplex} at vertex "
                          f"{p} is singular"))
                continue
            out.append(ProtectionEntry(
                simplex=simplex, vertex=p, margin=float(self.margins[i]),
                radius=float(self.radii[i]),
                ok=bool(self.margins[i] > self.threshold)))
        return out

    @property
    def entries(self) -> list:
        return self._entries(range(len(self.margins)))

    def failures(self) -> list:
        return self._entries(np.flatnonzero(~self.passed).tolist())


def _protection_margins(pts, centres, r2, verts) -> np.ndarray:
    """min over sites q outside row i's simplex of |centres[i] - q|^2 - r2[i]
    (see ``power_protection_audit``); inf when every site is a vertex."""
    n, width = len(pts), verts.shape[1]
    margin = np.full(len(centres), math.inf)
    if n <= width or not len(centres):
        return margin
    tree = cKDTree(pts)
    rows = np.arange(len(centres))
    radius = None
    k = min(width + 2, n)
    while len(rows):
        dist, near = tree.query(centres[rows], k=k)
        outside = (near[:, :, None] != verts[rows][:, None, :]).all(axis=2)
        if radius is None:
            radius = (np.where(outside, dist, math.inf).min(axis=1)
                      * (1.0 + 1e-9))
        # the scan's arithmetic
        gap = (((pts[near] - centres[rows][:, None, :]) ** 2).sum(axis=2)
               - r2[rows][:, None])
        margin[rows] = np.where(outside, gap, math.inf).min(axis=1)
        if k == n:
            break
        wide = dist[:, -1] <= radius
        rows, radius = rows[wide], radius[wide]
        k = min(2 * k, n)
    return margin


def power_protection_audit(cplx, points, manifold: Manifold,
                           threshold: float) -> ProtectionReport:
    """Measure how safely each top simplex wins its tangent power cell.

    For each m-simplex and each of its vertices p, the center C on the
    tangent plane at p equidistant from the simplex vertices is solved
    (row p of one ``tangent_frames`` stack over every point is the frame
    at p, and every entry is in one ``stars.tangent_centers`` stack); the
    margin is min over points q outside the simplex of |C - q|^2 - R^2.
    An entry passes when its margin exceeds the threshold; an entry whose
    center system is rejected as singular is reported as a failing entry
    rather than raised.  Entries run simplex by simplex, vertex by vertex.
    Every point, a vertex or not, must lie on the manifold.

    The minimum is taken over KD-tree neighbours, exactly.  One query
    fetches the k = m + 3 nearest sites of every C (k is capped at the
    number of sites n).  The m + 2 nearest include at least one
    non-vertex, so the query gives d*, the tree's distance to the
    nearest non-vertex site.  The site q' that minimises the computed
    gap minimises the computed |C - q|^2, which is within a few ulps of
    the tree's own squared distance; so the tree puts q' within
    d* (1 + O(1e-16)) of C, inside the ball of radius d* (1 + 1e-9).
    When the k-th distance of a row exceeds that radius, its k
    neighbours hold the whole ball; the other rows are queried again
    with k doubled until they do or k reaches n.  The gaps of the
    non-vertex neighbours are computed with the arithmetic of a scan
    over all points; they include q' and are a subset of that scan, so
    their minimum is the scan's minimum, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    m = manifold.m
    top = as_complex(cplx).rows(m)
    # entry (simplex i, vertex j) is row i * (m + 1) + j
    verts = np.repeat(top, m + 1, axis=0)
    base = top.reshape(-1)
    others = np.stack([np.delete(top, j, axis=1) for j in range(m + 1)],
                      axis=1).reshape(-1, m)
    basis = tangent_frames(manifold, pts)[base]
    centres, r2, accepted, _t = tangent_centers(pts, base, others, basis)
    margins = np.full(len(base), math.nan)
    rows = np.flatnonzero(accepted)
    margins[rows] = _protection_margins(pts, centres[rows], r2[rows],
                                        verts[rows])
    return ProtectionReport(threshold=threshold, simplices=verts,
                            vertices=base, margins=margins,
                            radii=np.sqrt(r2), accepted=accepted)
