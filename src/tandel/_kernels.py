"""Hot numeric kernel of the rule-2 hitting set.

The flake scan goes over candidate k-subsets of sample points around a
prospective insertion x and keeps the ones whose simplex with x might be
a thin ("flake") simplex with a small weighted ball.  One numpy
implementation serves every subset size k; the vertex pairs of a subset
come from ``geometry._combos``, the package's one k-subset table.
"""
from __future__ import annotations

import numpy as np

from .geometry import _combos


def using_numba() -> bool:
    """Always False: the kernels are numpy only.

    Kept because the benchmark records it in its environment line.
    """
    return False


def _close_subsets(close: np.ndarray, k: int) -> np.ndarray:
    """Every k-subset of range(len(close)) whose members are pairwise
    ``close``, as rows of ascending indices in lexicographic order.

    Subsets grow one index at a time and only from rows that already
    pass, so no subset with a far pair is ever formed.
    """
    n = len(close)
    rows = np.arange(n, dtype=np.int64)[:, None]
    later = np.arange(n)[None, :]
    common = close  # common[i]: the indices close to every member of row i
    for _ in range(k - 1):
        r, extra = np.nonzero(common & (later > rows[:, -1:]))
        rows = np.column_stack([rows[r], extra])
        common = common[r] & close[extra]
    return rows


# ===== flake scan =====
#
# A k-simplex tau = (x, q_1, ..., q_k) can only be a flake with a
# weighted circumradius below r_cap when
#   (a) every edge is at most 2 * r_cap: the caller passes r_cap already
#       scaled by 1 / sqrt(1 - 4 delta0^2), which bounds the edges of a
#       ball of radius r_cap whose weights are capped at delta0 * L; and
#   (b) its thickness is below gamma0^k.  With G the Gram matrix of
#       q_i - x, k! vol = sqrt(det G) = D_v (k-1)! vol(face_v) for every
#       vertex v, and the regular simplex has the largest volume for a
#       given diameter Delta, so a thickness D_min / (k Delta) < gamma0^k
#       forces det G < k^3 / 2^(k-1) * gamma0^(2k) * Delta^(2k).
# Both are cheap necessary conditions; survivors get exact re-checks
# downstream, hence the small slack.

def flake_candidates(x: np.ndarray, cand: np.ndarray, gamma0: float,
                     r_cap: float, k: int) -> np.ndarray:
    """Rows of k ascending indices into ``cand``, in lexicographic
    order, whose k-simplex with apex ``x`` might be a gamma0 flake with
    some weighted circumradius below ``r_cap``.

    A slightly permissive prefilter: every true hit is returned, plus
    borderline near-misses that exact re-checks are expected to discard.
    """
    x = np.asarray(x, dtype=float)
    cand = np.asarray(cand, dtype=float).reshape(-1, x.shape[0])
    rel = cand - x
    gram = rel @ rel.T
    d_x = np.diag(gram)
    sq = d_x[:, None] + d_x[None, :] - 2.0 * gram
    d_edge_sq = (2.0 * float(r_cap) * (1.0 + 1e-9)) ** 2
    near = ~(d_x > d_edge_sq)
    close = ~(sq > d_edge_sq) & near[:, None] & near[None, :]
    rows = _close_subsets(close, k)
    iu, ju = _combos(k, 2).T
    delta_sq = np.maximum(d_x[rows].max(axis=1),
                          sq[rows[:, iu], rows[:, ju]].max(axis=1))
    det = np.linalg.det(gram[rows[:, :, None], rows[:, None, :]])
    cap = k ** 3 / 2.0 ** (k - 1) * float(gamma0) ** (2 * k)
    return rows[det < cap * delta_sq ** k * (1.0 + 1e-9)]
