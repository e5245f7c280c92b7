"""Hot numeric kernels of the rule-2 hitting set.

The flake scans go over candidate point pairs and triples around a
prospective insertion and keep the thin ("flake") simplices.  Each
has one numpy implementation.
"""
from __future__ import annotations

import numpy as np


def using_numba() -> bool:
    """Always False: the kernels are numpy only.

    Kept because the benchmark records it in its environment line.
    """
    return False


# ===== flake pair scan =====
#
# A triangle (x, q_i, q_j) with nondegenerate edges is a flake exactly
# when its area / diameter^2 falls below gamma0^2; and any weighted
# circumradius of it is at least half the shortest edge, so pairs whose
# shortest edge reaches 2 * r_cap can never meet the radius bound.
# Survivors are re-verified exactly downstream, hence the small slack.

def flake_pair_candidates(x: np.ndarray, cand: np.ndarray,
                          gamma0: float, r_cap: float) -> np.ndarray:
    """Index pairs (i, j) into ``cand`` whose triangle with apex ``x``
    might be a flake with some weighted circumradius below ``r_cap``.

    A slightly permissive prefilter: every true hit is returned, plus
    borderline near-misses that exact re-checks are expected to discard.
    """
    x = np.asarray(x, dtype=float)
    cand = np.asarray(cand, dtype=float).reshape(-1, x.shape[0])
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


# ===== flake triple scan =====
#
# A 3-simplex (x, q_i, q_j, q_l) can only be a flake with a weighted
# circumradius below r_cap when (a) its shortest edge is below
# 2 * r_cap, and (b) its thickness is below gamma0^3, which forces
# 6 * volume = sqrt(det Gram) under (27/4)^(1/2) * gamma0^3 * Delta^3.
# Both are cheap necessary conditions; survivors get exact re-checks.

def flake_triple_candidates(x: np.ndarray, cand: np.ndarray,
                            gamma0: float, r_cap: float) -> np.ndarray:
    """Index triples (i, j, l) into ``cand`` whose 3-simplex with apex
    ``x`` might be a flake with some weighted circumradius below r_cap.

    Permissive prefilter, same contract as ``flake_pair_candidates``.
    """
    x = np.asarray(x, dtype=float)
    cand = np.asarray(cand, dtype=float).reshape(-1, x.shape[0])
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
