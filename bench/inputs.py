"""Seeded inputs for the benchmark workloads.

Every generator here takes its seed from the benchmark's ``--seed``
argument (through ``unit_seed``) and hands the program only points and
parameters.  They are kept apart from the test suite on purpose: a later
edit to a test fixture must not silently change what the benchmark
measures.
"""
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from tandel import manifolds
from tandel.refine import MU0, Parameters

FLAT = manifolds.FlatPatch(2, 3)

# torus-mesh: the end-to-end refinement parameters of the acceptance suite
TORUS_SPEC = "torus:R=2,r=0.5"
TORUS_DENSE_N = 60_000
# every run meshes the net of this dense-sample seed, turned about the
# torus axis by an angle drawn from the run seed (see torus_net)
TORUS_NET_SEED = 11
TORUS_PARAMS = dict(epsilon=0.3, gamma0=0.05, alpha=0.25, beta=4.5,
                    delta0=0.05, mode="practical")

# lattice-pick: the rule-priority patch, where rule-2 picking dominates
LATTICE_PARAMS = dict(epsilon=0.5, gamma0=0.3, alpha=0.25, beta=4.5,
                      delta0=0.05, mode="practical")

# flat-oracle: the flat-patch exactness setting
FLAT_EPSILON = 0.25
WITNESS_STEP = 0.03
WITNESS_EXTENT = 1.3
GRAPH_STEP = 0.025

# Unit j of a run uses seed + j * _UNIT_STRIDE, so unit 0 reproduces the
# input of a single-seed run and no two runs with small seeds share one.
_UNIT_STRIDE = 1_000_003


def unit_seed(seed: int, j: int) -> int:
    return seed + j * _UNIT_STRIDE


def protection_threshold(params: Parameters) -> float:
    """delta0^2 mu0^2 eps^2, the margin `tandel mesh` audits against."""
    return params.delta0 ** 2 * MU0 ** 2 * params.epsilon ** 2


# ===== torus-mesh =====

def torus_net(seed: int) -> np.ndarray:
    """Farthest-point net at epsilon of one dense torus sample, turned
    about the torus axis by an angle drawn from seed.

    The torus is symmetric about its axis, so every seed gives a net of
    the same shape in other coordinates, and the refinement does the
    same work on each.  Nets of fresh dense samples needed 66 to 96
    insertions over ten seeds, which moved mesh_s by about 18% from seed
    to seed before any machine noise; a run has room for only two or
    three meshes, too few to average that out.
    """
    manifold = manifolds.parse_manifold(TORUS_SPEC)
    dense = manifold.sample(TORUS_DENSE_N, TORUS_NET_SEED)
    net = manifolds.farthest_point_net(
        dense, eps=TORUS_PARAMS["epsilon"], seed=TORUS_NET_SEED)
    theta = 2.0 * math.pi * np.random.default_rng(seed).random()
    c, s = math.cos(theta), math.sin(theta)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return net.points @ turn.T


# ===== lattice-pick =====

def lattice_patch():
    """Triangular lattice with two engineered defects: a removed vertex
    whose hexagonal rim is exactly cocircular, and a planted thin
    triangle whose circumdisk bulges into its own emptied cavity.

    Each defect costs exactly one rule-2 pick at every pick seed (one
    cosph, one star), so the seed moves where the picks land but not how
    many there are.  The rule-priority patch of the acceptance suite also
    has a void; its rule-1 vertex sits on a cocircular rim, and the chain
    of 3 to 7 cosph picks that follows varies with the seed and made the
    refinement time vary by 2x from seed to seed.
    """
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

    pts = drop_near(pts, (3.0 * s, s * math.sqrt(3.0)), 0.05)
    c_flake = (-3.0 * s, s * math.sqrt(3.0))
    pts = drop_near(pts, c_flake, 0.05)
    mid_y = c_flake[1] - s * math.sqrt(3.0) / 2.0
    apex = (c_flake[0], mid_y - 0.06, 0.0)
    return np.vstack([pts, [apex]])


# ===== flat-oracle =====

def flat_sites(seed: int, n_ring: int = 25, r_ring: float = 0.85,
               eps_in: float = 0.11):
    """Planar sites with bounded circumcenters: exact-circle rim + net.

    Any three rim points are exactly cocircular on the rim circle, whose
    disk contains interior sites, so rim triples are never Delaunay and
    every Delaunay circumcenter stays near the disk.  That keeps the
    witness domain for the scan oracles finite.
    """
    ang = 2 * np.pi * (np.arange(n_ring) + 0.37 * seed) / n_ring
    ring = np.column_stack([r_ring * np.cos(ang), r_ring * np.sin(ang),
                            np.zeros(n_ring)])
    cloud = FLAT.sample(2500, seed=seed, extent=1.3) - np.array(
        [0.65, 0.65, 0.0])
    cloud = cloud[np.linalg.norm(cloud[:, :2], axis=1) < r_ring - 0.12]
    net = manifolds.farthest_point_net(cloud, eps=eps_in, seed=seed)
    return np.vstack([ring, net.points])


def witness_grid(step: float = WITNESS_STEP, extent: float = WITNESS_EXTENT):
    """Square grid of restricted-oracle witnesses over the patch."""
    ax = np.arange(-extent, extent + step, step)
    gx, gy = np.meshgrid(ax, ax)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])


def flat_geodesic_graph(sites, step: float = GRAPH_STEP):
    """Grid-plus-sites graph over the disk and the intrinsic-oracle band.

    The band adds twice the measured worst path overestimate (zigzag
    along grid edges) to twice the node covering radius.
    """
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
    graph = manifolds.GeodesicGraph(points=nodes, h=h, matrix=mat, tree=tree)
    return graph, band

