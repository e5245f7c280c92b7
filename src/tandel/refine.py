"""Refinement loop: grow the sample until every star is small and fat.

Two rules drive the loop, always in priority order.  Rule 1 fires on a
"big" configuration -- a cell corner at tangent distance >= epsilon
from its base (box-supported corners count on compact manifolds, where
an unbounded cell can only mean a coverage hole).  It inserts the
manifold point under the corner.  Rule 2 fires on a "bad" simplex --
one that fails the gamma0 quality test, either inside a star or among
the almost-cospherical simplices seen from a star -- and inserts a
point picked uniformly from a ball around the offending center, redrawn
until it is not a vertex of any small thin simplex (a "hitting set").
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import flake_candidates
from .errors import (
    AttemptBudgetExhausted,
    HypothesesFailed,
    IterationCap,
    NoConvergence,
    OutOfChart,
    PickAuditFailed,
    SparsityViolation,
)
from .geometry import (
    GammaClass,
    affine_ranks,
    classify_gamma,
    min_weighted_radius,
)
from .manifolds import Manifold, SampleSet, lift_from_tangent
from .stars import (TangentialComplex, _cosph_scan, assemble_complex,
                    cosph_star)

# how far past reach/2 a chart lift may be attempted before shrinking
_CHART_SLACK = 2.0

MU0 = 1.0 / 9.0
EPS_TILDE0 = 1.0 / 4624.0  # = 1 / (2^4 (2^4 + 1)^2)


# ===== parameters =====

@dataclass
class Parameters:
    """Run parameters.  Construction is lenient; check_hypotheses judges.

    No parameter sets how far an insertion reaches: ``insert`` rebuilds
    exactly the stars whose cells the new site cuts, and derives its
    cosph witness radius from epsilon and delta0.
    """
    epsilon: float
    gamma0: float
    alpha: float
    beta: float
    delta0: float
    mode: str = "practical"
    seed: int = 0
    pick_attempt_budget: int = 1000
    iteration_cap: int = 10 ** 6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.gamma0 < 1.0:
            raise ValueError("gamma0 must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        self.mode = str(self.mode).lower()
        if self.mode not in ("strict", "practical"):
            raise ValueError("mode must be 'strict' or 'practical'")
        if self.pick_attempt_budget < 1 or self.iteration_cap < 1:
            raise ValueError("budgets must be at least 1")


_PARAM_ORDER = ("epsilon", "gamma0", "alpha", "beta", "delta0", "mode",
                "seed", "pick_attempt_budget", "iteration_cap")
_PARAM_TYPES = {"epsilon": float, "gamma0": float, "alpha": float,
                "beta": float, "delta0": float, "mode": str, "seed": int,
                "pick_attempt_budget": int, "iteration_cap": int}


def read_parameters(path) -> Parameters:
    """Parse a `key = value` parameter file (# starts a comment)."""
    got = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _PARAM_TYPES:
                raise ValueError(f"{path}:{ln}: unknown parameter {key!r}")
            got[key] = _PARAM_TYPES[key](val)
    return Parameters(**got)


def write_parameters(path, params: Parameters):
    with open(path, "w") as fh:
        for key in _PARAM_ORDER:
            val = getattr(params, key)
            if isinstance(val, float):
                fh.write(f"{key} = {val:.17g}\n")
            else:
                fh.write(f"{key} = {val}\n")


# ===== derived constants and hypotheses =====

def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


@dataclass(frozen=True)
class DerivedConstants:
    mu0: float
    eps_tilde0: float
    beta_prime: float
    b_hyp: float
    b_lemma: float
    xi: float
    a_vol: float
    e_bound: float
    d_vol: float
    eps_tilde: float
    nu_m: float

    @property
    def b_eff(self) -> float:
        return max(self.b_hyp, self.b_lemma)


def derive_constants(params: Parameters, manifold: Manifold,
                     xi: float | None = None,
                     a_vol: float | None = None) -> DerivedConstants:
    """All quantities downstream bounds need, from (params, manifold).

    ``xi`` is the tubular-neighborhood margin used when comparing charts
    (default reach/16) and ``a_vol`` the chart-overlap multiplicity
    bound (default 2^m); both are heuristics and may be overridden.
    """
    m = manifold.m
    rch = manifold.reach
    beta = params.beta
    beta_prime = beta / (1.0 - 16.0 * EPS_TILDE0)
    b_hyp = 4.0 + 2.0 * (1.0 + 1152.0 * beta ** 2) ** 2
    b_lemma = 4.0 + 96.0 * beta * (1.0 + 1152.0 * beta ** 2)
    if a_vol is None:
        a_vol = float(2 ** m)
    if xi is None:
        xi = rch / 16.0
        xi_tilde = 1.0 / 16.0
    else:
        xi_tilde = xi / rch if math.isfinite(rch) else 0.0
    ax = a_vol * xi_tilde
    if ax >= 1.0:
        raise ValueError(
            f"overlap bound times chart margin must stay below 1 (got {ax:g})")
    e_bound = 2.0 * ((1.0 + ax) / (1.0 - ax)) * (
        18.0 * (params.alpha + 2.0 * beta_prime + 6.5 * EPS_TILDE0) + 1.0) ** m
    nu_m = unit_ball_volume(m)
    b_eff = max(b_hyp, b_lemma)
    d_vol = nu_m * ((b_eff + 1.0) * 2 ** m + a_vol * (2 ** (m + 1) + 1))
    eps_tilde = params.epsilon / rch if math.isfinite(rch) else 0.0
    return DerivedConstants(
        mu0=MU0, eps_tilde0=EPS_TILDE0, beta_prime=beta_prime,
        b_hyp=b_hyp, b_lemma=b_lemma, xi=xi, a_vol=a_vol,
        e_bound=e_bound, d_vol=d_vol, eps_tilde=eps_tilde, nu_m=nu_m)


@dataclass(frozen=True)
class HypothesisItem:
    name: str
    satisfied: bool
    value: float
    bound: float
    note: str = ""


@dataclass(frozen=True)
class HypothesisReport:
    mode: str
    ok: bool
    items: tuple

    def failed(self):
        return [it.name for it in self.items if not it.satisfied]

    def item(self, name: str) -> HypothesisItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def check_hypotheses(params: Parameters, manifold: Manifold,
                     constants: DerivedConstants | None = None
                     ) -> HypothesisReport:
    """Evaluate the six parameter conditions the guarantees rest on.

    In strict mode the report is ok only when all six hold.  Practical
    mode demands the two structural ones (alpha < 1/2 and the beta
    floor) plus delta0 < 1/4, and records the rest as margins.
    """
    if constants is None:
        constants = derive_constants(params, manifold)
    m = manifold.m
    a, b, g0, d0 = params.alpha, params.beta, params.gamma0, params.delta0
    items = []

    items.append(HypothesisItem(
        "H0", a < 0.5, a, 0.5, "alpha below one half"))

    h1_bound = 2.0 / ((1.0 - d0 ** 2) * (1.0 - a - 4.5 * EPS_TILDE0))
    items.append(HypothesisItem(
        "H1", b >= h1_bound, b, h1_bound, "beta floor"))

    b_eff = constants.b_eff
    h2_bound = min(
        constants.nu_m * a ** m /
        (constants.e_bound ** (m + 1) * b ** m * constants.d_vol),
        1.0 / (b_eff + 1.0))
    items.append(HypothesisItem(
        "H2", g0 < h2_bound, g0, h2_bound, "gamma0 ceiling"))

    h3_bound = g0 ** (m + 1)
    items.append(HypothesisItem(
        "H3", d0 ** 2 <= h3_bound, d0 ** 2, h3_bound,
        "delta0 squared under gamma0^(m+1)"))

    if math.isfinite(manifold.reach):
        xi_tilde = constants.xi / manifold.reach
    else:
        xi_tilde = 1.0 / 16.0
    h4_bound = min(xi_tilde / (2.0 * (b + constants.beta_prime)),
                   g0 ** (m + 1) / (8.0 * b))
    items.append(HypothesisItem(
        "H4", constants.eps_tilde <= h4_bound, constants.eps_tilde, h4_bound,
        "scale fits the chart margin and quality budget"))

    h5_bound = d0 ** 2 * g0 ** (2 * m) / 1.1e9
    items.append(HypothesisItem(
        "H5", constants.eps_tilde <= h5_bound, constants.eps_tilde, h5_bound,
        "scale small enough for protection"))

    if params.mode == "strict":
        ok = all(it.satisfied for it in items)
    else:
        ok = items[0].satisfied and items[1].satisfied and d0 < 0.25
    return HypothesisReport(mode=params.mode, ok=ok, items=tuple(items))


# ===== configurations =====

class ConfigKind(enum.Enum):
    BIG = "big"
    BAD_STAR = "bad_star"
    BAD_COSPH = "bad_cosph"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class UnfitConfiguration:
    kind: ConfigKind
    base: int
    simplex: tuple | None   # None for a box-supported corner
    radius: float
    target: np.ndarray      # tangent coordinates of the driving center


class RefinementState:
    """Everything the loop mutates: complex, cosph records, logs, caches."""

    def __init__(self, cplx: TangentialComplex, params: Parameters,
                 constants: DerivedConstants):
        self.complex = cplx
        self.params = params
        self.constants = constants
        self.cosph = {}
        self.events: list[dict] = []
        self.counters = {
            "rule1": 0, "rule2_star": 0, "rule2_cosph": 0,
            "rule2_inconsistent": 0,
            "pick_attempts": 0, "pick_audit_miss": 0, "shrinks": 0,
            "iterations": 0,
        }
        self.pick_counter = 0
        self.final_audit = None

    @property
    def event_log(self) -> list[str]:
        """One line per insertion, formatted from ``events``."""
        return [_event_line(e) for e in self.events]

    @property
    def manifold(self):
        return self.complex.manifold

    @property
    def epsilon(self) -> float:
        return self.complex.epsilon

    def gamma_class(self, simplex) -> GammaClass:
        return self.complex.gamma_class(simplex, self.params.gamma0)

    def refresh_cosph(self, p: int):
        self.cosph[p] = cosph_star(p, self.params.delta0, self.complex,
                                   self.params.gamma0)


def make_state(sample: SampleSet, manifold: Manifold, params: Parameters,
               constants: DerivedConstants | None = None) -> RefinementState:
    """Assemble the complex, the cosph records, and gate on the hypotheses."""
    if constants is None:
        constants = derive_constants(params, manifold)
    report = check_hypotheses(params, manifold, constants)
    if not report.ok:
        raise HypothesesFailed(
            f"{params.mode} mode rejects parameters: {report.failed()}")
    if abs(sample.epsilon - params.epsilon) > 1e-12 * params.epsilon:
        sample = SampleSet(points=sample.points, epsilon=params.epsilon,
                           sparsity=sample.sparsity)
    cplx = assemble_complex(sample, manifold)
    state = RefinementState(cplx, params, constants)
    for p in cplx.stars:
        state.refresh_cosph(p)
    return state


def _tangent_of(star, c):
    return star.chart.frame.basis @ (np.asarray(c) - star.chart.base)


def _star_bigs(state: RefinementState, p: int):
    """Big configurations of one star: real corners with R >= eps first
    (lex by simplex), then box-supported corners (compact manifolds only)."""
    star = state.complex.stars[p]
    eps = state.epsilon
    out = []
    for s in sorted(star.m_simplices()):
        c, r = star.centers[s]
        if r >= eps:
            out.append(UnfitConfiguration(
                ConfigKind.BIG, p, s, r, _tangent_of(star, c)))
    if math.isfinite(state.manifold.reach):
        synth = [t for t, s in zip(star.corners, star.corner_simplex)
                 if s is None]
        synth.sort(key=lambda t: tuple(np.round(t, 12)))
        for t in synth:
            out.append(UnfitConfiguration(
                ConfigKind.BIG, p, None, float(np.linalg.norm(t)),
                np.asarray(t, dtype=float)))
    return out


def _star_bad_stars(state: RefinementState, p: int):
    star = state.complex.stars[p]
    out = []
    for s in sorted(star.m_simplices()):
        if state.gamma_class(s) is not GammaClass.GOOD:
            c, r = star.centers[s]
            out.append(UnfitConfiguration(
                ConfigKind.BAD_STAR, p, s, r, _tangent_of(star, c)))
    return out


def _star_bad_cosph(state: RefinementState, p: int):
    # Every cosphericity entry is unfit, not only the thin ones: on a
    # curved manifold a near-cocircular quadruple lifts into a perfectly
    # thick (m+1)-simplex, yet leaving it in place lets neighboring
    # stars disagree about the diagonal and the union complex pinches.
    # The pick is driven by the tangent ball of the entry's generator
    # sigma.  first_unfit reaches this scan only once no star has a big
    # or bad m-simplex, so every sigma under tau was scanned and the
    # generator is the smallest-gap one among all of them.
    star = state.complex.stars[p]
    entries = state.cosph[p]
    out = []
    for tau in sorted(entries):
        c, r = star.centers[entries[tau][1]]
        out.append(UnfitConfiguration(
            ConfigKind.BAD_COSPH, p, tau, r, _tangent_of(star, c)))
    return out


def _star_inconsistent(state: RefinementState, p: int):
    """Star m-simplices of p that some other vertex's star rejects.

    Protection makes these impossible once the sample is fine enough;
    at coarse scale they do occur and are refined away like any other
    unfit configuration (inserting inside the driving tangent ball
    removes the contested simplex from the star that claims it).
    """
    star = state.complex.stars[p]
    stars = state.complex.stars
    out = []
    for s in sorted(star.m_simplices()):
        if any(q != p and s not in stars[q].centers for q in s):
            c, r = star.centers[s]
            out.append(UnfitConfiguration(
                ConfigKind.INCONSISTENT, p, s, r, _tangent_of(star, c)))
    return out


def classify_configurations(state: RefinementState):
    """All currently unfit configurations, in processing order."""
    bases = sorted(state.complex.stars)
    out = []
    for p in bases:
        out.extend(_star_bigs(state, p))
    for p in bases:
        out.extend(_star_bad_stars(state, p))
    for p in bases:
        out.extend(_star_bad_cosph(state, p))
    for p in bases:
        out.extend(_star_inconsistent(state, p))
    return out


def first_unfit(state: RefinementState) -> UnfitConfiguration | None:
    """First entry of classify_configurations, without building the list."""
    bases = sorted(state.complex.stars)
    for scan in (_star_bigs, _star_bad_stars, _star_bad_cosph,
                 _star_inconsistent):
        for p in bases:
            got = scan(state, p)
            if got:
                return got[0]
    return None


# ===== picking =====

def find_hitting_set(x, r_ref: float, state: RefinementState):
    """Smallest-lex simplex sigma of sample points such that x * sigma
    is a gamma0 flake carrying a small weighted ball (radius < beta*R).

    Returns the vertex tuple or None.  For every subset size k from 2
    to m + 1, one ``flake_candidates`` call gives the k-subsets whose
    simplex with x has every edge short enough and is thin enough to be
    a flake, in lexicographic order; smaller k are scanned first.  The
    weights are capped at delta0 * L, so every edge of a hit with
    weighted radius r < r_cap is at most 2r / sqrt(1 - 4 delta0^2), and
    the prefilter drops no hit.

    Candidates are judged degenerate-first: one batched ``affine_ranks``
    call per subset size drops every tau = sigma + (x,) below full
    affine rank, and only the survivors get the gamma0 classification
    and the weighted radius, in the same order as the candidates.  The
    verdict is the one a classify-first scan gives: a degenerate tau has
    no sphere in its affine hull, so ``min_weighted_radius`` raises
    ``DegenerateSimplex`` on it by the same rank rule, and such a tau
    was never a hit; ``classify_gamma`` has no side effects.  On the
    flat patch every tau with four vertices is coplanar, so this skips
    all of them without a single SVD per face.
    """
    params = state.params
    pts = state.complex.points
    m = state.manifold.m
    # A flake only matters if it can later surface as a refinement
    # target, and rule priority keeps every target's tangent-centered
    # radius below epsilon, so the target's witness ball has radius at
    # most epsilon * sqrt(1 + (2*delta0/(1-delta0^2))^2), which
    # epsilon / (1 - 4*delta0^2) dominates.  Capping the search there
    # is what keeps the rejection test meaningful on round manifolds:
    # every sample quadruple on a sphere is exactly cospherical at
    # radius rch, so once beta*R exceeds rch the forbidden zones of
    # globe-spanning quadruples would blanket the whole picking region
    # and no candidate would ever be accepted.
    r_cap = min(params.beta * r_ref,
                params.epsilon / (1.0 - 4.0 * params.delta0 ** 2))
    edge_scale = 1.0 / math.sqrt(1.0 - 4.0 * params.delta0 ** 2)
    r_query = 2.0 * r_cap * edge_scale * (1.0 + 1e-9)
    cand = np.array(
        sorted(state.complex.tree.query_ball_point(np.asarray(x), r_query)),
        dtype=np.int64)
    if not len(cand):
        return None
    cand_pts = pts[cand]
    x = np.asarray(x, dtype=float)
    pts_aug = np.vstack([pts, x[None]])
    x_idx = len(pts)

    for k in range(2, m + 2):
        rows = flake_candidates(x, cand_pts, params.gamma0,
                                r_cap * edge_scale, k)
        taus = np.column_stack([cand[rows], np.full(len(rows), x_idx)])
        full_rank = affine_ranks(taus, pts_aug) == rows.shape[1]
        for row in taus[full_rank].tolist():
            tau = tuple(row)
            if classify_gamma(tau, params.gamma0,
                              pts_aug) is not GammaClass.FLAKE:
                continue
            rmin, _w = min_weighted_radius(tau, pts_aug, params.delta0)
            if rmin < r_cap:
                return tau[:-1]
    return None


def _pick_audit(x, config: UnfitConfiguration, state: RefinementState):
    """Distance checks a valid pick must satisfy under the hypotheses."""
    star = state.complex.stars[config.base]
    c = star.chart.base + star.chart.frame.basis.T @ config.target
    r_ref = config.radius
    a = state.params.alpha
    slack = 4.5 * EPS_TILDE0
    d_center = float(np.linalg.norm(np.asarray(x) - c))
    d_sample = float(state.complex.tree.query(np.asarray(x))[0])
    ok_center = d_center <= (a + slack) * r_ref * (1.0 + 1e-12)
    floor = (1.0 - a - slack) * r_ref
    ok_sample = d_sample >= floor * (1.0 - 1e-12) and d_sample > r_ref / 3.0
    return (ok_center and ok_sample,
            f"|x-c|={d_center:.6g} cap={(a + slack) * r_ref:.6g} "
            f"d(x,P)={d_sample:.6g} floor={floor:.6g}")


def pick_valid(config: UnfitConfiguration, state: RefinementState):
    """Draw from the picking region until no hitting set exists.

    Raises:
        AttemptBudgetExhausted: every draw within the budget was a
            vertex of some small flake.
        PickAuditFailed: strict mode only -- the accepted point misses
            the distance bounds the guarantees promise.
    """
    params = state.params
    star = state.complex.stars[config.base]
    chart = star.chart
    m = state.manifold.m
    rch = state.manifold.reach
    cap = _CHART_SLACK * rch / 2.0 if math.isfinite(rch) else None
    rng = np.random.default_rng([params.seed, state.pick_counter])
    state.pick_counter += 1
    t_c = np.asarray(config.target, dtype=float)
    r_pick = params.alpha * config.radius
    for _ in range(params.pick_attempt_budget):
        state.counters["pick_attempts"] += 1
        direction = rng.normal(size=m)
        norm = np.linalg.norm(direction)
        if norm < 1e-300:
            continue
        y = t_c + direction / norm * r_pick * rng.uniform() ** (1.0 / m)
        try:
            x = lift_from_tangent(chart, y, max_radius=cap)
        except (OutOfChart, NoConvergence):
            continue
        if find_hitting_set(x, config.radius, state) is not None:
            continue
        ok, detail = _pick_audit(x, config, state)
        if not ok:
            if params.mode == "strict":
                raise PickAuditFailed(detail)
            state.counters["pick_audit_miss"] += 1
        return x
    raise AttemptBudgetExhausted(
        f"no valid pick in {params.pick_attempt_budget} attempts "
        f"(base={config.base}, kind={config.kind.value})")


# ===== insertion =====

def _witness_radius(epsilon: float, delta0: float) -> float:
    """Farthest an inserted site can be from a star's base and still give
    that star a new cosph entry.

    An entry needs a good m-simplex sigma of St(p) with tangent ball
    (c, r), r < epsilon and |c - p| = r, and a gap 0 <= |x - c|^2 - r^2
    <= (delta0 * L)^2.  Every vertex of sigma lies at distance r from c,
    so L <= 2r and |x - c| <= r * sqrt(1 + 4 delta0^2); hence
    |x - p| < epsilon * (1 + sqrt(1 + 4 delta0^2)), about 2.005 epsilon
    at delta0 = 0.05.  The factor 1 + 1e-6 covers the centre of a
    degenerate corner, whose vertices are equidistant from it only up to
    the 1e-7 residual that ``tangent_center`` accepts.
    """
    return epsilon * (1.0 + math.sqrt(1.0 + 4.0 * delta0 ** 2)) * (1.0 + 1e-6)


def _event_line(event: dict) -> str:
    rule, base, d = event["rule"], event["base"], event["dist"]
    simplex = event["simplex"]
    ids = "synthetic" if simplex is None else ",".join(str(v) for v in simplex)
    coords = ",".join(f"{v:.17g}" for v in event["x"])
    return f"{rule} base={base} simplex={ids} inserted={coords} dist_to_P={d:.17g}"


def insert(x, state: RefinementState, rule: str = "RULE2",
           base: int = -1, simplex=None) -> dict:
    """Insert x into the complex and keep every cache coherent.

    ``insert_point`` rebuilds exactly the stars x cuts; they and the new
    star get fresh cosph records.  Of the others, only those within
    ``_witness_radius`` of x can gain a cosph entry with x as witness, so
    only they are scanned, against x alone.  Every entry that scan adds
    contains x, so it joins the record without meeting an old one.

    Raises:
        SparsityViolation: x sits within mu0 * epsilon of the sample,
            which would break the packing argument (always fatal).
    """
    x = np.asarray(x, dtype=float)
    d = float(state.complex.tree.query(x)[0])
    floor = state.constants.mu0 * state.epsilon
    if d <= floor:
        raise SparsityViolation(
            f"insertion at distance {d:.6g} <= mu0*eps = {floor:.6g}")
    info = state.complex.insert_point(x)
    x_idx = info["index"]
    for p in info["recomputed"]:
        state.refresh_cosph(p)
    state.refresh_cosph(x_idx)
    r_witness = _witness_radius(state.epsilon, state.params.delta0)
    skip = set(info["recomputed"]) | {x_idx}
    # the query is a hair wider so that the strict test below decides
    hits = state.complex.tree.query_ball_point(x, r_witness * (1.0 + 1e-9))
    near = np.array(sorted(p for p in hits if p not in skip), dtype=np.intp)
    dist = np.linalg.norm(state.complex.points[near] - x, axis=1)
    params = state.params
    for p in near[dist < r_witness].tolist():
        state.cosph[p].update(_cosph_scan(
            state.complex, p, params.delta0, params.gamma0, sites=(x_idx,)))
    state.events.append({"rule": rule, "base": base, "simplex": simplex,
                         "x": x, "dist": d, "index": x_idx,
                         "recomputed": info["recomputed"]})
    return info


def _rule1(state: RefinementState, config: UnfitConfiguration):
    """Insert the manifold point under a big corner, shrinking toward
    the base until the lift lands strictly inside the corner ball."""
    star = state.complex.stars[config.base]
    chart = star.chart
    rch = state.manifold.reach
    cap = _CHART_SLACK * rch / 2.0 if math.isfinite(rch) else None
    t_star = np.asarray(config.target, dtype=float)
    c = chart.base + chart.frame.basis.T @ t_star
    r = config.radius
    s = 1.0
    for _ in range(400):
        y = s * t_star
        try:
            x = lift_from_tangent(chart, y, max_radius=cap)
        except (OutOfChart, NoConvergence):
            state.counters["shrinks"] += 1
            s *= 0.85
            continue
        if np.linalg.norm(x - c) < r * (1.0 - 1e-12):
            state.counters["rule1"] += 1
            return insert(x, state, rule="RULE1", base=config.base,
                          simplex=config.simplex)
        state.counters["shrinks"] += 1
        s *= 0.85
    raise NoConvergence(
        f"rule 1 failed to land inside the corner ball at base {config.base}")


def refine(state: RefinementState) -> RefinementState:
    """Run the two rules to quiescence (rule 1 always first).

    Raises:
        IterationCap: the loop exceeded params.iteration_cap.
    """
    params = state.params
    if not 0.0 < params.delta0 < 0.25:
        raise HypothesesFailed("refinement needs 0 < delta0 < 1/4")
    for _ in range(params.iteration_cap):
        state.counters["iterations"] += 1
        config = first_unfit(state)
        if config is None:
            state.final_audit = _final_audit(state)
            return state
        if config.kind is ConfigKind.BIG:
            _rule1(state, config)
        else:
            x = pick_valid(config, state)
            key = {ConfigKind.BAD_STAR: "rule2_star",
                   ConfigKind.BAD_COSPH: "rule2_cosph",
                   ConfigKind.INCONSISTENT: "rule2_inconsistent"}[config.kind]
            state.counters[key] += 1
            insert(x, state, rule="RULE2", base=config.base,
                   simplex=config.simplex)
    raise IterationCap(f"no quiescence within {params.iteration_cap} iterations")


def refine_sample(sample: SampleSet, manifold: Manifold,
                  params: Parameters) -> RefinementState:
    """Convenience wrapper: build the state and refine it."""
    return refine(make_state(sample, manifold, params))


def _final_audit(state: RefinementState) -> dict:
    """Post-quiescence measurements recorded for reporting."""
    eps = state.epsilon
    radii = []
    bad = 0
    for star in state.complex.stars.values():
        for s in star.m_simplices():
            _c, r = star.centers[s]
            radii.append(r)
            if state.gamma_class(s) is not GammaClass.GOOD:
                bad += 1
    taus = [tau for entries in state.cosph.values() for tau in entries]
    bad_entries = [t for t in taus
                   if state.gamma_class(t) is not GammaClass.GOOD]
    pts = state.complex.points
    if len(pts) > 1:
        d_nn = state.complex.tree.query(pts, k=2)[0][:, 1]
        min_pair = float(d_nn.min())
    else:
        min_pair = float("inf")
    return {
        "max_center_radius": max(radii) if radii else 0.0,
        "radius_ok": (not radii) or max(radii) < eps,
        "bad_m_simplices": bad,
        "cosph_entries": len(taus),
        "bad_cosph_entries": len(bad_entries),
        "inconsistencies": len(state.complex.consistency_report()),
        "min_pairwise_distance": min_pair,
        "sparsity_ok": min_pair > state.constants.mu0 * eps,
    }
