"""Refinement loop: grow the sample until every star is small and fat.

Each iteration takes the first unfit configuration, gets a point by the
rule ``RULES`` names for its kind, counts it and inserts it.  Rule 1
fires first, on a "big" configuration -- a cell corner at tangent
distance >= epsilon from its base (box-supported corners count on
compact manifolds, where an unbounded cell can only mean a coverage
hole) -- and its point is the manifold point under the corner.  Rule 2
fires on a "bad" simplex -- one that fails the gamma0 quality test,
either inside a star or among the almost-cospherical simplices seen
from a star -- and its point is picked uniformly from a ball around the
offending center, redrawn until it is not a vertex of any small thin
simplex (a "hitting set").

Both rule-2 tests are refinement policy and live with the refinement
state: the gamma0 class of a simplex is cached in
``RefinementState.gamma_classes``, and the almost-cospherical records of
a list of stars come from one stacked ``_cosph_scan`` over the state's
delta0 and gamma0.  ``stars`` holds star geometry only.
"""
from __future__ import annotations

import dataclasses
import enum
import itertools
import math
import typing
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
from .geometry import (  # noqa: F401 - classify_gamma is re-exported
    ElementaryWeight,
    GammaClass,
    _edge_lengths,
    affine_ranks,
    classify_gamma,
    gamma_classes,
    min_weighted_radius,
)
from .manifolds import Manifold, SampleSet, closest_pair, lift_from_tangent
from .stars import TangentialComplex, assemble_complex

MU0 = 1.0 / 9.0
EPS_TILDE0 = 1.0 / 4624.0  # = 1 / (2^4 (2^4 + 1)^2)
XI_TILDE = 1.0 / 16.0  # chart margin xi over the reach
# iterations ``refine`` runs before it gives up with IterationCap
ITERATION_CAP = 10 ** 6
# draws ``pick_valid`` makes before it gives up with AttemptBudgetExhausted
PICK_ATTEMPT_BUDGET = 1000


# ===== parameters =====

@dataclass
class Parameters:
    """Run parameters.  Construction is lenient; check_hypotheses judges.

    No parameter sets how far an insertion reaches: ``insert`` updates
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

    def __post_init__(self):
        # NaN fails every comparison, so the negated tests refuse it too
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.gamma0 < 1.0:
            raise ValueError("gamma0 must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        self.mode = str(self.mode).lower()
        if self.mode not in ("strict", "practical"):
            raise ValueError("mode must be 'strict' or 'practical'")
        # numpy seeds the pick generators with no negative int
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, "
                             f"got {self.seed!r}")


def read_parameter_file(path) -> dict:
    """The values a `key = value` parameter file gives (# starts a
    comment), typed as ``Parameters`` types them; a bad line raises
    ValueError naming ``path:line``."""
    types = typing.get_type_hints(Parameters)
    got = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{ln}: unknown parameter {key!r}")
            if key in got:
                raise ValueError(f"{path}:{ln}: repeated parameter {key!r}")
            try:
                got[key] = types[key](val)
            except ValueError:
                raise ValueError(f"{path}:{ln}: {key} = {val!r} does not "
                                 f"parse as {types[key].__name__}") from None
    return got


def read_parameters(path) -> Parameters:
    """The ``Parameters`` of a parameter file, which may leave out only
    the fields with a default (else ValueError naming ``path``)."""
    got = read_parameter_file(path)
    missing = [f.name for f in dataclasses.fields(Parameters)
               if f.name not in got and f.default is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{path}: missing parameters {', '.join(missing)}")
    return Parameters(**got)


def write_parameters(path, params: Parameters):
    """Write params as a `key = value` parameter file: the inverse of
    ``read_parameters``, which reads it back to equal parameters (floats
    are written with 17 significant digits)."""
    with open(path, "w") as fh:
        for key, val in dataclasses.asdict(params).items():
            fh.write(f"{key} = {val:.17g}\n" if isinstance(val, float)
                     else f"{key} = {val}\n")


# ===== derived constants and hypotheses =====

def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


@dataclass(frozen=True)
class DerivedConstants:
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


def derive_constants(params: Parameters, manifold: Manifold
                     ) -> DerivedConstants:
    """All quantities downstream bounds need, from (params, manifold).

    ``xi`` is the tubular-neighborhood margin used when comparing charts,
    ``XI_TILDE`` times the reach, and ``a_vol`` the chart-overlap
    multiplicity bound 2^m; both are heuristics.
    """
    m = manifold.m
    rch = manifold.reach
    beta = params.beta
    beta_prime = beta / (1.0 - 16.0 * EPS_TILDE0)
    b_hyp = 4.0 + 2.0 * (1.0 + 1152.0 * beta ** 2) ** 2
    b_lemma = 4.0 + 96.0 * beta * (1.0 + 1152.0 * beta ** 2)
    a_vol = float(2 ** m)
    xi = rch * XI_TILDE
    ax = a_vol * XI_TILDE
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
        beta_prime=beta_prime, b_hyp=b_hyp, b_lemma=b_lemma, xi=xi,
        a_vol=a_vol, e_bound=e_bound, d_vol=d_vol, eps_tilde=eps_tilde,
        nu_m=nu_m)


@dataclass(frozen=True)
class HypothesisItem:
    name: str
    satisfied: bool
    value: float
    bound: float
    note: str = ""

    @property
    def margin_ratio(self) -> float:
        """value / bound, or inf where the bound is 0 or inf."""
        return (self.value / self.bound
                if self.bound not in (0.0, math.inf) else math.inf)


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    items: tuple
    constants: DerivedConstants

    def failed(self):
        return [it.name for it in self.items if not it.satisfied]

    def item(self, name: str) -> HypothesisItem:
        return {it.name: it for it in self.items}[name]


def check_hypotheses(params: Parameters,
                     manifold: Manifold) -> HypothesisReport:
    """Evaluate the six parameter conditions the guarantees rest on.

    In strict mode the report is ok only when all six hold.  Practical
    mode demands the two structural ones (alpha < 1/2 and the beta
    floor) plus delta0 < 1/4, and records the rest as margins.
    """
    constants = derive_constants(params, manifold)
    m = manifold.m
    a, b, g0, d0 = params.alpha, params.beta, params.gamma0, params.delta0
    items = []

    items.append(HypothesisItem(
        "H0", a < 0.5, a, 0.5, "alpha below one half"))

    h1_bound = 2.0 / ((1.0 - d0 ** 2) * (1.0 - a - 4.5 * EPS_TILDE0))
    items.append(HypothesisItem(
        "H1", b >= h1_bound, b, h1_bound, "beta floor"))

    h2_bound = min(
        constants.nu_m * a ** m /
        (constants.e_bound ** (m + 1) * b ** m * constants.d_vol),
        1.0 / (constants.b_eff + 1.0))
    items.append(HypothesisItem(
        "H2", g0 < h2_bound, g0, h2_bound, "gamma0 ceiling"))

    h3_bound = g0 ** (m + 1)
    items.append(HypothesisItem(
        "H3", d0 ** 2 <= h3_bound, d0 ** 2, h3_bound,
        "delta0 squared under gamma0^(m+1)"))

    h4_bound = min(XI_TILDE / (2.0 * (b + constants.beta_prime)),
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
    return HypothesisReport(ok=ok, items=tuple(items), constants=constants)


# ===== configurations =====

class ConfigKind(enum.Enum):
    BIG = "big"
    BAD_STAR = "bad_star"
    BAD_COSPH = "bad_cosph"
    INCONSISTENT = "inconsistent"


# per kind: the counter an insertion bumps and the rule its event names
RULES = {ConfigKind.BIG: ("rule1", "RULE1"),
         ConfigKind.BAD_STAR: ("rule2_star", "RULE2"),
         ConfigKind.BAD_COSPH: ("rule2_cosph", "RULE2"),
         ConfigKind.INCONSISTENT: ("rule2_inconsistent", "RULE2")}


@dataclass(frozen=True)
class UnfitConfiguration:
    kind: ConfigKind
    base: int
    simplex: tuple | None   # None for a box-supported corner
    radius: float
    target: np.ndarray      # tangent coordinates of the driving center


class RefinementState:
    """Everything the loop mutates: complex, cosph records, logs, caches.

    ``gamma_cache`` maps a simplex of sample points to its class at
    ``params.gamma0`` (``gamma_classes``), so a state keeps one gamma0.
    The unfit index holds, per configuration kind, each star's non-empty
    ``_star_*`` scan list (``unfit``) and the stars whose list is stale
    (``dirty``); ``incident`` maps a vertex to the stars with an
    m-simplex on it (a superset: it only grows), and ``indexed_points``
    is the point count the index was last brought up to.
    """

    def __init__(self, cplx: TangentialComplex, params: Parameters):
        self.complex = cplx
        self.params = params
        self.cosph = {}
        self.gamma_cache: dict = {}
        self.events: list[dict] = []
        self.counters = dict.fromkeys(
            [counter for counter, _rule in RULES.values()] + [
                "pick_attempts", "pick_audit_miss", "shrinks", "iterations"],
            0)
        self.pick_counter = 0
        self.final_audit = None
        self.unfit = {kind: {} for kind in ConfigKind}
        self.dirty = {kind: set() for kind in ConfigKind}
        self.incident: dict[int, set] = {}
        self.indexed_points = 0

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

    def gamma_classes(self, simplices) -> list:
        """``geometry.gamma_classes`` of simplices of sample points (all of
        one size) against ``params.gamma0``, cached.

        Points are only ever appended, so a class never goes stale.  The
        cache misses are classified in one stacked call, whose rows equal
        one-row calls.
        """
        cache = self.gamma_cache
        missing = list(dict.fromkeys(s for s in simplices if s not in cache))
        if missing:
            cache.update(zip(missing, gamma_classes(
                missing, self.complex.points, self.params.gamma0)))
        return [cache[s] for s in simplices]

    def refresh_cosph(self, bases):
        """New cosph records for the given stars, from one stacked
        ``_cosph_scan``."""
        self.cosph.update(zip(bases, _cosph_scan(self, bases)))

    def refresh_stars(self, bases):
        """New cosph records for freshly built stars (one stacked scan,
        whose gamma0 batch classifies their small m-simplices), and every
        kind of their unfit lists dirty."""
        self.refresh_cosph(bases)
        self.mark_built(bases)

    def mark_built(self, bases):
        """Dirty every kind of the given stars' lists, and the
        consistency lists of every star with an m-simplex on one of them;
        their own vertices join ``incident``."""
        stars = self.complex.stars
        for p in bases:
            for v in {v for s in stars[p].m_simplices() for v in s}:
                self.incident.setdefault(v, set()).add(p)
        for dirty in self.dirty.values():
            dirty.update(bases)
        inconsistent = self.dirty[ConfigKind.INCONSISTENT]
        for q in bases:
            inconsistent.update(self.incident.get(q, ()))
        self.indexed_points = self.complex.n_points


def make_state(sample: SampleSet, manifold: Manifold,
               params: Parameters) -> RefinementState:
    """Gate on the hypotheses, then build the state at params.epsilon."""
    report = check_hypotheses(params, manifold)
    if not report.ok:
        raise HypothesesFailed(
            f"{params.mode} mode rejects parameters: {report.failed()}")
    cplx = assemble_complex(
        dataclasses.replace(sample, epsilon=params.epsilon), manifold)
    state = RefinementState(cplx, params)
    state.refresh_stars(list(cplx.stars))
    return state


def _tangent_of(state, star, c):
    return star.frame @ (np.asarray(c) - state.complex.points[star.base])


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
                ConfigKind.BIG, p, s, r, _tangent_of(state, star, c)))
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
    simplices = sorted(star.m_simplices())
    out = []
    for s, cls in zip(simplices, state.gamma_classes(simplices)):
        if cls is not GammaClass.GOOD:
            c, r = star.centers[s]
            out.append(UnfitConfiguration(
                ConfigKind.BAD_STAR, p, s, r, _tangent_of(state, star, c)))
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
            ConfigKind.BAD_COSPH, p, tau, r, _tangent_of(state, star, c)))
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
                ConfigKind.INCONSISTENT, p, s, r, _tangent_of(state, star, c)))
    return out


_SCANS = {ConfigKind.BIG: _star_bigs, ConfigKind.BAD_STAR: _star_bad_stars,
          ConfigKind.BAD_COSPH: _star_bad_cosph,
          ConfigKind.INCONSISTENT: _star_inconsistent}


def _unfit_lists(state: RefinementState, kind: ConfigKind) -> dict:
    """Base -> non-empty scan list of one kind, after rescanning only
    the stars dirty for that kind (every star, if the complex grew
    outside ``insert``)."""
    if state.indexed_points != state.complex.n_points:
        state.mark_built(list(state.complex.stars))
    lists = state.unfit[kind]
    scan = _SCANS[kind]
    for p in sorted(state.dirty[kind]):
        found = scan(state, p)
        if found:
            lists[p] = found
        else:
            lists.pop(p, None)
    state.dirty[kind].clear()
    return lists


def classify_configurations(state: RefinementState):
    """All currently unfit configurations, in processing order: each
    kind (big, bad star, bad cosph, inconsistent) over ascending bases."""
    out = []
    for kind in ConfigKind:
        lists = _unfit_lists(state, kind)
        for p in sorted(lists):
            out.extend(lists[p])
    return out


def first_unfit(state: RefinementState) -> UnfitConfiguration | None:
    """First entry of classify_configurations, without building the list.

    A kind's dirty stars are rescanned only once every earlier kind is
    empty, so no gamma0 class is computed for a bad-star scan while a
    big configuration exists.
    """
    for kind in ConfigKind:
        lists = _unfit_lists(state, kind)
        if lists:
            return lists[min(lists)][0]
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

    Candidates are judged degenerate-first: per subset size, one
    ``affine_ranks`` call drops every tau = sigma + (x,) below full
    affine rank and one side-effect-free ``gamma_classes`` call
    classifies the rest; the flakes get the weighted radius in candidate
    order.  A classify-first scan gives the same verdict: a degenerate
    tau has no sphere in its affine hull, so ``min_weighted_radius``
    raises ``DegenerateSimplex`` on it by the same rank rule, and such a
    tau was never a hit.  On the flat patch every tau with four vertices
    is coplanar, so none of them is classified.
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
    cand = np.array(state.complex.tree.query_ball_point(
        np.asarray(x), r_query, return_sorted=True), dtype=np.int64)
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
        taus = taus[affine_ranks(taus, pts_aug) == rows.shape[1]]
        classes = gamma_classes(taus, pts_aug, params.gamma0)
        for row, cls in zip(taus.tolist(), classes):
            if cls is not GammaClass.FLAKE:
                continue
            tau = tuple(row)
            rmin, _w = min_weighted_radius(tau, pts_aug, params.delta0)
            if rmin < r_cap:
                return tau[:-1]
    return None


def _lift(state: RefinementState, config: UnfitConfiguration, y):
    """The manifold point over tangent coordinates y of the
    configuration's star (``lift_from_tangent``, capped at the reach);
    None when the lift leaves the chart or does not converge."""
    star = state.complex.stars[config.base]
    try:
        return lift_from_tangent(state.manifold,
                                 state.complex.points[star.base], star.frame,
                                 y)
    except (OutOfChart, NoConvergence):
        return None


def _pick_audit(x, config: UnfitConfiguration, state: RefinementState):
    """Distance checks a valid pick must satisfy under the hypotheses."""
    star = state.complex.stars[config.base]
    c = state.complex.points[star.base] + star.frame.T @ config.target
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
        AttemptBudgetExhausted: every one of ``PICK_ATTEMPT_BUDGET``
            draws was a vertex of some small flake.
        PickAuditFailed: strict mode only -- the accepted point misses
            the distance bounds the guarantees promise.
    """
    params = state.params
    m = state.manifold.m
    rng = np.random.default_rng([params.seed, state.pick_counter])
    state.pick_counter += 1
    t_c = np.asarray(config.target, dtype=float)
    r_pick = params.alpha * config.radius
    for _ in range(PICK_ATTEMPT_BUDGET):
        state.counters["pick_attempts"] += 1
        direction = rng.normal(size=m)
        norm = np.linalg.norm(direction)
        if norm < 1e-300:
            continue
        y = t_c + direction / norm * r_pick * rng.uniform() ** (1.0 / m)
        x = _lift(state, config, y)
        if x is None or find_hitting_set(x, config.radius, state) is not None:
            continue
        ok, detail = _pick_audit(x, config, state)
        if not ok:
            if params.mode == "strict":
                raise PickAuditFailed(detail)
            state.counters["pick_audit_miss"] += 1
        return x
    raise AttemptBudgetExhausted(
        f"no valid pick in {PICK_ATTEMPT_BUDGET} attempts "
        f"(base={config.base}, kind={config.kind.value})")


# ===== cosphericity =====

def _cosph_scan(state: RefinementState, bases, sites=None) -> list:
    """Almost-cospherical (m+1)-simplices tau = q * sigma seen from each
    of the given stars, in one stacked scan.

    For a star p, sigma runs over the m-simplices of St(p) that are good
    at the state's gamma0 and whose tangent ball (c, r) has r below the
    sampling radius.  A site q gives an entry when its power gap
    |q - c|^2 - r^2 lies in [0, (delta0 * L(tau))^2], with
    L(tau) = min(L(sigma), min |q - sigma|) and delta0 the state's; a gap
    down to -1e-9 r^2 is rounding of a site on the sphere and counts as
    0.  A site farther than r (1 + delta0^2) / (1 - delta0^2) from c has a
    gap above 4 delta0^2 r^2 >= (delta0 * L)^2 and is skipped.  ``sites``
    defaults to every sample point.  The centres of all the stars are
    classified in one gamma0 batch, and the gaps of all (centre, site)
    pairs are one array; every step is row-wise, so a star's record does
    not depend on the other stars scanned with it.

    Returns one dict {tau: (ElementaryWeight(q, sqrt(gap)), sigma)} per
    base, in the order given.  Per star and tau the generator sigma is
    the one with the smallest gap, the smaller sigma on a tie.

    Raises:
        ValueError: delta0 outside (0, 1/4).
    """
    delta0 = state.params.delta0
    if not 0.0 < delta0 < 0.25:
        raise ValueError("delta0 must lie in (0, 1/4)")
    cplx = state.complex
    m = cplx.manifold.m
    pts = cplx.points
    small = [(k, s, c, r) for k, p in enumerate(bases)
             for s, (c, r) in cplx.stars[p].centers.items()
             if len(s) == m + 1 and r < cplx.epsilon]
    classes = state.gamma_classes([s for _k, s, _c, _r in small])
    chosen = [row for row, cls in zip(small, classes)
              if cls is GammaClass.GOOD]
    records = [{} for _ in bases]
    if not chosen:
        return records
    sig = np.array([s for _k, s, _c, _r in chosen], dtype=np.intp)
    cen = np.array([c for _k, _s, c, _r in chosen])
    rad = np.array([r for _k, _s, _c, r in chosen])
    reach = rad * (1.0 + delta0 ** 2) / (1.0 - delta0 ** 2) * (1.0 + 1e-9)
    if sites is None:
        near = cplx.tree.query_ball_point(cen, reach)
        ci = np.repeat(np.arange(len(sig)), [len(h) for h in near])
        qi = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp,
                         count=len(ci))
    else:
        qs = np.asarray(sites, dtype=np.intp)
        ci = np.repeat(np.arange(len(sig)), len(qs))
        qi = np.tile(qs, len(sig))
        within = np.linalg.norm(pts[qi] - cen[ci], axis=1) <= reach[ci]
        ci, qi = ci[within], qi[within]
    keep = (sig[ci] != qi[:, None]).all(axis=1)
    ci, qi = ci[keep], qi[keep]
    r2 = rad[ci] * rad[ci]
    gap = ((pts[qi] - cen[ci]) ** 2).sum(axis=1) - r2
    # interference (a site inside the ball) would have been caught upstream
    outside = gap >= -1e-9 * np.maximum(r2, 1e-30)
    ci, qi, gap = ci[outside], qi[outside], gap[outside]
    ell_sigma = _edge_lengths(pts[sig]).min(axis=1)
    dq = np.linalg.norm(pts[qi][:, None, :] - pts[sig[ci]], axis=2)
    ell_tau = np.minimum(ell_sigma[ci], dq.min(axis=1))
    # C pow, as the scalar (delta0 * ell) ** 2 was: ** 2 on an array
    # squares, which rounds differently in about one case in a thousand
    hit = gap <= np.float_power(delta0 * ell_tau, 2)
    # per (star, tau): the smallest (gap, sigma) and its weight
    best = {}
    for i, q, g, w in zip(ci[hit].tolist(), qi[hit].tolist(),
                          gap[hit].tolist(),
                          np.sqrt(np.maximum(gap[hit], 0.0)).tolist()):
        k, sigma = chosen[i][:2]
        key = (k, tuple(sorted(sigma + (q,))))
        if key not in best or (g, sigma) < best[key][:2]:
            best[key] = (g, sigma, ElementaryWeight(q, w))
    for (k, tau), (_g, sigma, w) in best.items():
        records[k][tau] = (w, sigma)
    return records


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

    ``insert_point`` updates exactly the stars x cuts, clipping each
    simple cut cell with x's halfspace and rebuilding the others with
    the new star; either way a cut star is the star a fresh build makes.
    The cut stars and the new star get fresh cosph records, from one
    stacked scan, and dirty unfit lists (``RefinementState.refresh_stars``).
    Of the others, only those within ``_witness_radius`` of x can gain a
    cosph entry with x as witness, so only they are scanned, in one more
    stacked scan against x alone.  Every entry that scan adds contains
    x, so it joins the record without meeting an old one, and only a
    star that gains one has its cosph list dirtied.

    Raises:
        SparsityViolation: x sits within mu0 * epsilon of the sample,
            which would break the packing argument (always fatal).
    """
    x = np.asarray(x, dtype=float)
    d = float(state.complex.tree.query(x)[0])
    floor = MU0 * state.epsilon
    if d <= floor:
        raise SparsityViolation(
            f"insertion at distance {d:.6g} <= mu0*eps = {floor:.6g}")
    info = state.complex.insert_point(x)
    x_idx = info["index"]
    state.refresh_stars(info["recomputed"] + [x_idx])
    r_witness = _witness_radius(state.epsilon, state.params.delta0)
    # the query is a hair wider so that the strict test below decides
    near = np.array(state.complex.tree.query_ball_point(
        x, r_witness * (1.0 + 1e-9), return_sorted=True), dtype=np.intp)
    near = near[~np.isin(near, info["recomputed"] + [x_idx])]
    dist = np.linalg.norm(state.complex.points[near] - x, axis=1)
    witnessed = near[dist < r_witness].tolist()
    for p, added in zip(witnessed, _cosph_scan(state, witnessed,
                                               sites=(x_idx,))):
        if added:
            state.cosph[p].update(added)
            state.dirty[ConfigKind.BAD_COSPH].add(p)
    state.events.append({"rule": rule, "base": base, "simplex": simplex,
                         "x": x, "dist": d, "index": x_idx,
                         "recomputed": info["recomputed"]})
    return info


def _rule1(state: RefinementState, config: UnfitConfiguration):
    """The manifold point under a big corner, shrinking toward the base
    until the lift lands strictly inside the corner ball."""
    star = state.complex.stars[config.base]
    t_star = np.asarray(config.target, dtype=float)
    c = state.complex.points[star.base] + star.frame.T @ t_star
    r_in, s = config.radius * (1.0 - 1e-12), 1.0
    for _ in range(400):
        x = _lift(state, config, s * t_star)
        if x is not None and np.linalg.norm(x - c) < r_in:
            return x
        state.counters["shrinks"] += 1
        s *= 0.85
    raise NoConvergence(
        f"rule 1 failed to land inside the corner ball at base {config.base}")


def refine(state: RefinementState) -> RefinementState:
    """Run the two rules to quiescence (rule 1 always first).

    Raises:
        IterationCap: the loop ran ITERATION_CAP iterations.
    """
    if not 0.0 < state.params.delta0 < 0.25:
        raise HypothesesFailed("refinement needs 0 < delta0 < 1/4")
    for _ in range(ITERATION_CAP):
        state.counters["iterations"] += 1
        config = first_unfit(state)
        if config is None:
            state.final_audit = _final_audit(state)
            return state
        counter, rule = RULES[config.kind]
        x = (_rule1(state, config) if rule == "RULE1"
             else pick_valid(config, state))
        state.counters[counter] += 1
        insert(x, state, rule=rule, base=config.base, simplex=config.simplex)
    raise IterationCap(f"no quiescence within {ITERATION_CAP} iterations")


def refine_sample(sample: SampleSet, manifold: Manifold,
                  params: Parameters) -> RefinementState:
    """Convenience wrapper: build the state and refine it."""
    return refine(make_state(sample, manifold, params))


def _final_audit(state: RefinementState) -> dict:
    """Post-quiescence measurements recorded for reporting.

    ``inconsistencies`` counts the distinct simplices of the unfit
    index's consistency lists (empty at quiescence), rather than
    rebuilding the simplex closure for ``consistency_report``.
    """
    eps = state.epsilon
    tops = [(s, star.centers[s][1]) for star in state.complex.stars.values()
            for s in star.m_simplices()]
    radii = [r for _s, r in tops]
    bad = sum(cls is not GammaClass.GOOD
              for cls in state.gamma_classes([s for s, _r in tops]))
    taus = [tau for entries in state.cosph.values() for tau in entries]
    bad_entries = sum(cls is not GammaClass.GOOD
                      for cls in state.gamma_classes(taus))
    min_pair = closest_pair(state.complex.points)[0]
    return {
        "max_center_radius": max(radii) if radii else 0.0,
        "radius_ok": (not radii) or max(radii) < eps,
        "bad_m_simplices": bad,
        "cosph_entries": len(taus),
        "bad_cosph_entries": bad_entries,
        "inconsistencies": len({
            c.simplex for found in
            _unfit_lists(state, ConfigKind.INCONSISTENT).values()
            for c in found}),
        "min_pairwise_distance": min_pair,
        "sparsity_ok": min_pair > MU0 * eps,
    }
