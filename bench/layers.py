"""Per-layer metrics, derived from one traced unit.

Each metric below is read from the span summary of a ``Tracer``, from the
counts its hooks took from return values, or from the refinement state.
The comment on each group names the end-to-end figure it should move;
BENCHMARK.json lists the same names.
"""
COUNTERS = ("rule1", "rule2_star", "rule2_cosph", "rule2_inconsistent",
            "pick_attempts", "pick_audit_miss", "shrinks", "iterations",
            "stale_big")

# (metric, unit); ".s" is inclusive seconds, ".self_s" excludes children
METRICS = [
    # setup_s on torus-mesh; mesh_s via rule-1 lifts and pick draws
    ("manifolds.sample.s", "s"),
    ("manifolds.farthest_point_net.s", "s"),
    ("manifolds.lift_from_tangent.calls", "count"),
    ("manifolds.lift_from_tangent.s", "s"),
    # mesh_s on flat-oracle (build); mesh_s and insert_ms on torus-mesh
    ("stars.build.s", "s"),
    ("stars.insert_point.calls", "count"),
    ("stars.insert_point.s", "s"),
    ("stars.recompute_star.calls", "count"),
    ("stars.recompute_star.s", "s"),
    ("stars.candidates_per_insert", "count"),
    ("stars.cut_ratio", "ratio"),
    ("stars.cosph_star.calls", "count"),
    ("stars.cosph_star.s", "s"),
    # insert_ms on torus-mesh; picking is mesh_s on lattice-pick
    ("refine.refine_sample.s", "s"),
    ("refine.first_unfit.calls", "count"),
    ("refine.first_unfit.s", "s"),
    ("refine.insert.s", "s"),
    ("refine.insert.self_s", "s"),
    ("refine.pick_valid.s", "s"),
    ("refine.find_hitting_set.calls", "count"),
    ("refine.find_hitting_set.s", "s"),
    ("refine.pick_accept_ratio", "ratio"),
] + [(f"refine.counters.{name}", "count") for name in COUNTERS] + [
    # classify_gamma and min_weighted_radius: lattice-pick; edge_extremes:
    # torus-mesh
    ("geometry.classify_gamma.calls", "count"),
    ("geometry.classify_gamma.s", "s"),
    ("geometry.edge_extremes.calls", "count"),
    ("geometry.edge_extremes.s", "s"),
    ("geometry.min_weighted_radius.calls", "count"),
    ("geometry.min_weighted_radius.s", "s"),
    ("geometry.min_weighted_radius.degenerate_ratio", "ratio"),
    # mesh_s on lattice-pick
    ("kernels.flake_candidates.rows", "count"),
    ("kernels.flake_candidates.s", "s"),
    ("kernels.flake_confirm_ratio", "ratio"),
    # oracles: verify_s on flat-oracle; audits: mesh_s and verify_s on
    # torus-mesh
    ("verify.ambient.s", "s"),
    ("verify.restricted_oracle.s", "s"),
    ("verify.intrinsic_oracle.s", "s"),
    ("verify.oracle.subsets", "count"),
    ("verify.protection_audit.s", "s"),
    ("verify.manifold_check.s", "s"),
    ("verify.protection_margin_ratio", "ratio"),
    # mesh_s and verify_s on torus-mesh
    ("cli.mesh.self_s", "s"),
    ("cli.verify.self_s", "s"),
    # the traced unit itself
    ("trace.unit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]
UNITS = dict(METRICS)


class Counts:
    """Counts taken from return values while a unit is traced."""

    def __init__(self):
        self.candidates = 0
        self.rebuilt = 0
        self.rows = 0
        self.confirmed = 0
        self.accepted = 0
        self.subsets = 0

    def hooks(self) -> dict:
        def insert_point(out):
            self.candidates += len(out["recomputed"]) + len(out["untouched"])
            self.rebuilt += len(out["recomputed"])

        def flake_rows(out):
            self.rows += len(out)

        def hitting_set(out):
            self.confirmed += out is not None

        def picked(_out):
            self.accepted += 1

        def oracle(out):
            self.subsets += len(out.spreads)

        return {"stars.insert_point": insert_point,
                "kernels.flake_candidates": flake_rows,
                "refine.find_hitting_set": hitting_set,
                "refine.pick_valid": picked,
                "verify.restricted_oracle": oracle,
                "verify.intrinsic_oracle": oracle}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive(summary: dict, counts: Counts, state, protection_ratio,
           unit_s: float, overhead_s: float, n_spans: int) -> dict:
    """Every metric of METRICS for one traced unit (0 where a layer did
    not run).  ``state`` is the unit's RefinementState, or None."""
    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for metric, _unit in METRICS:
        span, _, field = metric.rpartition(".")
        if field in ("s", "self_s", "calls"):
            out[metric] = float(get(span, field))
    counters = state.counters if state is not None else {}
    for name in COUNTERS:
        out[f"refine.counters.{name}"] = float(counters.get(name, 0))
    inserts = get("stars.insert_point", "calls")
    out["stars.candidates_per_insert"] = _ratio(counts.candidates, inserts)
    out["stars.cut_ratio"] = _ratio(counts.rebuilt, counts.candidates)
    out["refine.pick_accept_ratio"] = _ratio(
        counts.accepted, counters.get("pick_attempts", 0))
    mwr = summary.get("geometry.min_weighted_radius", {})
    out["geometry.min_weighted_radius.degenerate_ratio"] = _ratio(
        mwr.get("failed", {}).get("DegenerateSimplex", 0),
        mwr.get("calls", 0))
    out["kernels.flake_candidates.rows"] = float(counts.rows)
    out["kernels.flake_confirm_ratio"] = _ratio(counts.confirmed, counts.rows)
    out["verify.oracle.subsets"] = float(counts.subsets)
    out["verify.protection_margin_ratio"] = float(protection_ratio or 0.0)
    out["trace.unit_s"] = unit_s
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = float(n_spans)
    return out
