"""The three benchmark workloads: set-up, timed run and output checks.

Each workload has three steps.  ``prepare`` makes the unit's inputs from
its seed (set-up time), ``run`` calls the program and returns the timings
and outputs, and ``check`` judges the outputs with tests that do not use
the code under measurement where an independent test is cheap.  Calls
into tandel go through module attributes so that an active ``Tracer``
sees them.
"""
import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

import inputs
from tandel import cli, manifolds, refine, stars, verify
from tandel.manifolds import SampleSet
from tandel.refine import Parameters

clock = time.perf_counter

# Each workload times its sub-second step ``repeats`` times per unit, so
# that the step's calls cover one to four seconds of each unit.  Every
# time is kept and the run averages them (see run.py).  A traced unit
# times each step once, so its spans count one call.


class UnitFailed(Exception):
    """The program reported failure through an exit code."""


@dataclass
class UnitResult:
    """Timings, outputs and the derived figures of one unit.

    Each timing is a list: one entry per timed call of the step."""
    mesh_s: list
    verify_s: list
    insert_s: list                 # time spent adding the vertices ...
    inserted: int                  # ... and how many were added
    n_vertices: int
    points: np.ndarray
    simplices: list
    state: object = None           # RefinementState where refinement ran
    protection_margin_ratio: float | None = None
    details: dict = field(default_factory=dict)


def output_digest(points, simplices) -> str:
    """sha256 of the output points (float64 bytes) and sorted simplices."""
    h = hashlib.sha256(np.ascontiguousarray(points, dtype="<f8").tobytes())
    for s in sorted(tuple(s) for s in simplices):
        h.update((" ".join(map(str, s)) + "\n").encode())
    return h.hexdigest()


def audit_failures(final_audit: dict) -> list:
    """Names of the final-audit conditions a refined complex violates."""
    bad = []
    for key in ("bad_m_simplices", "cosph_entries", "bad_cosph_entries",
                "inconsistencies"):
        if final_audit[key] != 0:
            bad.append(f"final_audit.{key}={final_audit[key]}")
    for key in ("sparsity_ok", "radius_ok"):
        if not final_audit[key]:
            bad.append(f"final_audit.{key}")
    return bad


@contextlib.contextmanager
def captured_refinement():
    """Time ``refine.refine_sample`` and keep the state it returns.

    ``tandel mesh`` writes files but does not hand its state back; the
    counters and final audit are read from here instead.
    """
    original = refine.refine_sample
    seen = {}

    def capture(*args, **kwargs):
        t0 = clock()
        state = original(*args, **kwargs)
        seen["s"] = clock() - t0
        seen["state"] = state
        return state

    refine.refine_sample = capture
    try:
        yield seen
    finally:
        refine.refine_sample = original


def timed(fn, repeats: int):
    """Wall times of ``repeats`` calls of fn, and the last result."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        out = fn()
        times.append(clock() - t0)
    return times, out


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# ===== torus-mesh =====

class TorusMesh:
    """`tandel mesh --net-in` then `tandel verify` on a torus net; the
    sub-second verify is timed ``repeats`` times."""

    name = "torus-mesh"
    # one net per run, meshed again in every unit
    inputs_per_run = 1
    repeats = 6

    def prepare(self, seed: int, workdir: Path) -> dict:
        net_path = workdir / f"torus-{seed}.net.txt"
        manifolds.write_points(net_path, inputs.torus_net(seed))
        return {"seed": seed, "net_path": net_path, "workdir": workdir,
                "params": Parameters(**inputs.TORUS_PARAMS, seed=seed)}

    def run(self, inp: dict, repeats: int) -> UnitResult:
        params = inp["params"]
        prefix = str(inp["workdir"] / f"torus-{inp['seed']}")
        flags = ["--epsilon", repr(params.epsilon),
                 "--gamma0", repr(params.gamma0),
                 "--alpha", repr(params.alpha), "--beta", repr(params.beta),
                 "--delta0", repr(params.delta0), "--mode", params.mode,
                 "--seed", str(params.seed)]
        threshold = inputs.protection_threshold(params)
        with captured_refinement() as seen:
            t0 = clock()
            code = _quiet_cli(["mesh", "--manifold", inputs.TORUS_SPEC,
                               "--net-in", str(inp["net_path"]),
                               "--out-prefix", prefix] + flags)
            mesh_s = clock() - t0
        if code != 0:
            raise UnitFailed(f"tandel mesh exited with {code}")
        verify_s, code = timed(lambda: _quiet_cli(
            ["verify", "--complex", prefix + ".simplices.txt",
             "--points", prefix + ".points.txt",
             "--manifold", inputs.TORUS_SPEC, "--delta2", repr(threshold),
             "--euler", "0", "--out", prefix + ".verify.json"]), repeats)
        if code not in (0, 1):
            raise UnitFailed(f"tandel verify exited with {code}")
        with open(prefix + ".verify.json") as fh:
            checks = json.load(fh)["checks"]
        state = seen["state"]
        n_ins = len(state.events)
        return UnitResult(
            mesh_s=[mesh_s], verify_s=verify_s,
            insert_s=[seen["s"]], inserted=n_ins,
            n_vertices=state.complex.n_points,
            points=state.complex.points,
            simplices=state.complex.simplices(), state=state,
            protection_margin_ratio=(
                checks["power_protection"]["min_margin"] / threshold),
            details={"verify_exit": code, "checks": {
                k: v["ok"] for k, v in checks.items()}})

    def check(self, inp: dict, res: UnitResult) -> list:
        bad = audit_failures(res.state.final_audit)
        for name, ok in res.details["checks"].items():
            if not ok:
                bad.append(f"verify.{name}")
        if res.details["verify_exit"] != 0:
            bad.append("verify.exit_code")
        return bad


# ===== lattice-pick =====

class LatticePick:
    """refine_sample on the engineered flat lattice; the seed drives the
    pick draws only."""

    name = "lattice-pick"
    # every unit draws afresh
    inputs_per_run = 64
    repeats = 16

    def prepare(self, seed: int, workdir: Path) -> dict:
        params = Parameters(**inputs.LATTICE_PARAMS, seed=seed)
        sample = SampleSet(points=inputs.lattice_patch(),
                           epsilon=params.epsilon, sparsity=0.0)
        return {"seed": seed, "sample": sample, "params": params}

    def run(self, inp: dict, repeats: int) -> UnitResult:
        params = inp["params"]
        t0 = clock()
        state = refine.refine_sample(inp["sample"], inputs.FLAT, params)
        mesh_s = clock() - t0
        threshold = inputs.protection_threshold(params)

        def audit():
            cplx = verify.as_complex(state.complex.simplices())
            return cplx, verify.power_protection_audit(
                cplx, state.complex.points, inputs.FLAT, threshold)

        verify_s, (cplx, protection) = timed(audit, repeats)
        n_ins = len(state.events)
        return UnitResult(
            mesh_s=[mesh_s], verify_s=verify_s,
            insert_s=[mesh_s], inserted=n_ins,
            n_vertices=state.complex.n_points,
            points=state.complex.points,
            simplices=sorted(cplx.simplices, key=lambda s: (len(s), s)),
            state=state,
            protection_margin_ratio=protection.min_margin / threshold,
            details={"protection_ok": protection.ok})

    def check(self, inp: dict, res: UnitResult) -> list:
        bad = audit_failures(res.state.final_audit)
        if not res.details["protection_ok"]:
            bad.append("protection")
        return bad


# ===== flat-oracle =====

def _circumcircle_member(tri, sites) -> bool:
    """Empty-circumdisk test of a planar triangle, in the benchmark's own
    arithmetic: no other site strictly inside its circumcircle."""
    a, b, c = (sites[i, :2] for i in tri)
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1])
               + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return False
    sa, sb, sc = a @ a, b @ b, c @ c
    center = np.array([
        sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1]),
        sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])]) / d
    radius = np.linalg.norm(a - center)
    others = np.setdiff1d(np.arange(len(sites)), list(tri))
    dmin = np.linalg.norm(sites[others, :2] - center, axis=1).min()
    return bool(dmin >= radius * (1 - 1e-9))


class FlatOracle:
    """Star build plus the ambient, restricted and intrinsic oracles on
    one flat seed per unit."""

    name = "flat-oracle"
    inputs_per_run = 64
    repeats = 10

    def prepare(self, seed: int, workdir: Path) -> dict:
        sites = inputs.flat_sites(seed)
        graph, band = inputs.flat_geodesic_graph(sites)
        gap = float(cKDTree(sites).query(sites, k=2)[0][:, 1].min())
        return {"seed": seed, "sites": sites, "gap": gap, "graph": graph,
                "band": band, "witnesses": inputs.witness_grid()}

    def run(self, inp: dict, repeats: int) -> UnitResult:
        sites, flat = inp["sites"], inputs.FLAT
        sample = SampleSet(points=sites, epsilon=inputs.FLAT_EPSILON,
                           sparsity=inp["gap"])
        mesh_s, cplx = timed(
            lambda: stars.TangentialComplex(sample, flat).build(), repeats)
        t0 = clock()
        k_tan = verify.as_complex(cplx.simplices())
        ambient = verify.ambient_delaunay_bruteforce(sites).filtered(2)
        ambient_equal = verify.complex_compare(k_tan, ambient).equal
        res = verify.restricted_delaunay_oracle(sites, flat, inp["witnesses"])
        match = verify.oracle_match_report(k_tan, res, 2)
        res_i = verify.intrinsic_delaunay_oracle(sites, flat, inp["graph"],
                                                 band=inp["band"])
        match_i = verify.oracle_match_report(k_tan, res_i, 2)
        verify_s = clock() - t0
        return UnitResult(
            mesh_s=mesh_s, verify_s=[verify_s],
            insert_s=mesh_s, inserted=len(sites), n_vertices=len(sites),
            points=sites,
            simplices=sorted(k_tan.simplices, key=lambda s: (len(s), s)),
            details={"ambient_equal": ambient_equal,
                     "matches": {"restricted": match, "intrinsic": match_i},
                     "candidates": {"restricted": res.candidates(2),
                                    "intrinsic": res_i.candidates(2)},
                     "subsets": len(res.spreads) + len(res_i.spreads)})

    def check(self, inp: dict, res: UnitResult) -> list:
        bad = []
        if not res.details["ambient_equal"]:
            bad.append("tangential != ambient")
        tris = {s for s in res.simplices if len(s) == 3}
        for name, match in res.details["matches"].items():
            if not match.equal_at_resolution:
                bad.append(f"tangential != {name}")
            for t in res.details["candidates"][name]:
                if _circumcircle_member(t, inp["sites"]) != (t in tris):
                    bad.append(f"{name} candidate {t} misjudged")
        return bad


WORKLOADS = {w.name: w for w in (TorusMesh(), LatticePick(), FlatOracle())}
