"""Command-line driver: sampling, meshing, verification, and reports.

Subcommands
    net         seeded sparse net on a manifold, with a sampling audit
    mesh        run the refinement loop and export complex + report
    verify      structural and protection checks on exported artifacts
    hypotheses  evaluate the parameter conditions and derived constants

Exit codes: 0 success, 1 check failure or package error, 2 usage or
parse error.

``mesh`` and ``hypotheses`` take each run parameter (a field of
``refine.Parameters``) from its flag, else from the ``--params`` file,
else from its default; every failure to read that file exits 2.

Errors are reported by ``main`` alone; subcommands do not catch them.
Every failure of the package raises a ``TandelError`` subclass, printed
as the one stderr line ``error: <ClassName>: <message>`` with exit 1.
``ValueError`` and ``OSError`` (bad arguments, unreadable or malformed
files) print ``error: <message>`` and exit 2.
"""
import argparse
import dataclasses
import json
import math
import sys
import typing

import numpy as np
from scipy.spatial import cKDTree

from . import geometry, refine, stars, verify
from .errors import SparsityViolation, TandelError
from .manifolds import (Manifold, SampleSet, closest_pair,
                        farthest_point_net, parse_manifold, read_points,
                        read_table, write_points)
from .refine import Parameters, check_hypotheses

REPORT_SCHEMA = "tandel-report/1"
# seed of the dense witness sample of ``tandel verify --dense-n``
ORACLE_SEED = 7
# defaults of the run parameters Parameters gives none
PARAM_DEFAULTS = {"epsilon": 0.3, "gamma0": 0.05, "alpha": 0.25,
                  "beta": 4.5, "delta0": 0.05}


# ===== serialization helpers =====

def _jsonify(obj):
    """JSON-safe copy: numpy scalars to python, non-finite floats to text."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_points(path, manifold: Manifold):
    pts = read_points(path)
    if pts.size == 0:
        raise ValueError(f"{path}: no points")
    if pts.shape[1] != manifold.N:
        raise ValueError(f"{path}: {pts.shape[1]} columns, manifold is "
                         f"embedded in dimension {manifold.N}")
    return pts


def _load_complex(path, n_points: int):
    """The closed complex of a simplex file, one simplex per line: vertex
    labels in any order, separated by whitespace, with ``#`` comments.
    The file need not be face-closed.

    ``read_table`` parses it; the rows of each width become one label
    array, whose row sort, repeated labels and label range are array
    tests, and ``geometry.closure`` closes the arrays.

    Raises:
        ValueError: naming ``path:line`` (the earliest failing line), for
            a token that is not an integer, a repeated label or a label
            outside 0..n_points-1; naming ``path`` for an empty file.
    """
    values, widths, lines = read_table(path, np.intp)
    if not len(widths):
        raise ValueError(f"{path}: no simplices")
    starts = np.cumsum(widths) - widths
    blocks, failures = [], []
    for width in np.flatnonzero(np.bincount(widths)).tolist():
        at = np.flatnonzero(widths == width)
        rows, repeats = geometry.sort_rows(
            values[starts[at, None] + np.arange(width)])
        bad = repeats | (rows[:, 0] < 0) | (rows[:, -1] >= n_points)
        if bad.any():
            i = int(bad.argmax())
            failures.append((lines[at[i]], (
                f"duplicate vertex indices in simplex "
                f"{tuple(rows[i].tolist())}" if repeats[i] else
                f"vertex labels must be in 0..{n_points - 1}")))
        blocks.append(rows)
    if failures:
        line, message = min(failures)
        raise ValueError(f"{path}:{line}: {message}")
    return verify.AbstractComplex(geometry.closure(blocks))


def _params_from_args(args) -> Parameters:
    """Each run parameter from its flag, else --params, else default."""
    flags = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(Parameters)
             if getattr(args, f.name) is not None}
    from_file = refine.read_parameter_file(args.params) if args.params else {}
    return Parameters(**{**PARAM_DEFAULTS, **from_file, **flags})


def _add_param_flags(sub):
    sub.add_argument("--params",
                     help="key = value parameter file; a flag beats the "
                          "file, which beats the default, and every "
                          "failure to read the file exits 2")
    for name, kind in typing.get_type_hints(Parameters).items():
        sub.add_argument(f"--{name}", type=kind)


# ===== net =====

def cmd_net(args) -> int:
    manifold = parse_manifold(args.manifold)
    if args.seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {args.seed}")
    dense = manifold.sample(args.dense_n, args.seed)
    net = farthest_point_net(dense, eps=args.epsilon, seed=args.seed)
    pts = net.points
    write_points(args.out, pts)

    sparsity = net.sparsity
    covering = float(cKDTree(pts).query(dense)[0].max())
    sparsity_ok = sparsity > args.epsilon
    covering_ok = covering <= args.epsilon
    audit = {
        "schema": REPORT_SCHEMA,
        "command": "net",
        "manifold": manifold.spec_string(),
        "epsilon": args.epsilon,
        "seed": args.seed,
        "dense_n": args.dense_n,
        "n_points": len(pts),
        "sparsity": sparsity,
        "sparsity_status": "PASS" if sparsity_ok else "FAIL",
        "covering_radius": covering,
        "covering_status": "PASS" if covering_ok else "FAIL",
    }
    audit_path = args.audit_out or args.out + ".audit.json"
    _write_json(audit_path, audit)
    print(f"net: {len(pts)} points  sparsity {sparsity:.6g} "
          f"[{audit['sparsity_status']}]  covering {covering:.6g} "
          f"[{audit['covering_status']}]")
    return 0 if (sparsity_ok and covering_ok) else 1


# ===== mesh =====

def _mesh_measurements(state, cplx, manifold: Manifold) -> dict:
    """Measurements of the refined output, whose closed complex is cplx."""
    pts = state.complex.points
    m = manifold.m
    edges = cplx.rows(1)
    diff = pts[edges[:, 0]] - pts[edges[:, 1]]
    # vecdot takes the dot product np.linalg.norm takes, row by row
    min_edge = (float(np.sqrt(np.vecdot(diff, diff)).min()) if len(edges)
                else math.inf)
    tops = cplx.rows(m)
    min_thick = (float(geometry.thicknesses(tops, pts).min()) if len(tops)
                 else math.inf)
    params = state.params
    threshold = params.delta0 ** 2 * refine.MU0 ** 2 * params.epsilon ** 2
    protection = verify.power_protection_audit(cplx, pts, manifold, threshold)
    manifold_ok, diagnostics = (
        verify.manifold_complex_check(cplx, m)
        if m in verify.MANIFOLD_CHECK_DIMS else (None, {}))
    return {
        "n_points": len(pts),
        "simplex_counts": cplx.counts(),
        "min_edge": min_edge,
        "min_thickness": min_thick,
        "protection_threshold": threshold,
        "min_protection_margin": protection.min_margin,
        "protection_ok": protection.ok,
        "euler_characteristic": verify.euler_characteristic(cplx),
        "manifold_complex_ok": manifold_ok,
        "manifold_diagnostics": {k: v for k, v in diagnostics.items() if v},
    }


def cmd_mesh(args) -> int:
    manifold = parse_manifold(args.manifold)
    params = _params_from_args(args)
    hyp = check_hypotheses(params, manifold)
    prefix = args.out_prefix

    if not hyp.ok:
        h5 = hyp.item("H5")
        print(f"hypotheses fail in {params.mode} mode: "
              f"{', '.join(hyp.failed())}", file=sys.stderr)
        print(f"H5 margin: eps/rch = {h5.value:.6g} vs bound {h5.bound:.6g} "
              f"(ratio {h5.margin_ratio:.6g})", file=sys.stderr)
        _write_json(prefix + ".report.json", {
            "schema": REPORT_SCHEMA, "command": "mesh", "status": "refused",
            "hypotheses": [it.__dict__ for it in hyp.items],
        })
        return 1

    if args.net_in:
        pts_in = _load_points(args.net_in, manifold)
        gap, i, j = closest_pair(pts_in)
        floor = refine.MU0 * params.epsilon
        if gap <= floor:
            raise SparsityViolation(
                f"sample points {i} and {j} coincide" if gap == 0.0 else
                f"sample points {i} and {j} are {gap:.6g} apart, "
                f"within mu0*eps = {floor:.6g}")
        net = SampleSet(points=pts_in, epsilon=params.epsilon, sparsity=gap)
    else:
        dense = manifold.sample(args.dense_n, params.seed)
        net = farthest_point_net(dense, eps=params.epsilon, seed=params.seed)
    state = refine.refine_sample(net, manifold, params)

    pts = state.complex.points
    # closed once for the writers and the measurements
    cplx = verify.AbstractComplex(state.complex.faces())
    write_points(prefix + ".points.txt", pts)
    stars.write_simplex_list(prefix + ".simplices.txt", cplx.faces)
    if manifold.m == 2 and manifold.N == 3:
        stars.write_off(prefix + ".off", pts, cplx.rows(2))
    with open(prefix + ".events.log", "w") as fh:
        for line in state.event_log:
            fh.write(line + "\n")

    report = {
        "schema": REPORT_SCHEMA,
        "command": "mesh",
        "status": "ok",
        "manifold": manifold.spec_string(),
        "parameters": dataclasses.asdict(params),
        "insertions": {**{counter: state.counters[counter]
                          for counter, _rule in refine.RULES.values()},
                       "total": len(state.events)},
        "counters": dict(state.counters),
        "final_audit": state.final_audit,
        "measurements": _mesh_measurements(state, cplx, manifold),
    }
    _write_json(prefix + ".report.json", report)
    meas = report["measurements"]
    print(f"mesh: {meas['n_points']} points, "
          f"{meas['simplex_counts'].get(manifold.m, 0)} top simplices, "
          f"euler {meas['euler_characteristic']}, "
          f"min protection margin {meas['min_protection_margin']:.6g}")
    return 0


# ===== verify =====

def cmd_verify(args) -> int:
    manifold = parse_manifold(args.manifold)
    if not math.isfinite(args.delta2):
        raise ValueError(f"--delta2 must be finite, got {args.delta2}")
    pts = _load_points(args.points, manifold)
    cplx = _load_complex(args.complex, len(pts))
    checks = {}

    if manifold.m in verify.MANIFOLD_CHECK_DIMS:
        ok, diag = verify.manifold_complex_check(cplx, manifold.m)
        checks["manifold_complex"] = {
            "ok": ok,
            "diagnostics": {k: v for k, v in diag.items() if v},
        }

    protection = verify.power_protection_audit(cplx, pts, manifold,
                                               args.delta2)
    checks["power_protection"] = {
        "ok": protection.ok,
        "threshold": args.delta2,
        "min_margin": protection.min_margin,
        "failures": [
            {"simplex": e.simplex, "vertex": e.vertex, "margin": e.margin,
             "error": e.error}
            for e in protection.failures()[:20]],
    }

    if args.euler is not None:
        eu = verify.euler_characteristic(cplx)
        checks["euler_characteristic"] = {
            "ok": eu == args.euler, "value": eu, "expected": args.euler}

    if args.dense_n:
        dense = manifold.sample(args.dense_n, ORACLE_SEED)
        res = verify.restricted_delaunay_oracle(pts, manifold, dense)
        match = verify.oracle_match_report(cplx, res, manifold.m)
        checks["restricted_oracle"] = {
            "ok": match.equal_at_resolution,
            "band": res.band,
            "missing": match.missing[:20],
            "extra": match.extra[:20],
            "n_ambiguous": len(match.ambiguous),
        }

    all_ok = all(c["ok"] for c in checks.values())
    report = {
        "schema": REPORT_SCHEMA,
        "command": "verify",
        "manifold": manifold.spec_string(),
        "status": "ok" if all_ok else "fail",
        "checks": checks,
    }
    if args.out:
        _write_json(args.out, report)
    for name, c in checks.items():
        print(f"{name}: {'PASS' if c['ok'] else 'FAIL'}")
        if not c["ok"]:
            detail = {k: v for k, v in c.items() if k != "ok"}
            print(f"  {json.dumps(_jsonify(detail), sort_keys=True)}")
    return 0 if all_ok else 1


# ===== hypotheses =====

def cmd_hypotheses(args) -> int:
    manifold = parse_manifold(args.manifold)
    params = _params_from_args(args)
    hyp = check_hypotheses(params, manifold)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "hypotheses",
        "manifold": manifold.spec_string(),
        "mode": params.mode,
        "ok": hyp.ok,
        "constants": {
            "mu0": refine.MU0,
            "mu0_fraction": "1/9",
            "eps_tilde0": refine.EPS_TILDE0,
            "eps_tilde0_fraction": "1/4624",
            "eps_tilde": hyp.constants.eps_tilde,
            "beta_prime": hyp.constants.beta_prime,
            "b_hyp": hyp.constants.b_hyp,
            "b_lemma": hyp.constants.b_lemma,
            "b_eff": hyp.constants.b_eff,
            "xi": hyp.constants.xi,
            "a_vol": hyp.constants.a_vol,
        },
        "items": [{**dataclasses.asdict(it), "margin_ratio": it.margin_ratio}
                  for it in hyp.items],
    }
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True)
    print(text)
    if args.out:
        _write_json(args.out, report)
    return 0 if hyp.ok else 1


# ===== argument parsing =====

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandel",
        description="Tangential Delaunay complexes: sample, refine, verify.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_net = subs.add_parser("net", help="seeded sparse net with audit")
    p_net.add_argument("--manifold", required=True)
    p_net.add_argument("--epsilon", type=float, required=True)
    p_net.add_argument("--dense-n", type=int, default=20000)
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument("--out", required=True)
    p_net.add_argument("--audit-out", default=None)
    p_net.set_defaults(func=cmd_net)

    p_mesh = subs.add_parser("mesh", help="refine and export the complex")
    p_mesh.add_argument("--manifold", required=True)
    p_mesh.add_argument("--dense-n", type=int, default=20000)
    p_mesh.add_argument("--net-in", default=None,
                        help="start from this point file instead of "
                             "sampling a fresh net; no two points may lie "
                             "within eps/9")
    p_mesh.add_argument("--out-prefix", required=True)
    _add_param_flags(p_mesh)
    p_mesh.set_defaults(func=cmd_mesh)

    p_ver = subs.add_parser("verify", help="check exported artifacts")
    p_ver.add_argument("--complex", required=True)
    p_ver.add_argument("--points", required=True)
    p_ver.add_argument("--manifold", required=True)
    p_ver.add_argument("--delta2", type=float, required=True)
    p_ver.add_argument("--euler", type=int, default=None)
    p_ver.add_argument("--dense-n", type=int, default=0,
                       help="witness count for the restricted oracle "
                            "(0 skips it)")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_hyp = subs.add_parser("hypotheses",
                            help="derived constants and parameter checks")
    p_hyp.add_argument("--manifold", required=True)
    p_hyp.add_argument("--out", default=None)
    _add_param_flags(p_hyp)
    p_hyp.set_defaults(func=cmd_hypotheses)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "dense_n", 0) < 0:
            raise ValueError(f"--dense-n must be >= 0, got {args.dense_n}")
        return args.func(args)
    except TandelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
