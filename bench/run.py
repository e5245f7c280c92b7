"""Benchmark of the tandel package: one workload, one seed, one process.

    python3 bench/run.py --workload torus-mesh --seed 11 --seconds 44 \\
        --trace 0

Sets up the run's seeded inputs, runs units of the workload on them until
the next unit would end past ``--seconds``, checks every unit's output,
and prints one JSON line per unit followed, as the last line, by
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end figures, measured with tracing off; with
``--trace 1`` each unit runs once untraced and once traced on the same
input, and the metrics are the per-layer figures of the traced runs.
Details (environment, counters, final audits, output digests) and the
spans go to ``.bench_out/`` in the repository root.  See bench/README.md.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the runs measure the single-threaded program, and the
# pinned count is recorded with each result.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    import tandel  # noqa: E402
except ImportError as exc:
    sys.exit(f"bench: cannot import tandel from {SRC}: {exc}")
if SRC.resolve() not in Path(tandel.__file__).resolve().parents:
    sys.exit(f"bench: tandel was imported from {tandel.__file__}, "
             f"not from {SRC}")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import layers  # noqa: E402
from inputs import unit_seed  # noqa: E402
from tandel import _kernels  # noqa: E402
from tandel.errors import TandelError  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, UnitFailed, output_digest  # noqa: E402

SETUP_REPEATS = 3

IMPORT_S = time.perf_counter() - T_START
clock = time.perf_counter

# (name, unit); bounds and directions live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("mesh_s", "s"),
    ("verify_s", "s"),
    ("insert_ms", "ms"),
    ("n_vertices", "count"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "tandel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": _kernels.using_numba(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": _commit(),
        "src_sha256": h.hexdigest(),
    }


def speed_probe() -> float:
    """Seconds for a fixed computation that does not touch tandel.

    Recorded before every unit: when the machine's speed drifts between
    runs, this figure drifts with it, which tells a slow run of the
    program from a slow machine.
    """
    t0 = clock()
    pts = np.random.default_rng(0).random((6000, 3))
    acc = 0.0
    for row in pts:
        acc += float(np.sqrt(row @ row))
    cKDTree(pts).query(pts, k=8)
    return clock() - t0


def run_unit(workload, inp: dict, tracer=None) -> dict:
    """Run and check one unit on a prepared input; a tracer, if given,
    is active for the run."""
    gc.collect()
    record = {"seed": inp["seed"], "probe_s": speed_probe(),
              "failed_checks": []}
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = clock()
        try:
            res = workload.run(inp, 1 if tracer is not None else workload.repeats)
        except (TandelError, UnitFailed) as exc:
            record["failed_checks"] = [f"{type(exc).__name__}: {exc}"]
            record["unit_s"] = clock() - t0
            return record
        record["unit_s"] = clock() - t0
    record["failed_checks"] = workload.check(inp, res)
    record.update(
        mesh_s=res.mesh_s, verify_s=res.verify_s, insert_s=res.insert_s,
        inserted=res.inserted, n_vertices=res.n_vertices,
        protection_margin_ratio=res.protection_margin_ratio,
        digest=output_digest(res.points, res.simplices))
    if res.state is not None:
        record["counters"] = dict(res.state.counters)
        record["final_audit"] = res.state.final_audit
    record["_result"] = res
    return record


def traced_unit(workload, inp: dict, plain: dict) -> dict:
    """Rerun a unit traced and derive its per-layer figures."""
    counts = layers.Counts()
    tracer = Tracer(unit=inp["seed"], hooks=counts.hooks())
    record = run_unit(workload, inp, tracer)
    res = record.get("_result")
    if res is None:
        return record
    summary = tracer.summary()
    untraced = statistics.fmean(plain.get("mesh_s", res.mesh_s))
    record["layers"] = layers.derive(
        summary, counts, res.state, res.protection_margin_ratio,
        unit_s=record["unit_s"],
        overhead_s=statistics.fmean(res.mesh_s) - untraced,
        n_spans=len(tracer.name_id))
    record["spans"] = tracer.span_records()
    return record


def measure(args, workload, workdir: Path):
    """Run units, cycling through the workload's inputs, until the next
    unit would end past args.seconds.

    An input is set up when a unit first needs it, and every set-up is
    timed.  The first SETUP_REPEATS set-ups happen before the timed loop;
    a workload with fewer inputs sets its first input up again, so that
    setup_s is always the median of several set-ups.  Each unit after the
    first on an input, and each traced unit, must reproduce that input's
    output digest: the program is deterministic for a given input, and
    tracing must not change what it computes.
    """
    n_inputs = workload.inputs_per_run
    inputs, setup = {}, []

    def prepare(j):
        t0 = clock()
        inputs[j] = workload.prepare(unit_seed(args.seed, j), workdir)
        setup.append(clock() - t0)

    for j in range(SETUP_REPEATS):
        prepare(j % n_inputs)
    units, traced, digests = [], [], {}
    t_loop = clock()
    while True:
        j = len(units) % n_inputs
        if j not in inputs:
            prepare(j)
        plain = run_unit(workload, inputs[j])
        plain["input"] = j
        digest = plain.get("digest")
        if digest is not None and digests.setdefault(j, digest) != digest:
            plain["failed_checks"].append(
                "output differs from the first unit on this input")
        units.append(plain)
        if args.trace:
            rec = traced_unit(workload, inputs[j], plain)
            if rec.get("digest", digest) != digest:
                rec["failed_checks"].append(
                    "traced output differs from the untraced unit")
            traced.append(rec)
        for rec in (units[-1], *traced[-1:]):
            rec.pop("_result", None)
        print(json.dumps({"unit": len(units) - 1, **_public(plain)},
                         default=_json_default), flush=True)
        elapsed = clock() - t_loop
        if elapsed + elapsed / len(units) > args.seconds:
            return setup, units, traced


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not serialisable: {type(obj).__name__}")


def _public(record: dict) -> dict:
    return {k: v for k, v in record.items()
            if not k.startswith("_") and k != "spans"}


def end_to_end(units: list, setup: list) -> dict:
    """End-to-end figures of a run.

    A time is the mean over every timed call of its step in the run, and
    insert_ms the mean over units of time per added vertex.  The machine
    these figures were tuned on swings between two speeds about 2x apart
    for seconds to minutes at a time, so a run's figures are only as
    steady as its calls cover the run; a mean over calls spread through
    the whole run repeated best overall (see bench/README.md).
    """
    ok = [u for u in units if not u["failed_checks"]]
    timed = [u for u in ok or units if "mesh_s" in u]

    def mean(vals):
        vals = list(vals)
        return statistics.fmean(vals) if vals else 0.0

    def calls(key):
        return (t for u in timed for t in u[key])

    return {
        "setup_s": IMPORT_S + statistics.median(setup),
        "mesh_s": mean(calls("mesh_s")),
        "verify_s": mean(calls("verify_s")),
        "insert_ms": mean(1e3 * statistics.fmean(u["insert_s"])
                          / max(u["inserted"], 1) for u in timed),
        "n_vertices": float(statistics.median(
            u["n_vertices"] for u in timed)) if timed else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": len(ok) / len(units),
    }


def per_layer(traced: list) -> dict:
    rows = [t["layers"] for t in traced if "layers" in t]
    return {name: float(statistics.median(r[name] for r in rows))
            if rows else 0.0 for name, _unit in layers.METRICS}


def write_outputs(args, env, setup, units, traced, e2e, layer_vals):
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    payload = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": env, "import_s": IMPORT_S,
               "setup_s": setup, "end_to_end": e2e, "per_layer": layer_vals,
               "units": [_public(u) for u in units],
               "traced_units": [_public(t) for t in traced]}
    with open(str(stem) + ".json", "w") as fh:
        json.dump(payload, fh, indent=1, default=_json_default)
    spans = [t["spans"] for t in traced if "spans" in t]
    if spans:
        np.savez_compressed(str(stem) + ".spans.npz", **{
            col: np.concatenate([s[col] for s in spans])
            for col in spans[0]})


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    print(json.dumps({"environment": env, "import_s": IMPORT_S}), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    workload = WORKLOADS[args.workload]
    try:
        setup, units, traced = measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end(units, setup)
    layer_vals = per_layer(traced) if args.trace else {}
    write_outputs(args, env, setup, units, traced, e2e, layer_vals)
    failed = sum(1 for u in units if u["failed_checks"])
    failed += sum(1 for t in traced if t["failed_checks"])
    attempted = len(units) + len(traced)
    if args.trace:
        metrics = {name: {"value": layer_vals[name], "unit": unit}
                   for name, unit in layers.METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
