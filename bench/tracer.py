"""Outside-in tracing of the tandel layers.

A ``Tracer`` replaces the public functions of each layer module, public
methods of ``stars.TangentialComplex`` and the manifolds' ``sample``
methods with wrappers that record one span per call, in every module
namespace where the name is looked up.  Nothing under ``src/tandel`` is
edited; leaving the context restores every original.

Spans are kept in flat arrays (name id, start, end, parent, failed) so a
run with a million calls stays small, and are written out with the unit
id when the benchmark ends.  Generator functions are not wrapped: their
work happens after the call returns, so a span would only time the
creation of the generator.
"""
import functools
import inspect
import time
from array import array

import numpy as np

from tandel import _kernels, cli, geometry, manifolds, refine, stars, verify

LAYERS = {
    "manifolds": manifolds,
    "stars": stars,
    "refine": refine,
    "geometry": geometry,
    "kernels": _kernels,
    "verify": verify,
    "cli": cli,
}
_LAYER_OF_MODULE = {mod.__name__: layer for layer, mod in LAYERS.items()}

# Span names that differ from "<layer>.<function>"; both flake kernels
# share one name because they are one filter stage for two simplex sizes.
ALIASES = {
    "verify.ambient_delaunay_bruteforce": "verify.ambient",
    "verify.restricted_delaunay_oracle": "verify.restricted_oracle",
    "verify.intrinsic_delaunay_oracle": "verify.intrinsic_oracle",
    "verify.power_protection_audit": "verify.protection_audit",
    "verify.manifold_complex_check": "verify.manifold_check",
    "kernels.flake_pair_candidates": "kernels.flake_candidates",
    "kernels.flake_triple_candidates": "kernels.flake_candidates",
    "cli.cmd_net": "cli.net",
    "cli.cmd_mesh": "cli.mesh",
    "cli.cmd_verify": "cli.verify",
    "cli.cmd_hypotheses": "cli.hypotheses",
}


def _span_name(layer: str, attr: str) -> str:
    name = f"{layer}.{attr}"
    return ALIASES.get(name, name)


def _traceable(obj) -> bool:
    return (inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
            and obj.__module__ in _LAYER_OF_MODULE)


class Tracer:
    """Records spans of one unit while active (``with Tracer(unit):``).

    ``hooks`` maps a span name to a callable that receives the return
    value of each successful call; the per-layer counts that need a
    result (rows, candidates, subsets) are taken there, where the work
    happens.
    """

    def __init__(self, unit: int = 0, hooks: dict | None = None):
        self.unit = unit
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed: dict[int, str] = {}
        self._stack = [-1]
        self._patches = []

    # ---- recording ----

    def _id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = self.hooks.get(name)
        ids, starts, ends = self.name_id, self.start, self.end
        parents, stack, failed = self.parent, self._stack, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                failed[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(out)
            return out

        return traced

    # ---- patching ----

    def __enter__(self):
        wrappers = {}
        for mod in LAYERS.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _traceable(obj):
                    continue
                key = id(obj)
                if key not in wrappers:
                    layer = _LAYER_OF_MODULE[obj.__module__]
                    wrappers[key] = self._wrap(obj, _span_name(layer, attr))
                self._patch(mod, attr, obj, wrappers[key])
        for attr, obj in list(vars(stars.TangentialComplex).items()):
            if not attr.startswith("_") and _traceable(obj):
                self._patch(stars.TangentialComplex, attr, obj,
                            self._wrap(obj, f"stars.{attr}"))
        for obj in list(vars(manifolds).values()):
            if (inspect.isclass(obj) and issubclass(obj, manifolds.Manifold)
                    and "sample" in vars(obj)):
                fn = vars(obj)["sample"]
                self._patch(obj, "sample", fn,
                            self._wrap(fn, "manifolds.sample"))
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # ---- analysis ----

    def arrays(self):
        """(name ids, durations, self times, outermost flags) as arrays."""
        ids = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=float)
               - np.frombuffer(self.start, dtype=float))
        has_parent = par >= 0
        child_time = np.bincount(par[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        # a span nested inside a span of the same name is not counted
        # again in the inclusive total
        outer = np.ones(len(ids), dtype=bool)
        anc = par.copy()
        while (anc >= 0).any():
            live = anc >= 0
            same = np.zeros(len(ids), dtype=bool)
            same[live] = ids[anc[live]] == ids[live]
            outer &= ~same
            anc[live] = par[anc[live]]
        return ids, dur, self_time, outer

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, failures."""
        ids, dur, self_time, outer = self.arrays()
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        fails: dict[str, dict[str, int]] = {}
        for idx, err in self.failed.items():
            per = fails.setdefault(self.names[ids[idx]], {})
            per[err] = per.get(err, 0) + 1
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(own[i]),
                       "failed": fails.get(name, {})}
                for i, name in enumerate(self.names)}

    def span_records(self) -> dict:
        """Columns of every span, ready for np.savez."""
        return {
            "name": np.array(self.names, dtype=object)[
                np.frombuffer(self.name_id, dtype=np.int32)].astype(str),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.full(len(self.name_id), self.unit, dtype=np.int32),
        }
