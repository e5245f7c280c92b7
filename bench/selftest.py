"""Fast self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Checks that BENCHMARK.json and the harness name the same metrics, that
the tracer restores every patched name and gets nesting, self time,
failures and hooks right, and that the per-layer derivation and two
workloads' run and check steps work end to end on inputs that take
about a second.  Exits non-zero on any failure.
"""
import json
import math
import unittest

import numpy as np

import run  # pins BLAS threads and imports tandel from this checkout
import inputs
import layers
import workloads
from tandel import geometry, manifolds, refine, stars
from tandel.errors import DegenerateSimplex
from tandel.manifolds import SampleSet
from tandel.refine import Parameters
from tracer import Tracer


def cocircular_patch():
    """Four exactly cocircular points guarded by a ring: one rule-2 pick."""
    square = [(0.5 * np.cos(t), 0.5 * np.sin(t), 0.0)
              for t in np.pi / 4 + np.pi / 2 * np.arange(4)]
    ring = [(1.5 * np.cos(t + 0.1) * (1 + 0.01 * k),
             1.5 * np.sin(t + 0.1) * (1 + 0.01 * k), 0.0)
            for k, t in enumerate(np.linspace(0, 2 * np.pi, 9)[:-1])]
    return SampleSet(points=np.array(square + ring), epsilon=1.3,
                     sparsity=0.0)


TINY_PARAMS = dict(epsilon=1.3, gamma0=0.05, alpha=0.25, beta=4.5,
                   delta0=0.05, mode="practical", seed=3)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            layers.METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertTrue(any(m["name"] == "setup_s"
                            for m in spec["end_to_end"]))

    def test_torus_nets_are_one_net_turned_about_the_axis(self):
        a, b = inputs.torus_net(1), inputs.torus_net(2)
        self.assertFalse(np.allclose(a, b))
        np.testing.assert_allclose(a[:, 2], b[:, 2])
        np.testing.assert_allclose(np.hypot(a[:, 0], a[:, 1]),
                                   np.hypot(b[:, 0], b[:, 1]))
        torus = manifolds.parse_manifold(inputs.TORUS_SPEC)
        self.assertLess(max(torus.implicit_residual(p) for p in a), 1e-9)

    def test_unit_seeds_are_distinct_and_start_at_the_seed(self):
        self.assertEqual(inputs.unit_seed(11, 0), 11)
        seeds = {inputs.unit_seed(s, j) for s in range(50) for j in range(6)}
        self.assertEqual(len(seeds), 300)


class TracerTest(unittest.TestCase):
    def test_patches_are_restored(self):
        before = (refine.refine_sample, refine.classify_gamma,
                  geometry.classify_gamma, stars.TangentialComplex.build,
                  manifolds.TorusOfRevolution.sample)
        with Tracer():
            self.assertIsNot(refine.classify_gamma, before[1])
            self.assertIs(refine.classify_gamma, geometry.classify_gamma)
        after = (refine.refine_sample, refine.classify_gamma,
                 geometry.classify_gamma, stars.TangentialComplex.build,
                 manifolds.TorusOfRevolution.sample)
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_failure_nesting_and_self_time(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        tracer = Tracer()
        with tracer:
            with self.assertRaises(DegenerateSimplex):
                geometry.min_weighted_radius((0, 1, 2), pts, 0.05)
        summary = tracer.summary()
        mwr = summary["geometry.min_weighted_radius"]
        self.assertEqual(mwr["calls"], 1)
        self.assertEqual(mwr["failed"], {"DegenerateSimplex": 1})
        # edge_extremes runs inside min_weighted_radius: a child span
        self.assertIn("geometry.edge_extremes", summary)
        ids, dur, self_time, _outer = tracer.arrays()
        self.assertTrue((self_time <= dur + 1e-12).all())
        root = int(np.flatnonzero(np.frombuffer(tracer.parent,
                                                dtype=np.int32) < 0)[0])
        self.assertAlmostEqual(mwr["s"], float(dur[root]))

    def test_traced_refinement_derives_every_metric(self):
        counts = layers.Counts()
        tracer = Tracer(hooks=counts.hooks())
        with tracer:
            state = refine.refine_sample(cocircular_patch(), inputs.FLAT,
                                         Parameters(**TINY_PARAMS))
        got = layers.derive(tracer.summary(), counts, state, None,
                            unit_s=1.0, overhead_s=0.0,
                            n_spans=len(tracer.name_id))
        self.assertEqual(set(got), {name for name, _ in layers.METRICS})
        self.assertTrue(all(math.isfinite(v) for v in got.values()))
        self.assertEqual(got["refine.counters.rule2_cosph"],
                         state.counters["rule2_cosph"])
        self.assertEqual(got["refine.find_hitting_set.calls"],
                         state.counters["pick_attempts"])
        self.assertGreater(got["refine.insert.s"], got["refine.insert.self_s"])
        self.assertGreater(got["stars.insert_point.calls"], 0)
        self.assertLessEqual(got["stars.cut_ratio"], 1.0)
        self.assertEqual(got["refine.pick_accept_ratio"],
                         len(state.events) / state.counters["pick_attempts"])


class WorkloadTest(unittest.TestCase):
    def test_flat_oracle_unit_on_tiny_sites(self):
        wl = workloads.FlatOracle()
        sites = inputs.flat_sites(3, n_ring=12, eps_in=0.3)
        graph, band = inputs.flat_geodesic_graph(sites)
        gap = float(np.sort(np.linalg.norm(
            sites[:, None] - sites[None], axis=2), axis=1)[:, 1].min())
        inp = {"seed": 3, "sites": sites, "gap": gap, "graph": graph,
               "band": band, "witnesses": inputs.witness_grid()}
        res = wl.run(inp, 2)
        self.assertEqual(wl.check(inp, res), [])
        self.assertEqual(res.n_vertices, len(sites))
        # a triangle missing from the output must be caught
        res.simplices = res.simplices[:-1]
        self.assertTrue(any("misjudged" in msg
                            for msg in wl.check(inp, res)))

    def test_circumcircle_member_agrees_with_tandel(self):
        sites = inputs.flat_sites(5, n_ring=12, eps_in=0.3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            tri = tuple(sorted(rng.choice(len(sites), 3, replace=False)))
            sp = geometry.circumsphere(tri, sites[:, :2])
            others = np.setdiff1d(np.arange(len(sites)), list(tri))
            dmin = np.linalg.norm(sites[others, :2] - sp.center,
                                  axis=1).min()
            self.assertEqual(workloads._circumcircle_member(tri, sites),
                             bool(dmin >= sp.radius * (1 - 1e-9)))

    def test_lattice_unit_checks_and_digest(self):
        wl = workloads.LatticePick()
        inp = wl.prepare(3, run.OUT_DIR)
        inp["sample"] = cocircular_patch()
        inp["params"] = Parameters(**TINY_PARAMS)
        res = wl.run(inp, 2)
        self.assertEqual(wl.check(inp, res), [])
        digest = workloads.output_digest(res.points, res.simplices)
        self.assertEqual(digest, workloads.output_digest(
            res.points.copy(), list(reversed(res.simplices))))
        res.state.final_audit["cosph_entries"] = 2
        self.assertIn("final_audit.cosph_entries=2", wl.check(inp, res))

    def test_captured_refinement_restores(self):
        original = refine.refine_sample
        with workloads.captured_refinement() as seen:
            state = refine.refine_sample(cocircular_patch(), inputs.FLAT,
                                         Parameters(**TINY_PARAMS))
        self.assertIs(refine.refine_sample, original)
        self.assertIs(seen["state"], state)
        self.assertGreater(seen["s"], 0.0)


if __name__ == "__main__":
    unittest.main()
