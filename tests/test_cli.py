"""Command-line driver: artifacts, exit codes, determinism."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

from conftest import disk_points
from tandel import cli
from tandel.cli import main
from tandel.errors import TandelError
from tandel.manifolds import FlatPatch, UnitSphere, farthest_point_net

SPHERE = "sphere:m=2,N=3"
FLAT = "flat:m=2,N=3"


def run(*argv):
    return main([str(a) for a in argv])


# ===== net =====

class TestNet:
    def test_points_and_audit(self, tmp_path):
        out = tmp_path / "net.txt"
        code = run("net", "--manifold", SPHERE, "--epsilon", 0.3,
                   "--dense-n", 20000, "--seed", 3, "--out", out)
        assert code == 0
        pts = np.loadtxt(out)
        audit = json.loads((tmp_path / "net.txt.audit.json").read_text())
        assert audit["schema"] == "tandel-report/1"
        assert audit["n_points"] == len(pts)
        assert audit["sparsity"] > 0.3
        assert audit["sparsity_status"] == "PASS"
        assert audit["covering_radius"] <= 0.3
        assert audit["covering_status"] == "PASS"
        # every net point actually on the sphere
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9

    def test_huge_epsilon_single_point(self, tmp_path):
        out = tmp_path / "one.txt"
        code = run("net", "--manifold", SPHERE, "--epsilon", 2.5,
                   "--dense-n", 4000, "--seed", 0, "--out", out)
        assert code == 0
        assert np.loadtxt(out, ndmin=2).shape == (1, 3)

    def test_malformed_spec_is_usage_error(self, tmp_path):
        code = run("net", "--manifold", "sphere:m=9", "--epsilon", 0.3,
                   "--out", tmp_path / "x.txt")
        assert code == 2

    @pytest.mark.parametrize("eps", ["-0.3", "nan"])
    def test_negative_or_nan_epsilon_is_usage_error(self, tmp_path, eps):
        code = run("net", "--manifold", SPHERE, "--epsilon", eps,
                   "--dense-n", 200, "--out", tmp_path / "x.txt")
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = run("net", "--manifold", SPHERE, "--epsilon", 0.3,
                   "--dense-n", 200, "--seed", -3, "--out", tmp_path / "x.txt")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative int, got -3\n")
        assert not (tmp_path / "x.txt").exists()


# ===== mesh =====

class TestMesh:
    def mesh_args(self, prefix, **over):
        base = {"--manifold": SPHERE, "--dense-n": 8000, "--epsilon": 0.35,
                "--seed": 5, "--out-prefix": prefix}
        base.update(over)
        args = ["mesh"]
        for k, v in base.items():
            args += [k, v]
        return args

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*self.mesh_args(a)) == 0
        assert run(*self.mesh_args(b)) == 0
        for suffix in (".points.txt", ".simplices.txt", ".events.log",
                       ".off"):
            one = (tmp_path / ("a" + suffix)).read_bytes()
            two = (tmp_path / ("b" + suffix)).read_bytes()
            assert one == two, suffix
        ra = json.loads((tmp_path / "a.report.json").read_text())
        rb = json.loads((tmp_path / "b.report.json").read_text())
        assert ra == rb

    def test_report_contents(self, tmp_path):
        prefix = tmp_path / "m"
        assert run(*self.mesh_args(prefix)) == 0
        rep = json.loads((tmp_path / "m.report.json").read_text())
        assert rep["schema"] == "tandel-report/1"
        assert rep["status"] == "ok"
        meas = rep["measurements"]
        assert meas["euler_characteristic"] == 2
        assert meas["manifold_complex_ok"] is True
        assert meas["min_edge"] > 0.35 / 9
        assert 0 < meas["min_thickness"] <= 1.0
        assert meas["min_protection_margin"] > meas["protection_threshold"]
        assert rep["insertions"]["total"] == sum(
            rep["insertions"][k] for k in
            ("rule1", "rule2_star", "rule2_cosph", "rule2_inconsistent"))
        # every refinement counter reaches the report
        counters = rep["counters"]
        assert set(counters) == {
            "rule1", "rule2_star", "rule2_cosph", "rule2_inconsistent",
            "pick_attempts", "pick_audit_miss", "shrinks", "iterations"}
        assert all(isinstance(v, int) and v >= 0 for v in counters.values())
        for key, count in rep["insertions"].items():
            if key != "total":
                assert counters[key] == count
        assert counters["iterations"] > rep["insertions"]["total"]
        assert counters["pick_attempts"] >= (
            rep["insertions"]["total"] - counters["rule1"])
        # event log line per insertion, with the audited distance
        lines = (tmp_path / "m.events.log").read_text().splitlines()
        assert len(lines) == rep["insertions"]["total"]
        assert all("dist_to_P=" in ln for ln in lines)

    def test_flat_patch_zero_rule_two_and_planar_delaunay(self, tmp_path):
        # A flat sample refines outward forever unless its rim is convex
        # and fat, so the terminating fixture is a staggered polar disk
        # handed to mesh directly rather than an internally sampled net.
        pts_in = disk_points()
        net_path = tmp_path / "disk.txt"
        np.savetxt(net_path, pts_in, fmt="%.17g")
        prefix = tmp_path / "flat"
        code = run("mesh", "--manifold", FLAT, "--net-in", net_path,
                   "--epsilon", 0.5, "--gamma0", 0.005, "--delta0", 0.01,
                   "--seed", 1, "--out-prefix", prefix)
        assert code == 0
        rep = json.loads((tmp_path / "flat.report.json").read_text())
        assert rep["insertions"]["rule2_star"] == 0
        assert rep["insertions"]["rule2_cosph"] == 0
        assert rep["insertions"]["rule2_inconsistent"] == 0
        pts = np.loadtxt(tmp_path / "flat.points.txt", ndmin=2)
        got = {tuple(sorted(int(v) for v in ln.split()))
               for ln in (tmp_path / "flat.simplices.txt").read_text()
               .splitlines() if len(ln.split()) == 3}
        want = {tuple(sorted(int(v) for v in s))
                for s in Delaunay(pts[:, :2]).simplices}
        assert got == want

    def test_empty_net_in_is_usage_error(self, tmp_path, capsys):
        net_path = tmp_path / "empty.txt"
        net_path.write_text("# no rows\n\n")
        code = run(*self.mesh_args(tmp_path / "e", **{"--net-in": net_path}))
        assert code == 2
        assert f"{net_path}: no points" in capsys.readouterr().err
        assert not (tmp_path / "e.points.txt").exists()

    def test_net_in_width_is_usage_error(self, tmp_path, capsys):
        net_path = tmp_path / "wide.txt"
        net_path.write_text("0 0 1 0\n1 0 0 0\n")
        code = run(*self.mesh_args(tmp_path / "w", **{"--net-in": net_path}))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {net_path}: 4 columns, manifold is embedded in "
            f"dimension 3\n")
        assert not (tmp_path / "w.points.txt").exists()

    def test_repeated_net_point_is_one_error_line(self, tmp_path, capsys):
        net = farthest_point_net(UnitSphere(2, 3).sample(8000, seed=5),
                                 eps=0.35, seed=5)
        pts_in = np.vstack([net.points, net.points[3]])
        net_path = tmp_path / "net.txt"
        np.savetxt(net_path, pts_in, fmt="%.17g")
        code = run(*self.mesh_args(tmp_path / "r", **{"--net-in": net_path}))
        assert code == 1
        err = capsys.readouterr().err
        last = len(pts_in) - 1
        assert err == (f"error: SparsityViolation: sample points 3 and "
                       f"{last} coincide\n")

    def test_close_net_points_are_one_error_line(self, tmp_path, capsys):
        pts = FlatPatch(2, 3).sample(40, seed=3)
        pts_in = np.vstack([pts, pts[0] + [1e-8, 0.0, 0.0]])
        net_path = tmp_path / "net.txt"
        np.savetxt(net_path, pts_in, fmt="%.17g")
        prefix = tmp_path / "c"
        code = run("mesh", "--manifold", FLAT, "--net-in", net_path,
                   "--epsilon", 0.5, "--out-prefix", prefix)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SparsityViolation: sample points 0 "
                              "and 40 are 1e-08 apart")
        assert err.count("\n") == 1
        assert not (tmp_path / "c.points.txt").exists()

    def test_strict_mode_refuses_and_reports_h5(self, tmp_path, capsys):
        prefix = tmp_path / "s"
        code = run(*self.mesh_args(prefix, **{"--mode": "strict"}))
        assert code == 1
        err = capsys.readouterr().err
        assert "H5" in err and "ratio" in err
        rep = json.loads((tmp_path / "s.report.json").read_text())
        assert rep["status"] == "refused"
        names = {it["name"]: it["satisfied"] for it in rep["hypotheses"]}
        assert names["H5"] is False

    def test_removed_update_radius_key_is_usage_error(self, tmp_path,
                                                      capsys):
        # insertion has no radius to set any more, and the iteration cap
        # and the pick budget are the constants refine.ITERATION_CAP and
        # refine.PICK_ATTEMPT_BUDGET; an old parameters file naming any
        # of them is refused like any other unknown key
        for key, value in [("update_radius_mult", 12), ("iteration_cap", 50),
                           ("pick_attempt_budget", 1000)]:
            params_path = tmp_path / f"{key}.params"
            params_path.write_text(
                "epsilon = 0.35\ngamma0 = 0.05\nalpha = 0.25\n"
                f"beta = 4.5\ndelta0 = 0.05\n{key} = {value}\n")
            prefix = tmp_path / "u"
            code = run("mesh", "--manifold", SPHERE, "--dense-n", 2000,
                       "--params", params_path, "--out-prefix", prefix)
            assert code == 2
            err = capsys.readouterr().err
            assert err == (f"error: {params_path}:6: unknown parameter "
                           f"{key!r}\n")
            assert not (tmp_path / "u.points.txt").exists()

    @pytest.mark.parametrize("flag", ["--epsilon", "--beta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_or_beta_is_usage_error(self, tmp_path,
                                                       capsys, flag, value):
        net_path = tmp_path / "net.txt"
        np.savetxt(net_path, disk_points(), fmt="%.17g")
        prefix = tmp_path / "n"
        code = run("mesh", "--manifold", FLAT, "--net-in", net_path,
                   flag, value, "--out-prefix", prefix)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {flag[2:]} must be positive and finite\n")
        assert not (tmp_path / "n.points.txt").exists()

    def test_circle_is_unsupported_dim(self, tmp_path, capsys):
        """``parse_manifold`` takes m = 1, but a cell's corners need
        Qhull, which needs m >= 2; the complex refuses before any star."""
        code = run("mesh", "--manifold", "sphere:m=1,N=2", "--epsilon", 0.3,
                   "--dense-n", 2000, "--out-prefix", tmp_path / "c1")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: UnsupportedDim: tangential complex needs m >= 2, "
            "not 1\n")
        assert not (tmp_path / "c1.points.txt").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        net_path = tmp_path / "n.txt"
        np.savetxt(net_path, disk_points(), fmt="%.17g")
        params_path = tmp_path / "p.params"
        params_path.write_text("epsilon = 0.5\ngamma0 = 0.05\nalpha = 0.25\n"
                               "beta = 4.5\ndelta0 = 0.05\n")
        for extra in (["--seed", -3], ["--params", params_path, "--seed", -3]):
            code = run("mesh", "--manifold", FLAT, "--net-in", net_path,
                       "--out-prefix", tmp_path / "s", *extra)
            assert code == 2
            assert capsys.readouterr().err == (
                "error: seed must be a non-negative int, got -3\n")
            assert not (tmp_path / "s.points.txt").exists()

    @staticmethod
    def outputs(prefix):
        return [Path(f"{prefix}{suffix}").read_bytes() for suffix in (
            ".points.txt", ".simplices.txt", ".events.log", ".report.json")]

    def test_flag_beats_params_file(self, tmp_path):
        """``--params p --epsilon 0.2`` runs as every value given by flag
        with ``--epsilon 0.2``: the file's seed reaches the run and its
        epsilon does not.  The flag used to be dropped."""
        params_path = tmp_path / "p.params"
        params_path.write_text("epsilon = 0.35\ngamma0 = 0.05\nalpha = 0.25\n"
                               "beta = 4.5\ndelta0 = 0.05\nmode = practical\n"
                               "seed = 5\n")
        common = ["mesh", "--manifold", SPHERE, "--dense-n", 8000]
        assert run(*common, "--params", params_path, "--epsilon", 0.2,
                   "--out-prefix", tmp_path / "a") == 0
        assert run(*common, "--epsilon", 0.2, "--gamma0", 0.05,
                   "--alpha", 0.25, "--beta", 4.5, "--delta0", 0.05,
                   "--mode", "practical", "--seed", 5,
                   "--out-prefix", tmp_path / "b") == 0
        assert self.outputs(tmp_path / "a") == self.outputs(tmp_path / "b")

    def test_params_file_keys_left_out_take_defaults(self, tmp_path):
        """A file naming epsilon alone runs as ``--epsilon`` alone; it
        used to end in the constructor's TypeError."""
        params_path = tmp_path / "p.params"
        params_path.write_text("epsilon = 0.2\n")
        common = ["mesh", "--manifold", SPHERE, "--dense-n", 8000]
        assert run(*common, "--params", params_path,
                   "--out-prefix", tmp_path / "a") == 0
        assert run(*common, "--epsilon", 0.2,
                   "--out-prefix", tmp_path / "b") == 0
        assert self.outputs(tmp_path / "a") == self.outputs(tmp_path / "b")

    @pytest.mark.parametrize("line,message", [
        ("epsilon = 0.4", "repeated parameter 'epsilon'"),
        ("seed = 1.5", "seed = '1.5' does not parse as int")],
        ids=["repeated", "bad-value"])
    def test_params_file_error_is_one_line(self, tmp_path, capsys, line,
                                           message):
        params_path = tmp_path / "p.params"
        params_path.write_text(f"epsilon = 0.35\ngamma0 = 0.05\n{line}\n")
        out = tmp_path / "out"
        out.mkdir()
        for argv in (["mesh", "--dense-n", 2000, "--out-prefix", out / "m"],
                     ["hypotheses", "--out", out / "h.json"]):
            code = run(*argv, "--manifold", SPHERE, "--params", params_path)
            assert code == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {params_path}:3: {message}\n"
            assert captured.out == ""
            assert not any(out.iterdir())

    def test_off_manifold_net_point_is_named(self, tmp_path, capsys):
        net = farthest_point_net(UnitSphere(2, 3).sample(8000, seed=5),
                                 eps=0.35, seed=5)
        pts_in = net.points.copy()
        pts_in[4] *= 1.1
        net_path = tmp_path / "net.txt"
        np.savetxt(net_path, pts_in, fmt="%.17g")
        code = run(*self.mesh_args(tmp_path / "o", **{"--net-in": net_path}))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: PointNotOnManifold: point 4: residual 1.000e-01 exceeds "
            "1e-09\n")
        assert not (tmp_path / "o.points.txt").exists()


# ===== verify =====

@pytest.fixture(scope="module")
def meshed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("meshed")
    prefix = tmp / "m"
    code = main(["mesh", "--manifold", SPHERE, "--dense-n", "8000",
                 "--epsilon", "0.35", "--seed", "5",
                 "--out-prefix", str(prefix)])
    assert code == 0
    return tmp


class TestVerify:
    def test_refined_artifacts_pass(self, meshed):
        code = main([
            "verify", "--complex", str(meshed / "m.simplices.txt"),
            "--points", str(meshed / "m.points.txt"),
            "--manifold", SPHERE, "--delta2", "1e-8", "--euler", "2",
            "--dense-n", "40000"])
        assert code == 0

    def test_hand_broken_complex_fails_naming_vertices(self, meshed,
                                                       tmp_path, capsys):
        lines = (meshed / "m.simplices.txt").read_text().splitlines()
        tris = [ln for ln in lines if len(ln.split()) == 3]
        removed = tris[7].split()
        broken = tmp_path / "broken.txt"
        broken.write_text(
            "\n".join(ln for ln in lines if ln != tris[7]) + "\n")
        code = main([
            "verify", "--complex", str(broken),
            "--points", str(meshed / "m.points.txt"),
            "--manifold", SPHERE, "--delta2", "1e-8"])
        assert code == 1
        out = capsys.readouterr().out
        assert "manifold_complex: FAIL" in out
        assert any(v in out for v in removed)

    def test_coarse_witness_sample_is_one_error_line(self, meshed, capsys):
        code = main([
            "verify", "--complex", str(meshed / "m.simplices.txt"),
            "--points", str(meshed / "m.points.txt"),
            "--manifold", SPHERE, "--delta2", "1e-8", "--dense-n", "5000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DenseSampleTooCoarse: ")
        assert err.count("\n") == 1

    def test_four_manifold_skips_the_manifold_check(self, tmp_path, capsys):
        """Two 4-simplices on ``flat:m=4,N=5``: the closed-manifold test
        knows m in {2, 3} only, so it is left out, as ``tandel mesh``
        leaves it out, and the other checks run."""
        pts = tmp_path / "p.txt"
        pts.write_text("0 0 0 0 0\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n"
                       "0 0 0 1 0\n1.2 1.1 1.0 0.9 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2 3 4\n1 2 3 4 5\n")
        out = tmp_path / "r.json"
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", "flat:m=4,N=5", "--delta2", "1e-6",
                     "--euler", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out == ("power_protection: PASS\n"
                                "euler_characteristic: PASS\n")
        checks = json.loads(out.read_text())["checks"]
        assert sorted(checks) == ["euler_characteristic", "power_protection"]

    def test_cocircular_square_protection_margin_zero(self, tmp_path,
                                                      capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("0 0 0\n1 0 0\n1 1 0\n0 1 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2\n")
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", FLAT, "--delta2", "1e-9",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        prot = rep["checks"]["power_protection"]
        assert prot["ok"] is False
        assert abs(prot["min_margin"]) < 1e-12

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_delta2_is_usage_error(self, tmp_path, capsys,
                                              value):
        # every entry used to fail against the threshold, with exit 1
        pts = tmp_path / "p.txt"
        pts.write_text("0 0 0\n1 0 0\n0 1 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2\n")
        out = tmp_path / "r.json"
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", FLAT, f"--delta2={value}",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --delta2 must be finite, got {float(value)}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_point_row_is_usage_error(self, tmp_path, capsys,
                                                 bad):
        pts = tmp_path / "p.txt"
        pts.write_text(f"# header\n0 0 1\n1 0 0\n{bad} 0 0\n0 1 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--complex", str(cpx), "--points",
                         str(pts), "--manifold", SPHERE, "--delta2", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pts}:4: non-finite coordinate\n")


    @pytest.mark.parametrize("spec,rows,width,dim", [
        ("torus:R=2,r=0.5", "2.5 0 0 0\n0 2.5 0 0\n1.5 0 0 0\n", 4, 3),
        (SPHERE, "1 0\n0 1\n-1 0\n", 2, 3)], ids=["torus-4", "sphere-2"])
    def test_point_width_is_usage_error(self, tmp_path, capsys, spec, rows,
                                        width, dim):
        # a wider file failed inside the protection audit with a numpy
        # reshape error, a narrower one as a point off the manifold
        pts = tmp_path / "p.txt"
        pts.write_text(rows)
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2\n")
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", spec, "--delta2", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pts}: {width} columns, manifold is embedded in "
            f"dimension {dim}\n")

    def test_off_manifold_point_is_named(self, tmp_path, capsys):
        # the error used to give the residual but not the point; every
        # point is checked, a vertex of the complex (2) or not (3)
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2\n")
        for rows, label in [("0 1 0.5\n", 2), ("0 1 0\n0 1 0.5\n", 3)]:
            pts = tmp_path / "p.txt"
            pts.write_text("0 0 1\n1 0 0\n" + rows)
            code = main(["verify", "--complex", str(cpx), "--points",
                         str(pts), "--manifold", SPHERE, "--delta2", "1e-9"])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: PointNotOnManifold: point {label}: residual "
                f"1.180e-01 exceeds 1e-09\n")

    @pytest.mark.parametrize("line,message", [
        pytest.param(f"0 1 {label}", "vertex labels must be in 0..2",
                     id=label) for label in ("7", "3", "-1")] + [
        pytest.param("1 1 2", "duplicate vertex indices in simplex (1, 1, 2)",
                     id="repeated"),
        pytest.param("2 0 2", "duplicate vertex indices in simplex (0, 2, 2)",
                     id="repeated-unsorted")] + [
        pytest.param(f"0 1 {token}",
                     f"could not convert string to int: {token!r}", id=name)
        for name, token in [("word", "x"), ("decimal", "2.0"),
                            ("exponent", "2e0"), ("sign", "-"),
                            ("glued", "2x"), ("comma", "1,2")]])
    def test_vertex_label_out_of_range_is_usage_error(self, tmp_path,
                                                      capsys, line, message):
        # a label past the points used to end in an IndexError traceback,
        # a negative one indexed from the end and passed, and a repeated
        # one was reported without its line
        pts = tmp_path / "p.txt"
        pts.write_text("0 0 1\n1 0 0\n0 1 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text(f"# header\n{line}\n")
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", SPHERE, "--delta2", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cpx}:2: {message}\n"

    @pytest.mark.parametrize("rows,line,token", [
        ("0 0 1\n1 0 abc\n0 1 0\n", 2, "abc"),
        ("# header\n0 0 1\n\n1,0,\n0 1 0\n", 4, ""),
        ("0 0 1\n1 0 0\n0 1 0x\n", 3, "0x")],
        ids=["word", "empty-field", "glued"])
    def test_non_number_coordinate_is_usage_error(self, tmp_path, capsys,
                                                  rows, line, token):
        pts = tmp_path / "p.txt"
        pts.write_text(rows)
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1 2\n")
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", SPHERE, "--delta2", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pts}:{line}: could not convert string to float: "
            f"{token!r}\n")

    def test_earliest_bad_line_is_named(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("0 0 1\n1 0 0\n0 1 0\n")
        cpx = tmp_path / "k.txt"
        cpx.write_text("0 1\n0 1 9\n1 1\n")
        code = main(["verify", "--complex", str(cpx), "--points", str(pts),
                     "--manifold", SPHERE, "--delta2", "1e-9"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cpx}:2: vertex labels must be in 0..2\n")

    def test_comments_blanks_commas_and_open_faces_verify_alike(
            self, meshed, tmp_path):
        """Comment and blank lines in both files, comma-separated point
        rows, and a complex file of its triangles alone give the
        ``verify.json`` of the mesh's own files."""
        def verify_json(cpx, pts, name):
            out = tmp_path / name
            code = main(["verify", "--complex", str(cpx), "--points",
                         str(pts), "--manifold", SPHERE, "--delta2", "1e-8",
                         "--euler", "2", "--out", str(out)])
            assert code == 0
            return out.read_text()

        cpx, pts = meshed / "m.simplices.txt", meshed / "m.points.txt"
        want = verify_json(cpx, pts, "plain.json")
        lines = cpx.read_text().splitlines()
        tris = tmp_path / "tris.txt"
        tris.write_text("# triangles only\n\n" + "\n".join(
            " ".join(ln.split()[::-1]) + "  # reversed"
            for ln in lines if len(ln.split()) == 3) + "\n")
        rows = pts.read_text().splitlines()
        csv = tmp_path / "p.csv"
        csv.write_text("# x, y, z\n" + "\n".join(
            (",".join(r.split()) if i % 2 else r) + ("\n" if i % 5 else "")
            for i, r in enumerate(rows)) + "\n\n")
        assert verify_json(tris, csv, "other.json") == want


def test_non_finite_net_in_row_is_usage_error(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    net_path.write_text("0 0 1\n0 0 nan\n")
    code = run("mesh", "--manifold", SPHERE, "--net-in", net_path,
               "--out-prefix", tmp_path / "n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {net_path}:2: non-finite coordinate\n")
    assert not (tmp_path / "n.points.txt").exists()


@pytest.mark.parametrize("command", ["net", "mesh", "verify"])
def test_negative_dense_n_is_usage_error(tmp_path, capsys, command):
    # numpy used to refuse it with "negative dimensions are not allowed"
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 1\n1 0 0\n0 1 0\n")
    cpx = tmp_path / "k.txt"
    cpx.write_text("0 1 2\n")
    out = tmp_path / "out"
    out.mkdir()
    argv = {"net": ["--epsilon", 0.3, "--out", out / "n.txt"],
            "mesh": ["--out-prefix", out / "m"],
            "verify": ["--complex", cpx, "--points", pts, "--delta2", 1e-9,
                       "--out", out / "v.json"]}[command]
    code = run(command, "--manifold", SPHERE, "--dense-n", -5, *argv)
    assert code == 2
    assert capsys.readouterr().err == "error: --dense-n must be >= 0, got -5\n"
    assert not any(out.iterdir())


# ===== hypotheses =====

class TestHypotheses:
    def test_constants_and_h1_threshold(self, capsys):
        code = main(["hypotheses", "--manifold", SPHERE,
                     "--alpha", "0.25", "--delta0", "0.1"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        consts = rep["constants"]
        assert consts["mu0"] == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert consts["mu0_fraction"] == "1/9"
        assert consts["eps_tilde0"] == pytest.approx(1.0 / 4624.0, rel=1e-15)
        assert consts["eps_tilde0_fraction"] == "1/4624"
        h1 = next(it for it in rep["items"] if it["name"] == "H1")
        assert h1["bound"] == pytest.approx(1849600.0 / 685773.0, abs=1e-9)

    def test_negative_seed_is_usage_error(self, capsys):
        code = main(["hypotheses", "--manifold", SPHERE, "--seed", "-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: seed must be a non-negative int, got -3\n")
        assert captured.out == ""

    def test_flag_beats_params_file(self, tmp_path, capsys):
        # the flag used to be dropped, giving the file's eps/rch = 0.6
        params_path = tmp_path / "p.params"
        params_path.write_text("epsilon = 0.3\nmode = strict\n")
        main(["hypotheses", "--manifold", "torus:R=2,r=0.5",
              "--params", str(params_path), "--epsilon", "0.2"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["constants"]["eps_tilde"] == pytest.approx(0.4, rel=1e-15)
        assert rep["mode"] == "strict"

    def test_strict_sphere_fails_h5_with_ratio(self, capsys):
        code = main(["hypotheses", "--manifold", SPHERE, "--mode", "strict",
                     "--epsilon", "0.3"])
        assert code == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["ok"] is False
        h5 = next(it for it in rep["items"] if it["name"] == "H5")
        assert h5["satisfied"] is False
        assert h5["margin_ratio"] > 1.0


# ===== error contract =====

def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


@pytest.mark.parametrize("exc_type", _subclasses(TandelError),
                         ids=lambda exc_type: exc_type.__name__)
def test_tandel_error_exits_one_with_one_line(exc_type, monkeypatch, capsys):
    def failing(_args):
        raise exc_type("planted failure")

    monkeypatch.setattr(cli, "cmd_hypotheses", failing)
    assert main(["hypotheses", "--manifold", SPHERE]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc_type.__name__}: planted failure\n"
    assert captured.out == ""


def test_cli_import_leaves_scipy_optimize_unloaded():
    """No ``tandel`` module imports ``scipy.optimize``; only the subset
    enumeration the ambient route is tested against needs it."""
    code = ("import sys, tandel.cli; "
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
