"""End-to-end tests of the excite-iter command line."""

import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from array import array

import numpy as np
import pytest

import excite_iter
from excite_iter import cli, kernels
from excite_iter.cli import main
from excite_iter.errors import NoEigenvalueError
from excite_iter.excite import TrialFunction, run
from excite_iter.groundstate import Grid, default_x_max
from excite_iter.potential import DeltaBox, Quartic
from excite_iter.soluble import exact_epsilon


def read(path):
    with open(path, "rb") as f:
        return f.read()


def run_cli(args):
    return main(args)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("soluble")
    code = run_cli(["soluble", "--delta", "0.1", "--points", "2001",
                    "--out", str(d)])
    assert code == 0
    return d


class TestSolubleRun:
    def test_artifacts_exist(self, outdir):
        for name in ("summary.json", "chi_curves.csv", "wavefunctions.csv",
                     "groundstate.csv", "groundstate.csv.json"):
            assert (outdir / name).exists()

    def test_summary_echoes_config(self, outdir):
        summary = json.loads(read(outdir / "summary.json"))
        assert summary["case"] == "soluble"
        assert summary["delta"] == 0.1
        assert summary["g"] is None
        assert summary["trial"] == "linear"
        assert summary["grid"]["n_points"] == 2001
        assert summary["grid"]["x_max"] == 1.0
        assert summary["kernel_backend"] in ("cython", "python")
        assert summary["kernel_backend_reason"] == kernels.BACKEND_REASON

    def test_summary_reports_convergence(self, outdir):
        summary = json.loads(read(outdir / "summary.json"))
        assert summary["status"] == "converged"
        assert summary["eps"] == pytest.approx(summary["eps_exact"], rel=1e-6)
        assert len(summary["eps_sequence"]) >= 3
        assert summary["e_odd"] == pytest.approx(
            summary["e_gd"] + summary["eps"], rel=1e-14)

    def test_summary_carries_the_half_grid_estimate(self, outdir):
        summary = json.loads(read(outdir / "summary.json"))
        assert summary["eps_disc_err_reason"] is None
        assert summary["eps_richardson"] == (summary["eps"]
                                             + summary["eps_disc_err"])

    def test_chi_curves_columns(self, outdir):
        header = read(outdir / "chi_curves.csv").splitlines()[0].decode()
        cols = header.split(",")
        assert cols[0] == "x"
        assert cols[1] == "chi_0"
        assert cols[-1] == "chi_exact"

    def test_wavefunctions_vanish_at_ends(self, outdir):
        data = np.genfromtxt(outdir / "wavefunctions.csv", delimiter=",",
                             names=True)
        assert data["psi_ex"][0] == 0.0
        assert abs(data["psi_ex"][-1]) < 1e-12


class TestQuarticRun:
    def test_default_trial_is_saturating(self, tmp_path):
        code = run_cli(["quartic", "--g", "3.0", "--points", "2001",
                        "--xmax", "4.0", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["trial"] == "saturating"

    def test_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["quartic", "--g", "3.0", "--points", "2001", "--xmax", "4.0"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        for name in ("summary.json", "chi_curves.csv", "wavefunctions.csv",
                     "groundstate.csv"):
            assert read(out1 / name) == read(out2 / name)


class TestOptionsReachTheConfig:
    @pytest.fixture
    def configs(self, monkeypatch):
        configs = []

        def capture(config):
            configs.append(config)
            return {"e_gd": 1.0, "eps_sequence": [0.5], "status": "converged",
                    "e_odd": 1.5, "e_mean": 1.25, "eps": 0.5,
                    "eps_disc_err": None, "eps_richardson": None,
                    "eps_disc_err_reason": "not run"}

        monkeypatch.setattr(cli, "run_case", capture)
        return configs

    def test_bare_run_gives_the_config_defaults(self, configs):
        assert run_cli(["soluble", "--delta", "0.1"]) == 0
        assert configs == [cli.RunConfig(case="soluble", delta=0.1)]

    def test_every_option_lands_on_its_field(self, configs):
        assert run_cli(["quartic", "--g", "3", "--anchor", "0.5",
                        "--trial", "linear", "--iters", "5", "--tol", "1e-7",
                        "--xmax", "4", "--points", "2001", "--out", "o"]) == 0
        assert configs == [cli.RunConfig(
            case="quartic", g=3.0, anchor_x0=0.5, trial="linear",
            max_iters=5, tol=1e-7, x_max=4.0, n_points=2001, out_dir="o")]


class TestCompare:
    def test_soluble_reference_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["soluble", "--delta", "0.1", "--out", str(out)]) == 0
        code = run_cli(["compare", "--summary", str(out / "summary.json"),
                        "--ref", "eq_3_17"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS" in captured

    def test_perturbed_summary_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["soluble", "--delta", "0.1", "--out", str(out)]) == 0
        path = out / "summary.json"
        summary = json.loads(read(path))
        summary["eps_sequence"][0] += 1e-3
        path.write_text(json.dumps(summary))
        code = run_cli(["compare", "--summary", str(path),
                        "--ref", "eq_3_17"])
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in captured

    def test_published_g3_ground_energy_is_outside_its_tolerance(
            self, tmp_path, capsys):
        # the program's E_gd(3) sits 2.1e-4 below eq. (4.5)'s 2.48291,
        # just outside its 2e-4 (ROADMAP, the three acceptance failures)
        out = tmp_path / "run"
        assert run_cli(["quartic", "--g", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = run_cli(["compare", "--summary", str(out / "summary.json"),
                        "--ref", "eq_4_5"])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  e_gd     actual=2.482696853 expected=2.48291 "
            "abs_dev=2.131e-04 rel_dev=8.585e-05 tol=2.0e-04 FAIL",
            "overall: FAIL"]

    def test_published_g8_ground_energy_passes(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["quartic", "--g", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        code = run_cli(["compare", "--summary", str(out / "summary.json"),
                        "--ref", "eq_A_5"])
        captured = capsys.readouterr().out.splitlines()
        assert code == 0
        assert captured[1].startswith("  e_gd     actual=7.727338559 ")
        assert captured[1].endswith(" PASS")
        assert captured[2] == "overall: PASS"

    def test_summary_of_another_case_fails(self, tmp_path, capsys):
        # a soluble run whose e_gd lies within eq_4_5's tolerance of the
        # quartic g=3 value: the table's case, not its values, fails it
        out = tmp_path / "run"
        assert run_cli(["soluble", "--delta", "0.9132", "--out",
                        str(out)]) == 0
        capsys.readouterr()
        path = out / "summary.json"
        code = run_cli(["compare", "--summary", str(path), "--ref", "eq_4_5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[1] == "  case     actual=soluble expected=quartic FAIL"
        assert lines[2].startswith("  e_gd     actual=2.482866")
        assert lines[2].endswith(" PASS")
        assert lines[3] == "overall: FAIL"
        summary = json.loads(read(path))
        del summary["case"]
        path.write_text(json.dumps(summary))
        assert run_cli(["compare", "--summary", str(path),
                        "--ref", "eq_4_5"]) == 1
        assert capsys.readouterr().out.splitlines()[1] \
            == "  case     actual=MISSING expected=quartic FAIL"

    def test_value_missing_from_the_summary_fails(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["soluble", "--delta", "0.1", "--iters", "2",
                        "--out", str(out)]) == 0
        assert len(json.loads(read(out / "summary.json"))
                   ["eps_sequence"]) == 2
        capsys.readouterr()
        code = run_cli(["compare", "--summary", str(out / "summary.json"),
                        "--ref", "eq_3_17"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line.split()[-1] for line in lines[1:3]] == ["PASS", "PASS"]
        assert lines[3:] == ["  eps_3    MISSING from summary",
                             "overall: FAIL"]

    @pytest.mark.parametrize("summary, named", [
        ([], "not a JSON object"),
        ({"eps_sequence": ["a"]}, "eps_1 is not a number: 'a'"),
        ({"eps_sequence": [True, 0.3, 0.3]}, "eps_1 is not a number: True"),
        ({"eps_sequence": "0.5"}, "eps_sequence is not a list")],
        ids=["list", "string", "bool", "not-a-list"])
    def test_malformed_summary_exits_1_naming_the_key(self, tmp_path,
                                                      summary, named):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        proc = subprocess.run(
            [sys.executable, "-m", "excite_iter.cli", "compare",
             "--summary", str(path), "--ref", "eq_3_17"],
            env=TestProcessEntry.env(), capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert f"{path}: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestErrors:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["soluble"])  # missing --delta
        assert exc.value.code == 2

    def test_soluble_takes_no_xmax(self, tmp_path):
        # the box ends at x = 1, the only edge the soluble case can take
        with pytest.raises(SystemExit) as exc:
            run_cli(["soluble", "--delta", "0.1", "--xmax", "1",
                     "--points", "2001", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_case_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["cubic", "--g", "1.0"])
        assert exc.value.code == 2

    def test_bad_delta_exits_1(self, tmp_path, capsys):
        code = run_cli(["soluble", "--delta", "-0.1", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_even_points_exits_1(self, tmp_path, capsys):
        code = run_cli(["soluble", "--delta", "0.1", "--points", "2000",
                        "--out", str(tmp_path)])
        assert code == 1
        assert ("error: --points must be odd, got 2000\n"
                == capsys.readouterr().err)
        assert not (tmp_path / "summary.json").exists()

    def test_anchor_off_the_grid_exits_1_before_solving(self, tmp_path,
                                                        capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("ground state solved before the check")

        monkeypatch.setattr("excite_iter.cli.solve_groundstate_numeric",
                            no_solve)
        code = run_cli(["quartic", "--g", "3", "--xmax", "1.5",
                        "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--anchor 1.0" in err and "--xmax 1.5" in err
        # x_max / anchor = 3/2, so (n_points - 1) / 2 must be a multiple of
        # 6 for the anchor to lie on the grid and on its half grid
        assert ("--points 4001; --points 3997 puts it on a node of the grid "
                "and of its half grid" in err)
        for anchor in ("inf", "nan"):
            code = run_cli(["quartic", "--g", "3", "--anchor", anchor,
                            "--out", str(tmp_path)])
            assert code == 1
            assert (f"error: --anchor {anchor} is not a node of the grid "
                    "with --xmax 4.0 and --points 4001: it lies outside "
                    "[0, 4.0]\n" == capsys.readouterr().err)
        assert not (tmp_path / "summary.json").exists()

    def test_zero_coupling_exits_1_and_writes_nothing(self, tmp_path,
                                                      capsys):
        out = tmp_path / "out"
        code = run_cli(["quartic", "--g", "0", "--out", str(out)])
        assert code == 1
        assert ("error: coupling g must be positive, got 0.0\n"
                == capsys.readouterr().err)
        assert files_in(out) == []

    @pytest.mark.parametrize("args, name", [
        (["quartic", "--g", "inf"], "coupling g"),
        (["quartic", "--g", "3", "--xmax", "inf"], "x_max")])
    def test_infinite_value_exits_1_and_writes_nothing(self, tmp_path,
                                                       capsys, args, name):
        out = tmp_path / "out"
        code = run_cli(args + ["--points", "2001", "--out", str(out)])
        assert code == 1
        assert (f"error: {name} must be finite, got inf\n"
                == capsys.readouterr().err)
        assert files_in(out) == []

    @pytest.mark.parametrize("x_max", ["1e200", "1e77"])
    def test_overflowing_xmax_exits_1_naming_xmax(self, tmp_path, capsys,
                                                  x_max):
        # V(x_max) overflows to inf, and the WKB start with it (NaN at
        # 1e200, inf at 1e77): the message names --xmax, not --g
        out = tmp_path / "out"
        code = run_cli(["quartic", "--g", "3", "--xmax", x_max,
                        "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --xmax {float(x_max)} gives the WKB "
                              "tail no finite start (V(x_max)=inf")
        assert err.endswith("lower --xmax\n") and "--g" not in err
        assert files_in(out) == []

    def test_grid_too_coarse_for_the_well_exits_1(self, tmp_path, capsys):
        code = run_cli(["quartic", "--g", "3", "--points", "7",
                        "--anchor", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "both bracket ends blew up" in err
        assert "on 7 nodes (h=0.667)" in err
        assert "raise --points" in err
        assert "--g" not in err

    @pytest.mark.parametrize("points", ["4001", "16001"])
    def test_coupling_above_the_range_blows_up_naming_g(self, tmp_path,
                                                        capsys, points):
        """More points do not help a coupling the window was not made
        for, so the message names --g and its range, not --points."""
        out = tmp_path / "out"
        code = run_cli(["quartic", "--g", "1e20", "--points", points,
                        "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --g 1e+20: both bracket ends blew up")
        assert f"on {points} nodes" in err
        assert err.endswith("default_bracket is validated for g in "
                            "[0.7, 12], so keep --g in that range\n")
        assert "--points" not in err
        assert files_in(out) == []

    def test_coupling_below_the_bracket_exits_1_naming_g(self, tmp_path,
                                                         capsys):
        """So does a coupling so large that the window's center
        overflows."""
        out = tmp_path / "out"
        for g, window in [
                ("0.01", "(0.004, 0.016) holds no ground state at this "
                         "coupling"),
                ("9e307", "(3.6e+307, 1.44e+308) overflows"),
                ("1e308", "(4e+307, 1.6e+308) overflows")]:
            code = run_cli(["quartic", "--g", g, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: --g {float(g)}: the energy "
                                  f"window (0.4g, 1.6g) = {window}")
            assert err.endswith("default_bracket is validated for g in "
                                "[0.7, 12]\n")
            assert files_in(out) == []

    @pytest.mark.parametrize("args, edge", [
        (["--g", "1e-10"], "--xmax 40.0 is inside the classically allowed "
                           "region of --g 1e-10"),
        (["--g", "3", "--xmax", "0.5", "--anchor", "0.5"],
         "--xmax 0.5 is inside the classically allowed region of --g 3.0")],
        ids=["default-xmax-tiny-g", "short-xmax"])
    def test_edge_inside_the_allowed_region_exits_1_naming_xmax_and_g(
            self, tmp_path, capsys, args, edge):
        out = tmp_path / "out"
        code = run_cli(["quartic", *args, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edge} at E=")
        assert err.endswith("raise --xmax, or keep --g in the validated "
                            "range [0.7, 12]\n")
        assert files_in(out) == []

    @pytest.mark.parametrize("tol", ["-1", "0", "1", "inf"])
    def test_tol_outside_0_1_exits_1(self, tmp_path, capsys, tol):
        code = run_cli(["soluble", "--delta", "0.1", "--tol", tol,
                        "--points", "201", "--out", str(tmp_path)])
        assert code == 1
        assert "error: --tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("case", [
        ["soluble", "--delta", "0.1"],
        ["quartic", "--g", "3", "--anchor", "4"]])
    def test_too_few_points_exits_1(self, tmp_path, capsys, case):
        code = run_cli(case + ["--points", "3", "--out", str(tmp_path)])
        assert code == 1
        assert "error: --points must be at least 5, got 3" \
            in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("iters", ["0", "-2"])
    def test_nonpositive_iters_exits_1(self, tmp_path, capsys, iters):
        code = run_cli(["soluble", "--delta", "0.1", "--iters", iters,
                        "--points", "201", "--out", str(tmp_path)])
        assert code == 1
        assert f"error: --iters must be at least 1, got {iters}" \
            in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()


# sha256 of chi_curves.csv of default soluble --delta 0.1 runs, recorded
# while the chi_exact column was rescaled by a compiled kernel: the rescale
# in Python keeps every byte
_PINNED_CHI_CURVES = {
    ("linear", "0.5"):
        "5bb9f71c482f371dde80d5a40198c0d7d5ce8ce752ba8bb8d59bac19774c95f6",
    ("linear", "1"):
        "697efa74b208e269e12fd4b066a3500b1837fb8573bde8f1004af86e74d87f1c",
    ("saturating", "0.5"):
        "87062880bbb1bdd3a63d387df10e75ec3166854c4782fbd7c3c8baa9b8d50ef4",
    ("saturating", "1"):
        "44896576ac4490efcb0ff1315135a47529634a056032bffde510c965249c425c",
}


def test_chi_curves_bytes_are_pinned(tmp_path):
    digests = {}
    for trial, anchor in _PINNED_CHI_CURVES:
        out = tmp_path / f"{trial}-{anchor}"
        assert run_cli(["soluble", "--delta", "0.1", "--trial", trial,
                        "--anchor", anchor, "--out", str(out)]) == 0
        digests[trial, anchor] = hashlib.sha256(
            read(out / "chi_curves.csv")).hexdigest()
    assert digests == _PINNED_CHI_CURVES


QUARTIC = ["quartic", "--g", "3", "--points", "2001", "--xmax", "4.0"]
SOLUBLE = ["soluble", "--delta", "0.1", "--points", "2001"]


def files_in(path):
    return sorted(p.name for p in path.iterdir()) if path.exists() else []


def test_failure_after_the_iteration_leaves_no_file(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("exact_chi failed")

    monkeypatch.setattr("excite_iter.cli.soluble.exact_chi", fail)
    out = tmp_path / "out"
    code = run_cli(SOLUBLE + ["--out", str(out)])
    assert code == 1
    assert files_in(out) == []


ARTIFACTS = ["chi_curves.csv", "groundstate.csv", "groundstate.csv.json",
             "summary.json", "wavefunctions.csv"]


class TestArtifactWriting:
    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_write_failure_exits_1_naming_the_file(self, tmp_path, capsys,
                                                  name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = run_cli(SOLUBLE + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out / name) in err
        assert files_in(tmp_path) == ["out"]

    def test_successful_run_prints_nothing_on_stderr(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(excite_iter.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "excite_iter.cli", *QUARTIC,
             "--out", str(tmp_path)], env=env, capture_output=True,
            timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert proc.stdout.startswith(b"e_gd = ")

    @pytest.mark.parametrize("args", [QUARTIC, SOLUBLE],
                             ids=["quartic", "soluble"])
    def test_a_run_writes_the_five_artifacts(self, tmp_path, args):
        assert run_cli(args + ["--out", str(tmp_path / "out")]) == 0
        assert files_in(tmp_path) == ["out"]
        assert files_in(tmp_path / "out") == ARTIFACTS

    def test_gs_cache_is_an_unrecognized_argument(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            run_cli(SOLUBLE + ["--out", "out", "--gs-cache", "x.csv"])
        assert exit_.value.code == 2
        assert ("error: unrecognized arguments: --gs-cache x.csv"
                in capsys.readouterr().err)
        assert files_in(tmp_path) == []


#: the keys of every summary.json, and those only one case adds
SUMMARY_KEYS = [
    "anchor_x0", "case", "delta", "delta_sequence", "e_gd", "e_mean",
    "e_odd", "eps", "eps_disc_err", "eps_disc_err_reason", "eps_richardson",
    "eps_sequence", "g", "grid", "kernel_backend", "kernel_backend_reason",
    "max_iters", "orth_residuals", "status", "tol", "trial"]
SOLUBLE_KEYS = ["chi_exact_rescaled_to_anchor", "eps_1_closed_form",
                "eps_exact", "eps_series"]
G8_KEYS = ["e_asymp", "eps_asymp"]


@pytest.mark.parametrize("args, extra", [
    (["soluble", "--delta", "0.1"], SOLUBLE_KEYS),
    (["quartic", "--g", "3"], []),
    (["quartic", "--g", "8"], G8_KEYS),
], ids=["soluble", "quartic-g3", "quartic-g8"])
def test_summary_keys_of_a_default_run(tmp_path, args, extra):
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "summary.json"))
    assert sorted(summary) == sorted(SUMMARY_KEYS + extra)


class TestHalfGridEstimate:
    """eps_disc_err, the Richardson estimate from the half grid, or null
    with the reason on stdout."""

    def test_default_soluble_run_is_corrected_towards_the_closed_form(
            self, tmp_path, capsys):
        assert run_cli(["soluble", "--delta", "0.1",
                        "--out", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["grid"]["n_points"] == 4001
        exact = exact_epsilon(0.1)
        assert (abs(summary["eps_richardson"] - exact)
                < abs(summary["eps"] - exact))
        line = capsys.readouterr().out.splitlines()[-1]
        assert line == (
            f"eps_richardson = {cli._fmt(summary['eps_richardson'])}, "
            f"eps_disc_err = {summary['eps_disc_err']:.2g}")

    def test_unconverged_run_says_the_estimate_covers_the_grid_only(
            self, tmp_path, capsys):
        # the estimate is at the rounding floor, but after 8 steps eps is
        # still about 1.5e-6 from the closed form
        assert run_cli(["soluble", "--delta", "1.5",
                        "--out", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "summary.json"))
        assert summary["status"] == "max_iters"
        exact = exact_epsilon(1.5)
        assert abs(summary["eps_richardson"] - exact) > 1e-7 * exact
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"eps_richardson = {cli._fmt(summary['eps_richardson'])}, "
            "eps_disc_err at the rounding floor (below 1e-14 relative); "
            "the iteration has not converged (status max_iters), so the "
            "estimate covers the grid only")

    @pytest.mark.parametrize("points, fit", [("2003", "2001"), ("7", "9")])
    def test_count_not_1_mod_4_gives_null_and_the_reason(
            self, tmp_path, capsys, points, fit):
        assert run_cli(["soluble", "--delta", "0.1", "--points", points,
                        "--out", str(tmp_path)]) == 0
        reason = (f"--points {points} is not 1 more than a multiple of 4, "
                  "so its half grid would have an even node count; "
                  f"--points {fit} gives an estimate")
        self.assert_null(tmp_path, capsys, reason)

    def test_anchor_off_the_half_grid_gives_null_and_the_reason(
            self, tmp_path, capsys):
        # x_max 4 and 4009 nodes: h = 1/1002 on the grid, 1/501 on the half
        assert run_cli(["quartic", "--g", "3", "--anchor", "0.5", "--points",
                        "4009", "--out", str(tmp_path)]) == 0
        self.assert_null(
            tmp_path, capsys, "--anchor 0.5 is not a node of the 2005-node "
            "half grid; --points 4001 puts it on a node of both")

    def test_half_grid_run_that_stops_early_gives_null(
            self, tmp_path, capsys, monkeypatch):
        def one_step_short(gs, trial, anchor_x0, max_iters, tol):
            if gs.grid.n_points == 1001:
                max_iters -= 1
            return run(gs, trial, anchor_x0=anchor_x0, max_iters=max_iters,
                       tol=tol)

        monkeypatch.setattr(cli, "run", one_step_short)
        assert run_cli(SOLUBLE + ["--out", str(tmp_path)]) == 0
        steps = len(json.loads(read(tmp_path / "summary.json"))
                    ["eps_sequence"])
        self.assert_null(tmp_path, capsys, "the 1001-node half-grid run "
                         f"stopped (max_iters) after {steps - 1} of {steps} "
                         "steps")

    def test_half_grid_solve_that_fails_gives_null(self, tmp_path, capsys,
                                                   monkeypatch):
        solve = cli.solve_groundstate_numeric

        def fail_on_the_half_grid(potential, grid):
            if grid.n_points == 1001:
                raise NoEigenvalueError("no root")
            return solve(potential, grid)

        monkeypatch.setattr(cli, "solve_groundstate_numeric",
                            fail_on_the_half_grid)
        assert run_cli(QUARTIC + ["--out", str(tmp_path)]) == 0
        self.assert_null(tmp_path, capsys,
                         "the 1001-node half-grid run failed: no root")

    @staticmethod
    def assert_null(out, capsys, reason):
        summary = json.loads(read(out / "summary.json"))
        assert summary["eps_disc_err"] is None
        assert summary["eps_richardson"] is None
        assert summary["eps_disc_err_reason"] == reason
        assert capsys.readouterr().out.splitlines()[-1] == (
            "eps_richardson = null, eps_disc_err = null: " + reason)

    def test_estimate_below_1e_14_is_at_the_rounding_floor(self):
        summary = {"eps": 2.0, "eps_disc_err": 1.9e-14,
                   "eps_richardson": 2.0 + 1.9e-14, "status": "converged"}
        assert cli._estimate_line(summary) == (
            "eps_richardson = 2.0000000000000191, eps_disc_err at the "
            "rounding floor (below 1e-14 relative)")
        summary.update(eps_disc_err=-2.1e-14, eps_richardson=2.0 - 2.1e-14)
        assert cli._estimate_line(summary) == (
            "eps_richardson = 1.9999999999999789, eps_disc_err = -2.1e-14")

    @pytest.mark.parametrize("case, param", [
        ("soluble", 0.1), ("soluble", 0.77), ("soluble", 1.5),
        ("quartic", 0.7), ("quartic", 3.0), ("quartic", 8.0),
        ("quartic", 12.0)])
    def test_estimate_is_within_a_factor_2_of_the_error(self, case, param):
        """At 1001-4001 nodes, wherever eps is more than 1e-13 (relative)
        from the limit, e is within a factor of 2 of limit - eps.  The
        limit is the closed form for the soluble case, and the Richardson
        limit of 32001 and 64001 nodes for the quartic one."""
        if case == "soluble":
            potential, x_max = DeltaBox(param), 1.0
            trial, limit = TrialFunction.linear(), exact_epsilon(param)
        else:
            potential, x_max = Quartic(param), default_x_max(param)
            trial, limit = TrialFunction.saturating(), None

        def converged(n_points):
            gs = cli._solve(potential, Grid(x_max, n_points))
            return gs, run(gs, trial, max_iters=60, tol=1e-15)

        if limit is None:
            fine, finer = (converged(n)[1].eps for n in (32001, 64001))
            limit = finer + (finer - fine) / 15.0
        checked = []
        for n_points in (1001, 2001, 4001):
            gs, report = converged(n_points)
            err, reason = cli._half_grid_error(gs, trial, 1.0, report)
            assert reason is None
            true = limit - report.eps
            if abs(true) > 1e-13 * limit:
                assert 0.5 <= err / true <= 2.0, (n_points, err, true)
                checked.append(n_points)
        assert 1001 in checked


# run at exit by every process entry test: the thread count at that point
ATEXIT_HOOK = """\
import atexit, os, sys

def report():
    threads = "?"
    if os.path.exists("/proc/self/status"):
        with open("/proc/self/status") as f:
            threads = next(line.split()[1] for line in f
                           if line.startswith("Threads:"))
    print("atexit", threads, "excite_iter.cli" in sys.modules)

atexit.register(report)
"""
RUN_MODULE = ATEXIT_HOOK + """\
import runpy
runpy.run_module("excite_iter.cli", run_name="__main__")
"""


class TestProcessEntry:
    """python -m excite_iter.cli and the excite-iter script end in
    excite_iter.cli._cli_process: one thread, and no interpreter teardown
    after main, with the same exit codes, the atexit callbacks run and
    stdout flushed."""

    @staticmethod
    def env(**extra):
        # buffered stdout, so that a closed pipe fails at the entry's
        # flush and not inside main
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
        src = os.path.dirname(os.path.dirname(excite_iter.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        return {**env, **extra}

    def spawn(self, argv, env=None, **kwargs):
        kwargs.setdefault("capture_output", True)
        return subprocess.run([sys.executable, *argv], env=env or self.env(),
                              timeout=120, **kwargs)

    @pytest.mark.parametrize("args, code, err", [
        (SOLUBLE, 0, b""),
        (["soluble", "--delta", "-0.1"], 1, b"error: delta must lie in"),
        (["soluble"], 2, b"usage: excite-iter soluble")])
    def test_exit_codes_are_mains(self, tmp_path, args, code, err):
        proc = self.spawn(["-m", "excite_iter.cli", *args,
                         "--out", str(tmp_path)])
        assert proc.returncode == code
        assert proc.stderr.startswith(err)

    def test_stdout_to_a_file_arrives_whole(self, tmp_path, capsys):
        assert run_cli(SOLUBLE + ["--out", str(tmp_path / "here")]) == 0
        expected = capsys.readouterr().out.encode()
        with open(tmp_path / "stdout", "wb") as f:
            proc = self.spawn(["-m", "excite_iter.cli", *SOLUBLE,
                             "--out", str(tmp_path / "there")], stdout=f,
                            stderr=subprocess.PIPE, capture_output=False)
        assert proc.returncode == 0, proc.stderr
        assert read(tmp_path / "stdout") == expected

    @pytest.mark.parametrize("caller, threads", [(None, "1"), ("2", "1")])
    def test_atexit_hooks_run_and_blas_has_one_thread(self, tmp_path,
                                                      caller, threads):
        """The hook runs after main's output, in a process of one thread:
        no BLAS is loaded, so an OPENBLAS_NUM_THREADS the caller set
        starts no thread either.  No module excite_iter.cli is loaded:
        cli.py ran once, as __main__."""
        env = self.env(**({"OPENBLAS_NUM_THREADS": caller} if caller
                          else {}))
        proc = self.spawn(["-c", RUN_MODULE, *SOLUBLE, "--out",
                         str(tmp_path)], env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0].startswith("e_gd = ")
        assert lines[-1].split()[0] == "atexit"
        assert lines[-1].split()[2] == "False"
        if sys.platform.startswith("linux"):
            assert lines[-1].split()[1] == threads

    def test_stdout_to_a_closed_pipe_exits_120_without_a_traceback(
            self, tmp_path):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.spawn(["-m", "excite_iter.cli", *SOLUBLE,
                             "--out", str(tmp_path)], stdout=w,
                            stderr=subprocess.PIPE, capture_output=False)
        finally:
            os.close(w)
        assert proc.returncode == 120
        assert proc.stderr == b""

    def test_unbuffered_stdout_to_a_closed_pipe_exits_120(self, tmp_path):
        """As `excite-iter soluble ... | head -3` once head has exited:
        with PYTHONUNBUFFERED=1 main's own print meets the closed pipe."""
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.spawn(["-m", "excite_iter.cli", *SOLUBLE,
                               "--out", str(tmp_path)], stdout=w,
                              stderr=subprocess.PIPE, capture_output=False,
                              env=self.env(PYTHONUNBUFFERED="1"))
        finally:
            os.close(w)
        assert proc.returncode == 120
        assert proc.stderr == b""

    def test_compare_to_a_closed_pipe_exits_120(self, tmp_path):
        """As `excite-iter compare ... | head -1` once head has exited:
        the report's print meets the closed pipe, which is no error of
        the comparison."""
        assert run_cli(SOLUBLE + ["--out", str(tmp_path)]) == 0
        r, w = os.pipe()
        os.close(r)
        try:
            proc = self.spawn(["-m", "excite_iter.cli", "compare",
                               "--summary", str(tmp_path / "summary.json"),
                               "--ref", "eq_3_17"], stdout=w,
                              stderr=subprocess.PIPE, capture_output=False,
                              env=self.env(PYTHONUNBUFFERED="1"))
        finally:
            os.close(w)
        assert proc.returncode == 120
        assert proc.stderr == b""

    def test_imports_load_no_numpy_and_set_no_environment(self):
        code = ("import os, sys\n"
                "import excite_iter\n"
                "print('numpy' in sys.modules)\n"
                "import excite_iter.cli\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                "print(all(hasattr(excite_iter, name)\n"
                "          for name in excite_iter.__all__))\n")
        proc = self.spawn(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split() == ["False", "None", "True"]

    def test_script_target_takes_the_same_entry(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(excite_iter.__file__))))
        if not os.path.isfile(os.path.join(root, "pyproject.toml")):
            pytest.skip("package not run from its source tree")
        with open(os.path.join(root, "pyproject.toml"), "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["excite-iter"]
        module, attr = target.split(":")
        assert (getattr(importlib.import_module(module), attr)
                is cli._cli_process)
        # the console-script wrapper pip writes, after the hook
        script = tmp_path / "excite-iter"
        script.write_text(ATEXIT_HOOK + (
            "import re\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '',"
            " sys.argv[0])\n"
            f"    sys.exit({attr}())\n"))
        proc = self.spawn([str(script), *SOLUBLE, "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0].startswith("e_gd = ")
        assert lines[-1].split()[0] == "atexit"
        if sys.platform.startswith("linux"):
            assert lines[-1].split()[1] == "1"
        assert self.spawn([str(script), "soluble"]).returncode == 2


class TestSameBytesFromEveryBackendAndCheckout:
    """A CLI process writes the same artifacts and stdout whichever
    backend ran it and whichever copy of the package it ran from."""

    @staticmethod
    def spawn(src, args, out, **env):
        """stdout of a CLI process on the package in src."""
        env = dict(os.environ, PYTHONPATH=str(src), **env)
        proc = subprocess.run(
            [sys.executable, "-m", "excite_iter.cli", *args,
             "--out", str(out)], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("args", [["soluble", "--delta", "0.3"],
                                      ["quartic", "--g", "3"]],
                             ids=["soluble", "quartic"])
    def test_backends_write_the_same_bytes(self, tmp_path, args):
        try:
            kernels.get_backend("cython")
        except ImportError as exc:
            pytest.skip(str(exc))
        # a cache "directory" that is a file: no compiled kernel
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        src = os.path.dirname(os.path.dirname(excite_iter.__file__))
        runs = {}
        for backend, env in (("cython", {}),
                             ("python", {"XDG_CACHE_HOME": str(blocker)})):
            out = tmp_path / backend
            stdout = self.spawn(src, args + ["--points", "401"], out, **env)
            files = {p.name: read(p) for p in out.iterdir()}
            summary = json.loads(files.pop("summary.json"))
            assert summary.pop("kernel_backend") == backend
            del summary["kernel_backend_reason"]
            runs[backend] = stdout, files, summary
        assert runs["python"] == runs["cython"]

    @pytest.mark.parametrize("args", [["soluble", "--delta", "0.3"],
                                      ["quartic", "--g", "3"]],
                             ids=["soluble", "quartic"])
    def test_poisoned_blocks_write_the_same_bytes(self, tmp_path, capsys,
                                                  monkeypatch, args):
        # a run in this process whose blocks of iterates hold NaN until
        # written, on each backend's kernels, writes what a CLI process
        # writes
        args = args + ["--points", "401"]
        src = os.path.dirname(os.path.dirname(excite_iter.__file__))
        stdout = self.spawn(src, args, tmp_path / "spawned")
        files = {p.name: read(p) for p in (tmp_path / "spawned").iterdir()}
        summary = json.loads(files.pop("summary.json"))
        del summary["kernel_backend"], summary["kernel_backend_reason"]
        empty = kernels.empty
        for backend in ("python", "cython"):
            try:
                chosen = kernels.get_backend(backend)
            except ImportError:
                continue
            for name in ("excite_step", "weighted_simpson", "sample_nodes"):
                monkeypatch.setattr(kernels, name, getattr(chosen, name))
            sizes = []

            def poisoned_empty(n):
                block = empty(n)
                block[:] = array("d", [math.nan]) * n
                sizes.append(n)
                return block

            monkeypatch.setattr(kernels, "empty", poisoned_empty)
            out = tmp_path / backend
            assert main(args + ["--out", str(out)]) == 0
            assert sizes
            assert capsys.readouterr().out.encode() == stdout
            poisoned = {p.name: read(p) for p in out.iterdir()}
            poisoned_summary = json.loads(poisoned.pop("summary.json"))
            del poisoned_summary["kernel_backend"]
            del poisoned_summary["kernel_backend_reason"]
            assert (poisoned, poisoned_summary) == (files, summary)

    def test_summary_does_not_depend_on_the_checkout(self, tmp_path):
        # two copies share one kernel cache: the first builds the kernel
        # (or finds no compiler), the second loads that build
        cache = str(tmp_path / "cache")
        summaries = []
        for checkout in ("a", "b"):
            src = tmp_path / checkout / "src"
            shutil.copytree(os.path.dirname(excite_iter.__file__),
                            src / "excite_iter",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = tmp_path / checkout / "out"
            self.spawn(src, ["soluble", "--delta", "0.1"], out,
                       XDG_CACHE_HOME=cache)
            summaries.append(read(out / "summary.json"))
        assert summaries[0] == summaries[1]
