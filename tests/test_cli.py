"""End-to-end tests of the excite-iter command line."""

import json
import os

import numpy as np
import pytest

from excite_iter import kernels
from excite_iter.cli import main


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
    def test_run_and_cache_reuse(self, tmp_path):
        cache = tmp_path / "gs.csv"
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        code = run_cli(["quartic", "--g", "3.0", "--points", "4001",
                        "--xmax", "4.0", "--out", str(out1),
                        "--gs-cache", str(cache)])
        assert code == 0
        assert cache.exists()
        mtime = cache.stat().st_mtime_ns
        code = run_cli(["quartic", "--g", "3.0", "--points", "4001",
                        "--xmax", "4.0", "--out", str(out2),
                        "--gs-cache", str(cache)])
        assert code == 0
        # second run loads the cache instead of rewriting it
        assert cache.stat().st_mtime_ns == mtime
        # and does not emit its own groundstate.csv
        assert not (out2 / "groundstate.csv").exists()
        a = json.loads(read(out1 / "summary.json"))
        b = json.loads(read(out2 / "summary.json"))
        assert a["eps_sequence"] == b["eps_sequence"]

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


class TestErrors:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["soluble"])  # missing --delta
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
        assert "error:" in capsys.readouterr().err

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
        # x_max / anchor = 3/2, so n_points - 1 must be a multiple of 6
        assert "--points 16001; --points 16003 puts it on one" in err
        assert not (tmp_path / "summary.json").exists()

    def test_grid_too_coarse_for_the_well_exits_1(self, tmp_path, capsys):
        code = run_cli(["quartic", "--g", "3", "--points", "7",
                        "--anchor", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "both bracket ends blew up" in err
        assert "on 7 nodes (h=0.667)" in err
        assert "raise --points" in err

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_nonpositive_tol_exits_1(self, tmp_path, capsys, tol):
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
