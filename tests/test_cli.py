"""End-to-end tests of the excite-iter command line."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import excite_iter
from excite_iter import cli, groundstate, kernels
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
                        "--xmax", "4", "--points", "2001", "--out", "o",
                        "--gs-cache", "c.csv"]) == 0
        assert configs == [cli.RunConfig(
            case="quartic", g=3.0, anchor_x0=0.5, trial="linear",
            max_iters=5, tol=1e-7, x_max=4.0, n_points=2001, out_dir="o",
            gs_cache="c.csv")]


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

    def test_grid_too_coarse_for_the_well_exits_1(self, tmp_path, capsys):
        code = run_cli(["quartic", "--g", "3", "--points", "7",
                        "--anchor", "2", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "both bracket ends blew up" in err
        assert "on 7 nodes (h=0.667)" in err
        assert "raise --points" in err

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


QUARTIC = ["quartic", "--g", "3", "--points", "2001", "--xmax", "4.0"]
SOLUBLE = ["soluble", "--delta", "0.1", "--points", "2001"]


def files_in(path):
    return sorted(p.name for p in path.iterdir()) if path.exists() else []


class TestGroundStateCache:
    @pytest.mark.parametrize("cached, args, field, have, want", [
        (QUARTIC,
         ["quartic", "--g", "8", "--points", "2001", "--xmax", "4.0"],
         "g", "3.0", "8.0"),
        (SOLUBLE, ["soluble", "--delta", "0.2", "--points", "2001"],
         "delta", "0.1", "0.2"),
        # the soluble run exits before exact_chi could fail on x > 1
        (QUARTIC, ["soluble", "--delta", "0.1"],
         "variant", "'quartic'", "'delta_box'"),
        (QUARTIC,
         ["quartic", "--g", "3", "--points", "4001", "--xmax", "4.0"],
         "n_points", "2001", "4001"),
        (QUARTIC,
         ["quartic", "--g", "3", "--points", "2001", "--xmax", "5.0"],
         "x_max", "4.0", "5.0"),
    ], ids=["g", "delta", "case", "points", "xmax"])
    def test_mismatch_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                cached, args, field, have,
                                                want):
        cache = tmp_path / "gs.csv"
        assert run_cli(cached + ["--out", str(tmp_path / "first"),
                                 "--gs-cache", str(cache)]) == 0
        before = read(cache)
        out = tmp_path / "out"
        code = run_cli(args + ["--out", str(out), "--gs-cache", str(cache)])
        assert code == 1
        assert (f"error: --gs-cache {cache} holds a ground state with "
                f"{field} {have}, but this run has {field} {want}"
                in capsys.readouterr().err)
        assert files_in(out) == []
        assert read(cache) == before

    def test_default_xmax_is_resolved_before_the_comparison(self, tmp_path):
        cache = tmp_path / "gs.csv"
        args = ["quartic", "--g", "3", "--points", "2001"]
        assert run_cli(args + ["--out", str(tmp_path / "a"),
                               "--gs-cache", str(cache)]) == 0
        # default_x_max(3) is 4.0
        assert run_cli(args + ["--xmax", "4.0", "--out", str(tmp_path / "b"),
                               "--gs-cache", str(cache)]) == 0
        summary = json.loads(read(tmp_path / "b" / "summary.json"))
        assert summary["gs_source"] == "cache"

    def test_anchor_is_checked_on_a_hit(self, tmp_path, capsys):
        cache = tmp_path / "gs.csv"
        assert run_cli(QUARTIC + ["--out", str(tmp_path / "first"),
                                  "--gs-cache", str(cache)]) == 0
        out = tmp_path / "out"
        code = run_cli(QUARTIC + ["--anchor", "1.0001", "--out", str(out),
                                  "--gs-cache", str(cache)])
        assert code == 1
        assert "error: --anchor 1.0001 is not a node" in \
            capsys.readouterr().err
        assert files_in(out) == []

    @pytest.mark.parametrize("args", [QUARTIC, SOLUBLE],
                             ids=["quartic", "soluble"])
    def test_matching_cache_gives_the_fresh_sequence(self, tmp_path, args):
        cache = tmp_path / "gs.csv"
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        for out in (cold, warm):
            assert run_cli(args + ["--out", str(out),
                                   "--gs-cache", str(cache)]) == 0
        a = json.loads(read(cold / "summary.json"))
        b = json.loads(read(warm / "summary.json"))
        assert (a["gs_source"], b["gs_source"]) == ("solved", "cache")
        assert b["eps_sequence"] == a["eps_sequence"]
        assert b["e_gd"] == a["e_gd"]

    @pytest.mark.parametrize("args, hard_wall", [(QUARTIC, False),
                                                 (SOLUBLE, True)],
                             ids=["quartic", "soluble"])
    def test_sidecar_with_gauge_and_hard_wall_keys_loads(self, tmp_path,
                                                         args, hard_wall):
        # sidecars written while GroundState stored its gauge S(0) and a
        # hard-wall flag carry those two keys as well
        cache = tmp_path / "gs.csv"
        sidecar = tmp_path / "gs.csv.json"
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        assert run_cli(args + ["--out", str(cold),
                               "--gs-cache", str(cache)]) == 0
        meta = json.loads(read(sidecar))
        assert sorted(meta) == ["e_gd", "grid", "potential"]
        meta.update(gauge=float(groundstate.load_groundstate(cache).s[0]),
                    hard_wall=hard_wall)
        sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        assert run_cli(args + ["--out", str(warm),
                               "--gs-cache", str(cache)]) == 0
        a = json.loads(read(cold / "summary.json"))
        b = json.loads(read(warm / "summary.json"))
        assert (a.pop("gs_source"), b.pop("gs_source")) == ("solved", "cache")
        assert b == a
        for name in ("chi_curves.csv", "wavefunctions.csv"):
            assert read(warm / name) == read(cold / name)

    @pytest.mark.parametrize("key", ["e_gd", "potential", "grid"])
    def test_sidecar_without_a_key_exits_1_and_writes_nothing(
            self, tmp_path, capsys, key):
        cache = tmp_path / "gs.csv"
        sidecar = tmp_path / "gs.csv.json"
        assert run_cli(QUARTIC + ["--out", str(tmp_path / "first"),
                                  "--gs-cache", str(cache)]) == 0
        meta = json.loads(read(sidecar))
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "out"
        code = run_cli(QUARTIC + ["--out", str(out), "--gs-cache", str(cache)])
        assert code == 1
        assert (f"error: sidecar {sidecar} has no {key!r} key\n"
                == capsys.readouterr().err)
        assert files_in(out) == []

    @pytest.mark.parametrize("key, value", [
        ("potential", {"variant": "quartic"}),
        ("grid", [4.0, 2001]),
        ("grid", {"x_max": 4.0}),
    ], ids=["potential-without-g", "grid-list", "grid-without-n_points"])
    def test_malformed_sidecar_key_exits_1_and_writes_nothing(
            self, tmp_path, capsys, key, value):
        cache = tmp_path / "gs.csv"
        sidecar = tmp_path / "gs.csv.json"
        assert run_cli(QUARTIC + ["--out", str(tmp_path / "first"),
                                  "--gs-cache", str(cache)]) == 0
        meta = json.loads(read(sidecar))
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "out"
        code = run_cli(QUARTIC + ["--out", str(out), "--gs-cache", str(cache)])
        assert code == 1
        assert (f"error: sidecar {sidecar} has a malformed {key!r} key: "
                f"{value!r}\n" == capsys.readouterr().err)
        assert files_in(out) == []


def test_failure_after_the_iteration_leaves_no_file(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("exact_chi failed")

    monkeypatch.setattr("excite_iter.cli.soluble.exact_chi", fail)
    cache = tmp_path / "gs.csv"
    out = tmp_path / "out"
    code = run_cli(SOLUBLE + ["--out", str(out), "--gs-cache", str(cache)])
    assert code == 1
    assert files_in(out) == []
    assert not cache.exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTwoProcessWriter:
    def test_files_are_split_between_two_processes(self, tmp_path,
                                                   monkeypatch):
        log = tmp_path / "writers.log"
        write_csv = groundstate.write_csv

        def logged(path, *args):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {os.path.basename(path)}\n")
            return write_csv(path, *args)

        # save_groundstate calls the module's own write_csv
        for module in (cli, groundstate):
            monkeypatch.setattr(module, "write_csv", logged)
        out = tmp_path / "out"
        assert run_cli(SOLUBLE + ["--out", str(out)]) == 0
        writer = dict(reversed(line.split()) for line in
                      log.read_text().splitlines())
        assert writer["chi_curves.csv"] == str(os.getpid())
        assert writer["wavefunctions.csv"] != str(os.getpid())
        assert writer["groundstate.csv"] == writer["wavefunctions.csv"]

    def test_child_failure_exits_1_naming_the_file(self, tmp_path, capsys):
        (tmp_path / "wavefunctions.csv").mkdir()
        code = run_cli(SOLUBLE + ["--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(tmp_path / "wavefunctions.csv") in err
        assert_no_child_left()

    def test_parent_failure_exits_1_and_reaps_the_child(self, tmp_path,
                                                        capsys):
        (tmp_path / "chi_curves.csv").mkdir()
        code = run_cli(QUARTIC + ["--out", str(tmp_path)])
        assert code == 1
        assert str(tmp_path / "chi_curves.csv") in capsys.readouterr().err
        assert_no_child_left()
        # the child finished its files before it was reaped
        assert (tmp_path / "groundstate.csv.json").exists()

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
    def test_bytes_equal_the_serial_writer(self, tmp_path, monkeypatch,
                                           args):
        """Each file equals, byte for byte, what write_csv and
        save_groundstate give when called in this process, for a solved
        and for a cached ground state."""
        cache = tmp_path / "gs.csv"

        def both_ways(name):
            forked, serial = (tmp_path / name / "forked",
                              tmp_path / name / "serial")
            assert run_cli(args + ["--out", str(forked),
                                   "--gs-cache", str(cache)]) == 0
            cached = {p: read(p) for p in (cache, tmp_path / "gs.csv.json")}
            if name == "solved":
                for p in cached:
                    p.unlink()
            with monkeypatch.context() as m:
                m.delattr(os, "fork")
                assert run_cli(args + ["--out", str(serial),
                                       "--gs-cache", str(cache)]) == 0
            for p, content in cached.items():
                assert read(p) == content
            return forked, serial

        for name in ("solved", "cache"):
            forked, serial = both_ways(name)
            assert files_in(forked) == files_in(serial)
            for f in files_in(forked):
                assert read(forked / f) == read(serial / f), (name, f)
        assert files_in(tmp_path / "solved" / "forked") == [
            "chi_curves.csv", "groundstate.csv", "groundstate.csv.json",
            "summary.json", "wavefunctions.csv"]
        assert files_in(tmp_path / "cache" / "forked") == [
            "chi_curves.csv", "summary.json", "wavefunctions.csv"]


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
                   "eps_richardson": 2.0 + 1.9e-14}
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
