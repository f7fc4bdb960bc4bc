"""Tests of the benchmark's own arithmetic and checks (not of the
program's speed). Run with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import argparse
import json
import os

import pytest

import inputs
import run as bench
from checks import check_cli_run
from refs import quartic_eps, soluble_eps
from stats import (layer_accounting, median_of_input_medians, self_times,
                   tail_percentile, union_length)
from tracer import Tracer


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "work": 0}


# -- self time and accounting ------------------------------------------------

def test_union_counts_overlap_once_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 5) == 3
    assert union_length([]) == 0


def test_self_time_with_overlapping_children():
    spans = [span("cli.run_case", 0.0, 10.0),
             span("groundstate.solve", 1.0, 4.0, 0),
             span("groundstate.save", 3.0, 6.0, 0),   # overlaps the solve
             span("kernels.riccati_sweep", 2.0, 3.0, 1)]
    own = self_times(spans)
    assert own == [5.0, 2.0, 3.0, 1.0]


def test_children_outside_the_parent_are_clipped():
    spans = [span("excite.run", 1.0, 2.0), span("numerics.x", 0.5, 1.5, 0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def test_layer_accounting_adds_up_to_the_wall_time():
    spans = [span("startup.import", 0.0, 1.0),
             span("cli.run_case", 1.5, 3.0),
             span("excite.run", 2.0, 2.5, 1),
             span("numerics.cumulative_simpson", 2.1, 2.2, 2)]
    per_layer, uncovered = layer_accounting(spans, 4.0)
    assert per_layer["startup"] == 1.0
    assert per_layer["cli"] == pytest.approx(1.0)
    assert per_layer["excite"] == pytest.approx(0.4)
    assert per_layer["numerics"] == pytest.approx(0.1)
    assert uncovered == pytest.approx(1.5)
    assert sum(per_layer.values()) + uncovered == pytest.approx(4.0)


# -- medians and tail percentile ---------------------------------------------

def test_median_of_input_medians():
    assert median_of_input_medians(
        [("a", 3.0), ("b", 1.0), ("c", 2.0)]) == 2.0
    # two inputs in whole rounds: the plain median, 9.5, is set by the
    # slowest sample of one input and the fastest of the other
    rounds = [("fast", 1.0), ("fast", 9.0), ("fast", 2.0),
              ("slow", 10.0), ("slow", 11.0), ("slow", 30.0)]
    assert median_of_input_medians(rounds) == (2.0 + 11.0) / 2


@pytest.mark.parametrize("n, pct, beyond", [
    (1000, 99.0, 10), (200, 95.0, 10), (100, 90.0, 10), (150, 90.0, 15),
    (40, 75.0, 10)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = list(range(n, 0, -1))
    got = tail_percentile(values)
    assert got[0] == pct and got[2] == beyond
    assert sum(v > got[1] for v in values) == beyond


@pytest.mark.parametrize("n", [1, 9, 20, 39])
def test_no_tail_when_it_would_not_lie_above_the_median(n):
    assert tail_percentile([0.1] * n) is None


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_held_out_seed_different(workload):
    a = inputs.generate(workload, 5)
    assert a == inputs.generate(workload, 5)
    assert a["ops"] != inputs.generate(workload, inputs.held_out_seed(5))[
        "ops"]
    assert inputs.held_out_seed(5) != 5


def test_inputs_stay_in_their_ranges():
    for op in inputs.generate("soluble-cli", 3)["ops"]:
        assert 0.05 <= op["delta"] <= 1.0 and op["anchor"] in (0.5, 1.0)
    for op in inputs.generate("quartic-cold-cli", 3)["ops"]:
        assert 3.0 <= op["g"] <= 10.0
    lib = inputs.generate("iterate-lib", 3)
    assert len(lib["ops"]) % lib["round"] == 0
    first = lib["ops"][:lib["round"]]
    assert len({json.dumps(op, sort_keys=True) for op in first}) == len(first)


# -- references --------------------------------------------------------------

def test_references():
    assert soluble_eps(0.1) == pytest.approx(0.30915926535897934, rel=1e-15)
    assert quartic_eps(3.0) == pytest.approx(0.41450711115, rel=1e-9)


# -- correctness checks ------------------------------------------------------

def soluble_artifacts(tmp_path, delta=0.3):
    from excite_iter.cli import RunConfig, run_case
    run_case(RunConfig(case="soluble", delta=delta, anchor_x0=0.5,
                       n_points=401, out_dir=str(tmp_path)))
    return {"case": "soluble", "delta": delta, "anchor": 0.5}


def test_correct_run_passes_every_check(tmp_path):
    op = soluble_artifacts(tmp_path)
    errors, facts = check_cli_run(op, str(tmp_path), soluble_eps(0.3))
    assert errors == []
    assert facts["csv_cells"] > 0 and facts["rel_err"] < 1e-6


def test_artifact_values_not_bytes_are_compared(tmp_path):
    op = soluble_artifacts(tmp_path)
    path = tmp_path / "wavefunctions.csv"
    lines = path.read_text().splitlines()
    # same numbers, another formatting
    path.write_text("\n".join(
        [lines[0]] + [",".join(repr(float(v)) + " " for v in ln.split(","))
                      for ln in lines[1:]]) + "\n")
    assert check_cli_run(op, str(tmp_path), soluble_eps(0.3))[0] == []


def test_planted_wrong_eps_fails_the_run(tmp_path, capsys):
    op = soluble_artifacts(tmp_path)
    summary_path = tmp_path / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["eps_sequence"][-1] *= 1 + 1e-5
    summary_path.write_text(json.dumps(summary))
    errors, facts = check_cli_run(op, str(tmp_path), soluble_eps(0.3))
    assert len(errors) == 1 and "relative error" in errors[0]

    run = bench.Run(argparse.Namespace(trace=0), {}, {})
    run.records = [
        {"input": op, "traced": False, "latency_s": 1.0, "ref_s": 0.5,
         "errors": [], "rel_err": 1e-9},
        {"input": op, "traced": False, "latency_s": 1.0, "ref_s": 0.5,
         "errors": errors, **facts}]
    run.metrics["setup_s"] = run.metrics["peak_rss_mb"] = 1.0
    run.ref_s = [0.5]
    failed = run.summarize()
    assert run.metrics["failed_frac"] == 0.5
    assert run.metrics["eps_rel_err.max"] == pytest.approx(1e-5, rel=0.05)
    contract = bench.load_contract()
    code = bench.finish(run.metrics, contract, 0, len(run.records),
                        len(failed), True)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1


def test_relative_metrics_divide_by_the_reference_median():
    run = bench.Run(argparse.Namespace(trace=0), {}, {})
    # each operation is divided by the reference timed just before it
    run.records = [{"input": {"delta": t}, "traced": False, "latency_s": t,
                    "ref_s": r, "errors": []}
                   for t, r in ((1.0, 0.5), (2.0, 1.0), (3.0, 1.0))]
    # traced operations are left out of the end-to-end figures
    run.records.append({"input": {"delta": 9.0}, "traced": True,
                        "latency_s": 9.0, "ref_s": 1.0, "errors": []})
    run.ref_s = [0.5, 1.0, 1.0, 1.0]
    run.summarize()
    assert run.metrics["latency_rel.median"] == 2.0
    assert run.metrics["throughput_rel"] == pytest.approx(3 / 7.0)
    assert run.metrics["reference_s.median"] == 1.0


def test_warm_run_must_match_the_cold_sequence(tmp_path):
    op = soluble_artifacts(tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    cold = list(summary["eps_sequence"])
    assert check_cli_run(op, str(tmp_path), soluble_eps(0.3), cold)[0] == []
    cold[-1] = cold[-1] * (1 + 2 ** -52)
    errors = check_cli_run(op, str(tmp_path), soluble_eps(0.3), cold)[0]
    assert errors == ["warm eps_sequence differs from the cold solve"]


# -- tracer and contract -----------------------------------------------------

def test_tracer_nests_spans_and_uninstalls():
    from excite_iter import Grid, TrialFunction, excite, soluble_groundstate
    original = excite.run
    gs = soluble_groundstate(0.2, Grid(1.0, 201))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        excite.run(gs, TrialFunction("linear"), max_iters=3)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert excite.run is original
    spans = tracer.ops[0]
    assert spans[0]["name"] == "excite.run" and spans[0]["parent"] == -1
    steps = [s for s in spans if s["name"] == "excite.iterate_once"]
    assert steps and all(s["parent"] == 0 for s in steps)
    assert all(s["start"] <= s["end"] for s in spans)


def test_contract_metrics_are_computed_with_their_units():
    contract = bench.load_contract()
    assert contract["paths"] == [os.path.basename(bench.HERE)]
    for kind in ("end_to_end", "per_layer"):
        for metric in contract[kind]:
            assert bench.UNITS[metric["name"]] == metric["unit"]
