"""The benchmark's traced figures of each kind of operation are finite.

The traced benchmark run ends in one JSON line of per-layer figures, each
a median over operations of op_layer_metrics. A figure built from a span
that never runs (say, the median duration of an entry point the package
no longer calls) is NaN, and json.dumps writes NaN, which is not JSON.
This traces one operation of each workload kind with the benchmark's own
tracer and figures, loaded from perfbench/, and checks every figure.
"""

import importlib.util
import math
import os
from time import perf_counter

import pytest

import excite_iter
from excite_iter import Grid, Quartic, TrialFunction, cli, excite
from excite_iter.groundstate import default_x_max, solve_groundstate_numeric

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(excite_iter.__file__))))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench/tracer.py and perfbench/run.py, loaded from their paths
    with perfbench/ on sys.path for their own imports."""
    if not os.path.isfile(os.path.join(PERFBENCH, "run.py")):
        pytest.skip("package not run from its source tree")
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        for name in ("tracer", "run"):
            spec = importlib.util.spec_from_file_location(
                f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    return modules["tracer"], modules["run"]


def _traced(bench, operation):
    """op_layer_metrics of one call of operation() under the tracer, as
    the benchmark computes them for a traced operation."""
    tracer_module, run_module = bench
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        t0 = perf_counter()
        operation(tracer)
        wall = perf_counter() - t0
        tracer.end_op()
    finally:
        tracer.uninstall()
    return run_module.op_layer_metrics(tracer.ops[0], wall)


def _cli_main(argv):
    def operation(tracer):
        assert tracer.wrap("cli.main", cli.main)(argv) == 0
    return operation


def test_traced_figures_of_every_workload_are_finite(bench, tmp_path):
    gs = solve_groundstate_numeric(Quartic(3.0), Grid(default_x_max(3.0),
                                                      4001))
    trial = TrialFunction.saturating()
    operations = {
        "soluble-cli": _cli_main(["soluble", "--delta", "0.05",
                                  "--out", str(tmp_path / "soluble")]),
        "quartic-cold-cli": _cli_main(["quartic", "--g", "3",
                                       "--out", str(tmp_path / "quartic")]),
        "iterate-lib": lambda tracer: excite.run(gs, trial),
    }
    for workload, operation in operations.items():
        metrics = _traced(bench, operation)
        assert [k for k, v in metrics.items()
                if not math.isfinite(v)] == [], workload
        assert metrics["excite.iterations"] > 0
    # the tracer put back every entry point it wrapped
    assert not hasattr(excite.run, "__wrapped__")
