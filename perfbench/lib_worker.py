"""The iterate-lib program process: builds its ground states, then calls
excite.run() in a closed loop.

    PYTHONPATH=src python3 perfbench/lib_worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds the operations, the index to start at, the length of a
round, the loop budget in seconds and whether to trace. Whole rounds run
until the budget is spent. When tracing, every other round is traced, so
each input is timed both ways and the difference is the tracing cost.
Before each round the reference task (reference.py) is timed REF_REPEATS
times; each operation of the round records their median.
"""

from time import perf_counter

T_MAIN = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from reference import time_in_process  # noqa: E402
from tracer import Tracer  # noqa: E402

REF_REPEATS = 3


def build_groundstates(ops):
    from excite_iter import Grid, Quartic, soluble_groundstate
    from excite_iter.groundstate import (default_x_max,
                                         solve_groundstate_numeric)
    states = {}
    for op in ops:
        key = (op["case"], op["param"], op["points"])
        if key in states:
            continue
        if op["case"] == "soluble":
            states[key] = soluble_groundstate(op["param"],
                                              Grid(1.0, op["points"]))
        else:
            g = op["param"]
            states[key] = solve_groundstate_numeric(
                Quartic(g), Grid(default_x_max(g), op["points"]))
    return states


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    ops, start, round_len = spec["ops"], spec["start"], spec["round"]

    t0 = perf_counter()
    import excite_iter.cli  # noqa: F401  (the same import as a CLI run)
    t1 = perf_counter()
    from excite_iter import TrialFunction, excite
    states = build_groundstates(ops[:round_len])
    trials = {kind: TrialFunction(kind) for kind in ("linear", "saturating")}
    t_ready = perf_counter()

    tracer = Tracer()
    results = []
    ref_s = []
    deadline = t_ready + spec["budget_s"]
    i = start
    rounds = 0
    while perf_counter() < deadline:
        traced = spec["trace"] and rounds % 2 == 1
        round_ref = time_in_process(REF_REPEATS)
        ref_s += round_ref
        round_ref = statistics.median(round_ref)
        if traced:
            tracer.install()
        for _ in range(round_len):
            op = ops[i % len(ops)]
            gs = states[(op["case"], op["param"], op["points"])]
            record = {"index": i, "traced": traced, "ref_s": round_ref}
            if traced:
                tracer.begin_op(len(results))
            t = perf_counter()
            try:
                report = excite.run(gs, trials[op["trial"]],
                                    anchor_x0=op["anchor"])
            except Exception as exc:  # counted as a failed operation
                record["error"] = repr(exc)
            else:
                record.update(eps_sequence=report.eps_sequence,
                              status=report.status)
            record["latency_s"] = perf_counter() - t
            if traced:
                tracer.end_op()
            results.append(record)
            i += 1
        if traced:
            tracer.uninstall()
        rounds += 1

    out = {"t_main": T_MAIN, "import": [t0, t1], "t_ready": t_ready,
           "next": i, "ops": results, "ref_s": ref_s,
           "spans": {str(k): v for k, v in tracer.ops.items()},
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
