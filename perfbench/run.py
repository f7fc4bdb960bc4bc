"""The excite-iter benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The package is used as the tests use
it: PYTHONPATH=src, no build step. One client drives the program in a
closed loop: the next operation starts when the previous one has ended.

--trace 0 measures the end-to-end metrics; --trace 1 alternates traced
and untraced operations and reports the per-layer metrics. Readable
lines come first, the last line is one JSON object with the metrics that
BENCHMARK.json names, and the whole result (provenance, inputs, every
operation) is written to .perfbench_work/. Exits 1 when a correctness
check fails and 2, printing no result, when the program is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import inputs
import provenance
import reference
from checks import check_cli_run
from refs import REL_TOL, reference_eps, rel_err
from stats import (LAYERS, layer_accounting, median,
                   median_of_input_medians, self_times, tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PY = sys.executable

SETUP_PROBES = 5        # fresh-interpreter imports per CLI run
LIB_WORKERS = 3         # iterate-lib processes per run, each set up anew
REFS_IN_SETUP = 40      # CLI operations whose references set-up computes
BENCH_REPEATS = (5, 3)  # best-of for the kernel sweep and the solve
BENCH_GRID = (4.0, 16001, 3.0, 2.4826969)   # x_max, points, g, energy

#: every metric the benchmark computes, with its unit; BENCHMARK.json
#: picks the ones the last line carries
UNITS = {
    "latency_s.median": "s", "latency_s.tail": "s", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction",
    "eps_rel_err.max": "1", "reference_s.median": "s",
    "latency_rel.median": "1", "throughput_rel": "1",
    "startup.interp_s": "s", "startup.import_s": "s",
    "startup.scipy_import_s": "s", "startup.scipy_import_frac": "1",
    "kernels.sweeps": "count", "kernels.rk4_steps": "count",
    "kernels.busy_s": "s", "kernels.busy_frac": "1",
    "kernels.ns_per_step": "ns", "kernels.bench_sweep_s": "s",
    "kernels.bytes_written": "B",
    "groundstate.solve_s": "s", "groundstate.solve_self_s": "s",
    "groundstate.root_evals": "count", "groundstate.op_solve_s": "s",
    "groundstate.solve_frac": "1", "groundstate.save_s": "s",
    "groundstate.save_frac": "1", "groundstate.load_s": "s",
    "groundstate.load_frac": "1", "groundstate.self_s": "s",
    "groundstate.cache_bytes": "B",
    "cli.run_case_s": "s", "cli.run_case_frac": "1", "cli.self_s": "s",
    "cli.self_frac": "1", "cli.artifact_bytes": "B", "cli.csv_cells": "count",
    "soluble.exact_chi_calls": "count", "soluble.exact_chi_s": "s",
    "soluble.exact_chi_frac": "1",
    "excite.run_s": "s", "excite.iterations": "count", "excite.step_s": "s",
    "excite.residual_s": "s", "excite.self_s": "s",
    "excite.converged_frac": "1",
    "numerics.calls": "count", "numerics.busy_s": "s",
    "numerics.bytes_touched": "B",
    "trace.op_wall_s": "s", "trace.uncovered_s": "s",
    "trace.uncovered_frac": "1", "trace.exit_s": "s",
    "trace.overhead_s": "s",
}
#: per-operation times that read zero where a workload bypasses the layer;
#: the last line carries them as shares of the operation's wall time
FRACTION_OF = {
    "kernels.busy_frac": "kernels.busy_s",
    "groundstate.solve_frac": "groundstate.op_solve_s",
    "groundstate.save_frac": "groundstate.save_s",
    "groundstate.load_frac": "groundstate.load_s",
    "cli.run_case_frac": "cli.run_case_s",
    "cli.self_frac": "cli.self_s",
    "soluble.exact_chi_frac": "soluble.exact_chi_s",
    "trace.uncovered_frac": "trace.uncovered_s",
}


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- processes --------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


class Spawner:
    """The small process (spawner.py) that starts every child, so that
    each child's peak RSS is its own and not the harness's."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [PY, os.path.join(HERE, "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log_base):
        """Run one child to completion. Returns (spawn time, wall seconds,
        exit code, peak RSS in MB from os.wait4)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": log_base})
                              + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        r = json.loads(reply)
        return r["t_spawn"], r["wall"], r["rc"], r["peak_rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def stderr_tail(log_base):
    with open(log_base + ".err", errors="replace") as f:
        return f.read()[-300:].strip()


def import_probes(spawner, n):
    """Seconds from spawn to exit of n fresh `import excite_iter.cli`."""
    log = os.path.join(WORK, "probe")
    walls = []
    for _ in range(n):
        _, wall, rc, _ = spawner.run([PY, "-c", "import excite_iter.cli"],
                                     log)
        if rc != 0:
            raise RuntimeError(f"import probe failed: {stderr_tail(log)}")
        walls.append(wall)
    return walls


def scipy_import_share(spawner):
    """(scipy.optimize import seconds, its share of importing
    excite_iter.cli), from -X importtime on a fresh interpreter."""
    log = os.path.join(WORK, "importtime")
    spawner.run([PY, "-X", "importtime", "-c", "import excite_iter.cli"],
                log)
    cumulative = {}
    with open(log + ".err") as f:
        for line in f:
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
                except ValueError:
                    continue
    scipy = cumulative.get("scipy.optimize", 0.0)
    return scipy, scipy / cumulative.get("excite_iter.cli", float("nan"))


# -- the folded kernel benchmark -------------------------------------------

def backend_identity():
    """Both kernel backends must give bit-identical sweeps. Returns
    (status, detail); status is "skipped" when only one backend imports."""
    from excite_iter import kernels
    x_max, n, g, e = BENCH_GRID
    args = (0.0, x_max / (n - 1), n - 1, g, e, 0.0, 0.0)
    try:
        compiled = kernels.get_backend("cython").riccati_sweep(*args)
    except ImportError as exc:
        return "skipped", ("only the python backend imports: "
                           + provenance.import_error_text(exc))
    python = kernels.get_backend("python").riccati_sweep(*args)
    import numpy as np
    same = (np.array_equal(compiled[0], python[0], equal_nan=True)
            and np.array_equal(compiled[1], python[1], equal_nan=True)
            and compiled[2] == python[2])
    return ("passed", "cython and python sweeps are bit-identical") if same \
        else ("failed", "cython and python sweeps differ")


def kernel_bench():
    """Best-of timings of one sweep and one ground-state solve with the
    active backend (quartic g=3, x_max=4, 16001 nodes)."""
    from excite_iter import kernels
    from excite_iter.groundstate import Grid, solve_groundstate_numeric
    from excite_iter.potential import Quartic
    from tracer import Tracer
    x_max, n, g, e = BENCH_GRID
    h = x_max / (n - 1)
    best_sweep = float("inf")
    for _ in range(BENCH_REPEATS[0]):
        t = perf_counter()
        kernels.riccati_sweep(0.0, h, n - 1, g, e, 0.0, 0.0)
        best_sweep = min(best_sweep, perf_counter() - t)
    tracer = Tracer()
    tracer.install()
    try:
        solves = []
        for k in range(BENCH_REPEATS[1]):
            tracer.begin_op(k)
            t = perf_counter()
            solve_groundstate_numeric(Quartic(g), Grid(x_max, n))
            solves.append((perf_counter() - t, k))
            tracer.end_op()
    finally:
        tracer.uninstall()
    solve_s, k = min(solves)
    in_kernels = sum(sp["end"] - sp["start"] for sp in tracer.ops[k]
                     if sp["name"] == "kernels.riccati_sweep")
    return {"kernels.bench_sweep_s": best_sweep,
            "kernels.ns_per_step": best_sweep / (n - 1) * 1e9,
            "groundstate.solve_s": solve_s,
            "groundstate.solve_self_s": solve_s - in_kernels,
            "groundstate.root_evals": tracer.root_evals[k]}


# -- per-operation layer metrics -------------------------------------------

def op_layer_metrics(spans, wall):
    """Per-layer figures of one traced operation of wall seconds."""
    own = self_times(spans)
    dur = defaultdict(list)
    own_by = defaultdict(float)
    work = defaultdict(float)
    for sp, o in zip(spans, own):
        dur[sp["name"]].append(sp["end"] - sp["start"])
        own_by[sp["name"]] += o
        work[sp["name"]] += sp["work"]
    layer_self, uncovered = layer_accounting(spans, wall)
    numerics = [k for k in dur if k.startswith("numerics.")]
    steps = work["kernels.riccati_sweep"]
    m = {
        "startup.interp_s": sum(dur["startup.interp"]),
        "startup.import_s": sum(dur["startup.import"]),
        "kernels.sweeps": len(dur["kernels.riccati_sweep"]),
        "kernels.rk4_steps": steps,
        "kernels.busy_s": sum(dur["kernels.riccati_sweep"]),
        # S and S' stored per step, 8 B each
        "kernels.bytes_written": 16 * steps,
        "groundstate.op_solve_s": sum(dur["groundstate.solve"]),
        "groundstate.save_s": sum(dur["groundstate.save"]),
        "groundstate.load_s": sum(dur["groundstate.load"]),
        "groundstate.self_s": layer_self["groundstate"],
        "cli.run_case_s": sum(dur["cli.run_case"]),
        "cli.self_s": own_by["cli.run_case"],
        "soluble.exact_chi_calls": len(dur["soluble.exact_chi"]),
        "soluble.exact_chi_s": sum(dur["soluble.exact_chi"]),
        "excite.run_s": sum(dur["excite.run"]),
        "excite.iterations": len(dur["excite.iterate_once"]),
        "excite.step_s": median(dur["excite.iterate_once"]),
        "excite.residual_s": median(dur["excite.orthogonality_residual"]),
        "excite.self_s": layer_self["excite"],
        "numerics.calls": sum(len(dur[k]) for k in numerics),
        "numerics.busy_s": layer_self["numerics"],
        "numerics.bytes_touched": sum(work[k] for k in numerics),
        "trace.op_wall_s": wall,
        "trace.uncovered_s": uncovered,
    }
    for frac, base in FRACTION_OF.items():
        m[frac] = m[base] / wall
    m.update({f"layer.{name}": v for name, v in layer_self.items()})
    return m


def aggregate(per_op):
    """Median over operations of each per-operation figure."""
    keys = per_op[0].keys() if per_op else []
    return {k: median([m[k] for m in per_op if m[k] == m[k]]) for k in keys}


# -- workloads --------------------------------------------------------------

class Run:
    def __init__(self, args, spec, spawner):
        self.args = args
        self.spec = spec
        self.spawner = spawner
        self.records = []        # one per operation
        self.ref_s = []          # reference task latencies (reference.py)
        self.per_op_layers = []  # traced operations only
        self.metrics = {}
        self.refs = {}
        self.notes = {}

    def ref(self, case, param):
        if (case, param) not in self.refs:
            self.refs[(case, param)] = reference_eps(case, param)
        return self.refs[(case, param)]

    # CLI workloads ---------------------------------------------------------

    def cli_argv(self, op, out_dir):
        if op["case"] == "soluble":
            argv = ["soluble", "--delta", repr(op["delta"])]
        else:
            argv = ["quartic", "--g", repr(op["g"])]
        argv += ["--anchor", repr(op["anchor"]), "--out", out_dir]
        if "trial" in op:
            argv += ["--trial", op["trial"]]
        if "cache" in op:
            argv += ["--gs-cache", op["cache"]]
        return argv

    def prime_caches(self):
        """Write the warm workload's ground-state caches with the
        package's own writer, and keep the cold eps sequence of every
        (g, anchor, trial) for the bit-for-bit comparison."""
        from excite_iter import (Grid, Quartic, TrialFunction, run,
                                 save_groundstate, solve_groundstate_numeric)
        from excite_iter.cli import RunConfig
        from excite_iter.groundstate import default_x_max
        caches, cold = {}, {}
        os.makedirs(os.path.join(WORK, "cache"))
        for k, g in enumerate(self.spec["couplings"]):
            cfg = RunConfig(case="quartic", g=g)
            gs = solve_groundstate_numeric(
                Quartic(g), Grid(default_x_max(g), cfg.n_points))
            caches[g] = os.path.join(WORK, "cache", f"gs_{k}.csv")
            save_groundstate(gs, caches[g])
            for trial in inputs.TRIALS:
                for a in inputs.ANCHORS:
                    cold[(g, a, trial)] = run(
                        gs, TrialFunction(trial), anchor_x0=a,
                        max_iters=cfg.max_iters, tol=cfg.tol).eps_sequence
        return caches, cold

    def run_cli(self):
        warm = self.args.workload == "quartic-warm-cli"
        caches, cold = self.prime_caches() if warm else ({}, {})
        ops = self.spec["ops"]
        # references for more operations than a run reaches; any further
        # ones are computed between operations, also untimed
        for op in ops[:REFS_IN_SETUP]:
            self.ref(op["case"], op.get("g", op.get("delta")))
        self.metrics["setup_s"] = median(
            import_probes(self.spawner, SETUP_PROBES))
        trace = self.args.trace
        t_end = perf_counter() + self.args.seconds
        i = 0
        while perf_counter() < t_end:
            op = dict(ops[i % len(ops)])
            if warm:
                op["cache"] = caches[op["g"]]
            traced = trace and i % 2 == 1
            out_dir = os.path.join(WORK, "op")
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            log = os.path.join(WORK, "op_log")
            spans_path = os.path.join(WORK, "spans.json")
            argv = ([PY, os.path.join(HERE, "cli_child.py"), spans_path]
                    if traced else [PY, "-m", "excite_iter.cli"])
            ref = self.reference()
            self.ref_s.append(ref)
            t_spawn, wall, rc, rss = self.spawner.run(
                argv + self.cli_argv(op, out_dir), log)
            param = op.get("g", op.get("delta"))
            errors, facts = check_cli_run(
                op, out_dir, self.ref(op["case"], param),
                cold.get((op.get("g"), op["anchor"], op.get("trial"))))
            if rc != 0:
                errors.insert(0, f"exit code {rc}: {stderr_tail(log)}")
            self.records.append({
                "index": i, "input": {k: v for k, v in op.items()
                                      if k != "cache"},
                "traced": traced, "latency_s": wall, "ref_s": ref,
                "peak_rss_mb": rss,
                "errors": errors, **facts})
            if traced and rc == 0:
                with open(spans_path) as f:
                    child = json.load(f)
                spans = [{"name": "startup.interp", "start": t_spawn,
                          "end": child["t_main"], "parent": -1, "work": 0}]
                spans += [dict(sp, parent=sp["parent"] + 1
                               if sp["parent"] >= 0 else -1)
                          for sp in child["spans"]]
                layers = op_layer_metrics(spans, wall)
                layers["trace.exit_s"] = t_spawn + wall - child["t_end"]
                self.per_op_layers.append(layers)
            i += 1
        shutil.rmtree(os.path.join(WORK, "op"), ignore_errors=True)
        self.metrics["peak_rss_mb"] = median(
            [r["peak_rss_mb"] for r in self.records if not r["traced"]])

    def reference(self):
        """Seconds from spawn to exit of one reference process."""
        log = os.path.join(WORK, "reference")
        _, wall, rc, _ = self.spawner.run(reference.PROCESS_ARGV, log)
        if rc != 0:
            raise RuntimeError(f"reference process failed: {stderr_tail(log)}")
        return wall

    # iterate-lib -----------------------------------------------------------

    def run_lib(self):
        spec = self.spec
        for case, param in inputs.LIB_CASES:
            self.ref(case, param)
        setups, interps, imports, rss = [], [], [], []
        start = 0
        for w in range(LIB_WORKERS):
            spec_path = os.path.join(WORK, "lib_spec.json")
            result_path = os.path.join(WORK, f"lib_result_{w}.json")
            with open(spec_path, "w") as f:
                json.dump({"ops": spec["ops"], "start": start,
                           "round": spec["round"], "trace": self.args.trace,
                           "budget_s": self.args.seconds / LIB_WORKERS}, f)
            log = os.path.join(WORK, "lib_log")
            t_spawn, _, rc, peak = self.spawner.run(
                [PY, os.path.join(HERE, "lib_worker.py"), spec_path,
                 result_path], log)
            if rc != 0:
                raise RuntimeError(f"iterate-lib worker exited {rc}: "
                                   f"{stderr_tail(log)}")
            with open(result_path) as f:
                res = json.load(f)
            setups.append(res["t_ready"] - t_spawn)
            interps.append(res["t_main"] - t_spawn)
            imports.append(res["import"][1] - res["import"][0])
            rss.append(peak)
            self.ref_s += res["ref_s"]
            for k, r in enumerate(res["ops"]):
                op = spec["ops"][r["index"] % len(spec["ops"])]
                errors = [r["error"]] if "error" in r else []
                facts = {}
                if not errors:
                    ref = self.ref(op["case"], op["param"])
                    eps = r["eps_sequence"][-1]
                    facts = {"eps": eps, "rel_err": rel_err(eps, ref),
                             "status": r["status"]}
                    if not facts["rel_err"] <= REL_TOL[op["case"]]:
                        errors.append(
                            f"eps={eps!r} vs reference {ref!r}: relative "
                            f"error {facts['rel_err']:.3g}")
                self.records.append({"index": r["index"], "input": op,
                                     "traced": r["traced"],
                                     "latency_s": r["latency_s"],
                                     "ref_s": r["ref_s"],
                                     "errors": errors, **facts})
                spans = res["spans"].get(str(k))
                if spans is not None and not errors:
                    self.per_op_layers.append(
                        op_layer_metrics(spans, r["latency_s"]))
            start = res["next"]
        self.metrics["setup_s"] = median(setups)
        self.metrics["peak_rss_mb"] = median(rss)
        self.notes["startup"] = {"startup.interp_s": median(interps),
                                 "startup.import_s": median(imports)}

    # metrics ---------------------------------------------------------------

    def summarize(self):
        untraced = [r for r in self.records if not r["traced"]]
        lat = [r["latency_s"] for r in untraced]
        m = self.metrics
        keys = [json.dumps(r["input"], sort_keys=True) for r in untraced]
        rel = [r["latency_s"] / r["ref_s"] for r in untraced]
        m["latency_s.median"] = median_of_input_medians(zip(keys, lat))
        m["ops_per_s"] = len(lat) / sum(lat)
        m["reference_s.median"] = median(self.ref_s)
        m["latency_rel.median"] = median_of_input_medians(zip(keys, rel))
        m["throughput_rel"] = len(rel) / sum(rel)
        failed = [r for r in self.records if r["errors"]]
        m["failed_frac"] = len(failed) / len(self.records)
        errs = [r["rel_err"] for r in self.records if "rel_err" in r]
        m["eps_rel_err.max"] = max(errs) if errs else float("nan")
        self.notes["tail"] = tail_percentile(lat)
        if self.args.trace:
            self.summarize_layers()
        return failed

    def summarize_layers(self):
        m = self.metrics
        m.update(aggregate(self.per_op_layers))
        m.update(self.notes.get("startup", {}))
        m["startup.scipy_import_s"], m["startup.scipy_import_frac"] = \
            scipy_import_share(self.spawner)
        m.update(kernel_bench())
        statuses = [r.get("status") for r in self.records]
        m["excite.converged_frac"] = statuses.count("converged") / len(
            statuses)
        for key in ("cli.artifact_bytes", "cli.csv_cells",
                    "groundstate.cache_bytes"):
            src = key.split(".", 1)[1]
            m[key] = median([r.get(src, 0) for r in self.records])
        traced = [r["latency_s"] for r in self.records if r["traced"]]
        m["trace.overhead_s"] = median(traced) - m["latency_s.median"]


# -- output -----------------------------------------------------------------

def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def fmt_value(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_lines(run, prov, identity, failed):
    args, m = run.args, run.metrics
    lines = [f"# excite-iter benchmark: workload={args.workload} "
             f"seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    lines += [f"provenance.{k} = {v}" for k, v in prov.items()]
    held = inputs.held_out_seed(args.seed)
    lines += [f"inputs.seed = {args.seed}",
              f"inputs.sha256 = {digest(run.spec)}",
              f"inputs.ops_run = {len(run.records)}",
              f"inputs.held_out_seed = {held}",
              f"inputs.held_out_sha256 = "
              f"{digest(inputs.generate(args.workload, held))}",
              f"check.backend_bit_identity = {identity[0]} ({identity[1]})"]
    untraced = sum(not r["traced"] for r in run.records)
    tail = run.notes["tail"]
    for name in ("latency_rel.median", "throughput_rel", "latency_s.median",
                 "latency_s.tail", "ops_per_s", "reference_s.median",
                 "setup_s", "peak_rss_mb", "failed_frac", "eps_rel_err.max"):
        if name == "latency_s.tail":
            lines.append(
                f"latency_s.tail = {tail[1]:.6g} s (p{tail[0]:g}, "
                f"{tail[2]} of {untraced} samples beyond)" if tail else
                f"latency_s.tail = not reported ({untraced} operations, "
                "too few for a percentile above the median with ten "
                "samples beyond it)")
        elif name == "reference_s.median":
            lines.append(f"{name} = {fmt_value(m[name])} s (of "
                         f"{len(run.ref_s)} reference tasks)")
        else:
            lines.append(f"{name} = {fmt_value(m[name])} {UNITS[name]}")
    if args.trace:
        for name in sorted(k for k in m if k in UNITS):
            if name.split(".")[0] in LAYERS + ("trace",):
                lines.append(f"{name} = {fmt_value(m[name])} {UNITS[name]}")
        lines += accounting_lines(run.per_op_layers)
    for r in failed[:10]:
        lines.append(f"failure: op {r['index']} {r['input']}: "
                     f"{'; '.join(r['errors'])}")
    return lines


def accounting_lines(per_op):
    """Mean self time per layer over the traced operations; with the
    uncovered remainder they add up to the mean operation wall time."""
    n = len(per_op)
    mean = {k: sum(m.get(k, 0.0) for m in per_op) / n
            for k in per_op[0]} if n else {}
    wall = mean.get("trace.op_wall_s", float("nan"))
    lines = [f"accounting.op_wall_s = {wall:.6g} s (mean of {n} traced "
             "operations)"]
    for layer in LAYERS:
        v = mean.get(f"layer.{layer}", float("nan"))
        lines.append(f"accounting.{layer}_self_s = {v:.6g} s "
                     f"({100 * v / wall:.1f} %)")
    v = mean.get("trace.uncovered_s", float("nan"))
    lines.append(f"accounting.uncovered_s = {v:.6g} s ({100 * v / wall:.1f}"
                 " %): no span covers it")
    if "trace.exit_s" in mean:
        lines.append(f"accounting.uncovered_s.after_main = "
                     f"{mean['trace.exit_s']:.6g} s: of the uncovered time, "
                     "writing the spans and interpreter exit")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def finish(metrics, contract, trace, attempted, failed, ok_checks):
    """The last line, and the exit code: 1 when any check failed."""
    wanted = contract["per_layer" if trace else "end_to_end"]
    correct = failed == 0 and ok_checks
    line = {"correct": correct, "attempted": attempted,
            "failed": failed + (0 if ok_checks else 1),
            "metrics": {w["name"]: {"value": metrics[w["name"]],
                                    "unit": w["unit"]} for w in wanted}}
    print(json.dumps(line))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "excite_iter", "cli.py")):
        print(f"error: the program is missing: no {SRC}/excite_iter/cli.py "
              "in this checkout", file=sys.stderr)
        return 2
    contract = load_contract()
    sys.path.insert(0, SRC)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    spec = inputs.generate(args.workload, args.seed)
    prov = provenance.collect(ROOT)
    identity = backend_identity()
    spawner = Spawner(child_env())
    try:
        run = Run(args, spec, spawner)
        if args.workload == "iterate-lib":
            run.run_lib()
        else:
            run.run_cli()
        failed = run.summarize()
    finally:
        spawner.close()
    for line in report_lines(run, prov, identity, failed):
        print(line)
    result = {"args": vars(args), "provenance": prov,
              "backend_bit_identity": identity,
              "inputs_sha256": digest(spec),
              "held_out_seed": inputs.held_out_seed(args.seed),
              "metrics": run.metrics,
              "tail": run.notes["tail"], "operations": run.records}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as f:
        json.dump(result, f, indent=1)
    shutil.rmtree(os.path.join(WORK, "tmp"), ignore_errors=True)
    checked = identity[0] != "skipped"
    return finish(run.metrics, contract, args.trace,
                  len(run.records) + checked, len(failed),
                  identity[0] != "failed")


if __name__ == "__main__":
    sys.exit(main())
