"""Print the wall times of the excitation iteration with the active
kernel backend, in three tables.

The first holds best-of times of one iterate_once step into a reused out
and of a default excite.run (8 steps at most), from the linear trial at
anchor x0 = 1, for the iterate-lib cases of the benchmark (soluble
delta = 0.1, quartic g = 3 and g = 8, each on its default domain edge) at
4001, 16001 and 64001 nodes.  A step is timed over BATCH calls at a time.
Each cell repeats one input, so its memory stays warm in the caches.

The second holds best-of times of the bare kernel calls of a step and of
its residual, kernels.excite_step and kernels.weighted_simpson, on the
soluble delta = 0.1 ground state and the linear trial, at 3 nodes, where
a call does no work and its time is the cost of calling a kernel, and at
the node counts of the first.  A 3-node call is timed over CALL_BATCH
calls at a time.

The third runs all 36 iterate-lib inputs (those cases and node counts,
each with the linear and the saturating trial at anchors 0.5 and 1) in
ROUNDS rounds, each in a new shuffled order, as the benchmark interleaves
them.  It prints, per node count, the median over its 12 inputs of each
input's median run time.

    PYTHONPATH=src python scripts/iteration_timings.py
"""

import random
import statistics
import time

from excite_iter import kernels
from excite_iter.excite import IterationState, TrialFunction, iterate_once, run
from excite_iter.groundstate import (Grid, default_x_max,
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.kernels import zeros
from excite_iter.potential import Quartic

POINTS = (4001, 16001, 64001)
REPEATS = 15
BATCH = 20
CALL_BATCH = 2000
ROUNDS = 30
TRIALS = ("linear", "saturating")
ANCHORS = (0.5, 1.0)
CASES = (
    ("soluble δ = 0.1", lambda n: soluble_groundstate(0.1, Grid(1.0, n))),
    ("quartic g = 3", lambda n: solve_groundstate_numeric(
        Quartic(3.0), Grid(default_x_max(3.0), n))),
    ("quartic g = 8", lambda n: solve_groundstate_numeric(
        Quartic(8.0), Grid(default_x_max(8.0), n))),
)


def best_us(call, batch):
    """The least wall time of one call, over REPEATS batches of batch
    calls, in µs."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        for _ in range(batch):
            call()
        best = min(best, (time.perf_counter() - t) / batch)
    return best * 1e6


def timings(gs):
    """(µs of one step, µs of one run) on the ground state gs."""
    trial = TrialFunction.linear()
    prev = IterationState(chi=trial.sample(gs.grid))
    out = zeros(gs.grid.n_points)
    step = best_us(lambda: iterate_once(gs, prev, 1.0, out=out), BATCH)
    return step, best_us(lambda: run(gs, trial, anchor_x0=1.0), 1)


def kernel_timings(gs):
    """(µs of one excite_step, µs of one weighted_simpson) on the ground
    state gs and the linear trial, the step into a reused out at anchor
    node 1."""
    chi = TrialFunction.linear().sample(gs.grid)
    out = zeros(gs.grid.n_points)
    h, weights, w = gs.grid.h, gs.step_weights, gs.scaled_weight[0]
    batch = CALL_BATCH if gs.grid.n_points == 3 else BATCH
    return (best_us(lambda: kernels.excite_step(h, weights, chi, 0.0, 1,
                                                out), batch),
            best_us(lambda: kernels.weighted_simpson(h, w, chi), batch))


def shuffled_medians(states):
    """{nodes: the median over the inputs on that many nodes of each
    input's median run time, in µs} over ROUNDS shuffled rounds of every
    (ground state, trial, anchor) input; states maps a node count to its
    ground states."""
    inputs = [(n, gs, TrialFunction(kind), anchor)
              for n, grounds in states.items() for gs in grounds
              for kind in TRIALS for anchor in ANCHORS]
    times = [[] for _ in inputs]
    order = list(range(len(inputs)))
    rng = random.Random(0)
    for _ in range(ROUNDS):
        rng.shuffle(order)
        for k in order:
            _, gs, trial, anchor = inputs[k]
            t = time.perf_counter()
            run(gs, trial, anchor_x0=anchor)
            times[k].append(time.perf_counter() - t)
    return {n: 1e6 * statistics.median(
        statistics.median(t) for (m, *_), t in zip(inputs, times) if m == n)
        for n in states}


def main():
    states = {n: [build(n) for _, build in CASES] for n in POINTS}
    print(f"backend: {kernels.BACKEND}; best of {REPEATS}, µs")
    print("| function | case | " + " | ".join(f"{n} nodes" for n in POINTS)
          + " |")
    print("| --- " * (2 + len(POINTS)) + "|")
    for c, (case, _) in enumerate(CASES):
        cells = [timings(states[n][c]) for n in POINTS]
        for k, function in enumerate(("iterate_once", "run")):
            row = " | ".join(f"{cell[k]:.3g}" for cell in cells)
            print(f"| `{function}` | {case} | {row} |")
    print()
    print(f"bare kernel calls, {CASES[0][0]}: best of {REPEATS}, µs")
    points = (3,) + POINTS
    print("| function | " + " | ".join(f"{n} nodes" for n in points)
          + " |")
    print("| --- " * (1 + len(points)) + "|")
    cells = [kernel_timings(CASES[0][1](n)) for n in points]
    for k, function in enumerate(("excite_step", "weighted_simpson")):
        row = " | ".join(f"{cell[k]:.3g}" for cell in cells)
        print(f"| `kernels.{function}` | {row} |")
    print()
    inputs = len(CASES) * len(TRIALS) * len(ANCHORS)
    print(f"`run` over the {inputs * len(POINTS)} inputs, {ROUNDS} shuffled "
          f"rounds: median of {inputs} input medians, µs")
    medians = shuffled_medians(states)
    print("| " + " | ".join(f"{n} nodes" for n in POINTS) + " |")
    print("| --- " * len(POINTS) + "|")
    print("| " + " | ".join(f"{medians[n]:.3g}" for n in POINTS) + " |")


if __name__ == "__main__":
    main()
