"""Seeded input lists for the four workloads.

The same (workload, seed) always gives the same list. Continuous
parameters follow a golden-ratio sequence from a seeded offset, so any
prefix of the list covers its range evenly and the median latency of a
short run does not hinge on where the draws happened to fall.
"""

from __future__ import annotations

import random

WORKLOADS = ("soluble-cli", "quartic-cold-cli", "quartic-warm-cli",
             "iterate-lib")

LIST_LENGTH = 96
ANCHORS = (0.5, 1.0)
TRIALS = ("linear", "saturating")
SOLUBLE_DELTA = (0.05, 1.0)
QUARTIC_G = (3.0, 10.0)
WARM_COUPLINGS = 3
LIB_CASES = (("soluble", 0.1), ("quartic", 3.0), ("quartic", 8.0))
LIB_POINTS = (4001, 16001, 64001)

_GOLDEN = (5 ** 0.5 - 1) / 2


def held_out_seed(seed):
    """A second seed, never used while a change is written, on which a
    claimed gain must also hold."""
    return (seed * 7919 + 104729) % (2 ** 31)


def _spread(rng, n, lo, hi):
    u0 = rng.random()
    return [lo + (hi - lo) * ((u0 + i * _GOLDEN) % 1.0) for i in range(n)]


def _rounds(rng, combos, length):
    """Whole shuffled rounds of combos, concatenated to at least length."""
    out = []
    while len(out) < length:
        round_ = list(combos)
        rng.shuffle(round_)
        out.extend(round_)
    return out


def generate(workload, seed):
    """The input list of one run: a dict of workload-level settings and
    the ordered operations."""
    rng = random.Random(f"{workload}:{seed}")
    first = rng.randrange(2)
    anchors = [ANCHORS[(first + i) % 2] for i in range(LIST_LENGTH)]
    if workload == "soluble-cli":
        ops = [{"case": "soluble", "delta": d, "anchor": a}
               for d, a in zip(_spread(rng, LIST_LENGTH, *SOLUBLE_DELTA),
                               anchors)]
        return {"workload": workload, "seed": seed, "ops": ops}
    if workload == "quartic-cold-cli":
        ops = [{"case": "quartic", "g": g, "anchor": a}
               for g, a in zip(_spread(rng, LIST_LENGTH, *QUARTIC_G),
                               anchors)]
        return {"workload": workload, "seed": seed, "ops": ops}
    if workload == "quartic-warm-cli":
        couplings = sorted(_spread(rng, WARM_COUPLINGS, *QUARTIC_G))
        combos = [{"case": "quartic", "g": g, "anchor": a, "trial": t}
                  for g in couplings for t in TRIALS for a in ANCHORS]
        return {"workload": workload, "seed": seed, "couplings": couplings,
                "ops": _rounds(rng, combos, LIST_LENGTH)}
    if workload == "iterate-lib":
        combos = [{"case": case, "param": p, "points": n, "trial": t,
                   "anchor": a}
                  for case, p in LIB_CASES for n in LIB_POINTS
                  for t in TRIALS for a in ANCHORS]
        # rounds are run whole, so keep the list to whole rounds
        return {"workload": workload, "seed": seed, "round": len(combos),
                "ops": _rounds(rng, combos, 40 * len(combos))}
    raise ValueError(f"unknown workload {workload!r}")
