"""Arithmetic of the benchmark: medians, the tail percentile, span self
times and the per-layer accounting of a traced operation.

Pure functions on plain lists, so they are tested without running the
program (see test_perfbench.py).
"""

from __future__ import annotations

import math
import statistics

#: percentiles considered for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10

#: layers, in the order the program's modules are called
LAYERS = ("startup", "cli", "groundstate", "kernels", "excite", "numerics",
          "soluble")


def median(values):
    return statistics.median(values) if values else float("nan")


def median_of_input_medians(samples):
    """Median over inputs of each input's median value.

    samples: (input key, value) pairs. When every input occurs once this
    is the plain median. When a few inputs repeat in whole rounds, as on
    iterate-lib, the plain median falls between the samples of two
    inputs, and whichever of their extremes lies innermost sets it; each
    input's median does not hinge on its extremes.
    """
    by_input = {}
    for key, value in samples:
        by_input.setdefault(key, []).append(value)
    return median([statistics.median(v) for v in by_input.values()])


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(values):
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples beyond it, as (percentile, value, samples beyond).

    Returns None when no such percentile lies above the median, i.e. when
    the run holds too few operations for a tail.
    """
    xs = sorted(values)
    n = len(xs)
    for pct in TAIL_LADDER:
        beyond = n - max(1, math.ceil(pct / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(xs, pct), beyond
    return None


def union_length(intervals, lo=-math.inf, hi=math.inf):
    """Total length covered by intervals (start, end), clipped to [lo, hi];
    overlapping intervals count once."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its children cover.

    spans: list of dicts with "start", "end" and "parent" (an index into
    spans, or -1 for a root).
    """
    children = [[] for _ in spans]
    for sp in spans:
        if sp["parent"] >= 0:
            children[sp["parent"]].append((sp["start"], sp["end"]))
    return [sp["end"] - sp["start"]
            - union_length(kids, sp["start"], sp["end"])
            for sp, kids in zip(spans, children)]


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def layer_accounting(spans, op_wall):
    """Self time per layer for one operation, plus the remainder of the
    operation's wall time that no span covers."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for sp, own in zip(spans, self_times(spans)):
        per_layer[layer_of(sp["name"])] += own
    roots = [(sp["start"], sp["end"]) for sp in spans if sp["parent"] < 0]
    uncovered = op_wall - union_length(roots)
    return per_layer, uncovered

