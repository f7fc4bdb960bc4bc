"""Spans around the package's public entry points, recorded from outside.

Tracer.install() replaces each entry point below, in every loaded
excite_iter module that binds it, with a wrapper that records a span:
name, start, end, parent span and a work count. Spans stay in memory,
grouped by operation, until the caller writes them out. Nothing inside
the package is changed; an entry point the package no longer has is
skipped, and its layer then reads zero.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: bytes a numerics call touches per grid element, counting each input
#: read and each output written once (8 B per float64); temporaries are
#: not counted. reverse_cumulative_simpson delegates to
#: cumulative_simpson, whose span counts the bytes.
NUMERICS_BYTES_PER_ELEMENT = {
    "simpson_integral": 8,
    "cumulative_simpson": 16,
    "reverse_cumulative_simpson": 0,
    "weighted_outer_profile": 32,
}


def _sweep_steps(args, kwargs, out):
    """RK4 steps a sweep took: up to the blow-up node, else all."""
    node = out[2]
    return node if node >= 0 else args[2]


def _numerics_bytes(per_element):
    return lambda args, kwargs, out: per_element * len(args[0])


# (span name, defining module, attribute, work count or None)
ENTRY_POINTS = (
    ("cli.run_case", "excite_iter.cli", "run_case", None),
    ("groundstate.solve", "excite_iter.groundstate",
     "solve_groundstate_numeric", None),
    ("groundstate.soluble", "excite_iter.groundstate",
     "soluble_groundstate", None),
    ("groundstate.save", "excite_iter.groundstate", "save_groundstate", None),
    ("groundstate.load", "excite_iter.groundstate", "load_groundstate", None),
    ("kernels.riccati_sweep", "excite_iter.kernels", "riccati_sweep",
     _sweep_steps),
    ("excite.run", "excite_iter.excite", "run", None),
    ("excite.iterate_once", "excite_iter.excite", "iterate_once", None),
    ("excite.orthogonality_residual", "excite_iter.excite",
     "orthogonality_residual", None),
    *(("numerics." + name, "excite_iter.numerics", name,
       _numerics_bytes(per))
      for name, per in NUMERICS_BYTES_PER_ELEMENT.items()),
    ("soluble.exact_chi", "excite_iter.soluble", "exact_chi", None),
    *(("soluble.closed_form", "excite_iter.soluble", name, None)
      for name in ("exact_epsilon", "epsilon1_closed_form",
                   "epsilon_series")),
)

#: the root finder, whose function evaluations are counted, not spanned
ROOT_FINDER = ("excite_iter.groundstate", "brentq")


class Tracer:
    def __init__(self):
        self.ops = {}            # op id -> list of span dicts
        self.root_evals = {}     # op id -> root-finder evaluations
        self._op = None
        self._spans = None
        self._stack = []
        self._patched = []       # (module, attribute, original)

    # -- operations -------------------------------------------------------

    def begin_op(self, op):
        self._op = op
        self._spans = self.ops.setdefault(op, [])
        self.root_evals.setdefault(op, 0)
        self._stack = []

    def end_op(self):
        self._op = self._spans = None

    def add_span(self, name, start, end):
        """Record a span measured by the caller, as a root of the
        current operation."""
        self._spans.append({"name": name, "start": start, "end": end,
                            "parent": -1, "work": 0})

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = self._stack
            rec = {"name": name, "start": 0.0, "end": 0.0,
                   "parent": stack[-1] if stack else -1, "work": 0}
            stack.append(len(spans))
            spans.append(rec)
            rec["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                stack.pop()
            if work is not None:
                rec["work"] = work(args, kwargs, out)
            return out
        return traced

    def _count_root_evals(self, root_finder):
        @functools.wraps(root_finder)
        def counted_root_finder(f, *args, **kwargs):
            def counted(x, *fargs):
                if self._op is not None:
                    self.root_evals[self._op] += 1
                return f(x, *fargs)
            return root_finder(counted, *args, **kwargs)
        return counted_root_finder

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("excite_iter") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        """Wrap every entry point in every loaded excite_iter module."""
        for name, mod_name, attr, work in ENTRY_POINTS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                self._patch_everywhere(fn, self.wrap(name, fn, work))
        mod_name, attr = ROOT_FINDER
        fn = getattr(sys.modules.get(mod_name), attr, None)
        if callable(fn):
            self._patch_everywhere(fn, self._count_root_evals(fn))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
