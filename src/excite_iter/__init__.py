"""Iterative solver for the lowest excited state of symmetric 1D
Schroedinger problems, with the quartic double well and an analytically
soluble hard-wall benchmark.

The public names load their submodule on first use (PEP 562).
"""

__version__ = "0.1.0"

_PUBLIC = {
    "errors": ("DegenerateAnchorError", "ExciteIterError",
               "NoEigenvalueError", "WrongParityError"),
    "excite": ("ConvergenceReport", "IterationState", "TrialFunction",
               "iterate_once", "orthogonality_residual", "run"),
    "groundstate": ("Grid", "GroundState", "default_bracket",
                    "default_x_max", "save_groundstate",
                    "solve_groundstate_numeric", "soluble_groundstate"),
    "potential": ("DeltaBox", "Potential", "Quartic", "eval_quartic"),
}
_SUBMODULE = {name: module for module, names in _PUBLIC.items()
              for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))


def _cli_process(main=None):
    """The entry of the excite-iter process; it does not return.  The
    ``excite-iter`` script calls it bare, ``python -m excite_iter.cli``
    with that module's main.

    After main returns, every artifact is closed, so the process ends
    without the interpreter's teardown: it runs the atexit callbacks and
    flushes the standard streams, as that teardown would, and exits with
    main's code, or with 120 when stdout cannot be flushed (a closed
    pipe).  An exception from main, argparse's SystemExit(2) among them,
    takes the interpreter's own exit path.
    """
    import atexit
    import os
    import sys

    if main is None:
        from .cli import main
    code = main()
    # the interpreter's own order: what a callback prints is flushed too
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except (OSError, ValueError):
        code = 120
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        pass
    os._exit(code)
