"""Command-line front end.

Runs the two benchmark cases, persists ground states for reuse, and emits
the convergence summary plus the curve data (chi iterates, wave functions)
as round-trip-exact CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys

import numpy as np

from . import kernels, references, soluble
from .errors import ExciteIterError
from .excite import ConvergenceReport, TrialFunction, run
from .groundstate import (Grid, GroundState, default_x_max, load_groundstate,
                          save_groundstate, solve_groundstate_numeric,
                          soluble_groundstate, write_csv)
from .potential import DeltaBox, Potential, Quartic

_RUN_PARAMS = inspect.signature(run).parameters


@dataclasses.dataclass(frozen=True)
class RunConfig:
    case: str                      # "soluble" | "quartic"
    delta: float | None = None
    g: float | None = None
    anchor_x0: float = _RUN_PARAMS["anchor_x0"].default
    trial: str | None = None       # None: per-case default
    x_max: float | None = None
    n_points: int = 4001
    max_iters: int = _RUN_PARAMS["max_iters"].default
    tol: float = _RUN_PARAMS["tol"].default
    out_dir: str = "."
    gs_cache: str | None = None

    def __post_init__(self):
        if self.case == "soluble":
            if self.delta is None or self.g is not None:
                raise ValueError("soluble case takes --delta only")
        elif self.case == "quartic":
            if self.g is None or self.delta is not None:
                raise ValueError("quartic case takes --g only")
        else:
            raise ValueError(f"unknown case {self.case!r}")
        if not 0 < self.tol < 1:
            raise ValueError(f"--tol must be positive and < 1, got {self.tol}")
        if not self.n_points >= 5:
            raise ValueError(
                f"--points must be at least 5, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise ValueError(f"--points must be odd, got {self.n_points}")
        if not self.max_iters >= 1:
            raise ValueError(
                f"--iters must be at least 1, got {self.max_iters}")


def _fmt(v: float) -> str:
    return format(v, ".17g")


#: relative size below which an error estimate is rounding noise
ROUNDING_FLOOR = 1e-14


def _estimate_line(summary: dict) -> str:
    """The stdout line of the half-grid error estimate."""
    err = summary["eps_disc_err"]
    if err is None:
        return ("eps_richardson = null, eps_disc_err = null: "
                + summary["eps_disc_err_reason"])
    line = f"eps_richardson = {_fmt(summary['eps_richardson'])}, "
    if abs(err) < ROUNDING_FLOOR * abs(summary["eps"]):
        return line + (f"eps_disc_err at the rounding floor (below "
                       f"{ROUNDING_FLOOR:g} relative)")
    return line + f"eps_disc_err = {err:.2g}"


def _on_node(grid: Grid, x: float) -> bool:
    try:
        grid.index_of(x)
    except ValueError:
        return False
    return True


def _check_anchor(grid: Grid, anchor: float) -> None:
    """Raise ValueError, naming the options to change, unless the anchor
    lies on a node of the grid."""
    if _on_node(grid, anchor):
        return
    where = (f"--anchor {anchor} is not a node of the grid with --xmax "
             f"{grid.x_max} and --points {grid.n_points}")
    if not 0 < anchor <= grid.x_max:
        raise ValueError(f"{where}: it lies outside [0, {grid.x_max}]")
    hint = _points_hint(grid, anchor, "puts it on a node of the grid and "
                        "of its half grid")
    raise ValueError(f"{where}; {hint}")


def _half(grid: Grid) -> Grid:
    """Every other node of grid."""
    return Grid(grid.x_max, (grid.n_points + 1) // 2)


def _points_hint(grid: Grid, anchor: float, does: str) -> str:
    """Advice: the --points nearest grid's that puts 0 < anchor <= x_max
    on a node of the grid and of its half grid, followed by what it does;
    else the options to change."""
    from fractions import Fraction  # only this advice needs it

    # the anchor is on a node of both grids when (n_points - 1) / 2 is an
    # even multiple of the numerator of x_max / anchor in lowest terms
    step = 2 * math.lcm(2, Fraction(grid.x_max / anchor)
                        .limit_denominator(10_000).numerator)
    fit = Grid(grid.x_max,
               max(step, round((grid.n_points - 1) / step) * step) + 1)
    if _on_node(fit, anchor) and _on_node(_half(fit), anchor):
        return f"--points {fit.n_points} {does}"
    return "change --xmax or --anchor"


def _check_cache(cache: str, gs: GroundState, potential: Potential,
                 grid: Grid) -> None:
    """Raise ValueError, naming the cache, the field and both values,
    unless the cached ground state is for this potential and grid."""
    have = {**gs.potential.to_dict(), **gs.grid.to_dict()}
    want = {**potential.to_dict(), **grid.to_dict()}
    for field, value in want.items():
        if have.get(field) != value:
            raise ValueError(
                f"--gs-cache {cache} holds a ground state with {field} "
                f"{have.get(field)!r}, but this run has {field} {value!r}")


def _solve(potential: Potential, grid: Grid) -> GroundState:
    """The ground state on grid from the case's own provider."""
    if isinstance(potential, DeltaBox):
        return soluble_groundstate(potential.delta, grid)
    return solve_groundstate_numeric(potential, grid)


def _obtain_groundstate(config: RunConfig) -> tuple[GroundState, bool]:
    """Returns (ground state, loaded_from_cache).  A cache is used only if
    it holds the configured potential and grid."""
    if config.case == "soluble":
        potential = DeltaBox(config.delta)
        x_max = config.x_max or 1.0
    else:
        potential = Quartic(config.g)
        x_max = config.x_max or default_x_max(config.g)
    grid = Grid(x_max=x_max, n_points=config.n_points)
    _check_anchor(grid, config.anchor_x0)
    cache = config.gs_cache
    if cache and os.path.exists(cache):
        gs = load_groundstate(cache)
        _check_cache(cache, gs, potential, grid)
        return gs, True
    return _solve(potential, grid), False


def _half_grid_error(gs: GroundState, trial: TrialFunction,
                     anchor_x0: float, report: ConvergenceReport
                     ) -> tuple[float | None, str | None]:
    """(e, None), or (None, why there is no e).

    eps has an h^4 error, so with eps_2h, the eps after the same number
    of steps on the half grid, e = (eps_h - eps_2h) / 15 estimates the
    limit h -> 0 minus eps_h (L. F. Richardson, Phil. Trans. R. Soc. A
    210, 307 (1911)).  The half grid gets its own ground state from the
    case's provider: the error lives in S, so S on every other node of
    gs would not show it.
    """
    grid, steps = gs.grid, len(report.eps_sequence)
    if grid.n_points % 4 != 1:
        hint = _points_hint(grid, anchor_x0, "gives an estimate")
        return None, (f"--points {grid.n_points} is not 1 more than a "
                      "multiple of 4, so its half grid would have an even "
                      f"node count; {hint}")
    half = _half(grid)
    if not _on_node(half, anchor_x0):
        hint = _points_hint(grid, anchor_x0, "puts it on a node of both")
        return None, (f"--anchor {anchor_x0} is not a node of the "
                      f"{half.n_points}-node half grid; {hint}")
    try:
        coarse = run(_solve(gs.potential, half), trial, anchor_x0=anchor_x0,
                     max_iters=steps, tol=0.0)
    except ExciteIterError as exc:
        return None, f"the {half.n_points}-node half-grid run failed: {exc}"
    if len(coarse.eps_sequence) < steps:
        return None, (f"the {half.n_points}-node half-grid run stopped "
                      f"({coarse.status}) after {len(coarse.eps_sequence)} "
                      f"of {steps} steps")
    return (report.eps - coarse.eps) / 15.0, None


def _start_in_child(task):
    """Run task() in a child made by os.fork, and return a function that
    reaps the child and raises OSError with the text of the child's
    exception if task raised.  Where os.fork does not exist, task runs
    here and now, and the returned function does nothing."""
    if not hasattr(os, "fork"):
        task()
        return lambda: None
    # what is buffered before the fork must not be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    import warnings  # loaded at interpreter start, so this costs nothing

    r, w = os.pipe()
    with warnings.catch_warnings():
        # NumPy's OpenBLAS keeps a second thread, and Python >= 3.12 warns
        # on a fork from a threaded process.  The child runs no BLAS and
        # takes no lock, so the deadlock the warning is about cannot occur.
        warnings.filterwarnings(
            "ignore", message=r".*use of fork\(\) may lead to deadlocks",
            category=DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
    if pid == 0:
        # the child never returns into the caller, so no test runner,
        # atexit hook or enclosing script runs a second time in it
        code = 1
        try:
            os.close(r)
            task()
            code = 0
        except BaseException as exc:
            os.write(w, (str(exc) or repr(exc)).encode(errors="replace"))
        finally:
            os._exit(code)
    os.close(w)

    def join():
        try:
            with open(r, "rb") as f:
                text = f.read().decode(errors="replace")
        finally:
            _, status = os.waitpid(pid, 0)
        if text or status:
            raise OSError(text or "artifact writer exited with status "
                          f"{os.waitstatus_to_exitcode(status)}")
    return join


def run_case(config: RunConfig) -> dict:
    """Execute one configured run, and the same number of steps on the
    half grid for the error estimate (_half_grid_error), and write all
    artifacts to out_dir.

    Every result is computed before the first file is written, so a run
    that fails leaves no artifact.  A child process then writes the wave
    functions and, unless the ground state came from the cache, the
    ground state (to out_dir and to the cache), while this process writes
    summary.json and the chi iterates.

    Returns the summary dict (also written as summary.json).
    """
    gs, cached = _obtain_groundstate(config)

    trial_kind = config.trial or (
        "linear" if config.case == "soluble" else "saturating")
    trial = TrialFunction(trial_kind)
    report = run(gs, trial, anchor_x0=config.anchor_x0,
                 max_iters=config.max_iters, tol=config.tol)
    disc_err, no_err_reason = _half_grid_error(gs, trial, config.anchor_x0,
                                               report)

    summary = {
        "case": config.case,
        "delta": config.delta,
        "g": config.g,
        "anchor_x0": config.anchor_x0,
        "trial": trial_kind,
        "grid": gs.grid.to_dict(),
        "max_iters": config.max_iters,
        "tol": config.tol,
        "gs_cache": config.gs_cache,
        "gs_source": "cache" if cached else "solved",
        "kernel_backend": kernels.BACKEND,
        "kernel_backend_reason": kernels.BACKEND_REASON,
        "e_gd": gs.e_gd,
        "eps_sequence": report.eps_sequence,
        "delta_sequence": report.delta_sequence,
        "orth_residuals": report.orth_residuals,
        "status": report.status,
        "eps": report.eps,
        "e_odd": report.e_odd,
        "e_mean": report.e_mean,
        "eps_disc_err": disc_err,
        "eps_richardson": (None if disc_err is None
                           else report.eps + disc_err),
        "eps_disc_err_reason": no_err_reason,
    }
    if config.case == "soluble":
        summary["eps_exact"] = soluble.exact_epsilon(config.delta)
        summary["eps_1_closed_form"] = soluble.epsilon1_closed_form(
            config.delta)
        summary["eps_series"] = {
            str(n): soluble.epsilon_series(config.delta, n)
            for n in (1, 2, 3)}
        # the exact chi column is rescaled so both curves share the anchor
        summary["chi_exact_rescaled_to_anchor"] = True
    if config.case == "quartic" and config.g == 8.0:
        summary["e_asymp"] = references.E_ASYMP_G8
        summary["eps_asymp"] = references.EPS_ASYMP_G8

    x = gs.grid.nodes()

    # chi iterates (the curves behind the convergence figures)
    header = ["x"] + [f"chi_{n}" for n in range(len(report.states))]
    columns = [x] + [s.chi for s in report.states]
    if config.case == "soluble":
        chi_ex = soluble.exact_chi(config.delta, x)
        i0 = gs.grid.index_of(config.anchor_x0)
        chi0 = report.states[0].chi
        chi_ex *= chi0[i0] / chi_ex[i0]
        header.append("chi_exact")
        columns.append(chi_ex)

    # ground and excited wave functions
    with np.errstate(under="ignore"):
        psi_gd = np.exp(-gs.s)
    psi_ex = psi_gd * report.states[-1].chi

    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    def write_profiles():
        write_csv(os.path.join(out_dir, "wavefunctions.csv"),
                  ["x", "psi_gd", "psi_ex"], [x, psi_gd, psi_ex])
        if not cached:
            save_groundstate(gs, os.path.join(out_dir, "groundstate.csv"))
            if config.gs_cache:
                save_groundstate(gs, config.gs_cache)

    join = _start_in_child(write_profiles)
    try:
        with open(os.path.join(out_dir, "summary.json"), "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        write_csv(os.path.join(out_dir, "chi_curves.csv"), header, columns)
    finally:
        join()
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excite-iter",
        description="Iterative solver for the lowest excited state of "
                    "symmetric 1D Schroedinger problems")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)
                if f.default is not dataclasses.MISSING}
    for case in ("soluble", "quartic"):
        p = sub.add_parser(case, help=f"run the {case} benchmark")
        if case == "soluble":
            p.add_argument("--delta", type=float, required=True,
                           help="spike parameter in (0, pi/2)")
        else:
            p.add_argument("--g", type=float, required=True,
                           help="quartic coupling, positive")
        p.add_argument("--anchor", dest="anchor_x0", metavar="ANCHOR",
                       type=float,
                       help="fixed point x0 for the normalization")
        p.add_argument("--trial", choices=("linear", "saturating"),
                       help="seed function (default: linear for soluble, "
                            "saturating for quartic)")
        p.add_argument("--iters", dest="max_iters", metavar="ITERS",
                       type=int, help="maximum number of iterations")
        p.add_argument("--tol", type=float,
                       help="relative stopping tolerance on eps")
        if case == "quartic":      # the soluble box ends at x = 1
            p.add_argument("--xmax", dest="x_max", metavar="XMAX",
                           type=float,
                           help="domain edge (default: 1 for soluble, "
                                "weight-suppression rule for quartic)")
        p.add_argument("--points", dest="n_points", metavar="POINTS",
                       type=int, help="grid node count (odd)")
        p.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="output directory")
        p.add_argument("--gs-cache",
                       help="ground-state CSV cache path (loaded if "
                            "present, written otherwise); a cache for "
                            "another case, coupling or grid is an error")
        p.set_defaults(**defaults)

    c = sub.add_parser("compare",
                       help="gate a summary against a reference table")
    c.add_argument("--summary", required=True, help="path to summary.json")
    c.add_argument("--ref", required=True,
                   choices=sorted(references.REFERENCES),
                   help="reference table tag")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            text, ok = references.compare_report(args.summary, args.ref)
            print(text)
            return 0 if ok else 1
        options = vars(args)
        config = RunConfig(case=options.pop("command"), **options)
        summary = run_case(config)
    except (ExciteIterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    eps_str = ", ".join(_fmt(e) for e in summary["eps_sequence"])
    print(f"e_gd = {_fmt(summary['e_gd'])}")
    print(f"eps sequence: {eps_str}")
    print(f"status = {summary['status']}, e_odd = {_fmt(summary['e_odd'])}, "
          f"e_mean = {_fmt(summary['e_mean'])}")
    print(_estimate_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
