"""Iterative solver for the lowest excited state of symmetric 1D
Schroedinger problems, with the quartic double well and an analytically
soluble hard-wall benchmark."""

from .errors import (DegenerateAnchorError, ExciteIterError,
                     NoEigenvalueError, WrongParityError)
from .excite import (ConvergenceReport, IterationState, TrialFunction,
                     iterate_once, orthogonality_residual, run)
from .groundstate import (Grid, GroundState, default_bracket, default_x_max,
                          load_groundstate, save_groundstate,
                          solve_groundstate_numeric, soluble_groundstate)
from .potential import DeltaBox, Potential, Quartic, eval_quartic

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport", "DegenerateAnchorError", "DeltaBox",
    "ExciteIterError", "Grid", "GroundState", "IterationState",
    "NoEigenvalueError", "Potential", "Quartic", "TrialFunction",
    "WrongParityError",
    "default_bracket", "default_x_max", "eval_quartic", "iterate_once",
    "load_groundstate", "orthogonality_residual", "run", "save_groundstate",
    "soluble_groundstate", "solve_groundstate_numeric",
]
