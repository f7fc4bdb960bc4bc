"""Exception hierarchy for the solver."""


class ExciteIterError(Exception):
    """Base class for all solver errors."""


class NoEigenvalueError(ExciteIterError):
    """The energy bracket contains no sign change of the shooting mismatch."""


class WrongParityError(ExciteIterError):
    """The shooting solution develops a node inside the domain."""


class DegenerateAnchorError(ExciteIterError):
    """The unnormalized iterate vanishes at the anchor point."""

