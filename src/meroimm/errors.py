"""Exception taxonomy.

Three families, matching the CLI exit codes: input errors (malformed or
inconsistent data), precondition failures (well-formed input outside an
operation's contract), and numerical failures (a budget ran out before the
requested accuracy was reached).
"""
from __future__ import annotations


class MeroimmError(Exception):
    """Base class for all library errors."""


class InputError(MeroimmError):
    """Malformed or self-inconsistent input data."""


class UnreducedFractionError(InputError):
    """Evaluation or residue hit an indeterminate 0/0 of an unreduced fraction."""


class PreconditionError(MeroimmError):
    """Valid input violating an operation's stated precondition."""


class SingularityOnBoundaryError(PreconditionError):
    """A pole or derivative zero sits within clearance of a boundary contour."""


class ZeroOnContourError(PreconditionError):
    """A zero of f lies on a winding's contour: an arc could not be certified."""


class PathTooCloseError(PreconditionError):
    """An integration path, a basis loop or a winding's contour runs too near a singularity."""


class NotAnImmersionError(PreconditionError):
    """The map fails the immersion criterion where one is required."""


class PoleCollisionError(PreconditionError):
    """Poles of a parametric family collide or change count across the grid."""


class NumericalError(MeroimmError):
    """A numerical budget was exhausted before reaching the requested accuracy."""


class RootSolveError(NumericalError):
    """A computed root failed the residual acceptance test.

    Carries the partial results in ``partial`` as (root, multiplicity) pairs.
    """

    def __init__(self, message: str, partial=()):
        super().__init__(message)
        self.partial = tuple(partial)


class QuadratureBudgetError(NumericalError):
    """Adaptive quadrature ran out of evaluations; ``best`` holds the estimate."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class DegreeBudgetError(NumericalError):
    """The truncation degree schedule ended above the target error.

    ``achieved`` is the best sampled error reached.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class InternalConsistencyError(MeroimmError):
    """Two independent computations disagree; a zero count keeps both, by_roots and by_count."""

    def __init__(self, message: str, by_roots=None, by_count=None):
        super().__init__(message)
        self.by_roots, self.by_count = by_roots, by_count
