"""Exception hierarchy shared across the solver modules, and the rule that
names the failed stage of a chained solve."""

from contextlib import contextmanager


class DualFemError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(DualFemError, ValueError):
    """A caller supplied arguments violating a documented precondition."""


class AssemblyError(DualFemError):
    """An element kernel produced non-finite contributions."""


class SolverError(DualFemError):
    """A linear solve failed or its residual check did not pass."""


class NonconvergenceError(SolverError):
    """Newton iteration exceeded its cap or diverged."""

    def __init__(self, message, increments=None):
        super().__init__(message)
        self.increments = list(increments) if increments is not None else []


class SingularDtPError(SolverError):
    """The pointwise 3x3 system of the rigid-body DtP map was singular."""


class UnsupportedBranchError(DualFemError):
    """Analytical free-rotation solution requested outside its regime."""


@contextmanager
def in_stage(number: int):
    """Run stage ``number`` (from 1) of a chained solve.  A DualFemError raised
    in it is re-raised as the same object, so its type and data (such as a
    Newton history) survive, with ``stage N failed: `` in front of its
    message."""
    try:
        yield
    except DualFemError as exc:
        exc.args = (f"stage {number} failed: {exc}",) + exc.args[1:]
        raise
