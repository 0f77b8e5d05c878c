"""Exception hierarchy.

Three families map onto the CLI exit codes: validation problems (exit 2),
numeric failures (exit 3), and studies that cannot measure or whose trend failed (exit 4).
"""

from contextlib import contextmanager


class LpattrError(Exception):
    """Base class for all library errors."""


class ValidationError(LpattrError):
    """Bad inputs: shape mismatches, broken preconditions, bad configs."""

    exit_code = 2


@contextmanager
def malformed_file(path, what: str):
    """Report the KeyError, TypeError, ValueError (JSONDecodeError is one),
    OverflowError (a JSON integer too large for a float) or ValidationError
    of reading a malformed input file as a ValidationError naming the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"{path} is not a {what}: {exc!r}") from None


class DimensionMismatchError(ValidationError):
    pass


class ConfigurationError(ValidationError):
    pass


class CoverageError(ValidationError):
    """Sampling box does not contain the feasible polytope."""


class EmptyVertexSetError(ValidationError):
    """Vertex enumeration produced no feasible vertex (empty or unbounded set)."""


class NumericError(LpattrError):
    """Iterative procedure failed to converge or produced non-finite values."""

    exit_code = 3


class ProjectionFailureError(NumericError):
    """No active set certified a point's Euclidean projection onto the feasible set."""


class TrainingDivergenceError(NumericError):
    """Training loss became non-finite; carries the last finite parameters."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class RankDeficiencyError(NumericError):
    """Unregularized surrogate fit hit a singular normal matrix."""


class RenderError(NumericError):
    """Heatmap input contained non-finite entries."""


class InconclusiveError(LpattrError):
    """A study cannot measure (e.g. too few infeasible box samples); the CLI
    also raises it after writing a report whose checked trend failed."""

    exit_code = 4
