"""Error taxonomy shared by every tourney module.

Every exception raised on bad input derives from TourneyError, so callers
(and the CLI) can distinguish validation failures from genuine bugs.
"""

from __future__ import annotations


class TourneyError(Exception):
    """Base class for all validation errors raised by this package."""


# ----- construction / parsing -----

class MissingArc(TourneyError):
    """Some unordered vertex pair has no orientation."""


class ConflictingArc(TourneyError):
    """Both orientations of the same pair were given."""


class SelfLoop(TourneyError):
    """An arc from a vertex to itself."""


class VertexOutOfRange(TourneyError):
    """A vertex label outside 0..n-1."""


# ----- classification -----

class WrongOrder(TourneyError):
    """Operation requires a tournament of a specific order."""


class UnrecognizedScoreSequence(TourneyError):
    """Score sequence matches no 4-vertex class; the structure is corrupt."""


# ----- generators -----

class EvenOrder(TourneyError):
    """An odd vertex count is required."""


class InvalidRatio(TourneyError):
    """Shrink ratio must lie strictly between 0 and 1."""


# ----- counting -----

class NotAnArc(TourneyError):
    """The given ordered pair is not an arc of the tournament."""


class OrderTooSmall(TourneyError):
    """The tournament has too few vertices for this statistic."""


class EmptyDistribution(TourneyError):
    """A distribution with no values cannot be compared to a reference."""


class ExactnessBound(TourneyError):
    """The input is too large for the exact integer arithmetic of a count."""


# ----- structure recovery -----

class NotLocallyTransitive(TourneyError):
    """Some neighbourhood induces a cycle; carries the witness if known."""

    def __init__(self, message: str = "tournament is not locally transitive",
                 obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NotBalanced(TourneyError):
    """Outdegrees are not all equal to (n-1)/2."""


# ----- analysis -----

class OutOfDomain(TourneyError):
    """Argument outside the open domain of the curve."""
