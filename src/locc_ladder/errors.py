"""Exception taxonomy shared by all modules.

Input problems are ValueError subclasses so callers can catch either the
specific class or plain ValueError.  Whether an entry is a real number and
an index an integer is decided in schmidt.py alone (_finite_nonnegative,
_is_real_kind, _is_integer_kind); each caller raises its own class.
Internal-consistency failures (things that indicate a bug rather than bad
input) derive from InvariantViolated and are never silently swallowed.
"""


class LoccLadderError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(LoccLadderError, ValueError):
    """Bad input data."""


class NotNormalized(ValidationError):
    pass


class NotSorted(ValidationError):
    pass


class NegativeEntry(ValidationError):
    """An amplitude is negative or not a finite real number."""


class DimensionTooSmall(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NotMajorized(LoccLadderError):
    """Transformation is infeasible: the majorization condition fails."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"majorization fails at k={report.failing_k}")


class SourceHasZero(LoccLadderError):
    """A measurement-operator denominator would vanish."""


class BlockTooLarge(ValidationError):
    pass


class ZeroBlockNorm(LoccLadderError):
    """The requested block carries no weight."""


class IndexRangeInvalid(ValidationError):
    pass


class OmegaNotSorted(LoccLadderError):
    """Closing coefficient came out smaller than the fixed tail head.

    Signals an infeasible block split; must never be silently re-split.
    """


class OmegaNotMajorizing(LoccLadderError):
    """The chosen block target does not majorize the block source."""


class NormalizationUnderflow(LoccLadderError):
    """The fixed tail already exceeds the block weight."""


class LadderInfeasible(LoccLadderError):
    """The smallest-first ladder cannot transform this feasible pair.

    Majorization of the whole pair holds, yet one forced intermediate
    state is not majorized by its successor, so no measurement exists
    for that link.  The attached certificate names the offending link.
    """

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(str(certificate))


class InvariantViolated(LoccLadderError):
    """An internal consistency check failed: indicates a bug, not bad input."""


class ChainInvariantViolated(InvariantViolated):
    pass


class SolverInvariantViolated(InvariantViolated):
    pass
