"""Exception types shared across the package."""


class FlatPencilError(Exception):
    """Base class for all library errors."""


class ParseError(FlatPencilError):
    """Malformed expression text.

    Carries the character position at which parsing failed.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(FlatPencilError):
    """A variable index lies outside u1..uN for the declared dimension."""


class DomainError(FlatPencilError):
    """Evaluation hit a singular point (division by zero, ln 0, ...)."""


class DegenerateMetric(FlatPencilError):
    """Metric determinant vanished (within tolerance) at a sample point.

    `index` is the batch index of the degenerate matrix (a tuple) when it
    came from a batch, such as the member axis of a stacked pencil.
    """

    def __init__(self, point, absdet, context="", index=None):
        msg = f"metric degenerate at {point} (|det| = {absdet:.3e})"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)
        self.point = point
        self.absdet = absdet
        self.index = index


class SingularOperator(FlatPencilError):
    """Discretized integral operator is numerically singular."""

    def __init__(self, row, cond):
        super().__init__(
            f"integral operator singular for row node {row} (cond ~ {cond:.3e})"
        )
        self.row = row
        self.cond = cond


class TruncationWarning(UserWarning):
    """Kernel magnitude at the truncation endpoint exceeds the decay tolerance."""
