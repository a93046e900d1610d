"""Shared exception types.

Domain errors (bad subsets, illegal epsilon values, chamber mismatches) are
all ValueError subclasses so callers can distinguish them from genuine
internal failures such as a closure that missed its residual tolerance.
"""


class InvalidArgument(ValueError):
    """Input violates a documented precondition."""


class RangeError(InvalidArgument):
    """A numeric parameter is outside its legal open range."""


class ChamberMismatch(InvalidArgument):
    """Two length vectors that were required to share a chamber do not."""


class NoModuli(InvalidArgument):
    """The configuration has no marked-point moduli (line polygons)."""


class NoLimit(InvalidArgument):
    """A family of frames never produces the requested bubble limit."""


class StructureError(InvalidArgument):
    """A bubble tree is malformed (non-laminar subsets, bad parentage)."""


class InternalError(RuntimeError):
    """An invariant the library guarantees did not hold: a bug, not bad input."""


class NonConvergence(RuntimeError):
    """A numeric routine missed its residual tolerance.  Carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
