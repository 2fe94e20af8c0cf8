"""Exception types shared across the package."""


class TtriemError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(TtriemError, ValueError):
    """Shapes, extents or mode sizes of the operands do not agree."""


class OversizeError(TtriemError, ValueError):
    """A dense materialization would exceed the configured safety cap."""


class UnsupportedOperationError(TtriemError, TypeError):
    """A program used an operation the differentiation engine does not support."""


class InvalidVariableError(TtriemError, ValueError):
    """A variable handed to the reverse sweep does not live on the given tape."""


class FormatError(TtriemError, ValueError):
    """A serialized tensor file is corrupt or inconsistent."""


class InvalidTangentError(TtriemError, ValueError):
    """A tangent vector violates its gauge conditions beyond tolerance."""


class InvalidPairError(TtriemError, ValueError):
    """Two tangent vectors do not share a base point."""


class DegeneratePointError(TtriemError, ValueError):
    """The evaluation point is degenerate for the requested objective."""


class InvalidDataError(TtriemError, ValueError):
    """Objective data does not satisfy the documented preconditions."""


class UnavailableMethodError(TtriemError, RuntimeError):
    """The requested baseline method cannot be run for this objective/instance."""


class NonFiniteError(TtriemError, ArithmeticError):
    """A computed value is NaN or infinite.

    ``stage`` names what was being computed: ``"value"`` (the objective
    value), ``"gradient"``, ``"HVP"``, or ``"tangent"`` for a tangent built
    by a routine that does not know which of these it computes.
    """

    def __init__(self, stage, detail=""):
        self.stage = stage
        self.detail = detail
        super().__init__(f"non-finite {stage}" + (f": {detail}" if detail else ""))
