"""Exception hierarchy shared by all modules."""


class RankOneError(Exception):
    """Base class for all library errors."""


class ExpressionSyntaxError(RankOneError):
    """Malformed expression source; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier is neither a known function, constant nor the variable."""


class WrongVariable(ExpressionSyntaxError):
    """Expression uses a free variable other than the declared one."""


class BadParameter(RankOneError):
    """A parameter binding has a bad name or a non-finite value."""


class DomainError(RankOneError):
    """Evaluation left the natural domain of a sub-expression (log, sqrt, ...)."""


class OverflowValue(RankOneError):
    """Evaluation produced a non-finite result."""


class NonFinite(RankOneError):
    """An expression yielded NaN/Inf inside its declared domain."""


class SymmetryViolation(RankOneError):
    """The isochoric part is not reciprocal-symmetric."""

    def __init__(self, worst_t: float, residual: float):
        super().__init__(
            f"h(t) != h(1/t): worst residual {residual:.3e} at t = {worst_t:.6g}"
        )
        self.worst_t = worst_t
        self.residual = residual


class NonPositiveDeterminant(RankOneError):
    """Matrix is not in GL+(2)."""


class UnknownCatalogId(RankOneError):
    """Requested built-in energy does not exist."""


class DegenerateGrid(RankOneError, ValueError):
    """A grid or sampling setting (size, range, seed) is empty, collapsed or
    out of range."""


class LeftGLplus(RankOneError):
    """A finite-difference step left GL+(2); shrink the step."""
