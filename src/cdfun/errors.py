"""Exception types shared across the package.

Every domain failure raises a subclass of CDError carrying a short machine
readable ``kind`` tag; the CLI maps these to structured JSON errors and exit
code 2 (parse/usage problems exit 1).
"""

from __future__ import annotations


class CDError(Exception):
    """Base class for all errors raised by this package."""

    kind = "domain"


class DomainError(CDError):
    """Invalid argument or state outside any more specific category."""

    kind = "domain"


class LevelMismatchError(CDError):
    """Operands live in different algebra levels."""

    kind = "level"


class SingularElementError(CDError):
    """Inversion (or a negative power) of a numerically zero element."""

    kind = "singular"


class PoleError(CDError):
    """Evaluation hit a pole: a negative power of a vanishing base."""

    kind = "pole"


class UnsupportedShapeError(CDError):
    """An expression does not have the shape required by the operation."""

    kind = "unsupported"


class StepControlError(CDError):
    """Adaptive step control could not keep the argument increment small."""

    kind = "stepcontrol"


class NonConvergenceError(CDError):
    """An iterative procedure exhausted its budget before reaching tolerance.

    ``best`` carries the best value seen so far (or None).
    """

    kind = "nonconvergence"

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ExprSyntaxError(CDError):
    """Expression text failed to parse; ``position`` is a 0-based offset."""

    kind = "parse"

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
