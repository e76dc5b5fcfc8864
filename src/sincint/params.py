"""Parameter validation for the integral family, and the package's two exceptions."""

from __future__ import annotations

from dataclasses import dataclass, fields


class DomainError(ValueError):
    """Raised when parameters fall outside the evaluable family.

    ``constraint`` holds a short machine-readable statement of the violated
    rule (for example ``"a >= b"``) so callers can report it verbatim.
    """

    def __init__(self, constraint: str, message: str | None = None):
        self.constraint = constraint
        super().__init__(message or f"constraint violated: {constraint}")


class QuadratureError(RuntimeError):
    """The requested tolerance could not be certified within the budget."""


@dataclass(frozen=True)
class IntegralParams:
    """The five integer parameters of  sin^a(p x) cos^c(q x) / x^b  on (0, inf).

    a is the sine exponent, b the power of x, c the cosine exponent, p and q
    the sine and cosine frequencies (either sign).  Construction enforces the
    structural constraints a >= b >= 1 and c >= 0; the divergence of b = 1
    with even a is refused at evaluation time.  The fields, in this order,
    open every JSON record of a case: vars(params), or FIELDS before one exists.
    """

    a: int
    b: int
    c: int
    p: int
    q: int

    def __post_init__(self) -> None:
        for name in FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(
                    f"{name} is an integer",
                    f"{name} must be an integer, got {value!r}",
                )
        if self.b < 1:
            raise DomainError("b >= 1")
        if self.a < self.b:
            raise DomainError("a >= b")
        if self.c < 0:
            raise DomainError("c >= 0")


FIELDS = tuple(field.name for field in fields(IntegralParams))


def validate_for_evaluation(params: IntegralParams) -> None:
    """Reject b = 1 with even a, whose integral diverges."""
    if params.b == 1 and params.a % 2 == 0:
        raise DomainError("odd a when b = 1", "b = 1 requires odd a (the even-a integral diverges)")
