"""Exception hierarchy shared across the package.

Three behavioural groups matter to callers (and fix the CLI exit codes):
``InputError`` for rejected parameters, ``BudgetExceeded`` for enumerations
whose estimated cost is over the configured cap, and ``InternalError`` for
defensive checks that should be unreachable on correct inputs.
"""

from __future__ import annotations


class InputError(ValueError):
    """Bad user-supplied parameters (CLI exit code 2)."""


class NotPrime(InputError):
    pass


class DegreeZero(InputError):
    pass


class FieldTooLarge(InputError):
    pass


class NotQuadraticExtension(InputError):
    pass


class DivisionByZero(ZeroDivisionError):
    pass


class DimensionMismatch(InputError):
    pass


class ParityMismatch(InputError):
    pass


class NotQuadratic(InputError):
    pass


class InvalidAlpha(InputError):
    pass


class EmptyPolytope(InputError):
    pass


class EmptyPointSet(InputError):
    pass


class DegreeTooLarge(InputError):
    pass


class HypothesisViolated(InputError):
    pass


class HOutOfRange(InputError):
    pass


class HTooLarge(InputError):
    pass


class InvalidParams(InputError):
    pass


class OutOfTheoremRange(InputError):
    """A closed-form prediction was requested outside its range of validity."""

    def __init__(self, message: str, hypothesis: str | None = None):
        super().__init__(message)
        self.hypothesis = hypothesis


class FieldTooSmall(InvalidParams, OutOfTheoremRange):
    """q below a family's range, which its construction and theorem share."""


class GeneralPositionFailure(InputError):
    pass


DEFAULT_BUDGET = 2**31  # elementary operations, or array entries, that one request may cost


class BudgetExceeded(RuntimeError):
    """Estimated enumeration cost exceeds the budget (CLI exit code 3)."""

    def __init__(
        self, estimate: int, budget: int, what: str = "enumeration",
        unit: str = "elementary operations",
    ):
        super().__init__(f"{what} needs ~{estimate} {unit}, budget is {budget}")
        self.estimate = estimate
        self.budget = budget


def check_budget(
    estimate: int, what: str, budget: int = DEFAULT_BUDGET,
    unit: str = "elementary operations",
) -> None:
    """Raise BudgetExceeded if estimate, counted in unit, is over budget."""
    if estimate > budget:
        raise BudgetExceeded(estimate, budget, what, unit)


class InternalError(AssertionError):
    """Defensive invariant failure (CLI exit code 4)."""


def invariant(cond: bool, message: str) -> None:
    """Raise InternalError unless cond holds (unlike assert, kept under -O)."""
    if not cond:
        raise InternalError(message)


class AmbiguousClassification(InternalError):
    pass


class UnexpectedDistance(InternalError):
    pass
