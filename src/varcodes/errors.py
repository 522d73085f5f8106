"""Exception hierarchy shared across the package.

Three groups matter to callers, and each fixes one CLI exit code:

- ``InputError`` (exit 2): rejected parameters, descriptors, artifacts and
  calculator inputs.  Its one subclass, ``OutOfTheoremRange``, is a closed
  form asked for outside its range of validity, and names the hypothesis.
- ``BudgetExceeded`` (exit 3): an estimated cost over the configured cap.
- ``InternalError`` (exit 4): a broken invariant, unreachable on correct
  code; ``invariant`` raises it, also under ``python -O``.

A zero inverted in a field raises the built-in ``ZeroDivisionError``.
"""

from __future__ import annotations


class InputError(ValueError):
    """Bad user-supplied parameters (CLI exit code 2)."""


class OutOfTheoremRange(InputError):
    """A closed-form prediction was requested outside its range of validity."""

    def __init__(self, message: str, hypothesis: str | None = None):
        super().__init__(message)
        self.hypothesis = hypothesis


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
