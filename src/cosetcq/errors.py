"""Exception types shared across the package, the one memory cap, and the
checks that refuse work beyond a cap."""

# Bytes that the arrays of one exact computation may hold at once.
MEMORY_BUDGET = 2**30


class BudgetExceededError(RuntimeError):
    """Raised when an exact computation would exceed its enumeration budget."""


def check_count(total: int, cap: int, what: str) -> None:
    """Refuse ``total`` ``what`` beyond the count cap ``cap``."""
    if total > cap:
        raise BudgetExceededError(f"{total} {what} exceed budget {cap}")


def check_memory(need: int, what: str) -> int:
    """Refuse, before allocating, arrays of ``need`` > MEMORY_BUDGET bytes."""
    if need > MEMORY_BUDGET:
        raise BudgetExceededError(f"{what} need {need} bytes, exceeding budget {MEMORY_BUDGET}")
    return need


class ModelViolationError(ValueError):
    """Raised when an input object violates a structural model assumption,

    e.g. a channel whose side receivers are not point-to-point.
    """


class ConsistencyError(RuntimeError):
    """Raised when an internal numerical identity fails beyond tolerance."""


class SpecFileError(ValueError):
    """Raised on malformed channel spec files; carries a human-readable path."""
