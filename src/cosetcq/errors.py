"""Exception types shared across the package, the one memory cap, the
checks that refuse work beyond a cap, and the one probability-array check."""

import numpy as np

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


def check_pmf(arr, what: str, shape=None) -> np.ndarray:
    """``arr`` as a float array of probabilities: every entry >= 0, the sum
    within 1e-9 of 1 (NaN fails both), and when ``shape`` is given, that
    shape, a ``None`` length matching any.  Else ``ValueError`` naming ``what``."""
    arr = np.asarray(arr, dtype=float)
    if shape is not None and (
        arr.ndim != len(shape) or any(s not in (None, n) for s, n in zip(shape, arr.shape))
    ):
        want = ", ".join("*" if s is None else str(s) for s in shape)
        raise ValueError(f"{what} has shape {arr.shape}, expected ({want})")
    if not (abs(arr.sum() - 1.0) <= 1e-9 and arr.min() >= 0.0):
        raise ValueError(f"{what} is not a probability array")
    return arr


class ModelViolationError(ValueError):
    """Raised when an input object violates a structural model assumption,

    e.g. a channel whose side receivers are not point-to-point.
    """


class ConsistencyError(RuntimeError):
    """Raised when an internal numerical identity fails beyond tolerance."""


class SpecFileError(ValueError):
    """Raised on malformed channel spec files; carries a human-readable path."""
