"""Shared exception types."""


class BudgetExceededError(Exception):
    """Raised when an exhaustive oracle is asked to run past its size budget.

    Closed-form code paths have no budget; only the brute-force
    enumeration oracles refuse oversized inputs, so callers can always
    fall back to the closed forms.
    """


class InvariantError(Exception):
    """Raised when a computed result breaks one of the paper's invariants.

    Unlike an ``assert``, the check that raises it survives ``python -O``;
    it signals a bug in the library, not a bad input.
    """
