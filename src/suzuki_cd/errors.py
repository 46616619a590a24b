"""Shared exception types."""


class BudgetExceededError(Exception):
    """Raised when an input is past a size budget.

    The brute-force enumeration oracles refuse oversized inputs, so
    callers can always fall back to the closed forms, which compute at
    any f; printing refuses integers past Python's int->str digit limit.
    """


class InvariantError(Exception):
    """Raised when a computed result breaks one of the paper's invariants.

    Unlike an ``assert``, the check that raises it survives ``python -O``;
    it signals a bug in the library, not a bad input.
    """
