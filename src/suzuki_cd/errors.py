"""Shared exception types, and to_decimal, which refuses an integer too long to print."""

import sys


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


def to_decimal(n: int) -> str:
    """str(n), or BudgetExceededError past Python's int->str digit limit.

    The limit (sys.get_int_max_str_digits(), 4300 by default) stays in
    place: the conversion is quadratic, so lifting it would let a large
    f hang instead of refusing.
    """
    try:
        return str(n)
    except ValueError:
        raise BudgetExceededError(
            f"cannot print a {n.bit_length()}-bit integer: it has more than "
            f"{sys.get_int_max_str_digits()} decimal digits, Python's int->str limit"
        ) from None
