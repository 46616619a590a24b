"""Shared exception types; require_within, through which every size cap
refuses; and to_decimal, which refuses an integer too long to print."""

import sys


class BudgetExceededError(Exception):
    """Raised when an input is past a size budget: a size cap (require_within),
    the int->str digit limit (to_decimal) or an order that trial division
    cannot factor (params.distinct_primes)."""


class InvariantError(Exception):
    """Raised when a computed result breaks one of the paper's invariants.

    Unlike an ``assert``, the check that raises it survives ``python -O``;
    it signals a bug in the library, not a bad input.
    """


def require_within(name: str, size: int, limit: int) -> None:
    """Raise BudgetExceededError("NAME SIZE is over its limit of LIMIT") if size > limit."""
    if size > limit:
        raise BudgetExceededError(f"{name} {size} is over its limit of {limit}")


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
