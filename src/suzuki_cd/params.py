"""Exact numeric parameters of a Suzuki group Sz(q^2).

A single integer f >= 1 determines everything: the field size
q^2 = 2^(2f+1), the square-root parameter r = 2^(f+1) (so r^2 = 2q^2),
the orders of the three cyclic tori, the group order, and the order
2f+1 of the cyclic outer automorphism group.  All fields are plain
Python ints, so arithmetic stays exact; f runs from 1 to F_MAX.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import BudgetExceededError, require_within

#: Largest accepted f.  Past it make_params refuses before any arithmetic,
#: so no command can run long on a big f.  The slowest accepted work is at
#: an f whose 2f+1 has 48 divisors: at f = 37537 one ``cd_multiset`` call
#: over all 48 d takes about 0.43 s (median of 5 fresh runs; its six orbit
#: histograms about 5 ms), ``witness_for`` at all 144 (family, n) about
#: 0.04 s, and the Euclid calls of ``gcd_verification_rows`` about 1.7 s
#: (2-vCPU Xeon, Python 3.11).  ``cd`` and ``gcd-table`` render what they print before
#: that work, so at f = 37537 both refuse at once.
F_MAX = 38000

#: Trial divisors stop below this bound: an order whose prime factors at
#: or above it multiply to PRIME_TRIAL_BOUND^2 or more is refused, and
#: every other order is factored in milliseconds.
PRIME_TRIAL_BOUND = 1 << 16

_set_slot = object.__setattr__  # records refuse their own __setattr__


class Record:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__slots__`` and is built from them
    positionally.  Records compare by type and field values, hash by
    field values, repr as ``Name(field=value, ...)``, refuse assignment,
    and pickle and copy through the constructor, which calls the
    ``_validate`` hook last.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args) -> None:
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, args):
            _set_slot(self, name, value)
        self._validate()

    def _validate(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class SuzukiParams(Record):
    """Derived quantities of one parameter f; immutable and safe to share.

    All ints: q2 = 2^(2f+1), r = 2^(f+1), a0 = q^2 - 1 (order of the
    split torus), a1 = q^2 + r + 1 and a2 = q^2 - r + 1 (a1 * a2 =
    q^4 + 1), q4 = q^4, group_order = (q^4 + 1) * q^4 * (q^2 - 1),
    out_order = 2f + 1.
    """

    __slots__ = ("f", "q2", "r", "a0", "a1", "a2", "q4", "group_order", "out_order")


def make_params(f: int) -> SuzukiParams:
    """Build the exact parameter set for Sz(2^(2f+1)) from shifts and adds.

    Rejects f < 1 with ValueError: the f = 0 group Sz(2) is solvable, not
    simple, and nothing downstream applies to it.  Refuses f > F_MAX with
    BudgetExceededError.  It checks no identity: verify_class_counts and
    the tests check that the tori are pairwise coprime, that 3 does not
    divide |S| and that a1 a2 = q^4 + 1.
    """
    if not isinstance(f, int) or isinstance(f, bool) or f < 1:
        raise ValueError(f"f must be an integer >= 1, got {f!r}")
    require_within("f", f, F_MAX)
    q2 = 1 << (2 * f + 1)
    r = 1 << (f + 1)
    a0 = q2 - 1
    a1 = q2 + r + 1
    a2 = q2 - r + 1
    q4 = q2 * q2
    return SuzukiParams(f, q2, r, a0, a1, a2, q4, (q4 + 1) * q4 * a0, 2 * f + 1)


def require_divisor(p: SuzukiParams, name: str, n: int, proper: bool = False) -> None:
    """ValueError naming n unless it divides 2f+1 (and, if proper, is not 2f+1)."""
    if n < 1 or p.out_order % n != 0 or (proper and n == p.out_order):
        must = "be a proper divisor of" if proper else "divide"
        raise ValueError(f"{name} must {must} 2f+1={p.out_order}, got {n}")


def divisors_of(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def distinct_primes(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division.

    Trial divisors run below PRIME_TRIAL_BOUND; a cofactor left at or
    above PRIME_TRIAL_BOUND^2 is not certified prime, and n is refused
    with BudgetExceededError instead.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    primes = []
    m, d = n, 2
    while d * d <= m:
        if d >= PRIME_TRIAL_BOUND:
            raise BudgetExceededError(
                f"cannot factor a {n.bit_length()}-bit order: trial division "
                f"below {PRIME_TRIAL_BOUND} leaves a cofactor it cannot certify prime"
            )
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return tuple(primes)
