"""Exact numeric parameters of a Suzuki group Sz(q^2).

A single integer f >= 1 determines everything: the field size
q^2 = 2^(2f+1), the square-root parameter r = 2^(f+1) (so r^2 = 2q^2),
the orders of the three cyclic tori, the group order, and the order
2f+1 of the cyclic outer automorphism group.  All fields are plain
Python ints, so arithmetic stays exact at any f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, InvariantError

#: Trial divisors stop below this bound: an order whose prime factors at
#: or above it multiply to PRIME_TRIAL_BOUND^2 or more is refused, and
#: every other order is factored in milliseconds.
PRIME_TRIAL_BOUND = 1 << 16


@dataclass(frozen=True)
class SuzukiParams:
    """Derived quantities of one parameter f; immutable and safe to share."""

    f: int
    q2: int  # 2^(2f+1)
    r: int  # 2^(f+1)
    a0: int  # q^2 - 1, order of the split torus
    a1: int  # q^2 + r + 1
    a2: int  # q^2 - r + 1; a1 * a2 = q^4 + 1
    group_order: int  # (q^4 + 1) * q^4 * (q^2 - 1)
    out_order: int  # 2f + 1

    @property
    def q4(self) -> int:
        return self.q2 * self.q2


def make_params(f: int) -> SuzukiParams:
    """Build the exact parameter set for Sz(2^(2f+1)).

    Rejects f < 1: the f = 0 group Sz(2) is solvable, not simple, and
    nothing downstream applies to it.
    """
    if not isinstance(f, int) or isinstance(f, bool) or f < 1:
        raise ValueError(f"f must be an integer >= 1, got {f!r}")
    q2 = 1 << (2 * f + 1)
    r = 1 << (f + 1)
    a0 = q2 - 1
    a1 = q2 + r + 1
    a2 = q2 - r + 1
    q4 = q2 * q2
    p = SuzukiParams(
        f=f,
        q2=q2,
        r=r,
        a0=a0,
        a1=a1,
        a2=a2,
        group_order=(q4 + 1) * q4 * a0,
        out_order=2 * f + 1,
    )
    # Structural identities; cheap, so checked on every construction.
    identities = (
        (p.r * p.r == 2 * p.q2, "r^2 = 2q^2"),
        (p.a1 * p.a2 == p.q4 + 1, "a1 a2 = q^4 + 1"),
        (p.group_order % 3 != 0, "3 does not divide |S|"),
        (math.gcd(p.a0, p.a1) == 1, "gcd(a0, a1) = 1"),
        (math.gcd(p.a0, p.a2) == 1, "gcd(a0, a2) = 1"),
        (math.gcd(p.a1, p.a2) == 1, "gcd(a1, a2) = 1"),
        (p.a0 % 2 == p.a1 % 2 == p.a2 % 2 == 1, "the torus orders are odd"),
    )
    for holds, identity in identities:
        if not holds:
            raise InvariantError(f"f={f}: {identity} fails")
    return p


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


@lru_cache(maxsize=1024)
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
