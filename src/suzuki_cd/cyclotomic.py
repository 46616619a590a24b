"""Exact arithmetic for integer combinations of n-th roots of unity.

A :class:`CyclotomicSum` is an element of the group ring Z[x]/(x^n - 1):
a length-n integer vector whose entry k is the coefficient of zeta^k.
Equality is *not* vector equality; two sums are equal as algebraic
numbers (zeta a primitive n-th root of unity) iff their difference is
divisible by the n-th cyclotomic polynomial.  Equality therefore goes
through exact polynomial remainder mod Phi_n; no floating point is
involved anywhere.

Only sums, negation and equality are provided; ring multiplication is
not needed for character values and is deliberately left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantError
from .params import divisors_of

# Equality at order <= _TABLE_MAX uses a cached table of x^e mod Phi_n;
# above that it falls back to a plain dense remainder (still exact,
# just slower and uncached).
_TABLE_MAX = 512


@dataclass(frozen=True)
class CyclotomicSum:
    """An integer combination of the n-th roots of unity."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, "
                f"expected order {self.order}"
            )

    def __add__(self, other: CyclotomicSum) -> CyclotomicSum:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")
        return CyclotomicSum(
            self.order,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> CyclotomicSum:
        return CyclotomicSum(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other: CyclotomicSum) -> CyclotomicSum:
        return self + (-other)

    def equals(self, other: CyclotomicSum) -> bool:
        return equals(self, other)


def root_power_sum(
    n: int, exponents: list[int], signs: list[int]
) -> CyclotomicSum:
    """The formal sum of signs[t] * zeta^exponents[t].

    Exponents are reduced into [0, n); a negative exponent e means
    zeta^(n - |e| mod n).  Signs must be +-1.
    """
    if len(exponents) != len(signs):
        raise ValueError("exponents and signs must have the same length")
    coeffs = [0] * n
    for e, s in zip(exponents, signs):
        if s not in (-1, 1):
            raise ValueError(f"signs must be +1 or -1, got {s!r}")
        coeffs[e % n] += s
    return CyclotomicSum(n, tuple(coeffs))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic of degree phi(n).

    Built by exact division: Phi_n = (x^n - 1) / prod of Phi_d over
    proper divisors d of n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors_of(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def equals(a: CyclotomicSum, b: CyclotomicSum) -> bool:
    """True iff a and b are the same element of Z[zeta_n]."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    diff = [x - y for x, y in zip(a.coeffs, b.coeffs)]
    if not any(diff):
        return True
    return not any(_reduce_mod_phi(a.order, diff))


def pair_equality(n: int, i: int, j: int) -> bool:
    """Whether zeta^i + zeta^-i = zeta^j + zeta^-j for zeta a primitive
    n-th root of unity; equivalently i == +-j (mod n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (i - j) % n == 0 or (i + j) % n == 0


def quad_sum_equivalence(
    n: int, k: int, i: int, j: int
) -> tuple[bool, bool]:
    """Compare the exact and congruence forms of the four-root identity.

    Requires k^2 == -1 (mod n).  Returns (identity_holds,
    congruence_holds) where

    - identity_holds: zeta^(il) + zeta^(-il) + zeta^(ilk) + zeta^(-ilk)
      equals the same expression with j in place of i, for both l = 1
      and l = k - 1, tested with exact cyclotomic equality;
    - congruence_holds: i == +-j (mod n) or i == +-jk (mod n).

    The two booleans always agree; the verification sweep checks this
    exhaustively over boundary pairs and at random.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if (k * k + 1) % n != 0:
        raise ValueError(f"need k^2 == -1 (mod n), got k={k}, n={n}")
    identity = all(
        equals(_quad(n, i, k, l), _quad(n, j, k, l)) for l in (1, k - 1)
    )
    congruence = (
        (i - j) % n == 0
        or (i + j) % n == 0
        or (i - j * k) % n == 0
        or (i + j * k) % n == 0
    )
    return identity, congruence


def _quad(n: int, a: int, k: int, l: int) -> CyclotomicSum:
    e = a * l
    return root_power_sum(n, [e, -e, e * k, -e * k], [1, 1, 1, 1])


def _reduce_mod_phi(n: int, vec: list[int]) -> list[int]:
    """Remainder of the degree < n vector modulo Phi_n."""
    if n <= _TABLE_MAX:
        table = _power_table(n)
        deg = len(table[0])
        acc = [0] * deg
        for e, c in enumerate(vec):
            if c:
                row = table[e]
                for kk in range(deg):
                    acc[kk] += c * row[kk]
        return acc
    return _poly_rem(vec, cyclotomic_polynomial(n))


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_n for e = 0 .. n-1, each as a phi(n)-vector."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rows = []
    cur = [0] * deg
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            # x^deg == -(phi - x^deg) since phi is monic
            for kk in range(deg):
                cur[kk] -= top * phi[kk]
    return tuple(rows)


def _poly_rem(vec: list[int], den: tuple[int, ...]) -> list[int]:
    r = list(vec)
    dn = len(den) - 1
    for i in range(len(r) - 1, dn - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for kk in range(dn):
                r[i - dn + kk] -= c * den[kk]
    return r[:dn]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient num / den for monic den; the remainder must be zero."""
    work = list(num)
    dn = len(den) - 1
    out = [0] * (len(work) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + dn]
        if c:
            out[i] = c
            for kk in range(dn + 1):
                work[i + kk] -= c * den[kk]
    if any(work):
        raise InvariantError("polynomial division was not exact")
    return out
