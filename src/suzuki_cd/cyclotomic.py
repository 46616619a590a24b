"""Exact arithmetic for integer combinations of n-th roots of unity.

A :class:`CyclotomicSum` is an element of the group ring Z[x]/(x^n - 1),
stored sparsely as its nonzero terms (exponent, coefficient).  Equality
is *not* term equality; two sums are equal as algebraic numbers (zeta a
primitive n-th root of unity) iff their difference P vanishes at zeta.

Equality is decided without Phi_n.  Let Q = prod over the distinct
primes p of n of (x^(n/p) - 1).  Over Q, Z[x]/(x^n - 1) embeds in the
product of the fields Q(zeta_d) over the divisors d of n.  Q vanishes at
zeta_d for every proper divisor d (some p has d | n/p), while at a
primitive n-th root each factor is zeta_p - 1 != 0.  So P(zeta) = 0 iff
P * Q == 0 in Z[x]/(x^n - 1): one sparse shift-and-subtract pass per
prime of n, at most t * 2^omega(n) terms for a t-term sum.  Only the
primes of n are needed, and :func:`~suzuki_cd.params.distinct_primes`
refuses an order it cannot factor quickly, so no call can hang.

Multiplication by Q is linear, so a == b iff a * Q == b * Q term for
term.  :func:`equals` tests the image of a - b for zero;
:func:`quad_sum_equivalence` compares the images of the two four-root
sums, each computed once per (n, exponent mod n, +-k) and kept in a
bounded cache, since a sweep meets the same sums many times (k and -k
give the same four exponents).

The exact remainder mod Phi_n (:func:`phi_remainder`) is kept as the
independent reference that the tests compare :func:`equals` against;
it is budgeted to orders <= PHI_MAX_ORDER.  No floating point is
involved anywhere.

Only sums, negation and exact equality are provided; ring
multiplication is not needed for character values and is deliberately
left out, and equality has no congruence shortcut beside :func:`equals`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetExceededError, InvariantError
from .params import Record, distinct_primes, divisors_of

#: Largest order the Phi_n reference builds a dense polynomial for.
PHI_MAX_ORDER = 10_000


class CyclotomicSum(Record):
    """An integer combination of the n-th roots of unity.

    ``order`` is the int n; ``terms`` is a tuple of (exponent,
    coefficient) int pairs with exponents strictly ascending in
    [0, order) and nonzero coefficients; the empty tuple is zero.
    """

    __slots__ = ("order", "terms")

    def _validate(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        prev = -1
        for e, c in self.terms:
            if not prev < e < self.order:
                raise ValueError(
                    f"exponents must be strictly ascending in [0, {self.order}), "
                    f"got {e} after {prev}"
                )
            if c == 0:
                raise ValueError(f"coefficient of zeta^{e} is zero")
            prev = e

    def __add__(self, other: CyclotomicSum) -> CyclotomicSum:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return _from_dict(self.order, acc)

    def __neg__(self) -> CyclotomicSum:
        return CyclotomicSum(self.order, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: CyclotomicSum) -> CyclotomicSum:
        return self + (-other)

    def equals(self, other: CyclotomicSum) -> bool:
        return equals(self, other)


def _from_dict(n: int, acc: dict[int, int]) -> CyclotomicSum:
    return CyclotomicSum(n, tuple(sorted((e, c) for e, c in acc.items() if c)))


def root_power_sum(
    n: int, exponents: list[int], signs: list[int]
) -> CyclotomicSum:
    """The formal sum of signs[t] * zeta^exponents[t].

    Exponents are reduced into [0, n); a negative exponent e means
    zeta^(n - |e| mod n).  Signs must be +-1.
    """
    if len(exponents) != len(signs):
        raise ValueError("exponents and signs must have the same length")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    acc: dict[int, int] = {}
    for e, s in zip(exponents, signs):
        if s not in (-1, 1):
            raise ValueError(f"signs must be +1 or -1, got {s!r}")
        e %= n
        acc[e] = acc.get(e, 0) + s
    return _from_dict(n, acc)


def equals(a: CyclotomicSum, b: CyclotomicSum) -> bool:
    """True iff a and b are the same element of Z[zeta_n].

    Multiplies a - b by the prime-binomial annihilator
    prod_{p | n} (x^(n/p) - 1) modulo x^n - 1 and tests for zero (see
    the module docstring).  Raises BudgetExceededError if the order
    cannot be factored below the trial-division bound.
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    poly = dict(a.terms)
    for e, c in b.terms:
        poly[e] = poly.get(e, 0) - c
    poly = {e: c for e, c in poly.items() if c}
    return not _annihilate(poly, a.order)


def _annihilate(poly: dict[int, int], n: int) -> tuple[tuple[int, int], ...]:
    """The sorted nonzero terms of poly * prod_{p | n} (x^(n/p) - 1)
    modulo x^n - 1, for poly with nonzero coefficients only.

    The map is linear and its kernel is exactly the sums that vanish at
    a primitive n-th root, so two sums are equal iff their images are.
    A zero poly maps to () without factoring n.
    """
    if not poly:
        return ()
    for p in distinct_primes(n):
        shift = n // p
        out: dict[int, int] = {}
        for e, c in poly.items():
            up = e + shift
            if up >= n:
                up -= n
            out[up] = out.get(up, 0) + c
            out[e] = out.get(e, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return tuple(sorted(poly.items()))


def quad_sum_equivalence(
    n: int, k: int, i: int, j: int
) -> tuple[bool, bool]:
    """Compare the exact and congruence forms of the four-root identity.

    Requires k^2 == -1 (mod n).  Returns (identity_holds,
    congruence_holds) where

    - identity_holds: zeta^(il) + zeta^(-il) + zeta^(ilk) + zeta^(-ilk)
      equals the same expression with j in place of i, for both l = 1
      and l = k - 1, tested exactly by comparing annihilator images;
    - congruence_holds: i == +-j (mod n) or i == +-jk (mod n).

    The two booleans always agree; the verification sweep checks this
    exhaustively over boundary pairs and at random.  Raises
    BudgetExceededError if n cannot be factored below the trial-division
    bound.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if (k * k + 1) % n != 0:
        raise ValueError(f"need k^2 == -1 (mod n), got k={k}, n={n}")
    # k and -k give the same four exponents, so they share one cache entry;
    # the exponents i l and j l still use the caller's k
    root = min(k % n, -k % n)
    l = k - 1
    identity = (
        _quad_image(n, i % n, root) == _quad_image(n, j % n, root)
        and _quad_image(n, i * l % n, root) == _quad_image(n, j * l % n, root)
    )
    congruence = (
        (i - j) % n == 0
        or (i + j) % n == 0
        or (i - j * k) % n == 0
        or (i + j * k) % n == 0
    )
    return identity, congruence


# One entry per (n, +-k, exponent): k is the lesser of k and n - k, whose
# four-root sums coincide.  Bounded, yet larger than the n distinct
# exponents e that a sweep over one (n, +-k) can ask for while n <= 256;
# an entry costs about 2 KB.
@lru_cache(maxsize=256)
def _quad_image(n: int, e: int, k: int) -> tuple[tuple[int, int], ...]:
    """The annihilator image of zeta^e + zeta^-e + zeta^(ek) + zeta^-(ek)."""
    # terms summed directly: a sweep calls this too often to build a CyclotomicSum
    quad: dict[int, int] = {}
    for t in (e, -e, e * k, -e * k):
        t %= n
        quad[t] = quad.get(t, 0) + 1
    return _annihilate(quad, n)


# --- The Phi_n reference: dense, budgeted, used only to check equals. ---


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic of degree phi(n).

    Built by exact division: Phi_n = (x^n - 1) / prod of Phi_d over
    proper divisors d of n.  Refuses n > PHI_MAX_ORDER with
    BudgetExceededError, since the cost grows faster than n^2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _require_phi_budget(n)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors_of(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def phi_remainder(s: CyclotomicSum) -> tuple[int, ...]:
    """The remainder of s, as a polynomial of degree < n, modulo Phi_n.

    s is zero in Z[zeta_n] iff every entry is zero.  This is the dense
    reference for :func:`equals`; it refuses orders past PHI_MAX_ORDER.
    """
    _require_phi_budget(s.order)
    vec = [0] * s.order
    for e, c in s.terms:
        vec[e] = c
    return tuple(_poly_rem(vec, cyclotomic_polynomial(s.order)))


def _require_phi_budget(n: int) -> None:
    if n > PHI_MAX_ORDER:
        raise BudgetExceededError(
            f"the Phi_n reference is capped at order {PHI_MAX_ORDER}, got order {n}"
        )


def _poly_rem(vec: list[int], den: tuple[int, ...]) -> list[int]:
    """Remainder of vec modulo the monic polynomial den."""
    r = list(vec)
    dn = len(den) - 1
    lower = [(kk - dn, d) for kk, d in enumerate(den[:dn]) if d]
    for i in range(len(r) - 1, dn - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for offset, d in lower:
                r[i + offset] -= c * d
    return r[:dn]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient num / den for monic den; the remainder must be zero."""
    work = list(num)
    dn = len(den) - 1
    nonzero = [(kk, d) for kk, d in enumerate(den) if d]
    out = [0] * (len(work) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = work[i + dn]
        if c:
            out[i] = c
            for kk, d in nonzero:
                work[i + kk] -= c * d
    if any(work):
        raise InvariantError("polynomial division was not exact")
    return out
