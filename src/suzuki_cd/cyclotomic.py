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
P * Q == 0 in Z[x]/(x^n - 1).  Only the primes of n are needed, and
:func:`~suzuki_cd.params.distinct_primes` refuses an order it cannot
factor quickly, so no call can hang.

Multiplication by Q is linear, so a == b iff a * Q == b * Q term for
term.  Q itself is built once per order, and the image of a t-term sum
is the sum of Q shifted by each of its exponents and scaled by its
coefficient: one pass over t * 2^omega(n) terms, with no factoring.
:func:`equals` compares the images of a and b;
:func:`quad_sum_equivalence` compares those of the two four-root sums
for a batch of index pairs at one root k, computing each image once per
orbit {+-e, +-ek} and keeping it only for that call.

No floating point is involved anywhere.  Only sums, negation and exact
equality are provided; ring multiplication is not needed for character
values and is deliberately left out, and equality has no congruence
shortcut beside :func:`equals`.
"""

from __future__ import annotations

from functools import lru_cache

from .params import Record, distinct_primes


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

    Compares the images of a and b under multiplication by the
    prime-binomial annihilator prod_{p | n} (x^(n/p) - 1) modulo
    x^n - 1 (see the module docstring); identical terms are equal
    without factoring n.  Raises BudgetExceededError if the order cannot
    be factored below the trial-division bound.
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    return a.terms == b.terms or _image(a.terms, a.order) == _image(b.terms, a.order)


def quad_sum_equivalence(
    n: int, k: int, pairs: list[tuple[int, int]]
) -> list[tuple[bool, bool]]:
    """Compare the exact and congruence forms of the four-root identity.

    Requires k^2 == -1 (mod n), checked once per call.  Returns one
    (identity_holds, congruence_holds) per (i, j) in pairs, in order, where

    - identity_holds: zeta^(il) + zeta^(-il) + zeta^(ilk) + zeta^(-ilk)
      equals the same expression with j in place of i, for both l = 1
      and l = k - 1, tested exactly by comparing annihilator images;
    - congruence_holds: i == +-j (mod n) or i == +-jk (mod n).

    Each pair is reduced mod n once, and the call's image memo is keyed
    by the reduced residue.  Every e of one orbit {+-e, +-ek} mod n has
    term for term the same four-root sum, so each image is computed once
    per orbit the pairs meet, stored under all four residues, and kept
    only for this call.  The congruence compares reduced residues: i is
    one of j, n - j, jk and n - jk (jk reduced).  The two booleans always
    agree; the verification sweep checks this exhaustively over boundary
    pairs and at random.  Raises BudgetExceededError if n cannot be
    factored below the trial-division bound.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if (k * k + 1) % n != 0:
        raise ValueError(f"need k^2 == -1 (mod n), got k={k}, n={n}")
    images: dict[int, dict[int, int]] = {}

    def image(e: int) -> dict[int, int]:  # e reduced mod n
        if e not in images:
            orbit = (e, -e % n, e * k % n, -e * k % n)
            images.update(dict.fromkeys(orbit, _image(tuple((t, 1) for t in orbit), n)))
        return images[e]

    l = k - 1
    result = []
    for i, j in pairs:
        i %= n
        j %= n
        jk = j * k % n
        result.append((
            image(i) == image(j) and image(i * l % n) == image(j * l % n),
            i in (j, n - j, jk, n - jk),
        ))
    return result


@lru_cache(maxsize=8)
def _annihilator(n: int) -> tuple[tuple[int, int], ...]:
    """The sorted terms of prod_{p | n} (x^(n/p) - 1) modulo x^n - 1."""
    # no two terms meet: a sum of distinct n/p is nonzero mod p^a (p^a || n)
    # exactly for the p it contains, so the 2^omega(n) exponents differ mod n
    q = [(0, 1)]
    for p in distinct_primes(n):
        q = [((e + n // p) % n, c) for e, c in q] + [(e, -c) for e, c in q]
    return tuple(sorted(q))


def _image(terms: tuple[tuple[int, int], ...], n: int) -> dict[int, int]:
    """The nonzero terms {exponent: coefficient} of the sum of c * zeta^t
    over the (t, c) in terms, t in [0, n), times the annihilator: the sum
    of c times the annihilator shifted by t.  Callers only compare it."""
    q = _annihilator(n)
    out: dict[int, int] = {}
    for t, c in terms:
        for s, d in q:
            s += t
            if s >= n:
                s -= n
            out[s] = out.get(s, 0) + c * d
    return {s: c for s, c in out.items() if c}

