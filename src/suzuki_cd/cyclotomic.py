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
factor quickly, so no call can hang.  Q is built once per order, and
multiplying a t-term sum by it sums Q shifted by each exponent and
scaled by each coefficient: t * 2^omega(n) terms, with no factoring.

Q has two users.  :func:`equals` tests the difference a - b for zero:
it multiplies it by the head H, the product of every prime binomial
but the last one (x^m - 1), m = n/p, and tests the last factor without
multiplying, as a period.  D = (a - b) * H has D * (x^m - 1) == 0 iff D
is invariant under the shift by m, that is iff its sorted terms are one
block of exponents below m repeated at offsets m, 2m, ..., (p - 1)m with
the same coefficients: exactly D = B * (1 + x^m + ... + x^((p-1)m)),
which x^m - 1 takes to B * (x^n - 1) == 0.  For n = 1, Q = 1 and the
difference itself must be empty.  :func:`quad_sum_equivalence` compares
images under Q instead: those of the two four-root sums, for a batch of
index pairs at each root k of one order n.  Its loop answers each
lookup from a memo and runs :func:`_image` only on a miss, once per
orbit {+-e, +-ek}.  k and -k have the same orbits, so they share one
memo; the memos are kept only for that call.

Sums are built in C-level passes: :func:`root_power_sum` sorts its
reduced exponents whole, and a sum of two copies the longer operand
into a dict; the summing loop runs only over the shorter operand, or
where an exponent repeats.  No floating point is involved
anywhere.  Only sums and exact equality are provided: negation and
ring multiplication are not needed for character values and are
deliberately left out, and equality has no congruence shortcut beside
:func:`equals`.
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
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")
        return _from_dict(self.order, _merged(self.terms, other.terms, 1))

    def equals(self, other: CyclotomicSum) -> bool:
        return equals(self, other)


def _from_dict(n: int, acc: dict[int, int]) -> CyclotomicSum:
    """The sum of the terms {exponent: coefficient} of acc, none zero."""
    return CyclotomicSum(n, tuple(sorted(acc.items())))


def _add_terms(acc: dict[int, int], terms, sign: int) -> dict[int, int]:
    """Add sign * c at e into acc for each (e, c) of terms, deleting each
    coefficient that reaches zero; return acc."""
    for e, c in terms:
        c = acc.get(e, 0) + sign * c
        if c:
            acc[e] = c
        else:
            del acc[e]
    return acc


def _merged(a, b, sign: int) -> dict[int, int]:
    """The terms {exponent: coefficient} of the longer of the term tuples
    a and b plus sign times the shorter, none zero: the longer is copied
    in one pass, and only the shorter is summed term by term."""
    if len(a) < len(b):
        a, b = b, a
    return _add_terms(dict(a), b, sign)


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
    if signs.count(1) + signs.count(-1) != len(signs):
        bad = next(s for s in signs if s not in (-1, 1))
        raise ValueError(f"signs must be +1 or -1, got {bad!r}")
    exponents = [e % n for e in exponents]
    if len(set(exponents)) == len(exponents):
        return CyclotomicSum(n, tuple(sorted(zip(exponents, signs))))
    return _from_dict(n, _add_terms({}, zip(exponents, signs), 1))  # sum repeats


def equals(a: CyclotomicSum, b: CyclotomicSum) -> bool:
    """True iff a and b are the same element of Z[zeta_n].

    Tests the difference D = a - b for zero under the prime-binomial
    annihilator Q = prod_{p | n} (x^(n/p) - 1) modulo x^n - 1 (see the
    module docstring): D is built once, from a dict of the longer
    operand, and multiplied by the head H, every prime binomial of Q but
    the last, (x^m - 1) with m = n/p.  D * H * (x^m - 1) is zero exactly
    when D * H is invariant under the shift by m, so its sorted terms are
    checked to be one block below m repeated at offsets m, ...,
    (p - 1)m, coefficients included.  Identical terms are equal without
    factoring n.  Raises BudgetExceededError if the order cannot be
    factored below the trial-division bound.
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} != {b.order}")
    if a.terms == b.terms:
        return True
    n = a.order
    _, head, m = _annihilator(n)
    diff = _merged(a.terms, b.terms, -1)  # +-(a - b): the sign does not matter
    if len(head) > 1:  # head = 1 when n has at most one prime
        diff = _times(diff.items(), head, n)
    if not m:  # n = 1: Q = 1
        return not diff
    exps = sorted(diff)
    coefs = [diff[e] for e in exps]
    s, rest = divmod(len(exps), n // m)
    return not rest and coefs[s:] == coefs[:-s] and exps[s:] == [e + m for e in exps[:-s]]


def quad_sum_equivalence(
    n: int, blocks: dict[int, list[tuple[int, int]]]
) -> dict[int, list[tuple[bool, bool]]]:
    """Compare the exact and congruence forms of the four-root identity.

    blocks maps roots k of -1 mod n, checked once per call before any
    work, to lists of index pairs.  Returns a dict with the same keys in
    the same order, holding one (identity_holds, congruence_holds) per
    (i, j) of that root's pairs, in order, where

    - identity_holds: zeta^(il) + zeta^(-il) + zeta^(ilk) + zeta^(-ilk)
      equals the same expression with j in place of i, for both l = 1
      and l = k - 1, tested exactly by comparing annihilator images;
    - congruence_holds: i == +-j (mod n) or i == +-jk (mod n).

    Each pair is reduced mod n once, and an image memo is keyed by the
    reduced residue.  The loop reads the images of i and j, and of il and
    jl once those two agree, straight from the memo.  Every e of one
    orbit {+-e, +-ek} mod n has term for term the same four-root sum,
    so a miss runs _image once for the orbit, on its four (t, 1) terms,
    and stores the image under all four residues.  The orbits of k and
    -k are the same sets, so the two share one memo, keyed by the
    smaller of k and -k mod n; roots of another class have other orbits
    and another memo.  Each orbit a class meets is computed once, and the
    memos are kept only for this call.  The congruence compares reduced
    residues: i is one of j, n - j, jk and n - jk (jk reduced).  The two
    booleans always agree; the verification sweep checks this
    exhaustively over boundary pairs and at random.  Raises
    BudgetExceededError if n cannot be factored below the trial-division
    bound.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for k in blocks:
        if (k * k + 1) % n != 0:
            raise ValueError(f"need k^2 == -1 (mod n), got k={k}, n={n}")
    memos: dict[int, dict[int, dict[int, int]]] = {}
    results: dict[int, list[tuple[bool, bool]]] = {}
    for k, pairs in blocks.items():
        images = memos.setdefault(min(k % n, -k % n), {})

        def image(e: int) -> dict[int, int]:  # e reduced mod n, not yet in images
            orbit = (e, -e % n, e * k % n, -e * k % n)
            found = _image(tuple(zip(orbit, (1, 1, 1, 1))), n)
            images.update(dict.fromkeys(orbit, found))
            return found

        l = k - 1
        result = results[k] = []
        for i, j in pairs:
            i %= n
            j %= n
            same = (images[i] if i in images else image(i)) == (
                images[j] if j in images else image(j)
            )
            if same:
                il = i * l % n
                jl = j * l % n
                same = (images[il] if il in images else image(il)) == (
                    images[jl] if jl in images else image(jl)
                )
            jk = j * k % n
            result.append((same, i in (j, n - j, jk, n - jk)))
    return results


@lru_cache(maxsize=8)
def _annihilator(
    n: int,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int]:
    """(Q, head, m): the sorted terms of Q = prod_{p | n} (x^(n/p) - 1)
    modulo x^n - 1, the terms of its head, the product without the last
    prime's binomial, and that binomial's shift m = n/p, so that
    Q = head * (x^m - 1); m is 0 for n = 1, where Q = head = 1."""
    # no two terms meet: a sum of distinct n/p is nonzero mod p^a (p^a || n)
    # exactly for the p it contains, so the 2^omega(n) exponents differ mod n
    q, head, m = [(0, 1)], [(0, 1)], 0
    for p in distinct_primes(n):
        head, m = q, n // p
        q = [((e + m) % n, c) for e, c in q] + [(e, -c) for e, c in q]
    return tuple(sorted(q)), tuple(head), m


def _image(terms: tuple[tuple[int, int], ...], n: int) -> dict[int, int]:
    """The nonzero terms {exponent: coefficient} of the sum of c * zeta^t
    over the (t, c) in terms, t in [0, n), times the annihilator.
    Callers only compare it."""
    return _times(terms, _annihilator(n)[0], n)


def _times(terms, q: tuple[tuple[int, int], ...], n: int) -> dict[int, int]:
    """The nonzero terms {exponent: coefficient} of the sum of c * zeta^t
    over the (t, c) in terms, times the sum of the terms q, exponents
    of both in [0, n): the sum of c times q shifted by t."""
    out: dict[int, int] = {}
    for t, c in terms:
        for s, d in q:
            s += t
            if s >= n:
                s -= n
            out[s] = out.get(s, 0) + c * d
    return {s: c for s, c in out.items() if c}

