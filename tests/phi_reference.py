"""Dense references for cyclotomic equality.

They share no code with the annihilator route of the library; the only
library function they use is params.divisors_of.

A sum s of n-th roots of unity is zero in Z[zeta_n] iff its remainder
modulo Phi_n is zero; :func:`phi_remainder` decides equality that way.
The library instead multiplies by the annihilator Q = prod_{p | n}
(x^(n/p) - 1) modulo x^n - 1, built sparsely (suzuki_cd.cyclotomic),
which has two users there: equals tests the difference for zero,
multiplying it by every prime binomial of Q but the last and testing
that one, x^m - 1 with m = n/p, as a period (D * (x^m - 1) == 0 iff D
is invariant under the shift by m), and quad_sum_equivalence compares
images under Q.  :func:`annihilated` computes such an image by dense
cyclic convolution, with the primes of n read off divisors_of.
The tests compare the library against both.  There is no size cap: the
tests choose their orders, the largest 8321.
"""

from functools import lru_cache

from suzuki_cd.params import divisors_of


def cyclic_product(u, v):
    """The product of two coefficient vectors of length n modulo x^n - 1."""
    n = len(u)
    out = [0] * n
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if a:
            for j, b in right:
                out[(i + j) % n] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def annihilator_vector(n):
    """Coefficients of prod over the primes p of n of (x^(n/p) - 1) modulo
    x^n - 1, as a vector of length n."""
    out = (1,) + (0,) * (n - 1)
    for p in divisors_of(n)[1:]:
        if divisors_of(p) == [1, p]:
            binomial = [0] * n
            binomial[0], binomial[n // p] = -1, 1
            out = cyclic_product(out, binomial)
    return out


def annihilated(s):
    """The coefficient vector of the CyclotomicSum s times the annihilator."""
    vec = [0] * s.order
    for e, c in s.terms:
        vec[e] = c
    return cyclic_product(vec, annihilator_vector(s.order))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
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


def phi_remainder(s):
    """The remainder of the CyclotomicSum s, as a polynomial of degree < n,
    modulo Phi_n; s is zero in Z[zeta_n] iff every entry is zero."""
    vec = [0] * s.order
    for e, c in s.terms:
        vec[e] = c
    return tuple(_poly_rem(vec, cyclotomic_polynomial(s.order)))


def _poly_rem(vec, den):
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


def _poly_div_exact(num, den):
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
        raise AssertionError("polynomial division was not exact")
    return out
