"""The dense reference for cyclotomic equality: Phi_n and the remainder mod Phi_n.

A sum s of n-th roots of unity is zero in Z[zeta_n] iff its remainder
modulo Phi_n is zero.  The library decides equality by the sparse
annihilator instead (suzuki_cd.cyclotomic.equals); the tests compare it
against this route, which shares none of its code.  There is no size
cap: the tests choose their orders, the largest 8321.
"""

from functools import lru_cache

from suzuki_cd.params import divisors_of


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
