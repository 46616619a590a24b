import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from suzuki_cd.cyclotomic import (
    PHI_MAX_ORDER,
    CyclotomicSum,
    _quad_image,
    cyclotomic_polynomial,
    equals,
    phi_remainder,
    quad_sum_equivalence,
    root_power_sum,
)
from suzuki_cd.errors import BudgetExceededError
from suzuki_cd.params import PRIME_TRIAL_BOUND, distinct_primes, divisors_of


def zero_sum(n):
    """The empty sum: zero in Z[zeta_n]."""
    return root_power_sum(n, [], [])


def dense_sum(n, coeffs):
    """The sum of coeffs[e] * zeta^e over e < n."""
    return CyclotomicSum(n, tuple((e, c) for e, c in enumerate(coeffs) if c))


def oracle_equals(a, b):
    """Equality by the dense remainder of a - b modulo Phi_n."""
    return not any(phi_remainder(a - b))


def test_known_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)


def test_degree_105_coefficient():
    poly = cyclotomic_polynomial(105)
    assert len(poly) - 1 == 48
    assert poly[7] == -2  # first n with a coefficient outside {-1, 0, 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 30, 37, 64, 105, 128, 200])
def test_matches_sympy(n):
    x = sympy.symbols("x")
    expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


@pytest.mark.parametrize("n", range(1, 151))
def test_degree_sum_and_value_at_one(n):
    assert sum(len(cyclotomic_polynomial(d)) - 1 for d in divisors_of(n)) == n
    value_at_one = sum(cyclotomic_polynomial(n))
    if n == 1:
        assert value_at_one == 0
    else:
        factors = sympy.factorint(n)
        if len(factors) == 1:
            assert value_at_one == next(iter(factors))
        else:
            assert value_at_one == 1


def test_root_power_sum_examples():
    s = root_power_sum(7, [1, -1], [1, 1])
    assert s.order == 7 and s.terms == ((1, 1), (6, 1))
    one = root_power_sum(13, [0], [1])
    assert one.order == 13 and one.terms == ((0, 1),)
    # repeated exponents add up, and cancelling ones leave no term
    assert root_power_sum(9, [2, 11, 20, 4, -5], [1, 1, -1, 1, 1]).terms == ((2, 1), (4, 2))
    assert root_power_sum(9, [3, 12], [1, -1]).terms == ()
    # sum of all primitive 5th roots is -1
    all_roots = root_power_sum(5, [1, 2, 3, 4], [1, 1, 1, 1])
    minus_one = root_power_sum(5, [0], [-1])
    assert equals(all_roots, minus_one)


def test_root_power_sum_validation():
    with pytest.raises(ValueError):
        root_power_sum(5, [1, 2], [1])
    with pytest.raises(ValueError):
        root_power_sum(5, [1], [2])


def test_equals_basics():
    a = root_power_sum(7, [1, -1], [1, 1])
    assert equals(a, a)
    # the full sum of 5th roots including 1 vanishes
    full = root_power_sum(5, [0, 1, 2, 3, 4], [1] * 5)
    assert equals(full, zero_sum(5))
    # distinct real parts stay distinct
    assert not equals(
        root_power_sum(7, [1, -1], [1, 1]), root_power_sum(7, [2, -2], [1, 1])
    )
    with pytest.raises(ValueError):
        equals(zero_sum(5), zero_sum(7))


def test_cyclotomic_sum_validation():
    with pytest.raises(ValueError):
        CyclotomicSum(0, ())
    for bad_terms in (
        ((3, 1),),  # exponent past the order
        ((-1, 1),),  # negative exponent
        ((2, 1), (1, 1)),  # not ascending
        ((1, 1), (1, 2)),  # repeated exponent
        ((1, 0),),  # zero coefficient
    ):
        with pytest.raises(ValueError):
            CyclotomicSum(3, bad_terms)
    assert CyclotomicSum(3, ((0, 2), (2, -1))) == dense_sum(3, [2, 0, -1])


def _poly_times_phi(n, poly):
    """poly * Phi_n as a vector mod x^n - 1."""
    phi = cyclotomic_polynomial(n)
    out = [0] * n
    for i, c in enumerate(poly):
        if c:
            for j, d in enumerate(phi):
                out[(i + j) % n] += c * d
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        )
    )
)
def test_equals_invariant_under_phi_multiples(args):
    n, coeffs, small = args
    a = dense_sum(n, coeffs)
    shift = _poly_times_phi(n, small)
    b = dense_sum(n, [c + s for c, s in zip(coeffs, shift)])
    assert equals(a, b)
    assert equals(b, a)  # symmetry
    if not equals(a, zero_sum(n)):
        assert not equals(a + a, a)  # a != 0 means 2a != a


def pair_sums_equal(n, i, j):
    """Whether zeta^i + zeta^-i == zeta^j + zeta^-j, decided exactly by equals."""
    return equals(root_power_sum(n, [i, -i], [1, 1]), root_power_sum(n, [j, -j], [1, 1]))


def congruent_up_to_sign(n, i, j):
    """i == +-j (mod n): the congruence the two 2-root sums agree under."""
    return (i - j) % n == 0 or (i + j) % n == 0


@pytest.mark.parametrize(
    "n,i,j,expected",
    [(7, 2, 5, True), (7, 1, 2, False), (2, 0, 1, False), (1, 3, 9, True)],
)
def test_pair_equality_examples(n, i, j, expected):
    assert pair_sums_equal(n, i, j) is expected
    assert congruent_up_to_sign(n, i, j) is expected


@pytest.mark.parametrize("n", range(1, 41))
def test_pair_equality_matches_exact(n):
    for i in range(n):
        for j in range(n):
            assert pair_sums_equal(n, i, j) == congruent_up_to_sign(n, i, j), (n, i, j)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
)
def test_pair_equality_matches_exact_random(n, i, j):
    assert pair_sums_equal(n, i, j) == congruent_up_to_sign(n, i, j)


def test_quad_sum_equivalence_examples():
    # k = 5 is a square root of -1 mod 13; jk = 25 == -1 == -i
    assert quad_sum_equivalence(13, 5, 1, 5) == (True, True)
    assert quad_sum_equivalence(13, 5, 1, 2) == (False, False)
    assert quad_sum_equivalence(13, 5, 1, 1) == (True, True)


def test_quad_sum_equivalence_small_orders():
    assert quad_sum_equivalence(1, 0, 4, 9) == (True, True)
    assert quad_sum_equivalence(2, 1, 1, 1) == (True, True)
    assert quad_sum_equivalence(2, 1, 0, 1) == (False, False)


def test_quad_sum_equivalence_validation():
    with pytest.raises(ValueError):
        quad_sum_equivalence(13, 4, 1, 1)  # 4^2 != -1 (mod 13)
    with pytest.raises(ValueError):
        quad_sum_equivalence(0, 1, 1, 1)


def sqrt_minus_one(n):
    return [k for k in range(n) if (k * k + 1) % n == 0]


def fresh_quad(n, e, k):
    """zeta^e + zeta^-e + zeta^(ek) + zeta^-(ek), built afresh."""
    return root_power_sum(n, [e, -e, e * k, -e * k], [1, 1, 1, 1])


# Every order up to 300 with a square root of -1; half the examples
# draw 1105 = 5.13.17 or 2210 = 2.5.13.17 (three and four distinct primes).
QUAD_ORDERS = tuple(n for n in range(1, 301) if sqrt_minus_one(n))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from(QUAD_ORDERS), st.sampled_from((1105, 2210))).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from(sqrt_minus_one(n)),
            st.integers(0, n - 1),
            st.sampled_from((1, -1)),
            st.integers(0, 3),
            st.integers(0, n - 1),
        )
    )
)
def test_quad_images_match_phi_remainder_oracle(args):
    n, k, e, sign, power, other = args
    # e times a multiplier +-k^power has the same four-root sum (verdict
    # equal); a random exponent mostly has another one (verdict unequal)
    partner = sign * e * pow(k, power, n) % n
    for f in (partner, other):
        same_image = _quad_image(n, e, k) == _quad_image(n, f, k)
        oracle = not any(phi_remainder(fresh_quad(n, e, k) - fresh_quad(n, f, k)))
        congruent = f in {e * m % n for m in (1, -1, k, -k)}
        assert same_image == oracle == congruent, (n, k, e, f)


def test_quad_images_of_k_and_minus_k_agree():
    # the four exponents +-e, +-ek are those of -k, so the two share a cache entry
    for n in QUAD_ORDERS:
        for k in sqrt_minus_one(n):
            for e in range(n):
                assert _quad_image(n, e, k) == _quad_image(n, e, -k % n), (n, k, e)


@pytest.mark.parametrize("n", [13, 65, 130, 1105, 2210])
def test_quad_sum_equivalence_cache_hits_match_fresh_equals(n):
    _quad_image.cache_clear()
    rng = random.Random(n)
    for k in sqrt_minus_one(n):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
        pairs += [(i, i * k % n) for i, _ in pairs[:10]]
        for _ in range(2):  # the second round answers from the cache
            for i, j in pairs:
                identity, congruence = quad_sum_equivalence(n, k, i, j)
                fresh = all(
                    equals(fresh_quad(n, i * l, k), fresh_quad(n, j * l, k))
                    for l in (1, k - 1)
                )
                assert identity == fresh == congruence, (n, k, i, j)
    info = _quad_image.cache_info()
    assert info.hits > 0
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_sum_negation_arithmetic():
    a = root_power_sum(9, [1, 4], [1, -1])
    b = root_power_sum(9, [2], [1])
    total = a + b
    assert total.terms == ((1, 1), (2, 1), (4, -1))
    assert (-a).terms == ((1, -1), (4, 1))
    assert (total - b).terms == a.terms
    assert equals(a + (-a), zero_sum(9))
    assert equals(total - b, a)


# Orders past 300: 3^7 and 2^12 (one repeated prime), 210 = 2.3.5.7,
# 1155 = 3.5.7.11 and 2310 = 2.3.5.7.11 (four or five distinct primes);
# the slower reference at 8321 = 53.157 runs only in the fixed test.
LARGE_ORDERS = (210, 1155, 2187, 2310, 4096)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(st.integers(1, 300), st.sampled_from(LARGE_ORDERS)).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((-1, 1))), max_size=6),
            st.lists(
                st.tuples(
                    st.sampled_from(distinct_primes(n) or (1,)),
                    st.integers(0, n - 1),
                    st.sampled_from((-1, 1)),
                ),
                max_size=3,
            ),
            st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from((-1, 1))), max_size=3),
        )
    )
)
def test_equals_matches_phi_remainder_oracle(args):
    n, terms, cosets, extra = args
    a = root_power_sum(n, [e for e, _ in terms], [s for _, s in terms])
    b = a
    for p, k, s in cosets:
        if p > 1:  # a full coset of the order-p subgroup sums to zero
            b = b + root_power_sum(n, [k + t * (n // p) for t in range(p)], [s] * p)
    assert equals(a, b) and oracle_equals(a, b)
    c = b + root_power_sum(n, [e for e, _ in extra], [s for _, s in extra])
    assert equals(a, c) == oracle_equals(a, c)
    assert equals(c, a) == equals(a, c)


@pytest.mark.parametrize("n", LARGE_ORDERS + (8321,))
def test_equals_matches_oracle_on_both_verdicts(n):
    # the hypothesis test above may draw few unequal pairs at a given
    # order; here each order gets both verdicts
    p = distinct_primes(n)[-1]
    coset = root_power_sum(n, [3 + t * (n // p) for t in range(p)], [1] * p)
    a = root_power_sum(n, [1, n - 1, 7], [1, 1, -1])
    for b, expected in ((a + coset, True), (a - coset, True), (a + coset + a, False)):
        assert equals(a, b) is expected
        assert oracle_equals(a, b) is expected
    # the coset minus one root is a nonzero sum of p - 1 roots
    partial = coset - root_power_sum(n, [3], [1])
    assert not equals(partial, zero_sum(n)) and not oracle_equals(partial, zero_sum(n))


def test_equals_refuses_an_order_it_cannot_factor():
    n = (1 << 61) - 1  # prime, past PRIME_TRIAL_BOUND^2 = 2^32
    a = root_power_sum(n, [1, 2], [1, 1])
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"61-bit order.*{PRIME_TRIAL_BOUND}"):
        equals(a, root_power_sum(n, [1], [1]))
    assert time.perf_counter() - started < 1.0
    assert equals(a, a)  # identical terms need no factoring


def test_phi_reference_is_budgeted():
    n = PHI_MAX_ORDER + 1
    started = time.perf_counter()
    for call in (
        lambda: cyclotomic_polynomial(n),
        lambda: phi_remainder(root_power_sum(n, [1], [1])),
    ):
        with pytest.raises(BudgetExceededError, match=f"{PHI_MAX_ORDER}.*{n}"):
            call()
    assert time.perf_counter() - started < 1.0
