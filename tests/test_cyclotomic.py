import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from phi_reference import annihilated, annihilator_vector, cyclotomic_polynomial, phi_remainder
from suzuki_cd import cyclotomic, verification
from suzuki_cd.cyclotomic import (
    CyclotomicSum,
    _annihilator,
    _image,
    equals,
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
    """Equality by the dense remainder of a - b modulo Phi_n; the difference
    is a dense vector built here, not a CyclotomicSum operation."""
    assert a.order == b.order
    diff = [0] * a.order
    for e, c in a.terms:
        diff[e] += c
    for e, c in b.terms:
        diff[e] -= c
    return not any(phi_remainder(dense_sum(a.order, diff)))


def negated(s):
    """-s, term by term."""
    return CyclotomicSum(s.order, tuple((e, -c) for e, c in s.terms))


def sparse(vec):
    """The nonzero entries of a coefficient vector, ascending exponent."""
    return tuple((e, c) for e, c in enumerate(vec) if c)


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
    with pytest.raises(ValueError, match="same length"):
        root_power_sum(5, [1, 2], [1])
    with pytest.raises(ValueError, match="got 2$"):
        root_power_sum(5, [1], [2])
    # the first bad sign is named, not a later one
    with pytest.raises(ValueError, match="got 2$"):
        root_power_sum(5, [1, 2, 3, 4], [1, 2, -1, 3])


def test_root_power_sum_with_repeats_is_the_term_by_term_sum():
    # seeded exponents drawn from a small range, so most of them repeat and
    # some cancel; the reference adds one term at a time into a dense vector
    rng = random.Random(29)
    for n in (1, 2, 9, 97, 1155):
        for size in (2, 5, 40):
            exponents = [rng.randrange(-8, 8) for _ in range(size)]
            signs = [rng.choice((-1, 1)) for _ in range(size)]
            coeffs = [0] * n
            for e, s in zip(exponents, signs):
                coeffs[e % n] += s
            assert root_power_sum(n, exponents, signs) == dense_sum(n, coeffs), (n, exponents, signs)


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
    assert quad_sum_equivalence(13, {5: [(1, 5), (1, 2), (1, 1)]})[5] == [
        (True, True),
        (False, False),
        (True, True),
    ]
    assert quad_sum_equivalence(13, {5: []}) == {5: []}
    # the answers come back under the blocks' own keys, in their order
    answers = quad_sum_equivalence(13, {8: [(1, 5)], 5: [(1, 8), (2, 4)], 18: []})
    assert list(answers.items()) == [(8, [(True, True)]), (5, [(True, True), (False, False)]), (18, [])]
    assert quad_sum_equivalence(13, {}) == {}


def test_quad_sum_equivalence_small_orders():
    assert quad_sum_equivalence(1, {0: [(4, 9)]})[0] == [(True, True)]
    assert quad_sum_equivalence(2, {1: [(1, 1), (0, 1)]})[1] == [(True, True), (False, False)]


def test_quad_sum_equivalence_validation(monkeypatch):
    # n and every k are checked once per call, before any pair, so an empty
    # batch is refused too, and so is a bad root after a good one
    log = recording_images(monkeypatch)
    for pairs in ([(1, 1)], []):
        with pytest.raises(ValueError, match="need k"):
            quad_sum_equivalence(13, {4: pairs})  # 4^2 != -1 (mod 13)
        with pytest.raises(ValueError, match="need k.*k=4, n=13"):
            quad_sum_equivalence(13, {5: pairs, 4: pairs})
        with pytest.raises(ValueError, match="n must be"):
            quad_sum_equivalence(0, {1: pairs})
    assert log == []


def sqrt_minus_one(n):
    return [k for k in range(n) if (k * k + 1) % n == 0]


def fresh_quad(n, e, k):
    """zeta^e + zeta^-e + zeta^(ek) + zeta^-(ek), built afresh."""
    return root_power_sum(n, [e, -e, e * k, -e * k], [1, 1, 1, 1])


def orbit_key(n, e, k):
    """The least of e, -e, ek and -ek mod n."""
    return min(t % n for t in (e, -e, e * k, -e * k))


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
    # e times a multiplier +-k^power has the same four-root sums (verdict
    # equal); a random exponent mostly has others (verdict unequal)
    partner = sign * e * pow(k, power, n) % n
    answers = quad_sum_equivalence(n, {k: [(e, partner), (e, other)]})[k]
    for f, answer in zip((partner, other), answers):
        oracle = all(
            oracle_equals(fresh_quad(n, e * l, k), fresh_quad(n, f * l, k)) for l in (1, k - 1)
        )
        congruent = f in {e * m % n for m in (1, -1, k, -k)}
        assert answer == (oracle, congruent) == (congruent, congruent), (n, k, e, f)


def test_quad_images_of_k_and_minus_k_agree():
    # the four-root sum of e is term for term that of -e, ek and -ek, and
    # that of e at -k: one image serves the orbit, keyed by its least member,
    # whichever of +-k the caller passes
    for n in QUAD_ORDERS:
        for k in sqrt_minus_one(n):
            for e in range(n):
                terms = fresh_quad(n, e, k).terms
                for m in (-1, k, -k):
                    assert fresh_quad(n, e * m, k).terms == terms, (n, k, e, m)
                assert fresh_quad(n, orbit_key(n, e, k), -k).terms == terms, (n, k, e)
            pairs = [(e, 7 * e + 1) for e in range(n)]
            minus = -k % n
            assert quad_sum_equivalence(n, {k: pairs})[k] == quad_sum_equivalence(n, {minus: pairs})[minus]


@pytest.mark.parametrize("n", [13, 65, 130, 1105, 2210])
def test_quad_sum_equivalence_cache_hits_match_fresh_equals(n):
    # one batch per root, each pair in it twice: the second time every image
    # comes from the call's own dict; a singleton call starts with none
    rng = random.Random(n)
    for k in sqrt_minus_one(n):
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(20)]
        pairs += [(i, i * k % n) for i, _ in pairs[:10]]
        batch = quad_sum_equivalence(n, {k: pairs + pairs})[k]
        assert batch[: len(pairs)] == batch[len(pairs) :]
        for (i, j), answer in zip(pairs, batch):
            fresh = all(
                equals(fresh_quad(n, i * l, k), fresh_quad(n, j * l, k))
                for l in (1, k - 1)
            )
            single = quad_sum_equivalence(n, {k: [(i, j)]})[k]
            assert [answer] == single == [(fresh, fresh)], (n, k, i, j)


@pytest.mark.parametrize("n", [1, 2, 5, 13, 65, 130, 1105])
def test_quad_sum_equivalence_reduces_pairs_outside_the_residues(monkeypatch, n):
    # negative pairs, pairs >= n and multiples of n answer as their reduced
    # pairs do, and the memo is keyed by reduced residue: a call on shifted
    # pairs still computes at most one image per orbit it meets
    log = recording_images(monkeypatch)
    rng = random.Random(n)
    for k in sqrt_minus_one(n):
        reduced = [(rng.randrange(n), rng.randrange(n)) for _ in range(30)]
        reduced += [(0, 0), (0, 1 % n), (1 % n, 0), (1 % n, k)]
        shifted = [
            (i + rng.choice((-3, -1, 1, 2)) * n, j - rng.choice((-2, 1, 4)) * n) for i, j in reduced
        ]
        shifted += [(-i, -j) for i, j in reduced]
        shifted += [(a * n, b * n) for a, b in ((0, -1), (1, 0), (-2, 3), (5, 5))]
        reference = quad_sum_equivalence(n, {k: [(i % n, j % n) for i, j in shifted]})[k]
        log.clear()
        assert quad_sum_equivalence(n, {k: shifted})[k] == reference, (n, k)
        exponents = {e * l for pair in shifted for e in pair for l in (1, k - 1)}
        orbits = {orbit_key(n, e, k) for e in exponents}
        keys = [min(t for t, _ in terms) for terms, _ in log]
        assert len(set(keys)) == len(keys) <= len(orbits), (n, k)
        assert set(keys) <= orbits, (n, k)


def recording_images(monkeypatch):
    """Patch cyclotomic._image to log (terms, image) of each call; return the log."""
    log = []

    def recording(terms, n):
        image = _image(terms, n)
        log.append((terms, image))
        return image

    monkeypatch.setattr(cyclotomic, "_image", recording)
    return log


@pytest.mark.parametrize("n", [1, 2, 5, 13, 65, 130, 290, 1105])
def test_quad_image_is_the_annihilated_four_root_sum(monkeypatch, n):
    # every image a call computes, against the dense cyclic convolution of
    # the four-term sum with the annihilator: a batch of (e, e) asks for
    # every exponent, and each orbit's sum is that of its least member
    log = recording_images(monkeypatch)
    for k in sqrt_minus_one(n):
        log.clear()
        quad_sum_equivalence(n, {k: [(e, e) for e in range(n)]})
        keys = [min(t for t, _ in terms) for terms, _ in log]
        assert sorted(keys) == sorted({orbit_key(n, e, k) for e in range(n)}), (n, k)
        for key, (terms, image) in zip(keys, log):
            reference = fresh_quad(n, key, k)
            assert root_power_sum(n, [t for t, _ in terms], [c for _, c in terms]) == reference
            assert image == dict(sparse(annihilated(reference))), (n, k, key)


def test_quad_worker_computes_each_image_of_a_block_once(monkeypatch):
    # 997 is a prime 1 mod 4, so it has two roots of -1, k and -k, and the
    # worker makes one call with both blocks; the two share one memo, so
    # the call computes one image per orbit either block meets, keyed by
    # the orbit's least member, and answers every other lookup from it
    n = 997
    roots = sqrt_minus_one(n)
    log = recording_images(monkeypatch)
    quad, calls = cyclotomic.quad_sum_equivalence, []

    def recording(n, blocks):
        answers = quad(n, blocks)
        calls.append((list(blocks), sum(map(len, blocks.values()))))
        return answers

    monkeypatch.setattr(cyclotomic, "quad_sum_equivalence", recording)
    item = (n, roots, 200, verification.DEFAULT_SEED)
    report = verification._run_item(verification._quad_worker, item)
    assert report.passed and report.checks > 0
    assert calls == [(roots, report.checks)]
    keys = [min(t for t, _ in terms) for terms, _ in log]
    assert len(set(keys)) == len(keys) < 2 * report.checks
    assert all(key == orbit_key(n, key, k) for key in keys for k in roots)


# Orders with two or more classes {k, -k} of roots of -1: 65 = 5.13 and
# 85 = 5.17 have two, 130 = 2.5.13 two, 1105 = 5.13.17 four.
@pytest.mark.parametrize("n", [65, 85, 130, 1105])
def test_quad_roots_share_images_within_a_class_only(monkeypatch, n):
    # one call with a block per root: each answer matches the dense Phi_n
    # reference of fresh sums, and _image runs exactly once per (class,
    # orbit) the blocks meet.  Each block pairs a few e with e times every
    # root, so e's partners under one class sit in the blocks of the others
    roots = sqrt_minus_one(n)
    assert len({min(k, n - k) for k in roots}) >= 2
    rng = random.Random(n)
    blocks = {}
    for k in roots:
        starts = [rng.randrange(1, n) for _ in range(3)]
        blocks[k] = [(e, e * r % n) for e in starts for r in roots]
        blocks[k] += [(e, rng.randrange(n)) for e in starts]
    log = recording_images(monkeypatch)
    answers = quad_sum_equivalence(n, blocks)
    assert list(answers) == roots
    met = set()
    for k, pairs in blocks.items():
        assert len(answers[k]) == len(pairs)
        cls, l = min(k, n - k), k - 1
        for (i, j), answer in zip(pairs, answers[k]):
            met |= {(cls, orbit_key(n, e, k)) for e in (i, j)}
            same = oracle_equals(fresh_quad(n, i, k), fresh_quad(n, j, k))
            if same:
                met |= {(cls, orbit_key(n, e * l, k)) for e in (i, j)}
                same = oracle_equals(fresh_quad(n, i * l, k), fresh_quad(n, j * l, k))
            congruent = i in {j * m % n for m in (1, -1, k, -k)}
            assert answer == (same, congruent) == (same, same), (n, k, i, j)
    keys = sorted(min(t for t, _ in terms) for terms, _ in log)
    assert len(log) == len(met)
    assert keys == sorted(orbit for _, orbit in met)


def test_sum_arithmetic():
    a = root_power_sum(9, [1, 4], [1, -1])
    b = root_power_sum(9, [2], [1])
    total = a + b
    assert total.terms == ((1, 1), (2, 1), (4, -1))


def test_sum_addition_refuses_other_types_and_orders():
    # a non-sum operand is a TypeError from either side, not an AttributeError
    s = root_power_sum(7, [1], [1])
    for add in (lambda: s + 1, lambda: 1 + s, lambda: s + [1], lambda: (1,) + s):
        with pytest.raises(TypeError):
            add()
    with pytest.raises(ValueError, match="^order mismatch: 7 != 9$"):
        s + root_power_sum(9, [1], [1])
    with pytest.raises(ValueError, match="^order mismatch: 9 != 7$"):
        root_power_sum(9, [1], [1]) + s


def test_sum_is_symmetric_when_one_operand_is_much_longer():
    # the longer operand is copied whole and the shorter merged into it,
    # whichever side each is on; a + (-a) cancels every term
    n = 8321
    rng = random.Random(n)
    short = root_power_sum(n, [1, 3, 5], [1, -1, 1])
    evens = rng.sample(range(0, n, 2), 2998)
    long = root_power_sum(n, [1, 3] + evens, [-1, 1] + [rng.choice((-1, 1)) for _ in evens])
    assert len(long.terms) == 1000 * len(short.terms)
    expected = tuple(sorted([(5, 1)] + [(e, c) for e, c in long.terms if e not in (1, 3)]))
    assert (short + long).terms == (long + short).terms == expected
    for a in (short, long):
        assert (a + negated(a)).terms == ()


# Orders past 300: 3^7 and 2^12 (one repeated prime), 210 = 2.3.5.7,
# 1155 = 3.5.7.11 and 2310 = 2.3.5.7.11 (four or five distinct primes);
# the slower reference at 8321 = 53.157 runs only in the fixed test.
LARGE_ORDERS = (210, 1155, 2187, 2310, 4096)
ANNIHILATOR_ORDERS = tuple(range(1, 301)) + LARGE_ORDERS


def test_annihilator_matches_the_dense_product():
    # Q, and its split head * (x^m - 1) with m = n/p for the last prime p,
    # computed densely; at n = 1, Q = head = 1 and m = 0
    for n in ANNIHILATOR_ORDERS:
        q, head, m = _annihilator(n)
        assert q == sparse(annihilator_vector(n)), n
        primes = distinct_primes(n)
        assert m == (n // primes[-1] if primes else 0), n
        product = [0] * n
        for e, c in head:
            product[(e + m) % n] += c
            product[e] -= c
        assert sparse(product) == (q if primes else ()), n
        if not primes:
            assert head == q == ((0, 1),)


def test_image_matches_the_dense_product():
    # seeded sums of up to six roots with coefficients other than +-1, and
    # the empty sum, at every order of the annihilator test
    for n in ANNIHILATOR_ORDERS:
        rng = random.Random(n)
        for size in (0, 1, 3, 6):
            exponents = sorted(rng.sample(range(n), min(size, n)))
            s = CyclotomicSum(n, tuple((e, rng.choice((-3, -2, -1, 1, 2, 3))) for e in exponents))
            assert _image(s.terms, n) == dict(sparse(annihilated(s))), (n, s.terms)


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
    for b, expected in ((a + coset, True), (a + negated(coset), True), (a + coset + a, False)):
        assert equals(a, b) is expected
        assert oracle_equals(a, b) is expected
    # the coset minus one root is a nonzero sum of p - 1 roots
    partial = coset + root_power_sum(n, [3], [-1])
    assert not equals(partial, zero_sum(n)) and not oracle_equals(partial, zero_sum(n))


def near_misses(n):
    """(name, sum, zero) around the last step of equals at order n: sums
    on which the period check for the last prime p of n (shift m = n/p)
    must say zero, and nearby ones on which it must not.  At n = 1 there
    is no prime and zero is None: only the oracle's verdict counts."""
    primes = distinct_primes(n) or (1,)
    first, p = primes[0], primes[-1]
    m = n // p

    def coset(prime, k):
        return [k + t * (n // prime) for t in range(prime)]

    def single(e, c=1):
        return CyclotomicSum(n, ((e % n, c),))

    # full cosets of p at up to three offsets below m, coefficients 1, -2, 3
    union = zero_sum(n)
    for k, c in zip(sorted({0, m // 2, m - 1}), (1, -2, 3)):
        union = union + CyclotomicSum(n, tuple((e, c) for e in coset(p, k)))
    e, c = union.terms[len(union.terms) // 2]
    heads = root_power_sum(n, coset(first, 1) + coset(p, 2), [1] * (first + p))
    # p terms in steps of m + 1: no coset of p, unless n is prime (m = 1),
    # where any p distinct roots are all of them
    stepped = root_power_sum(n, [t * (m + 1) for t in range(p)], [1] * p)
    cases = [
        ("union of cosets", union, True),
        ("one coefficient changed", union + single(e), False),
        ("one term removed", union + single(e, -c), False),
        ("one term moved by one", union + single(e + 1, c) + single(e, -c), False),
        ("p terms", stepped, m == 1),
        ("first and last cosets", heads, True),
        ("first and last cosets plus a root", heads + single(3), False),
    ]
    return [(name, s, zero if n > 1 else None) for name, s, zero in cases]


@pytest.mark.parametrize("n", [1, 7937, 2187, 8321, 1155])
def test_equals_decides_near_misses_of_the_period_check(monkeypatch, n):
    # _image raises, so every verdict below comes from the difference and
    # the period check, not from comparing images
    def no_image(terms, n):
        raise AssertionError("equals compared images")

    monkeypatch.setattr(cyclotomic, "_image", no_image)
    other = root_power_sum(n, [1, -1, 5], [1, 1, -1])
    for name, s, zero in near_misses(n):
        verdict = oracle_equals(s, zero_sum(n))
        assert zero is None or verdict is zero, (n, name)
        assert equals(s, zero_sum(n)) is verdict, (n, name)
        assert equals(zero_sum(n), s) is verdict, (n, name)
        assert equals(other + s, other) is verdict, (n, name)
        assert equals(other, s + other) is verdict, (n, name)


def test_equals_refuses_an_order_it_cannot_factor():
    n = (1 << 61) - 1  # prime, past PRIME_TRIAL_BOUND^2 = 2^32
    a = root_power_sum(n, [1, 2], [1, 1])
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"61-bit order.*{PRIME_TRIAL_BOUND}"):
        equals(a, root_power_sum(n, [1], [1]))
    assert time.perf_counter() - started < 1.0
    assert equals(a, a)  # identical terms need no factoring
