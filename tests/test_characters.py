import time

import pytest

from suzuki_cd.characters import (
    Family,
    canonical_indices,
    canonicalize,
    degree_of,
    family_count,
    make_label,
    multipliers_of,
    phi_power_on_label,
    torus_order_of,
    torus_value,
)
from suzuki_cd.cyclotomic import equals, root_power_sum
from suzuki_cd.errors import BudgetExceededError
from suzuki_cd.params import distinct_primes, divisors_of, make_params

FAMILY_ORDER = (Family.ONE, Family.ST, Family.X, Family.Y, Family.Z, Family.W)


def test_degrees_f1():
    p = make_params(1)
    assert tuple(degree_of(p, fam) for fam in FAMILY_ORDER) == (1, 64, 65, 35, 91, 14)


def test_degrees_f2():
    p = make_params(2)
    assert degree_of(p, Family.Z) == 1271 == 41 * 31
    assert degree_of(p, Family.Y) == 775 == 25 * 31
    assert degree_of(p, Family.W) == 124


@pytest.mark.parametrize("f", range(1, 33))
def test_w_degree_is_integer(f):
    p = make_params(f)
    assert p.r * p.a0 % 2 == 0
    assert degree_of(p, Family.W) == p.r * p.a0 // 2


def test_counts_f1():
    p = make_params(1)
    counts = tuple(family_count(p, fam) for fam in FAMILY_ORDER)
    assert counts == (1, 1, 3, 3, 1, 2)
    assert sum(counts) == 11 == p.q2 + 3


def test_counts_f2():
    p = make_params(2)
    assert family_count(p, Family.X) == 15
    assert family_count(p, Family.Y) == 10
    assert family_count(p, Family.Z) == 6
    assert sum(family_count(p, fam) for fam in FAMILY_ORDER) == 35


@pytest.mark.parametrize("f", range(1, 65))
def test_count_identity(f):
    p = make_params(f)
    assert sum(family_count(p, fam) for fam in FAMILY_ORDER) == p.q2 + 3


def test_sum_of_degree_squares_is_group_order():
    for f in (1, 2, 3):
        p = make_params(f)
        total = sum(
            family_count(p, fam) * degree_of(p, fam) ** 2 for fam in FAMILY_ORDER
        )
        assert total == p.group_order


@pytest.mark.parametrize("f", [1, 2, 3, 4])
@pytest.mark.parametrize("family", [Family.X, Family.Y, Family.Z])
def test_canonical_class_counts_match_table(f, family):
    p = make_params(f)
    indices = canonical_indices(p, family)
    assert len(indices) == family_count(p, family)
    assert indices == sorted(set(indices))
    assert all(canonicalize(p, family, i) == i for i in indices)


@pytest.mark.parametrize("family", [Family.X, Family.Y, Family.Z])
def test_canonical_indices_refuses_past_oracle_budget(family):
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="f <= 10, got f=11"):
        canonical_indices(make_params(11), family)
    assert time.perf_counter() - started < 1.0


def test_canonicalize_examples():
    p = make_params(1)

    def members(family, raw):
        n = torus_order_of(p, family)
        return frozenset(raw * m % n for m in multipliers_of(p, family))

    assert canonicalize(p, Family.X, 4) == 3
    assert members(Family.X, 4) == frozenset({3, 4})
    assert canonicalize(p, Family.Y, 12) == 1
    assert members(Family.Y, 12) == frozenset({1, 12, 8, 5})
    assert canonicalize(p, Family.Z, 4) == 1
    assert members(Family.Z, 4) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        canonicalize(p, Family.X, 0)
    with pytest.raises(ValueError):
        canonicalize(p, Family.Y, 26)  # 26 == 0 mod 13


@pytest.mark.parametrize("f", [1, 2, 3, 5])
@pytest.mark.parametrize("family", [Family.X, Family.Y, Family.Z])
def test_multipliers_form_a_group(f, family):
    p = make_params(f)
    n = torus_order_of(p, family)
    mult = multipliers_of(p, family)
    assert 1 in mult
    assert all(a * b % n in mult for a in mult for b in mult)
    if family is not Family.X:
        q = p.q2 % n
        assert q * q % n == n - 1  # q^2 squares to -1 on the torus
        assert len(mult) == 4
    else:
        assert len(mult) == 2


def test_make_label_validation():
    p = make_params(1)
    assert make_label(p, Family.ONE).index == 0
    assert make_label(p, Family.W, 2).index == 2
    assert make_label(p, Family.X, 4).index == 3  # canonicalized
    with pytest.raises(ValueError):
        make_label(p, Family.ONE, 1)
    with pytest.raises(ValueError):
        make_label(p, Family.W, 3)
    with pytest.raises(ValueError):
        make_label(p, Family.Y, 0)


def test_torus_value_examples():
    p = make_params(1)
    x1 = make_label(p, Family.X, 1)
    assert torus_value(p, x1, 1).terms == ((1, 1), (6, 1))

    y1 = make_label(p, Family.Y, 1)
    at_full = torus_value(p, y1, 13)
    assert at_full.order == 13 and at_full.terms == ((0, -4),)

    z1 = make_label(p, Family.Z, 1)
    assert equals(torus_value(p, z1, 1), root_power_sum(5, [0], [1]))


@pytest.mark.parametrize("family", [Family.X, Family.Y, Family.Z])
def test_torus_value_equality_at_f10(family):
    # torus orders about 2^21: equality needs only the primes of n, so it
    # answers at once where a dense remainder mod Phi_n would not
    p = make_params(10)
    n = torus_order_of(p, family)
    label = make_label(p, family, 12345)
    started = time.perf_counter()
    value = torus_value(p, label, 77)
    assert equals(value, torus_value(p, label, n - 77))  # zeta^-l conjugates
    assert not equals(value, torus_value(p, label, 78))
    prime = distinct_primes(n)[0]
    coset = root_power_sum(n, [5 + t * (n // prime) for t in range(prime)], [1] * prime)
    assert equals(value + coset, value)  # a full coset of the order-p subgroup is 0
    assert not equals(value + root_power_sum(n, [5], [1]), value)
    if family is Family.X:
        i = label.index
        for l in (1, 2, n // 7, n - 1):
            # X values are 2-root sums: equal iff 77i == +-li (mod n)
            congruent = (77 * i - l * i) % n == 0 or (77 * i + l * i) % n == 0
            assert equals(value, torus_value(p, label, l)) == congruent
    assert time.perf_counter() - started < 5.0


def test_torus_value_validation():
    p = make_params(1)
    with pytest.raises(ValueError):
        torus_value(p, make_label(p, Family.W, 1), 1)
    with pytest.raises(ValueError):
        torus_value(p, make_label(p, Family.ONE), 1)
    with pytest.raises(ValueError):
        torus_value(p, make_label(p, Family.X, 1), 0)
    with pytest.raises(ValueError):
        torus_value(p, make_label(p, Family.X, 1), 8)


def test_phi_action_doubling_chain_f1():
    p = make_params(1)
    x1 = make_label(p, Family.X, 1)
    x2 = phi_power_on_label(p, x1, 1)
    x3 = phi_power_on_label(p, x2, 1)
    assert (x2.index, x3.index) == (2, 3)
    assert phi_power_on_label(p, x3, 1) == x1
    w1 = make_label(p, Family.W, 1)
    assert phi_power_on_label(p, w1, 1) == w1
    assert phi_power_on_label(p, make_label(p, Family.ST), 2) == make_label(p, Family.ST)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_phi_full_power_is_identity(f):
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        for idx in canonical_indices(p, family):
            label = make_label(p, family, idx)
            assert phi_power_on_label(p, label, p.out_order) == label


@pytest.mark.parametrize("f", [1, 2, 3])
def test_phi_is_a_bijection_on_labels(f):
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        labels = [make_label(p, family, i) for i in canonical_indices(p, family)]
        image = {phi_power_on_label(p, lab, 1) for lab in labels}
        assert image == set(labels)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_phi_action_matches_value_reindexing(f):
    # the defining identity: applying the automorphism n times and
    # evaluating at l equals evaluating the original at -l*2^n
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        order = torus_order_of(p, family)
        for idx in canonical_indices(p, family):
            label = make_label(p, family, idx)
            for n in divisors_of(p.out_order):
                moved = phi_power_on_label(p, label, n)
                for l in range(1, order + 1):
                    twisted = (-l * pow(2, n, order)) % order or order
                    assert equals(
                        torus_value(p, moved, l), torus_value(p, label, twisted)
                    ), (f, family, idx, n, l)
