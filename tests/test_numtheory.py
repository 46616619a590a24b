import math

import pytest
from hypothesis import given, strategies as st

from suzuki_cd import numtheory
from suzuki_cd.characters import Family, torus_order_of
from suzuki_cd.numtheory import (
    Torus,
    coincidence_classify,
    euclid_gcd,
    gcd_closed_form_rows,
    gcd_q4_plus1,
    gcd_split_torus,
    gcd_torus,
    gcd_two_powers,
    gcd_verification_rows,
    torus_order,
)
from suzuki_cd.params import divisors_of, make_params
from suzuki_cd.stabilizers import is_witnessless

# f mod 4 -> (the paper's case name, torus, sign at 2^3, sign at 2^1) of the
# collision at exponents 1 and 3; coincidence_classify derives the last three
# from which torus order 5 divides, and the tests check it against this table
COINCIDENCE_TABLE = {
    0: ("i", Torus.PLUS, +1, -1),
    3: ("ii", Torus.PLUS, -1, +1),
    1: ("iii", Torus.MINUS, -1, +1),
    2: ("iv", Torus.MINUS, +1, -1),
}


def test_euclid_examples():
    assert euclid_gcd(1025, 30) == 5
    assert euclid_gcd(13, 5) == 1
    assert euclid_gcd(0, 7) == 7
    assert euclid_gcd(7, 0) == 7


@pytest.mark.parametrize("a,b", [(-1, 3), (3, -1), (0, 0)])
def test_euclid_rejects(a, b):
    with pytest.raises(ValueError):
        euclid_gcd(a, b)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=0, max_value=10**40))
def test_euclid_matches_math_gcd(a, b):
    if a == 0 and b == 0:
        return
    assert euclid_gcd(a, b) == math.gcd(a, b)


@pytest.mark.parametrize(
    "n,m,sign,expected",
    [
        (6, 3, -1, 7),
        (6, 3, +1, 9),
        (6, 2, +1, 1),
    ],
)
def test_gcd_two_powers_examples(n, m, sign, expected):
    assert gcd_two_powers(n, m, sign) == expected
    assert expected == math.gcd(2**n - 1, 2**m + sign)


def test_gcd_two_powers_exhaustive_small():
    for m in range(1, 11):
        for n in range(m, 31, m):
            for sign in (-1, 1):
                assert gcd_two_powers(n, m, sign) == math.gcd(2**n - 1, 2**m + sign)


def test_gcd_two_powers_rejects():
    with pytest.raises(ValueError):
        gcd_two_powers(6, 4, -1)  # 4 does not divide 6
    with pytest.raises(ValueError):
        gcd_two_powers(6, 3, 0)
    with pytest.raises(ValueError):
        gcd_two_powers(0, 1, 1)


def test_gcd_split_torus_matches_math_gcd():
    for f in range(1, 65):
        p = make_params(f)
        for n in divisors_of(p.out_order)[:-1]:
            for sign in (-1, 1):
                assert gcd_split_torus(p, n, sign) == math.gcd(p.a0, p.q2 + sign * 2**n), (f, n)


@pytest.mark.parametrize(
    "n, sign",
    [(3, 0), (5, -1), (9, 1)],
    ids=["sign-0", "not-a-divisor", "all-of-2f+1"],
)
def test_gcd_split_torus_rejects(n, sign):
    with pytest.raises(ValueError):
        gcd_split_torus(make_params(4), n, sign)  # 2f+1 = 9


def test_gcd_q4_plus1_examples():
    p2 = make_params(2)
    case = gcd_q4_plus1(p2, 1, -1)
    assert case.value == 5 == euclid_gcd(p2.q4 + 1, p2.q2 - 2)
    assert case.condition == "2f+1 == n (mod 4)"
    assert euclid_gcd(1025, 30) == 5

    case = gcd_q4_plus1(p2, 1, +1)
    assert case.value == 1 == euclid_gcd(p2.q4 + 1, p2.q2 + 2)

    p4 = make_params(4)
    assert gcd_q4_plus1(p4, 3, -1).value == 1  # 9 != 3 (mod 4)
    assert euclid_gcd(p4.q4 + 1, p4.q2 - 8) == 1


def test_gcd_q4_plus1_rejects_improper_n():
    p = make_params(4)
    with pytest.raises(ValueError):
        gcd_q4_plus1(p, 9, -1)  # n = 2f+1 is not proper
    with pytest.raises(ValueError):
        gcd_q4_plus1(p, 2, -1)  # 2 does not divide 9
    with pytest.raises(ValueError):
        gcd_q4_plus1(p, 1, 0)


@pytest.mark.parametrize("f", range(1, 17))
def test_gcd_q4_small_is_one(f):
    p = make_params(f)
    for n in divisors_of(p.out_order)[:-1]:
        for sign in (-1, 1):
            assert euclid_gcd(p.q4 + 1, (1 << n) + sign) == 1


def test_gcd_torus_examples():
    p2 = make_params(2)
    case = gcd_torus(p2, Torus.MINUS, 1, -1)
    assert case.value == 5 == euclid_gcd(p2.a2, p2.q2 - 2)  # 2^1 + 2^1 + 1
    assert case.condition == "4 || 2f-n+1"
    assert gcd_torus(p2, Torus.PLUS, 1, -1).value == 1 == euclid_gcd(p2.a1, p2.q2 - 2)

    # oracle fixes the value at f=4, n=3, sign +: gcd(545, 520) = 5
    p4 = make_params(4)
    case = gcd_torus(p4, Torus.PLUS, 3, +1)
    assert case.value == 5  # 2^3 - 2^2 + 1
    assert euclid_gcd(2**9 + 2**5 + 1, 2**9 + 8) == 5


@pytest.mark.parametrize("f", range(1, 33))
def test_gcd_torus_checked_sweep(f):
    p = make_params(f)
    for n in divisors_of(p.out_order)[:-1]:
        for sign in (-1, 1):
            rhs = p.q2 + sign * (1 << n)
            for torus in Torus:
                case = gcd_torus(p, torus, n, sign)
                assert case.value == euclid_gcd(torus_order(p, torus), rhs), (n, torus, sign)
            assert gcd_q4_plus1(p, n, sign).value == euclid_gcd(p.q4 + 1, rhs), (n, sign)


@pytest.mark.parametrize("f", range(1, 33))
def test_gcd_torus_factors_multiply(f):
    p = make_params(f)
    for n in divisors_of(p.out_order)[:-1]:
        for sign in (-1, 1):
            prod = (
                gcd_torus(p, Torus.PLUS, n, sign).value
                * gcd_torus(p, Torus.MINUS, n, sign).value
            )
            assert prod == gcd_q4_plus1(p, n, sign).value


def test_gcd_case_value_divides_pair():
    for f in range(1, 17):
        p = make_params(f)
        for n in divisors_of(p.out_order)[:-1]:
            for torus in Torus:
                for sign in (-1, 1):
                    case = gcd_torus(p, torus, n, sign)
                    assert torus_order(p, torus) % case.value == 0
                    assert (p.q2 + sign * 2**n) % case.value == 0


def test_coincidence_case_i_at_f4():
    p = make_params(4)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "i" and case.torus is Torus.PLUS
    assert (case.sign_n, case.sign_m) == (+1, -1)
    # d1 = d2 = 5: a1 = 545 against q^2 + 8 and q^2 - 2
    assert euclid_gcd(545, 520) == euclid_gcd(545, 510) == 5


def test_coincidence_case_ii_at_f7():
    p = make_params(7)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "ii" and case.torus is Torus.PLUS
    assert (case.sign_n, case.sign_m) == (-1, +1)
    assert euclid_gcd(p.a1, p.q2 - 8) == euclid_gcd(p.a1, p.q2 + 2) == 5
    # the other torus has no collision at f=7: d1=13 while both
    # exponent-1 gcds are trivial
    assert euclid_gcd(p.a2, p.q2 - 8) == 13
    assert euclid_gcd(p.a2, p.q2 + 2) == 1
    assert euclid_gcd(p.a2, p.q2 - 2) == 1


def test_coincidence_case_iii_at_f13():
    p = make_params(13)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "iii" and case.torus is Torus.MINUS
    assert euclid_gcd(p.a2, p.q2 - 8) == euclid_gcd(p.a2, p.q2 + 2) == 5


def test_coincidence_case_iv_at_f10():
    p = make_params(10)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "iv" and case.torus is Torus.MINUS
    assert euclid_gcd(p.a2, p.q2 + 8) == euclid_gcd(p.a2, p.q2 - 2) == 5


@pytest.mark.parametrize(
    "f, label, torus, signs",
    [
        (4, "i", Torus.PLUS, (+1, -1)),
        (7, "ii", Torus.PLUS, (-1, +1)),
        (13, "iii", Torus.MINUS, (-1, +1)),
        (10, "iv", Torus.MINUS, (+1, -1)),
    ],
)
def test_coincidence_classify_computes_no_gcd(monkeypatch, f, label, torus, signs):
    def refuse(a, b):
        raise AssertionError("coincidence_classify called euclid_gcd")

    monkeypatch.setattr(numtheory, "euclid_gcd", refuse)
    case = coincidence_classify(make_params(f), 1, 3)
    assert COINCIDENCE_TABLE[f % 4][0] == label
    assert (case.torus, (case.sign_n, case.sign_m)) == (torus, signs)


def test_coincidence_classify_reads_the_torus_theorem_a_reads():
    # one fact, two readers: 5 divides exactly one torus order, the one
    # is_witnessless gives no witness at n = 3, and the collision is there,
    # with the torus and signs of the f mod 4 table; 3 | 2f+1 exactly when
    # f == 1 (mod 3), and at f = 1 the 3 is no proper divisor
    for f in range(4, 2001, 3):
        p = make_params(f)
        case = coincidence_classify(p, 1, 3)
        (family,) = [fam for fam in (Family.Y, Family.Z) if is_witnessless(p, fam, 3)]
        assert torus_order(p, case.torus) == torus_order_of(p, family), f
        assert (case.torus, case.sign_n, case.sign_m) == COINCIDENCE_TABLE[f % 4][1:], f


def test_coincidence_none_for_other_pairs():
    p7 = make_params(7)  # 2f+1 = 15
    assert coincidence_classify(p7, 1, 5) is None
    p13 = make_params(13)  # 2f+1 = 27
    assert coincidence_classify(p13, 3, 9) is None


def test_coincidence_preconditions():
    p8 = make_params(8)  # 2f+1 = 17 prime: no valid pairs at all
    with pytest.raises(ValueError):
        coincidence_classify(p8, 1, 3)
    p7 = make_params(7)
    with pytest.raises(ValueError):
        coincidence_classify(p7, 3, 3)  # not distinct
    with pytest.raises(ValueError):
        coincidence_classify(p7, 3, 5)  # m does not divide n
    with pytest.raises(ValueError):
        coincidence_classify(p7, 3, 15)  # n not proper


def test_gcd_verification_rows_all_match():
    for f in (1, 4, 7, 12):
        p = make_params(f)
        rows = gcd_verification_rows(p, gcd_closed_form_rows(p))
        proper = divisors_of(p.out_order)[:-1]
        assert [row[:3] for row in rows] == [
            (n, torus, sign)
            for n in proper
            for torus in ("plus", "minus", "product")
            for sign in (-1, 1)
        ]
        assert all(case.value == actual for *_, case, actual in rows)
        assert all(isinstance(actual, int) for *_, actual in rows)
