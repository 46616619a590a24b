import math
from enum import Enum

import pytest
from hypothesis import given, strategies as st

from suzuki_cd import numtheory
from suzuki_cd.characters import Family, torus_order_of
from suzuki_cd.numtheory import (
    GcdCase,
    coincidence_classify,
    euclid_gcd,
    gcd_closed_form_rows,
    gcd_torus,
    gcd_verification_rows,
)
from suzuki_cd.params import divisors_of, make_params
from suzuki_cd.stabilizers import is_witnessless


class Torus(Enum):
    """The paper's two q^4+1 tori, each valued by the SuzukiParams field
    that holds its order; the library takes the order itself."""

    PLUS = "a1"  # order q^2 + r + 1
    MINUS = "a2"  # order q^2 - r + 1

    def order(self, p):
        return getattr(p, self.value)

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


# queries every closed form refuses at f = 4, where 2f+1 = 9
BAD_QUERIES = pytest.mark.parametrize(
    "n, sign",
    [(3, 0), (5, -1), (9, 1)],
    ids=["sign-0", "not-a-divisor", "all-of-2f+1"],
)


def test_gcd_torus_takes_every_torus_order():
    # the split torus q^2 - 1 too, and an int for each torus, not a name
    for f in range(1, 61):
        p = make_params(f)
        for n in divisors_of(p.out_order)[:-1]:
            for order in (p.a0, p.a1, p.a2):
                for sign in (-1, 1):
                    case = gcd_torus(p, order, n, sign)
                    assert case.value == euclid_gcd(order, p.q2 + sign * 2**n), (f, n, order, sign)
            for order in (p.a1 + 2, p.q4 + 1):
                with pytest.raises(ValueError, match="no torus order"):
                    gcd_torus(p, order, n, -1)


@BAD_QUERIES
def test_gcd_split_torus_rejects(n, sign):
    p = make_params(4)
    with pytest.raises(ValueError):
        gcd_torus(p, p.a0, n, sign)


@BAD_QUERIES
@pytest.mark.parametrize("torus", Torus)
def test_gcd_torus_rejects(n, sign, torus):
    # the checks the q^4+1 rows rely on, as they have no function of their own
    p = make_params(4)
    with pytest.raises(ValueError):
        gcd_torus(p, torus.order(p), n, sign)


def product_rows(p):
    """{(n, sign): (plus, minus, product)} cases from gcd_closed_form_rows."""
    cases = {(n, torus, sign): case for n, torus, sign, case in gcd_closed_form_rows(p)}
    return {
        (n, sign): tuple(cases[n, torus, sign] for torus in ("plus", "minus", "product"))
        for n, torus, sign in cases
    }


def test_gcd_product_row_examples():
    p2 = make_params(2)
    rows = product_rows(p2)
    plus, minus, product = rows[1, -1]
    assert product.value == 5 == euclid_gcd(p2.q4 + 1, p2.q2 - 2)
    assert product.condition == "2f+1 == n (mod 4)"
    assert (plus.value, minus.value) == (1, 5)
    assert euclid_gcd(1025, 30) == 5
    assert rows[1, +1][2] == GcdCase(1, "none") and euclid_gcd(p2.q4 + 1, p2.q2 + 2) == 1

    p4 = make_params(4)
    assert product_rows(p4)[3, -1][2] == GcdCase(1, "none")  # 9 != 3 (mod 4)
    assert euclid_gcd(p4.q4 + 1, p4.q2 - 8) == 1


@pytest.mark.parametrize("f", range(1, 17))
def test_gcd_q4_small_is_one(f):
    p = make_params(f)
    for n in divisors_of(p.out_order)[:-1]:
        for sign in (-1, 1):
            assert euclid_gcd(p.q4 + 1, (1 << n) + sign) == 1


def test_gcd_torus_examples():
    p2 = make_params(2)
    case = gcd_torus(p2, p2.a2, 1, -1)
    assert case.value == 5 == euclid_gcd(p2.a2, p2.q2 - 2)  # 2^1 + 2^1 + 1
    assert case.condition == "4 || 2f-n+1"
    assert gcd_torus(p2, p2.a1, 1, -1).value == 1 == euclid_gcd(p2.a1, p2.q2 - 2)

    # oracle fixes the value at f=4, n=3, sign +: gcd(545, 520) = 5
    p4 = make_params(4)
    case = gcd_torus(p4, p4.a1, 3, +1)
    assert case.value == 5  # 2^3 - 2^2 + 1
    assert euclid_gcd(2**9 + 2**5 + 1, 2**9 + 8) == 5


@pytest.mark.parametrize("f", range(1, 33))
def test_gcd_torus_checked_sweep(f):
    p = make_params(f)
    for (n, sign), (*_, product) in product_rows(p).items():
        rhs = p.q2 + sign * (1 << n)
        for torus in Torus:
            case = gcd_torus(p, torus.order(p), n, sign)
            assert case.value == euclid_gcd(torus.order(p), rhs), (n, torus, sign)
        assert product.value == math.gcd(p.q4 + 1, rhs), (n, sign)


@pytest.mark.parametrize("f", range(1, 33))
def test_gcd_torus_factors_multiply(f):
    # each q^4+1 row is the product of its two torus rows, and its branch
    # is the mod-4 congruence the product fires on, read here from f and n
    p = make_params(f)
    for (n, sign), (plus, minus, product) in product_rows(p).items():
        assert product.value == plus.value * minus.value, (n, sign)
        if sign < 0:
            fires, condition = (2 * f + 1 - n) % 4 == 0, "2f+1 == n (mod 4)"
        else:
            fires, condition = (2 * f + 1 + n) % 4 == 0, "2f+1 == -n (mod 4)"
        assert (product.value > 1) == fires, (n, sign)
        assert product.condition == (condition if fires else "none"), (n, sign)


def test_gcd_case_value_divides_pair():
    for f in range(1, 17):
        p = make_params(f)
        for n in divisors_of(p.out_order)[:-1]:
            for torus in Torus:
                for sign in (-1, 1):
                    case = gcd_torus(p, torus.order(p), n, sign)
                    assert torus.order(p) % case.value == 0
                    assert (p.q2 + sign * 2**n) % case.value == 0


def test_coincidence_case_i_at_f4():
    p = make_params(4)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "i" and case.order == Torus.PLUS.order(p)
    assert (case.sign_n, case.sign_m) == (+1, -1)
    # d1 = d2 = 5: a1 = 545 against q^2 + 8 and q^2 - 2
    assert euclid_gcd(545, 520) == euclid_gcd(545, 510) == 5


def test_coincidence_case_ii_at_f7():
    p = make_params(7)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "ii" and case.order == Torus.PLUS.order(p)
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
    assert COINCIDENCE_TABLE[p.f % 4][0] == "iii" and case.order == Torus.MINUS.order(p)
    assert euclid_gcd(p.a2, p.q2 - 8) == euclid_gcd(p.a2, p.q2 + 2) == 5


def test_coincidence_case_iv_at_f10():
    p = make_params(10)
    case = coincidence_classify(p, 1, 3)
    assert case is not None
    assert COINCIDENCE_TABLE[p.f % 4][0] == "iv" and case.order == Torus.MINUS.order(p)
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
    p = make_params(f)
    case = coincidence_classify(p, 1, 3)
    assert COINCIDENCE_TABLE[f % 4][0] == label
    assert (case.order, (case.sign_n, case.sign_m)) == (torus.order(p), signs)


def test_coincidence_classify_reads_the_torus_theorem_a_reads():
    # one fact, two readers: 5 divides exactly one torus order, the one
    # is_witnessless gives no witness at n = 3, and the collision is there,
    # with the torus and signs of the f mod 4 table; 3 | 2f+1 exactly when
    # f == 1 (mod 3), and at f = 1 the 3 is no proper divisor
    for f in range(4, 2001, 3):
        p = make_params(f)
        case = coincidence_classify(p, 1, 3)
        (family,) = [fam for fam in (Family.Y, Family.Z) if is_witnessless(p, fam, 3)]
        torus, *signs = COINCIDENCE_TABLE[f % 4][1:]
        assert case.order == torus_order_of(p, family) == torus.order(p), f
        assert [case.sign_n, case.sign_m] == signs, f


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
