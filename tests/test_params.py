import math

import pytest
import sympy
from hypothesis import given, strategies as st

from suzuki_cd import BudgetExceededError, divisors_of, make_params
from suzuki_cd.params import F_MAX, PRIME_TRIAL_BOUND, distinct_primes


def test_f1_values():
    p = make_params(1)
    assert (p.q2, p.r, p.a0, p.a1, p.a2) == (8, 4, 7, 13, 5)
    assert p.group_order == 29120
    assert p.out_order == 3
    assert p.q4 == 64


def test_f2_values():
    p = make_params(2)
    assert (p.q2, p.r, p.a0, p.a1, p.a2) == (32, 8, 31, 41, 25)


@pytest.mark.parametrize("bad", [0, -1, "1", 1.0, True])
def test_rejects_bad_f(bad):
    with pytest.raises(ValueError):
        make_params(bad)


def test_make_params_refuses_f_past_F_MAX():
    assert make_params(F_MAX).out_order == 2 * F_MAX + 1
    for f in (F_MAX + 1, 10**18):  # 10**18 is refused, not a MemoryError
        with pytest.raises(BudgetExceededError, match=f"^f {f} is over its limit of {F_MAX}$"):
            make_params(f)


@pytest.mark.parametrize(
    "f,expected",
    [(1, [1, 3]), (4, [1, 3, 9]), (7, [1, 3, 5, 15]), (2, [1, 5])],
)
def test_outer_divisors(f, expected):
    assert divisors_of(make_params(f).out_order) == expected


def test_divisors_of():
    assert divisors_of(1) == [1]
    assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
    assert divisors_of(9) == [1, 3, 9]
    with pytest.raises(ValueError):
        divisors_of(0)


@pytest.mark.parametrize("f", range(1, 65))
def test_structural_invariants(f):
    p = make_params(f)
    assert p.r * p.r == 2 * p.q2
    assert p.a1 * p.a2 == p.q4 + 1
    assert p.group_order % 3 != 0
    assert math.gcd(p.a0, p.a1) == math.gcd(p.a0, p.a2) == math.gcd(p.a1, p.a2) == 1
    assert p.a0 % 2 == p.a1 % 2 == p.a2 % 2 == 1


@given(st.integers(min_value=1, max_value=300))
def test_parameter_identities_random_f(f):
    p = make_params(f)
    assert p.q2 == 2 ** (2 * f + 1)
    assert p.group_order == (p.q4 + 1) * p.q4 * (p.q2 - 1)
    divs = divisors_of(p.out_order)
    assert divs[0] == 1 and divs[-1] == 2 * f + 1
    assert all(divs[i] < divs[i + 1] for i in range(len(divs) - 1))
    assert all((2 * f + 1) % d == 0 for d in divs)


@given(st.integers(min_value=1, max_value=PRIME_TRIAL_BOUND**2 - 1))
def test_distinct_primes_match_sympy(n):
    # every n below the square of the bound is factored completely
    assert list(distinct_primes(n)) == sorted(sympy.factorint(n))


def test_distinct_primes_at_the_trial_bound():
    assert PRIME_TRIAL_BOUND == 65536
    # the largest prime below the bound, times the least above it: the
    # cofactor 65537 is below 65521^2, so it is certified prime
    assert distinct_primes(65521 * 65537) == (65521, 65537)
    assert distinct_primes(2**21 - 1) == (7, 127, 337)  # a torus order at f = 10
    for n in (65537 * 65539, (1 << 61) - 1):  # no prime factor below the bound
        with pytest.raises(BudgetExceededError, match=f"{n.bit_length()}-bit order.*65536"):
            distinct_primes(n)
    with pytest.raises(ValueError):
        distinct_primes(0)
