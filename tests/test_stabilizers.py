import inspect
import math
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from suzuki_cd import characters, numtheory, stabilizers
from suzuki_cd.characters import (
    TORUS_FAMILIES,
    CharacterLabel,
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
from suzuki_cd.cyclotomic import equals
from suzuki_cd.degrees import cd_closed_form
from suzuki_cd.errors import BudgetExceededError, InvariantError
from suzuki_cd.numtheory import GcdCase
from suzuki_cd.params import divisors_of, make_params
from suzuki_cd.stabilizers import (
    _invariant,
    exact_stabilizer_exponent,
    is_witnessless,
    orbit_counts,
    orbit_oracle,
    witness_for,
)


def invariant(p, family, idx, n):
    return _invariant(p, CharacterLabel(family, idx), n)


def checked_witness(p, family, n):
    """witness_for, with the witness's exact exponent checked to be n."""
    w = witness_for(p, family, n)
    assert exact_stabilizer_exponent(p, make_label(p, family, w)) == n
    return w


def assert_full_power_witness(p, family):
    """witness_for at n = 2f+1 is 1, unless is_witnessless says none."""
    n = p.out_order
    expected = None if is_witnessless(p, family, n) else 1
    assert witness_for(p, family, n) == expected, (p.f, family)


def test_x_invariant_examples():
    p4 = make_params(4)
    assert invariant(p4, Family.X, 73, 3)  # 511 | 7 * 73
    p1 = make_params(1)
    assert not invariant(p1, Family.X, 1, 1)
    with pytest.raises(ValueError):
        invariant(p1, Family.X, 0, 1)
    with pytest.raises(ValueError):
        invariant(p1, Family.X, 4, 1)  # above q^2/2 - 1
    with pytest.raises(ValueError):
        invariant(p1, Family.X, 1, 2)  # 2 does not divide 3


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_every_x_fixed_by_full_power(f):
    p = make_params(f)
    for i in range(1, p.q2 // 2):
        assert invariant(p, Family.X, i, p.out_order)


def test_y_invariant_examples():
    p1 = make_params(1)
    assert invariant(p1, Family.Y, 1, 3)
    assert not invariant(p1, Family.Y, 1, 1)
    p4 = make_params(4)
    assert invariant(p4, Family.Y, 109, 3)  # 109 = a1 / gcd(a1, q^2+8)
    assert invariant(p4, Family.Y, 109, 1)
    with pytest.raises(ValueError):
        invariant(p1, Family.Y, 12, 1)  # 12 is not canonical (class rep is 1)


def test_z_invariant_examples():
    p1 = make_params(1)
    assert invariant(p1, Family.Z, 1, 1)  # 5 | 8 + 2
    assert invariant(p1, Family.Z, 1, 3)
    p2 = make_params(2)
    assert not invariant(p2, Family.Z, 1, 1)  # 25 divides neither 30 nor 34


def test_x_witness_examples():
    assert checked_witness(make_params(4), Family.X, 3) == 73
    assert witness_for(make_params(1), Family.X, 1) is None
    assert checked_witness(make_params(7), Family.X, 5) == 1057
    assert checked_witness(make_params(1), Family.X, 3) == 1
    with pytest.raises(ValueError):
        witness_for(make_params(1), Family.X, 2)


def test_y_witness_examples():
    assert witness_for(make_params(1), Family.Y, 1) is None  # f == 1 (mod 4)
    p4 = make_params(4)
    assert witness_for(p4, Family.Y, 3) is None  # f == 0 (mod 4)
    assert checked_witness(p4, Family.Y, 1) == 109 == p4.a1 // 5
    assert checked_witness(p4, Family.Y, 9) == 1
    assert checked_witness(make_params(3), Family.Y, 1) == 29
    assert checked_witness(make_params(1), Family.Y, 3) == 1


def test_z_witness_examples():
    p1 = make_params(1)
    assert checked_witness(p1, Family.Z, 1) == 1
    assert witness_for(p1, Family.Z, 3) is None  # lone class is invariant
    assert witness_for(make_params(4), Family.Z, 1) is None  # f == 0 (mod 4)
    assert checked_witness(make_params(2), Family.Z, 1) == 5
    with pytest.raises(ValueError):
        witness_for(make_params(2), Family.Z, 3)  # 3 does not divide 5


def test_phi_invariant_label_on_five_divisible_torus():
    # whenever f == 0 or 3 (mod 4), 5 | a1 and Y at index a1/5 is
    # invariant under the automorphism itself; mirrored for a2
    for f in (3, 4, 7, 8):
        p = make_params(f)
        assert p.a1 % 5 == 0
        assert invariant(p, Family.Y, p.a1 // 5, 1)
    for f in (1, 2, 5, 6):
        p = make_params(f)
        assert p.a2 % 5 == 0
        assert invariant(p, Family.Z, p.a2 // 5, 1)


def test_exception_symmetry_between_y_and_z():
    # the witnessless f mod 4 classes swap between the two families:
    # {1, 2} <-> {0, 3}, and between n = 1 and n = 3 within a family
    def witnessless(family, n, reps):
        return {c for c, f in reps.items() if witness_for(make_params(f), family, n) is None}

    class_reps_n1 = {0: 4, 1: 1, 2: 2, 3: 3}
    assert witnessless(Family.Y, 1, class_reps_n1) == {1, 2}
    assert witnessless(Family.Z, 1, class_reps_n1) == {0, 3}
    class_reps_n3 = {0: 4, 1: 13, 2: 10, 3: 7}  # representatives with 3 | 2f+1
    assert witnessless(Family.Y, 3, class_reps_n3) == {0, 3}
    assert witnessless(Family.Z, 3, class_reps_n3) == {1, 2}


def test_exact_exponents_f1():
    p = make_params(1)
    assert exact_stabilizer_exponent(p, make_label(p, Family.X, 1)) == 3
    assert exact_stabilizer_exponent(p, make_label(p, Family.Y, 1)) == 3
    assert exact_stabilizer_exponent(p, make_label(p, Family.Z, 1)) == 1
    assert exact_stabilizer_exponent(p, make_label(p, Family.W, 1)) == 1
    assert exact_stabilizer_exponent(p, make_label(p, Family.ONE)) == 1
    assert exact_stabilizer_exponent(p, make_label(p, Family.ST)) == 1


def test_exponent_cross_check_raises_on_wrong_orbit_length(monkeypatch):
    p = make_params(1)
    label = make_label(p, Family.X, 1)
    assert exact_stabilizer_exponent(p, label) == 3
    monkeypatch.setattr(stabilizers, "_orbit_length", lambda p, label: 1)
    with pytest.raises(InvariantError):
        exact_stabilizer_exponent(p, label)


def test_orbit_oracle_f1():
    p = make_params(1)
    assert orbit_oracle(p, Family.X) == {3: 3}
    assert orbit_oracle(p, Family.Y) == {3: 3}
    assert orbit_oracle(p, Family.Z) == {1: 1}
    assert orbit_oracle(p, Family.ONE) == {1: 1}
    assert orbit_oracle(p, Family.W) == {1: 2}


def test_orbit_oracle_f2_f4():
    p2 = make_params(2)
    assert orbit_oracle(p2, Family.X) == {5: 15}
    assert orbit_oracle(p2, Family.Y) == {5: 10}
    assert orbit_oracle(p2, Family.Z) == {1: 1, 5: 5}
    p4 = make_params(4)
    y_hist = orbit_oracle(p4, Family.Y)
    assert y_hist == {1: 1, 9: 135}
    assert y_hist.get(3, 0) == 0  # the f == 0 (mod 4) exception at n = 3
    assert orbit_oracle(p4, Family.Z) == {3: 3, 9: 117}
    assert orbit_oracle(p4, Family.X) == {3: 3, 9: 252}


def test_orbit_oracle_budget():
    with pytest.raises(
        BudgetExceededError, match="^orbit enumeration: f 11 is over its limit of 10$"
    ):
        orbit_oracle(make_params(11), Family.X)


@pytest.mark.parametrize("f", range(1, 11))
def test_orbit_counts_match_oracle(f):
    p = make_params(f)
    for family in Family:
        assert orbit_counts(p, family) == orbit_oracle(p, family), (f, family)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_orbit_oracle_matches_per_label_exponents(f):
    # label by label through phi_power_on_label, sharing none of the
    # oracle's bookkeeping (tags, slices, fixed-pair counts by divisor)
    p = make_params(f)
    for family in TORUS_FAMILIES:
        naive = Counter(
            exact_stabilizer_exponent(p, make_label(p, family, i))
            for i in canonical_indices(p, family)
        )
        assert orbit_oracle(p, family) == dict(naive), (f, family)


def test_orbit_oracle_refuses_a_wrong_family_count(monkeypatch):
    # the fake takes effect at the (f, family) just enumerated: nothing is cached
    p = make_params(4)
    assert orbit_oracle(p, Family.Y) == {1: 1, 9: 135}

    def family_count(p, family):
        return (p.q2 + p.r) // 4 + p.out_order

    monkeypatch.setattr(stabilizers, "family_count", family_count)
    with pytest.raises(
        InvariantError, match="^f=4 Y: enumerated labels do not sum to the family count$"
    ):
        orbit_oracle(p, Family.Y)


def test_orbit_oracle_refuses_multipliers_not_closed_under_negation(monkeypatch):
    real_multipliers_of = stabilizers.multipliers_of

    def multipliers_of(p, family):  # X's multipliers {1, N - 1} lose N - 1
        return frozenset(m for m in real_multipliers_of(p, family) if m != p.a0 - 1)

    monkeypatch.setattr(stabilizers, "multipliers_of", multipliers_of)
    with pytest.raises(
        InvariantError, match="^f=2 X: the multipliers are not closed under negation$"
    ):
        orbit_oracle(make_params(2), Family.X)


def test_orbit_oracle_refuses_an_orbit_length_not_dividing_2f_plus_1(monkeypatch):
    # f = 2's X torus (order 15) swapped for Z/7, where doubling has order 3
    monkeypatch.setattr(stabilizers, "torus_order_of", lambda p, family: 7)
    monkeypatch.setattr(stabilizers, "multipliers_of", lambda p, family: frozenset((1, 6)))
    with pytest.raises(
        InvariantError, match="^f=2 X: a doubling orbit of length 3 does not divide 2f\\+1$"
    ):
        orbit_oracle(make_params(2), Family.X)
    # two pairs per class: f = 2's Y torus swapped for Z/13, 2^3 = -5 there
    monkeypatch.setattr(stabilizers, "torus_order_of", lambda p, family: 13)
    monkeypatch.setattr(
        stabilizers, "multipliers_of", lambda p, family: frozenset((1, 5, 8, 12))
    )
    with pytest.raises(
        InvariantError, match="^f=2 Y: a doubling orbit of length 3 does not divide 2f\\+1$"
    ):
        orbit_oracle(make_params(2), Family.Y)


def test_orbit_oracle_refuses_pairs_that_fill_no_whole_class(monkeypatch):
    # f = 2's Y torus swapped for Z/11: 2^5 = -1 puts every pair in one
    # 5-cycle, so the 2-pair classes of {1, 3, 8, 10} cannot share cycles
    monkeypatch.setattr(stabilizers, "torus_order_of", lambda p, family: 11)
    monkeypatch.setattr(
        stabilizers, "multipliers_of", lambda p, family: frozenset((1, 3, 8, 10))
    )
    with pytest.raises(
        InvariantError,
        match="^f=2 Y: 5 pairs of doubling period 5, not whole cycles of 2-pair classes$",
    ):
        orbit_oracle(make_params(2), Family.Y)


@pytest.mark.parametrize("f", range(1, 7))
def test_orbit_oracle_tags_only_filter_the_exact_test(f, monkeypatch):
    # With every tag equal, every pair is a candidate at every divisor, so
    # the histograms stand only if the exact test 2^k y == +-y decides.
    p = make_params(f)
    expected = {family: orbit_oracle(p, family) for family in Family}
    monkeypatch.setattr(stabilizers, "_TAGS", bytes(256))
    for family in Family:
        assert orbit_oracle(p, family) == expected[family], (f, family)


def test_orbit_counts_past_enumeration_budget():
    p = make_params(11)  # orbit_oracle refuses this f
    assert orbit_counts(p, Family.X) == {23: (p.q2 // 2 - 1)}
    y_hist = orbit_counts(p, Family.Y)
    assert y_hist == {1: 1, 23: (p.q2 + p.r) // 4 - 1}  # f == 3 (mod 4): a1/5 is invariant


def inclusion_exclusion_histogram(p, family):
    """The exact-exponent histogram by counting, the reference for orbit_counts.

    The n-th automorphism power fixes the class of a nonzero index j of
    Z/N iff 2^n j == m j for some multiplier m in M.  Each condition cuts
    out the subgroup ker(2^n - m) of order gcd(N, 2^n - m), and subgroups
    of a cyclic group meet in the subgroup of gcd order, so inclusion-
    exclusion over the nonempty subsets of M counts their union; less the
    index 0 and divided by |M|, that is the number of fixed classes
    (Burnside).  Shares no code with the gcd lemmas orbit_counts reads.
    """
    if family not in TORUS_FAMILIES:
        return {1: family_count(p, family)}
    order = torus_order_of(p, family)
    mult = sorted(multipliers_of(p, family))
    subsets = [s for size in range(1, len(mult) + 1) for s in combinations(mult, size)]
    exact = {}
    for n in divisors_of(p.out_order):
        two_n = pow(2, n, order)
        union = sum(
            (-1) ** (len(s) + 1) * math.gcd(order, *(two_n - m for m in s)) for s in subsets
        )
        assert (union - 1) % len(mult) == 0, (p.f, family, n)
        exact[n] = (union - 1) // len(mult) - sum(c for k, c in exact.items() if n % k == 0)
    return {n: c for n, c in exact.items() if c}


@pytest.mark.parametrize("f", [9, 10])
def test_orbit_oracle_matches_inclusion_exclusion_where_only_it_enumerates(f, monkeypatch):
    # Past the per-label test's f <= 4, and past what the sweeps' other
    # routes enumerate, orbit_oracle is the only enumeration.  Every closed
    # form fails if reached: an oracle that read the derived route would
    # compare it with itself in `verify stabilizers` and `verify theorem-a`.
    def closed_form(*args):
        raise AssertionError("orbit_oracle reached a closed form")

    for name in ("orbit_counts", "witness_for", "is_witnessless"):
        monkeypatch.setattr(stabilizers, name, closed_form)
    for name, fn in list(vars(numtheory).items()):
        if inspect.isfunction(fn) and fn.__module__ == numtheory.__name__:
            monkeypatch.setattr(numtheory, name, closed_form)
    p = make_params(f)
    for family in TORUS_FAMILIES:
        assert orbit_oracle(p, family) == inclusion_exclusion_histogram(p, family), (f, family)


def test_orbit_counts_match_inclusion_exclusion():
    for f in [*range(1, 501), 30000]:
        p = make_params(f)
        for family in Family:
            assert orbit_counts(p, family) == inclusion_exclusion_histogram(p, family), (f, family)


def test_orbit_counts_near_f_max_agree_with_the_exception_table():
    p = make_params(37537)  # 2f+1 = 75075 has 48 divisors
    started = time.perf_counter()
    hists = {family: orbit_counts(p, family) for family in TORUS_FAMILIES}
    elapsed = time.perf_counter() - started
    for family, counts in hists.items():
        assert sum(counts.values()) == family_count(p, family), family
        for n in divisors_of(p.out_order):
            assert is_witnessless(p, family, n) == (n not in counts), (family, n)
        assert_full_power_witness(p, family)
    assert elapsed < 0.5, elapsed  # inclusion-exclusion over these 75,000-bit gcds takes 2.3 s


@pytest.mark.parametrize(
    "gcds, message",
    [
        ({1: (2, 2), 3: (1, 1)}, "n=1: 2 fixed indices, not 4 per label"),
        ({1: (1, 1), 3: (1, 9)}, "n=3: 2 labels, not whole orbits"),
    ],
    ids=["fixed-indices", "orbits"],
)
def test_orbit_counts_refuse_gcds_that_break_an_invariant(monkeypatch, gcds, message):
    def gcd_torus(p, order, n, sign):
        return GcdCase(gcds[n][sign > 0], "none")

    monkeypatch.setattr(numtheory, "gcd_torus", gcd_torus)
    with pytest.raises(InvariantError, match=f"^f=4 Y {message}$"):
        orbit_counts(make_params(4), Family.Y)


def test_orbit_counts_refuse_an_x_kernel_order_that_splits_a_label(monkeypatch):
    # 2^n in place of gcd(q^2-1, 2^n-1) = 2^n-1 on the split torus: at n = 1
    # the kernels hold 2 + 1 - 2 = 1 nonzero index, not whole pairs {i, -i}
    def gcd_torus(p, order, n, sign):
        assert order == p.a0
        return GcdCase(1 << n if sign < 0 else 1, "none")

    monkeypatch.setattr(numtheory, "gcd_torus", gcd_torus)
    with pytest.raises(InvariantError, match="^f=4 X n=1: 1 fixed indices, not 2 per label$"):
        orbit_counts(make_params(4), Family.X)


def test_witness_for_refuses_two_nontrivial_kernels(monkeypatch):
    p = make_params(4)
    assert not is_witnessless(p, Family.Y, 1)
    monkeypatch.setattr(numtheory, "gcd_torus", lambda p, order, n, sign: GcdCase(5, "none"))
    with pytest.raises(InvariantError, match="^f=4 Y n=1: 2 nontrivial kernels, expected 1$"):
        witness_for(p, Family.Y, 1)


def direct_witness(p, family, n):
    """The witness from one gcd per multiplier, a reference that reads no gcd lemma.

    The canonical representative of N // gcd(N, 2^n - m), for the one
    multiplier m whose gcd with the torus order N is nontrivial.
    """
    if is_witnessless(p, family, n):
        return None
    order = torus_order_of(p, family)
    two_n = pow(2, n, order)
    gcds = [math.gcd(order, two_n - m) for m in multipliers_of(p, family)]
    nontrivial = [g for g in gcds if g > 1]
    assert len(nontrivial) == 1, (p.f, family, n, gcds)
    return canonicalize(p, family, order // nontrivial[0])


def test_witness_for_matches_the_direct_gcd_route():
    # past enumeration's f <= 10; 2f+1 = 2015 = 5 * 13 * 31 has 8 divisors
    for f in [*range(1, 301), 1007]:
        p = make_params(f)
        for family in TORUS_FAMILIES:
            for n in divisors_of(p.out_order):
                w = witness_for(p, family, n)
                assert w == direct_witness(p, family, n), (f, family, n)
                assert w is None or canonicalize(p, family, w) == w, (f, family, n)


def test_orbit_counts_refuse_a_family_count_the_torus_order_does_not_give(monkeypatch):
    # F(2f+1) comes from the torus order, so a wrong family count cannot
    # absorb the difference: f = 4 Y is {1: 1, 9: 135}, not {1: 1, 9: 144}
    p = make_params(4)
    assert orbit_counts(p, Family.Y) == {1: 1, 9: 135}

    def family_count(p, family):
        return (p.q2 + p.r) // 4 + p.out_order

    monkeypatch.setattr(stabilizers, "family_count", family_count)
    with pytest.raises(
        InvariantError, match="^f=4 Y: exponent counts do not sum to the family count$"
    ):
        orbit_counts(p, Family.Y)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
def test_invariance_predicates_match_orbit_dynamics(f):
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        for idx in canonical_indices(p, family):
            label = make_label(p, family, idx)
            for n in divisors_of(p.out_order):
                predicted = _invariant(p, label, n)
                actual = phi_power_on_label(p, label, n) == label
                assert predicted == actual, (f, family, idx, n)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_invariance_matches_exact_value_vectors(f):
    # ties the divisibility criteria back to genuine character-value
    # equality in Z[zeta], with no congruence shortcuts
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        order = torus_order_of(p, family)
        for idx in canonical_indices(p, family):
            label = make_label(p, family, idx)
            for n in divisors_of(p.out_order):
                predicted = _invariant(p, label, n)
                actual = all(
                    equals(
                        torus_value(p, label, l),
                        torus_value(p, label, (-l * pow(2, n, order)) % order or order),
                    )
                    for l in range(1, order + 1)
                )
                assert predicted == actual, (f, family, idx, n)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
def test_witnesses_agree_with_oracle(f):
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        hist = orbit_oracle(p, family)
        for n in divisors_of(p.out_order):
            w = witness_for(p, family, n)
            assert (w is not None) == (hist.get(n, 0) > 0), (f, family, n)
            if w is not None:
                assert exact_stabilizer_exponent(p, make_label(p, family, w)) == n


def test_witness_for_rejects_non_torus_families():
    p = make_params(1)
    with pytest.raises(ValueError):
        witness_for(p, Family.W, 1)


@given(st.integers(min_value=1, max_value=500))
def test_witnessless_table_matches_counting(f):
    # the 5 | N rule that witness_for and the closed form read,
    # against orbit_counts, which reads the gcd lemmas instead
    p = make_params(f)
    for family in (Family.X, Family.Y, Family.Z):
        counts = orbit_counts(p, family)
        for n in divisors_of(p.out_order):
            assert is_witnessless(p, family, n) == (counts.get(n, 0) == 0), (f, family, n)
        assert_full_power_witness(p, family)


def test_witnessless_exponents_are_theorem_a_in_its_f_mod_4_form():
    # Theorem A at G = Aut(S): a != 1; if f == 1, 2 (mod 4), b != 1 and
    # c != 3; if f == 0, 3 (mod 4), b != 3 and c != 1.  a multiplies X's
    # degree, b Y's and c Z's; the degree and torus criss-cross, Y's degree
    # being (q^2-r+1)(q^2-1) and its torus q^2+r+1.
    for f in [*range(1, 2001), 37537, 38000]:
        p = make_params(f)
        assert (degree_of(p, Family.Y), torus_order_of(p, Family.Y)) == (p.a2 * p.a0, p.a1)
        assert (degree_of(p, Family.Z), torus_order_of(p, Family.Z)) == (p.a1 * p.a0, p.a2)
        for family in TORUS_FAMILIES:  # theta(1) = |S|_2' / |T|
            assert degree_of(p, family) * torus_order_of(p, family) == (p.q4 + 1) * p.a0
        # 5 divides q^4 + 1 = a1 * a2, so exactly one of them, and never q^2 - 1
        assert (p.a1 % 5 == 0) != (p.a2 % 5 == 0) and p.a0 % 5 != 0, f
        b, c = ({1}, {3}) if f % 4 in (1, 2) else ({3}, {1})
        excluded = {Family.X: {1}, Family.Y: b, Family.Z: c}
        for family, ns in excluded.items():
            for n in (1, 3):
                if p.out_order % n == 0:
                    assert is_witnessless(p, family, n) == (n in ns), (f, family, n)


def test_the_degree_and_torus_criss_cross_has_one_source(monkeypatch):
    # Y and Z swapped in torus_order_of: the degrees and the Aut(S)
    # exceptions both follow the torus, so no degree set changes
    def closed_forms():
        return [
            cd_closed_form(p, divisors_of(p.out_order)) for p in map(make_params, range(1, 41))
        ]

    real = closed_forms()
    swap = {Family.Y: Family.Z, Family.Z: Family.Y}
    swapped = lambda p, family: torus_order_of(p, swap.get(family, family))
    monkeypatch.setattr(characters, "torus_order_of", swapped)
    monkeypatch.setattr(stabilizers, "torus_order_of", swapped)
    p = make_params(1)
    assert characters.torus_order_of(p, Family.Y) == torus_order_of(p, Family.Z)
    assert closed_forms() == real


def test_the_orbit_counts_follow_the_relabelled_torus(monkeypatch):
    # Y and Z swapped in torus_order_of and family_count: the kernel orders
    # read each family's torus from torus_order_of alone, so the exponent
    # histograms of Y and Z trade places
    families = (Family.Y, Family.Z)
    real = {(f, fam): orbit_counts(make_params(f), fam) for f in range(1, 41) for fam in families}
    swap = {Family.Y: Family.Z, Family.Z: Family.Y}
    for name, fn in (("torus_order_of", torus_order_of), ("family_count", family_count)):
        relabelled = lambda p, family, fn=fn: fn(p, swap.get(family, family))
        monkeypatch.setattr(characters, name, relabelled)
        monkeypatch.setattr(stabilizers, name, relabelled)
    p = make_params(1)
    assert characters.family_count(p, Family.Y) == family_count(p, Family.Z)
    for (f, family), hist in real.items():
        assert orbit_counts(make_params(f), swap[family]) == hist, (f, family)


def test_is_witnessless_rejects_bad_input():
    p = make_params(4)
    with pytest.raises(ValueError, match="^family W has no indexing torus$"):
        is_witnessless(p, Family.W, 1)
    with pytest.raises(ValueError):
        is_witnessless(p, Family.Y, 5)  # 5 does not divide 9
