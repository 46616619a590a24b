import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from suzuki_cd.characters import Family, degree_of, family_count
from suzuki_cd.cli import main
from suzuki_cd.degrees import _clifford_multiset, cd_closed_form, cd_multiset, cd_oracle
from suzuki_cd.errors import BudgetExceededError, InvariantError
from suzuki_cd.params import divisors_of, make_params
from suzuki_cd.stabilizers import orbit_counts


def sum_of_squares(multiset):
    """The sum of deg^2 * multiplicity: |G| for a degree multiset of G."""
    return sum(deg * deg * mult for deg, mult in multiset.items())


@pytest.mark.parametrize(
    "route", [cd_closed_form, cd_multiset, cd_oracle], ids=["closed-form", "multiset", "oracle"]
)
def test_every_route_wants_each_index_to_divide_2f_plus_1(route):
    p = make_params(1)
    assert list(route(p, [3, 1])) == [3, 1]  # keyed in the order of ds
    assert route(p, []) == {}
    for bad in (0, 2, 4, -1):
        with pytest.raises(ValueError, match=f"d must divide 2f\\+1=3, got {bad}"):
            route(p, [1, bad])


def test_closed_form_sz8():
    assert cd_closed_form(make_params(1), [1]) == {1: {1, 14, 35, 64, 65, 91}}


def test_closed_form_aut_sz8():
    got = cd_closed_form(make_params(1), [3])[3]
    assert got == {1, 14, 64, 91, 105, 195}
    # the three exceptions at f == 1 (mod 4), G = Aut(S):
    assert 65 not in got  # a != 1
    assert 35 not in got  # b != 1
    assert 3 * 91 not in got  # c != 3


def test_closed_form_f2_d5():
    assert cd_closed_form(make_params(2), [5])[5] == {1, 124, 1024, 1271, 3875, 5125, 6355}


def test_closed_form_f4_d9():
    assert cd_closed_form(make_params(4), [9])[9] == {
        1,
        8176,  # r(q^2-1)/2
        262144,  # q^4
        786435,  # (q^4+1) * 3
        2359305,  # (q^4+1) * 9
        245791,  # (q^2-r+1)(q^2-1) * 1
        2212119,  # * 9 (b = 3 excluded at f == 0 mod 4)
        835485,  # (q^2+r+1)(q^2-1) * 3 (c = 1 excluded)
        2506455,  # * 9
    }


def test_counted_degrees_over_each_family_f1():
    # X, Y, Z give {195}, {105}, {91} over Aut(S) and {65}, {35}, {91}
    # over S; ONE, ST and W give 1, 64 and 14
    p = make_params(1)
    expected = {3: {1, 14, 64, 91, 105, 195}, 1: {1, 14, 35, 64, 65, 91}}
    counted, oracle = cd_multiset(p, [3, 1]), cd_oracle(p, [3, 1])
    for d, degrees in expected.items():
        assert counted[d].keys() == degrees
        assert oracle[d].keys() == degrees


def test_counted_degrees_f4_d9():
    p = make_params(4)
    y_base = degree_of(p, Family.Y)
    degrees = cd_multiset(p, [9])[9].keys()
    assert y_base in degrees and 9 * y_base in degrees
    assert 3 * y_base not in degrees  # b = 3 missing
    assert degrees == cd_oracle(p, [9])[9].keys()


def test_counted_degrees_attain_one_through_invariant_label():
    # f == 4, d == 3: G is generated by the cube of the automorphism,
    # the exponent-3 witness is excluded, yet b = 1 is attained via the
    # invariant label with exponent 1
    p = make_params(4)
    y_base = degree_of(p, Family.Y)
    degrees = cd_multiset(p, [3])[3].keys()
    assert y_base in degrees and 3 * y_base in degrees
    assert degrees == cd_oracle(p, [3])[3].keys()


def test_oracle_sz8():
    p = make_params(1)
    ms = cd_oracle(p, [1])[1]
    assert ms == {1: 1, 14: 2, 35: 3, 64: 1, 65: 3, 91: 1}
    assert sum_of_squares(ms) == 29120
    assert sum(ms.values()) == 11
    ms[1] = 99  # each call returns a fresh dict
    assert cd_oracle(p, [1])[1][1] == cd_multiset(p, [1])[1][1] == 1


def test_oracle_aut_sz8():
    ms = cd_oracle(make_params(1), [3])[3]
    assert ms == {1: 3, 14: 6, 64: 3, 91: 3, 105: 1, 195: 1}
    assert sum_of_squares(ms) == 3 * 29120


def test_oracle_f2_d5():
    p = make_params(2)
    ms = cd_oracle(p, [5])[5]
    assert ms == {1: 5, 124: 10, 1024: 5, 1271: 5, 3875: 2, 5125: 3, 6355: 1}
    assert ms.keys() == cd_closed_form(p, [5])[5]


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        cd_oracle(make_params(11), [1])


@pytest.mark.parametrize("f", range(1, 11))
def test_oracle_matches_closed_form(f):
    p = make_params(f)
    ds = divisors_of(p.out_order)
    closed, counted, oracle = cd_closed_form(p, ds), cd_multiset(p, ds), cd_oracle(p, ds)
    assert list(closed) == list(counted) == list(oracle) == ds
    for d in ds:
        # both are plain dicts in ascending degree order
        assert type(counted[d]) is type(oracle[d]) is dict, (f, d)
        assert list(counted[d]) == sorted(counted[d]), (f, d)
        assert list(oracle[d]) == sorted(oracle[d]), (f, d)
        assert oracle[d].keys() == closed[d], (f, d)
        assert counted[d] == oracle[d], (f, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=500))
def test_counting_route_sum_rules(f):
    p = make_params(f)
    for family in Family:
        hist = orbit_counts(p, family)
        assert all(p.out_order % n == 0 for n in hist), (f, family, hist)
        assert sum(hist.values()) == family_count(p, family), (f, family)
    ds = divisors_of(p.out_order)
    closed = cd_closed_form(p, ds)
    for d, multiset in cd_multiset(p, ds).items():
        assert type(multiset) is dict and list(multiset) == sorted(multiset), (f, d)
        assert sum_of_squares(multiset) == d * p.group_order, (f, d)
        assert multiset.keys() == closed[d], (f, d)


def family_degrees(p):
    """theta(1) of each family, as _clifford_multiset takes them."""
    return {fam: degree_of(p, fam) for fam in Family}


@pytest.mark.parametrize(
    "family, corrupted",
    [
        # (histogram, the message it is refused with), at f = 1, d = 3
        (Family.X, ({3: 4}, "do not split into G-orbits of size 3")),
        # splits into orbits, but X now has 6 labels, not 3
        (Family.X, ({3: 6}, "the class counts sum to 14")),
        (Family.W, ({1: 3}, "ONE/ST/W give 15 characters, not 4d")),
        # the lone Z label counted twice
        (Family.Z, ({1: 2}, "the class counts sum to 12")),
    ],
)
def test_clifford_rejects_corrupted_histogram(family, corrupted):
    p = make_params(1)
    counts, message = corrupted

    counted = {fam: orbit_counts(p, fam) for fam in Family}
    assert _clifford_multiset(p, [3], family_degrees(p), counted) == cd_oracle(p, [3])
    with pytest.raises(InvariantError, match=message):
        _clifford_multiset(p, [3], family_degrees(p), {**counted, family: counts})


@pytest.mark.parametrize(
    "family, fake, message",
    [
        # Z's degree 91 given to Y's 35: six (family, 1) pairs, five degrees
        (Family.Z, lambda p: degree_of(p, Family.Y), "6 .* pairs give only 5 degrees"),
        # W's degree 14 moved to 16, which no other family has
        (Family.W, lambda p: degree_of(p, Family.W) + 2, "squared degrees do not sum to"),
    ],
    ids=["shared-degree", "square-sum"],
)
def test_clifford_rejects_a_wrong_family_degree(family, fake, message):
    # at S and at Aut(S) in one call: the squared degrees, one check for
    # every d, fail once, after each d's own checks have passed
    p = make_params(1)
    counted = {fam: orbit_counts(p, fam) for fam in Family}
    degrees = family_degrees(p)
    assert _clifford_multiset(p, [1, 3], degrees, counted) == cd_oracle(p, [1, 3])
    with pytest.raises(InvariantError, match=message):
        _clifford_multiset(p, [1, 3], {**degrees, family: fake(p)}, counted)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5, 6])
def test_every_degree_is_s_degree_times_divisor(f):
    p = make_params(f)
    sets = cd_closed_form(p, divisors_of(p.out_order))
    s_degrees = sets[1]
    for d, degrees in sets.items():
        divisors_d = divisors_of(d)
        for deg in degrees:
            assert any(
                deg % e == 0 and deg // e in divisors_d for e in s_degrees
            ), (f, d, deg)


def test_closed_form_near_f_max_divides_no_product_of_tori():
    # each torus family's degree multiplies the other two torus orders;
    # dividing a0 * a1 * a2 by the third took about 4 s over these 48 sets
    p = make_params(37537)  # 2f+1 = 75075 has 48 divisors
    started = time.perf_counter()
    sets = cd_closed_form(p, divisors_of(p.out_order))
    elapsed = time.perf_counter() - started
    assert len(sets) == 48 and len(sets[1]) == 6
    assert elapsed < 1.0, elapsed


def test_degree_counts_of_proper_extensions():
    # Corollary B's counts, 3 + 3 tau(d) less 2 + [3 | d] at Aut(S): the
    # sharp 6 at f = 1, and the sharp 7 and 9 for prime and composite d
    for f, d, count in [(1, 3, 6), (2, 5, 7), (4, 9, 9), (4, 3, 9)]:
        assert len(cd_closed_form(make_params(f), [d])[d]) == count, (f, d)


def cd_json_payload(capsys, f, d):
    """The JSON object that ``cd --json`` prints for one extension."""
    assert main(["cd", "--f", str(f), "--d", str(d), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_json_payload_with_oracle(capsys):
    payload = cd_json_payload(capsys, 1, 3)
    assert payload["f"] == 1 and payload["d"] == 3
    assert payload["q2"] == "8"
    assert payload["verified_against_oracle"] is True
    assert payload["degrees"][0] == {"degree": "1", "multiplicity": 3}
    degrees = [int(item["degree"]) for item in payload["degrees"]]
    assert degrees == sorted(degrees)


def test_json_payload_closed_form_only(capsys):
    payload = cd_json_payload(capsys, 31, 63)
    assert payload["verified_against_oracle"] is False
    assert all(item["multiplicity"] is None for item in payload["degrees"])
    assert payload["q2"] == str(1 << 63)
    # big degrees survive exactly as decimal strings
    assert all(int(item["degree"]) >= 1 for item in payload["degrees"])
