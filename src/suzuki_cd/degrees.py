"""Character degree sets of groups between S = Sz(q^2) and Aut(S).

A group S <= G <= Aut(S) is determined by its index d | 2f+1 over S:
G is generated over S by the e-th power of the field automorphism,
where e = (2f+1)/d.  Since the outer automorphism group is cyclic,
every character of S extends to its stabilizer in G, and the degrees of
G over a character theta of S are exactly |G : I_G(theta)| * theta(1).

For theta with exact stabilizer exponent m, the stabilizer in G is
generated over S by the lcm(e, m)-th automorphism power, so theta's
G-orbit has size s = m / gcd(e, m) and contributes d/s irreducible
characters of G, all of degree s * theta(1).  Aggregating over Irr(S)
gives the degree multiset, a plain dict from degree to multiplicity in
ascending degree order, from orbit histograms derived from the gcd
lemmas (cd_multiset, any f) or from enumerated ones (cd_oracle,
f <= ORACLE_F_MAX); the closed form below is what its keys must equal,
and cd_multiset raises InvariantError when they do not.

The histograms and the degrees theta(1) depend on f alone, and d
enters only through e.  So cd_closed_form, cd_multiset and cd_oracle
each take one f's params p and the indices ds, and return {d: ...} in
the order of ds: a call computes the six family degrees once, and the
two counting routes build the six histograms once, for every d.

Closed form: cd(G) is

    {1, q^4, r(q^2-1)/2}
    union {(q^4+1) a          : a | d}
    union {(q^2-r+1)(q^2-1) b : b | d}
    union {(q^2+r+1)(q^2-1) c : c | d}

with exceptions only when G = Aut(S) (d = 2f+1):

    (i)   a != 1;
    (ii)  if f == 1 or 2 (mod 4): b != 1 and c != 3;
    (iii) if f == 0 or 3 (mod 4): b != 3 and c != 1.

At Aut(S) a label of exact stabilizer exponent v has a G-orbit of size
v, so the excluded multiples are exactly the witnessless exponents of
stabilizers.is_witnessless.  It derives them from which torus order 5
divides (a1 when f == 0 or 3 (mod 4), else a2; never q^2 - 1), which is
(i)-(iii) again: a is X's multiple, b is Y's (torus q^2+r+1) and c is
Z's.  cd_closed_form reads that rule and shares no code with the
derived histograms (orbit_counts).  All the products above are pairwise
distinct, so cardinalities add up: |cd(G)| = 3 + 3 tau(d), tau(d) the
number of divisors of d, less 2 + [3 | d] at Aut(S) (Corollary B, which
verification.verify_degree_count_bounds checks as an exact count).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .characters import Family, TORUS_FAMILIES, degree_of
from .errors import InvariantError
from .params import SuzukiParams, divisors_of, require_divisor
from .stabilizers import is_witnessless, orbit_counts, orbit_oracle


def cd_closed_form(p: SuzukiParams, ds: Iterable[int]) -> dict[int, frozenset[int]]:
    """d -> the degree set of G with |G : S| = d, for each d of ds in
    order, straight from the closed form above."""
    degrees = _family_degrees(p)
    return {d: _closed_form(p, d, degrees) for d in ds}


def cd_multiset(p: SuzukiParams, ds: Iterable[int]) -> dict[int, dict[int, int]]:
    """d -> degree -> multiplicity of G, for each d of ds in order, by
    Clifford counting over orbit_counts.

    The production route for multiplicities: exact at every accepted f,
    with the same global sum rules enforced as cd_oracle.  Raises
    InvariantError unless each d's degree set is the closed form's.
    """
    degrees = _family_degrees(p)
    result = _clifford_multiset(p, ds, degrees, {fam: orbit_counts(p, fam) for fam in Family})
    for d, multiset in result.items():
        closed = _closed_form(p, d, degrees)
        if multiset.keys() != closed:
            raise InvariantError(
                f"f={p.f} d={d}: counted degrees "
                f"{list(multiset)} differ from the closed form {sorted(closed)}"
            )
    return result


def cd_oracle(p: SuzukiParams, ds: Iterable[int]) -> dict[int, dict[int, int]]:
    """d -> degree -> multiplicity of G, for each d of ds in order, by
    Clifford counting over all of Irr(S).

    Uses the brute-force orbit histograms, so it inherits their
    f <= ORACLE_F_MAX budget.
    """
    histograms = {fam: orbit_oracle(p, fam) for fam in Family}
    return _clifford_multiset(p, ds, _family_degrees(p), histograms)


def _family_degrees(p: SuzukiParams) -> dict[Family, int]:
    return {family: degree_of(p, family) for family in Family}


def _closed_form(p: SuzukiParams, d: int, degrees: Mapping[Family, int]) -> frozenset[int]:
    """The degree set of G with |G : S| = d, given _family_degrees(p)."""
    require_divisor(p, "d", d)
    degs = {1, p.q4, degrees[Family.W]}
    divisors = divisors_of(d)
    for family in TORUS_FAMILIES:
        for v in divisors:
            if not (d == p.out_order and is_witnessless(p, family, v)):
                degs.add(degrees[family] * v)
    return frozenset(degs)


def _clifford_multiset(
    p: SuzukiParams,
    ds: Iterable[int],
    degrees: Mapping[Family, int],
    histograms: Mapping[Family, Mapping[int, int]],
) -> dict[int, dict[int, int]]:
    """d -> the Clifford counts of every family's exponent histogram,
    histograms[family], of degree degrees[family] times each orbit size,
    as a fresh dict from degree to multiplicity in ascending degree
    order, for each d of ds in order.

    Raises InvariantError unless, at each d, every count splits into
    G-orbits, the invariant families give 4d characters, the class
    counts sum to q^2 + 3 and no two (family, orbit size) pairs merge
    into one degree; then, once, unless the class equation holds: the
    sum over families of theta(1)^2 times its label count is |S|.  With
    the per-d checks made, a family's share of the sum of deg^2 *
    multiplicity at d is d * theta(1)^2 * its label count, so that sum is
    |G| = d |S| at every d exactly when the class equation holds.
    """
    result = {}
    for d in ds:
        require_divisor(p, "d", d)
        e = p.out_order // d
        counts: dict[tuple[Family, int], int] = {}  # (family, orbit size s) -> characters
        invariant_chars = classes = 0
        for family in Family:
            for m, cnt in histograms[family].items():
                classes += cnt
                s = m // math.gcd(e, m)  # G-orbit size of each such label
                if cnt % s or d % s:
                    raise InvariantError(
                        f"f={p.f} d={d} {family.value}: the labels of exponent {m} "
                        f"do not split into G-orbits of size {s}"
                    )
                contributed = (cnt // s) * (d // s)
                counts[family, s] = counts.get((family, s), 0) + contributed
                if family not in TORUS_FAMILIES:
                    invariant_chars += contributed
        # ONE and ST extend to d characters each, the two W's to 2d total
        if invariant_chars != 4 * d:
            raise InvariantError(
                f"f={p.f} d={d}: ONE/ST/W give {invariant_chars} characters, not 4d"
            )
        if classes != p.q2 + 3:
            raise InvariantError(f"f={p.f} d={d}: the class counts sum to {classes}, not q^2+3")
        entries = {degrees[family] * s: cnt for (family, s), cnt in counts.items()}
        if len(entries) != len(counts):
            raise InvariantError(
                f"f={p.f} d={d}: {len(counts)} (family, orbit size) pairs "
                f"give only {len(entries)} degrees"
            )
        result[d] = dict(sorted(entries.items()))
    squares = sum(degrees[fam] ** 2 * sum(histograms[fam].values()) for fam in Family)
    if squares != p.group_order:
        raise InvariantError(f"f={p.f}: squared degrees do not sum to |S|")
    return result
