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
verification.verify_degree_count_bounds checks as an exact count).  The
family degrees depend on f alone: that sweep computes them once per f
and builds each d's set through _closed_form, as cd_closed_form does.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from .characters import Family, TORUS_FAMILIES, degree_of
from .errors import InvariantError
from .params import Record, SuzukiParams, divisors_of, require_divisor
from .stabilizers import is_witnessless, orbit_counts, orbit_oracle


class ExtensionSpec(Record):
    """A group S <= G <= Aut(S) with |G : S| = d, d | 2f+1; ``params``
    is the SuzukiParams of S."""

    __slots__ = ("params", "d")

    def _validate(self) -> None:
        require_divisor(self.params, "d", self.d)

    @property
    def is_aut(self) -> bool:
        return self.d == self.params.out_order

    @property
    def order(self) -> int:
        return self.d * self.params.group_order


def cd_closed_form(spec: ExtensionSpec) -> frozenset[int]:
    """The degree set of G, straight from the closed form above."""
    return _closed_form(spec, _family_degrees(spec.params))


def cd_multiset(spec: ExtensionSpec) -> dict[int, int]:
    """Degree -> multiplicity of G by Clifford counting over orbit_counts.

    The production route for multiplicities: exact at every accepted f,
    with the same global sum rules enforced as cd_oracle.  Raises
    InvariantError unless its degree set equals cd_closed_form(spec).
    """
    result = _clifford_multiset(spec, orbit_counts)
    closed = cd_closed_form(spec)
    if result.keys() != closed:
        raise InvariantError(
            f"f={spec.params.f} d={spec.d}: counted degrees "
            f"{list(result)} differ from the closed form {sorted(closed)}"
        )
    return result


def cd_oracle(spec: ExtensionSpec) -> dict[int, int]:
    """Degree -> multiplicity of G by Clifford counting over all of Irr(S).

    Uses the brute-force orbit histograms, so it inherits their
    f <= ORACLE_F_MAX budget.
    """
    return _clifford_multiset(spec, orbit_oracle)


def _family_degrees(p: SuzukiParams) -> dict[Family, int]:
    """W's and each torus family's degree, which depend on f alone, so a
    sweep over the d of one f computes them once."""
    return {family: degree_of(p, family) for family in (Family.W, *TORUS_FAMILIES)}


def _closed_form(spec: ExtensionSpec, degrees: dict[Family, int]) -> frozenset[int]:
    """cd_closed_form(spec), given _family_degrees(spec.params)."""
    p = spec.params
    degs = {1, p.q4, degrees[Family.W]}
    divisors = divisors_of(spec.d)
    for family in TORUS_FAMILIES:
        for v in divisors:
            if not (spec.is_aut and is_witnessless(p, family, v)):
                degs.add(degrees[family] * v)
    return frozenset(degs)


def _clifford_multiset(
    spec: ExtensionSpec,
    histogram: Callable[[SuzukiParams, Family], Mapping[int, int]],
) -> dict[int, int]:
    """Aggregate the Clifford counts of every family's exponent histogram
    into a fresh dict from degree to multiplicity, in ascending degree order.

    Raises InvariantError unless every count splits into G-orbits, the
    invariant families give 4d characters, the class counts sum to
    q^2 + 3, no two (family, orbit size) pairs merge into one degree and
    the squared degrees sum to |G|.  That sum is taken per family, as
    theta(1)^2 times the sum of s^2 * characters over its orbit sizes s,
    so no degree of the result is squared.
    """
    p = spec.params
    e = p.out_order // spec.d
    entries: dict[int, int] = {}
    pairs: set[tuple[Family, int]] = set()  # distinct (family, orbit size s)
    invariant_chars = classes = square_sum = 0
    for family in Family:
        theta_deg = degree_of(p, family)
        family_sum = 0  # s^2 * characters over the family's orbit sizes s
        for m, cnt in histogram(p, family).items():
            classes += cnt
            s = m // math.gcd(e, m)  # G-orbit size of each such label
            if cnt % s or spec.d % s:
                raise InvariantError(
                    f"f={p.f} d={spec.d} {family.value}: the labels of exponent {m} "
                    f"do not split into G-orbits of size {s}"
                )
            contributed = (cnt // s) * (spec.d // s)
            deg = theta_deg * s
            entries[deg] = entries.get(deg, 0) + contributed
            pairs.add((family, s))
            family_sum += s * s * contributed
            if family not in TORUS_FAMILIES:
                invariant_chars += contributed
        square_sum += theta_deg * theta_deg * family_sum
    # ONE and ST extend to d characters each, the two W's to 2d total
    if invariant_chars != 4 * spec.d:
        raise InvariantError(
            f"f={p.f} d={spec.d}: ONE/ST/W give {invariant_chars} characters, not 4d"
        )
    if classes != p.q2 + 3:
        raise InvariantError(f"f={p.f} d={spec.d}: the class counts sum to {classes}, not q^2+3")
    if len(pairs) != len(entries):
        raise InvariantError(
            f"f={p.f} d={spec.d}: {len(pairs)} (family, orbit size) pairs "
            f"give only {len(entries)} degrees"
        )
    if square_sum != spec.order:
        raise InvariantError(f"f={p.f} d={spec.d}: squared degrees do not sum to |G|")
    return dict(sorted(entries.items()))

