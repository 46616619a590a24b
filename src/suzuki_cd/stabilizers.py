"""Stabilizers of characters under the field automorphism.

For a divisor n of 2f+1, a torus label with index i is fixed by the
n-th power of the field automorphism iff the torus order N divides
(2^n - m) i for some multiplier m of the family.  Spelled out:

- X_i:  q^2 - 1 divides (2^n - 1) i
- Y_j:  q^2 + r + 1 divides (q^2 - 2^n) j or (q^2 + 2^n) j
- Z_k:  same with q^2 - r + 1

The *exact stabilizer exponent* of a label is the least such n; the
orbit of the label under index-doubling has exactly that size.
witness_for constructs, for each admissible n, a label whose exact
exponent is n, and returns None exactly when no label in the family has
exact exponent n.  is_witnessless holds the table of those cases, the
single copy the closed form of theorem A also reads (its Aut(S)
exclusions are these exponents): X at n = 1 (nothing is fixed by the
whole automorphism group) and, for Y and Z, an f mod 4 table that the
two families mirror:

=======  ================  ================
family   n = 1             n = 3
=======  ================  ================
Y        f == 1, 2 (4)     f == 0, 3 (4)
Z        f == 0, 3 (4)     f == 1, 2 (4)
=======  ================  ================

Every other n dividing 2f+1 has a witness.  The n = 3 exceptions
happen because the gcds at exponents 3 and 1 coincide (see
coincidence_classify): anything fixed by the cube of the automorphism
is already fixed by the automorphism itself.  They apply even at f = 1
where n = 3 is all of 2f+1; the lone Z class of Sz(8) is invariant, so
nothing there has exact exponent 3.

The histogram of exact exponents over a whole family comes from
counting (orbit_counts, gcds only, every accepted f); it is the only
route the command line and cd_multiset use.  An independent brute-force
oracle (orbit_oracle) enumerates the index-doubling dynamics of the
family instead; it runs only in the verification sweeps and tests, and
is budgeted to f <= ORACLE_F_MAX (largest torus around 2^21).  Per-label
queries have no budget.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from .characters import (
    ORACLE_F_MAX,
    CharacterLabel,
    Family,
    TORUS_FAMILIES,
    canonicalize,
    family_count,
    multipliers_of,
    phi_power_on_label,
    torus_order_of,
)
from .errors import BudgetExceededError, InvariantError
from .params import SuzukiParams, divisors_of, make_params


def witness_for(p: SuzukiParams, family: Family, n: int) -> int | None:
    """A canonical index of the family whose exact stabilizer exponent is
    n, or None when no label of the family has exact exponent n.

    For proper n outside the exception table exactly one multiplier m
    makes gcd(N, 2^n - m) nontrivial (N the torus order); the witness is
    N divided by that gcd.  For X this is (q^2-1)/(2^n-1).
    """
    # The exception table outranks the n = 2f+1 shortcut: at f = 1 the
    # divisor n = 3 is 2f+1 itself, yet the single Z class is already
    # invariant under the automorphism (a2 = 5 divides q^2 + 2 = 10),
    # so nothing has exact exponent 3 there.
    if is_witnessless(p, family, n):
        return None
    if n == p.out_order:
        return 1
    order = torus_order_of(p, family)
    two_n = pow(2, n, order)
    gcds = [math.gcd(order, two_n - m) for m in multipliers_of(p, family)]
    nontrivial = [g for g in gcds if g > 1]
    if len(nontrivial) != 1:
        raise InvariantError(
            f"f={p.f} {family.value} n={n}: {len(nontrivial)} multipliers give "
            f"a nontrivial gcd, expected exactly 1"
        )
    return canonicalize(p, family, order // nontrivial[0])


def is_witnessless(p: SuzukiParams, family: Family, n: int) -> bool:
    """Does no label of the torus family have exact stabilizer exponent n?

    The exception table above, read without counting; n must divide
    2f+1.  orbit_counts(p, family) lacks exactly these exponents.
    """
    if family not in TORUS_FAMILIES:
        raise ValueError(f"no exception table for family {family.value}")
    _require_divisor(p, n)
    if family is Family.X:
        return n == 1
    low_classes = (1, 2) if family is Family.Y else (0, 3)
    if n == 1:
        return p.f % 4 in low_classes
    if n == 3:
        return p.f % 4 not in low_classes
    return False


def exact_stabilizer_exponent(p: SuzukiParams, label: CharacterLabel) -> int:
    """Least divisor n of 2f+1 fixing the label; ONE/ST/W give 1.

    Computed from the invariance criterion and cross-checked against
    the label's actual doubling-orbit length.
    """
    if label.family not in TORUS_FAMILIES:
        return 1
    # n = 2f+1 always fixes the label; a None here fails the cross-check
    exponent = next((n for n in divisors_of(p.out_order) if _invariant(p, label, n)), None)
    length = _orbit_length(p, label)
    if exponent != length:
        raise InvariantError(
            f"f={p.f} {label.family.value}: the invariance criterion gives exponent "
            f"{exponent}, the doubling orbit has length {length}"
        )
    return exponent


def _invariant(p: SuzukiParams, label: CharacterLabel, n: int) -> bool:
    """Is the torus label fixed by the n-th power of the field automorphism?

    Its index i is fixed iff 2^n i == m i (mod N) for some multiplier m,
    N the torus order: the criterion orbit_counts counts.
    """
    _require_divisor(p, n)
    order = torus_order_of(p, label.family)
    idx = label.index
    if idx % order == 0 or canonicalize(p, label.family, idx) != idx:
        raise ValueError(f"{idx} is not a canonical {label.family.value} index")
    two_n = pow(2, n, order)
    return any((two_n - m) * idx % order == 0 for m in multipliers_of(p, label.family))


def _orbit_length(p: SuzukiParams, label: CharacterLabel) -> int:
    length = 0
    cur = label
    while True:
        cur = phi_power_on_label(p, cur, 1)
        length += 1
        if cur == label:
            return length


def orbit_counts(p: SuzukiParams, family: Family) -> dict[int, int]:
    """Exact-exponent histogram {n: number of canonical labels}, by counting.

    Equals orbit_oracle(p, family) at every f, from gcds alone.  The
    n-th automorphism power fixes the class of a nonzero index j of Z/N
    iff 2^n j == m j for some multiplier m in M.  Each condition cuts out
    the subgroup ker(2^n - m) of order gcd(N, 2^n - m), and subgroups of
    a cyclic group meet in the subgroup of gcd order, so inclusion-
    exclusion over the nonempty subsets of M counts their union exactly;
    less the index 0 and divided by |M|, that is the number of fixed
    classes (Burnside).  A class is fixed by the n-th power iff its exact
    exponent divides n, so Möbius inversion over the divisors of 2f+1
    (subtracting the exact counts of the proper divisors of n) leaves the
    classes of exact exponent n.
    """
    total = family_count(p, family)
    if family not in TORUS_FAMILIES:
        return {1: total}
    order = torus_order_of(p, family)
    mult = sorted(multipliers_of(p, family))
    subsets = [s for size in range(1, len(mult) + 1) for s in combinations(mult, size)]
    exact: dict[int, int] = {}
    for n in divisors_of(p.out_order):
        two_n = pow(2, n, order)
        union = sum(
            (-1) ** (len(s) + 1) * math.gcd(order, *(two_n - m for m in s))
            for s in subsets
        )
        if (union - 1) % len(mult):
            raise InvariantError(
                f"f={p.f} {family.value} n={n}: fixed nonzero indices "
                f"not a multiple of |M|={len(mult)}"
            )
        count = (union - 1) // len(mult) - sum(
            c for k, c in exact.items() if n % k == 0
        )
        if count < 0 or count % n:  # labels of exact exponent n fill n-orbits
            raise InvariantError(
                f"f={p.f} {family.value} n={n}: label count cannot form orbits of size {n}"
            )
        exact[n] = count
    hist = {n: c for n, c in exact.items() if c}
    if any(p.out_order % n for n in hist):
        raise InvariantError(f"f={p.f} {family.value}: an exponent does not divide 2f+1")
    if sum(hist.values()) != total:
        raise InvariantError(
            f"f={p.f} {family.value}: exponent counts do not sum to the family count"
        )
    return hist


def orbit_oracle(p: SuzukiParams, family: Family) -> dict[int, int]:
    """Exact-exponent histogram {n: number of canonical labels} for a family.

    Brute force: walks the doubling dynamics over every residue class
    of the torus.  Refuses f > ORACLE_F_MAX.
    """
    if p.f > ORACLE_F_MAX:
        raise BudgetExceededError(
            f"orbit enumeration needs f <= {ORACLE_F_MAX}, got f={p.f}"
        )
    return dict(_orbit_histogram(p.f, family))


@lru_cache(maxsize=None)
def _orbit_histogram(f: int, family: Family) -> tuple[tuple[int, int], ...]:
    p = make_params(f)
    if family not in TORUS_FAMILIES:
        return ((1, family_count(p, family)),)
    order = torus_order_of(p, family)
    mult = sorted(multipliers_of(p, family))
    visited = bytearray(order)
    counts: dict[int, int] = {}
    for start in range(1, order):
        if visited[start]:
            continue
        start_class = frozenset(start * m % order for m in mult)
        j = start
        length = 0
        while True:
            for m in mult:
                visited[j * m % order] = 1
            j = 2 * j % order
            length += 1
            if j in start_class:
                break
        if p.out_order % length:
            raise InvariantError(
                f"f={f} {family.value}: a doubling orbit of length {length} "
                "does not divide 2f+1"
            )
        counts[length] = counts.get(length, 0) + length
    if sum(counts.values()) != family_count(p, family):
        raise InvariantError(
            f"f={f} {family.value}: enumerated labels do not sum to the family count"
        )
    return tuple(sorted(counts.items()))


def _require_divisor(p: SuzukiParams, n: int) -> None:
    if n < 1 or p.out_order % n != 0:
        raise ValueError(f"n must be a positive divisor of 2f+1={p.out_order}, got {n}")
