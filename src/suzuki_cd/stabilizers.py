"""Stabilizers of characters under the field automorphism.

For a divisor n of 2f+1, a torus label is fixed by the n-th power of
the field automorphism iff a divisibility condition holds:

- X_i:  q^2 - 1 divides (2^n - 1) i
- Y_j:  q^2 + r + 1 divides (q^2 - 2^n) j or (q^2 + 2^n) j
- Z_k:  same with q^2 - r + 1

The *exact stabilizer exponent* of a label is the least such n; the
orbit of the label under index-doubling has exactly that size.  The
witness functions construct, for each admissible n, a label whose exact
exponent is n, and return None exactly when no label in the family has
exact exponent n.  The witnessless cases are X at n = 1 (nothing is
fixed by the whole automorphism group) and, for Y and Z, an f mod 4
table that the two families mirror:

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
counting (orbit_counts, gcds only, any f).  An independent brute-force
oracle (orbit_oracle) enumerates the index-doubling dynamics of the
family instead; it is budgeted to f <= ORACLE_F_MAX (largest torus
around 2^21).  Per-label queries have no budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .characters import (
    CharacterLabel,
    Family,
    TORUS_FAMILIES,
    canonicalize,
    family_count,
    make_label,
    multipliers_of,
    phi_power_on_label,
    torus_order_of,
)
from .errors import BudgetExceededError, InvariantError
from .numtheory import euclid_gcd
from .params import SuzukiParams, make_params, outer_divisors

#: Exhaustive family sweeps are refused above this f.
ORACLE_F_MAX = 10


@dataclass(frozen=True)
class StabilizerDescriptor:
    """A label together with its exact stabilizer exponent.

    The stabilizer of the label inside the outer automorphism group is
    generated by the exponent-th power of the field automorphism, and
    the label's orbit has exactly ``exponent`` elements.
    """

    label: CharacterLabel
    exponent: int

    @property
    def orbit_size(self) -> int:
        return self.exponent


def x_invariant(p: SuzukiParams, i: int, n: int) -> bool:
    """Is X_i fixed by the n-th power of the field automorphism?"""
    _require_divisor(p, n)
    if not 1 <= i <= p.q2 // 2 - 1:
        raise ValueError(f"need 1 <= i <= {p.q2 // 2 - 1}, got {i}")
    return (pow(2, n, p.a0) - 1) * i % p.a0 == 0


def y_invariant(p: SuzukiParams, j: int, n: int) -> bool:
    """Is Y_j (canonical j) fixed by the n-th power of the automorphism?"""
    return _torus_invariant(p, Family.Y, j, n)


def z_invariant(p: SuzukiParams, k: int, n: int) -> bool:
    """Is Z_k (canonical k) fixed by the n-th power of the automorphism?"""
    return _torus_invariant(p, Family.Z, k, n)


def _torus_invariant(p: SuzukiParams, family: Family, idx: int, n: int) -> bool:
    _require_divisor(p, n)
    order = torus_order_of(p, family)
    if idx % order == 0 or canonicalize(p, family, idx) != idx:
        raise ValueError(f"{idx} is not a canonical {family.value} index")
    two_n = pow(2, n, order)
    q = p.q2 % order
    return (q - two_n) * idx % order == 0 or (q + two_n) * idx % order == 0


def x_with_stabilizer(
    p: SuzukiParams, n: int, *, checked: bool = False
) -> int | None:
    """An X index whose exact stabilizer exponent is n, or None.

    For n > 1 the witness is (q^2-1)/(2^n-1), an integer because
    n | 2f+1; no X label is fixed by the full automorphism group, so
    n = 1 has no witness.
    """
    _require_divisor(p, n)
    if n == 1:
        return None
    step = (1 << n) - 1
    assert p.a0 % step == 0
    i = p.a0 // step
    if checked:
        assert exact_stabilizer_exponent(p, make_label(p, Family.X, i)) == n
    return i


def y_with_stabilizer(
    p: SuzukiParams, n: int, *, checked: bool = False
) -> int | None:
    """A Y index with exact stabilizer exponent n, or None."""
    return _torus_with_stabilizer(p, Family.Y, n, checked=checked)


def z_with_stabilizer(
    p: SuzukiParams, n: int, *, checked: bool = False
) -> int | None:
    """A Z index with exact stabilizer exponent n, or None."""
    return _torus_with_stabilizer(p, Family.Z, n, checked=checked)


def _torus_with_stabilizer(
    p: SuzukiParams, family: Family, n: int, *, checked: bool
) -> int | None:
    _require_divisor(p, n)
    # The exception table outranks the n = 2f+1 shortcut: at f = 1 the
    # divisor n = 3 is 2f+1 itself, yet the single Z class is already
    # invariant under the automorphism (a2 = 5 divides q^2 + 2 = 10),
    # so nothing has exact exponent 3 there.
    if _is_exception(p, family, n):
        return None
    if n == p.out_order:
        witness = 1
    else:
        order = torus_order_of(p, family)
        g_minus = euclid_gcd(order, p.q2 - (1 << n))
        g_plus = euclid_gcd(order, p.q2 + (1 << n))
        # For proper n outside the exception cases exactly one sign has
        # a nontrivial gcd; the witness drops that factor.
        assert (g_minus > 1) != (g_plus > 1), (p.f, family, n, g_minus, g_plus)
        witness = canonicalize(p, family, order // max(g_minus, g_plus))
    if checked:
        assert exact_stabilizer_exponent(p, make_label(p, family, witness)) == n
    return witness


def _is_exception(p: SuzukiParams, family: Family, n: int) -> bool:
    low_classes = (1, 2) if family is Family.Y else (0, 3)
    if n == 1:
        return p.f % 4 in low_classes
    if n == 3:
        return p.f % 4 not in low_classes
    return False


def witness_for(
    p: SuzukiParams, family: Family, n: int, *, checked: bool = False
) -> int | None:
    """Dispatch to the family's witness constructor."""
    if family is Family.X:
        return x_with_stabilizer(p, n, checked=checked)
    if family is Family.Y:
        return y_with_stabilizer(p, n, checked=checked)
    if family is Family.Z:
        return z_with_stabilizer(p, n, checked=checked)
    raise ValueError(f"no witness constructor for family {family.value}")


def exact_stabilizer_exponent(p: SuzukiParams, label: CharacterLabel) -> int:
    """Least divisor n of 2f+1 fixing the label; ONE/ST/W give 1.

    Computed from the divisibility criteria and cross-checked against
    the label's actual doubling-orbit length.
    """
    if label.family not in TORUS_FAMILIES:
        return 1
    exponent = None
    for n in outer_divisors(p):
        if _invariant(p, label, n):
            exponent = n
            break
    assert exponent is not None  # n = 2f+1 always fixes the label
    assert exponent == _orbit_length(p, label), (label, exponent)
    return exponent


def describe_stabilizer(p: SuzukiParams, label: CharacterLabel) -> StabilizerDescriptor:
    return StabilizerDescriptor(label, exact_stabilizer_exponent(p, label))


def _invariant(p: SuzukiParams, label: CharacterLabel, n: int) -> bool:
    if label.family is Family.X:
        return x_invariant(p, label.index, n)
    return _torus_invariant(p, label.family, label.index, n)


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
    for n in outer_divisors(p):
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
        assert p.out_order % length == 0, (f, family, start, length)
        counts[length] = counts.get(length, 0) + length
    assert sum(counts.values()) == family_count(p, family)
    return tuple(sorted(counts.items()))


def orbit_report(p: SuzukiParams, family: Family) -> dict:
    """JSON-ready orbit summary for one family."""
    hist = orbit_oracle(p, family)
    return {
        "f": p.f,
        "family": family.value,
        "orbits": [
            {"stabilizer_exponent": n, "count": c} for n, c in sorted(hist.items())
        ],
    }


def _require_divisor(p: SuzukiParams, n: int) -> None:
    if n < 1 or p.out_order % n != 0:
        raise ValueError(f"n must be a positive divisor of 2f+1={p.out_order}, got {n}")
