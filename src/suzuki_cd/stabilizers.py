"""Stabilizers of characters under the field automorphism.

For a divisor n of 2f+1, a torus label with index i is fixed by the
n-th power of the field automorphism iff 2^n i == m i (mod N) for some
multiplier m of the family, N its torus order.  For every family that
is one criterion: N divides (q^2 - 2^n) i or (q^2 + 2^n) i.  The
multipliers +-q^2 give it directly.  For X, q^2 == 1 (mod N) makes
+-1 the same multipliers; for Y and Z, +-1 fix no nonzero index, since
gcd(q^4 + 1, 2^n -+ 1) = 1.

The *exact stabilizer exponent* of a label is the least such n; the
orbit of the label under index-doubling has exactly that size.
witness_for constructs, for each admissible n, a label whose exact
exponent is n, and returns None exactly when no label in the family has
exact exponent n.  is_witnessless derives those cases from the torus
order, and the closed form of theorem A reads it too (its Aut(S)
exclusions are these exponents).  5 divides q^4 + 1 for every f, so it
divides exactly one of the coprime Y and Z orders, and never the X
order q^2 - 1 (2^(2f+1) is 2 or 3 mod 5).  On that one torus
gcd(N, q^2 -+ 2^n) is 5 at n = 1 and again at n = 3, with the sign that
makes 5 divide q^2 -+ 2^n (coincidence_classify derives the collision
from the same torus), so n = 1 has a witness and n = 3 has none:
anything fixed by the cube of the automorphism is already fixed by the
automorphism itself.  On every other torus the n = 1 kernels are
trivial (for X, gcd(q^2 - 1, 2 -+ 1) = 1), so nothing has exact
exponent 1, while n = 3, where it divides 2f+1, has a witness.  Every
other n dividing 2f+1 has a witness, so the witnessless cases are:

=======  ==============  ==============
family   n = 1           n = 3
=======  ==============  ==============
X        always          never
Y, Z     N % 5 != 0      N % 5 == 0
=======  ==============  ==============

5 divides a1 exactly when f == 0, 3 (mod 4), so this is the paper's
f mod 4 form.  It holds even at f = 1, where n = 3 is all of 2f+1: the
lone Z class of Sz(8) (Z order 5) is invariant.

witness_for and orbit_counts read one route to the gcd lemmas,
_kernel_orders: for each n the orders of the two kernels that can fix
a nonzero index.  The witness generates the nontrivial one, and the
histogram of exact exponents over a whole family (orbit_counts, every
accepted f) counts their union; it is the only route the command line
and cd_multiset use.  An independent brute-force oracle
(orbit_oracle) enumerates the index-doubling dynamics of the family
instead; it runs only in the verification sweeps and tests, and is
budgeted to f <= ORACLE_F_MAX (largest torus around 2^21).  It reads
the family through the pairs {y, N - y}, per = |M|/2 of them to a class.
For each divisor k of per * (2f+1) it counts the pairs that k doublings
fix, over every residue at once: a byte tag per pair, pulled through
the doubling by two extended slices a step, picks the candidates, and
each candidate is tested exactly (2^k y == +-y mod N).  Subtraction over
the divisors gives the pairs of each exact period, and a class of exact
exponent n has its per pairs in one cycle of length per * n.  It reads
no gcd and no kernel size.  Per-label queries have no budget.
"""

from __future__ import annotations

from functools import lru_cache

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
from .errors import InvariantError, require_within
from .params import SuzukiParams, divisors_of, make_params, require_divisor


def witness_for(p: SuzukiParams, family: Family, n: int) -> int | None:
    """A canonical index of the family whose exact stabilizer exponent is
    n, or None when no label of the family has exact exponent n.

    The witness is N/g, g the one nontrivial kernel order of
    _kernel_orders (N the torus order).  It is canonical: its class is
    {(N/g)(m mod g)} over the multipliers m, units mod g, so m = 1 gives
    the least member.
    """
    if is_witnessless(p, family, n):
        return None
    nontrivial = [g for g in _kernel_orders(p, family, n) if g > 1]
    if len(nontrivial) != 1:
        raise InvariantError(
            f"f={p.f} {family.value} n={n}: {len(nontrivial)} nontrivial kernels, expected 1"
        )
    return torus_order_of(p, family) // nontrivial[0]


def is_witnessless(p: SuzukiParams, family: Family, n: int) -> bool:
    """Does no label of the torus family have exact stabilizer exponent n?

    The 5 | N rule above, read without counting; n must divide 2f+1.
    orbit_counts(p, family) lacks exactly these exponents.
    """
    if family not in TORUS_FAMILIES:
        raise ValueError(f"family {family.value} has no indexing torus")
    require_divisor(p, "n", n)
    return n in (1, 3) and (n == 1) != (torus_order_of(p, family) % 5 == 0)


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
    N the torus order: the criterion whose fixed labels orbit_counts counts.
    """
    require_divisor(p, "n", n)
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


def _kernel_orders(p: SuzukiParams, family: Family, n: int) -> tuple[int, int]:
    """(g-, g+): the orders of the kernels that can hold a nonzero index of
    the torus family, g-+ = gcd(N, q^2 -+ 2^n) by the one criterion
    N | (q^2 -+ 2^n) i above, N = torus_order_of(p, family): (N, 1) at
    n = 2f+1, where q^2 - 2^n = 0, and otherwise the gcd lemma
    numtheory.gcd_torus(p, N, n, -+1), which takes each of the three
    torus orders.

    It names no family and no torus, so torus_order_of alone maps
    families to tori.  The two kernels meet only in 0 (N is odd), so the
    n-th automorphism power fixes g- + g+ - 2 nonzero indices, which the
    |M| multipliers permute freely: F(n) = (g- + g+ - 2)/|M| labels.
    Where a label of exact exponent n exists, exactly one of g-, g+ is
    nontrivial.
    """
    # here, so that a cd that does not count skips it
    from .numtheory import gcd_torus

    order = torus_order_of(p, family)
    if n == p.out_order:
        return order, 1
    return gcd_torus(p, order, n, -1).value, gcd_torus(p, order, n, +1).value


def orbit_counts(p: SuzukiParams, family: Family) -> dict[int, int]:
    """Exact-exponent histogram {n: number of canonical labels}, from the gcd lemmas.

    Equals orbit_oracle(p, family) at every f.  F(k), the number of labels
    the k-th automorphism power fixes (k | 2f+1), comes from _kernel_orders.
    Labels fixed by the k-th power are those whose exact exponent divides k,
    so the count at n is F(n) less the counts at the proper divisors of n.
    The counts must sum to family_count, an independent expression in q^2
    and r.
    """
    total = family_count(p, family)
    if family not in TORUS_FAMILIES:
        return {1: total}
    per_label = len(multipliers_of(p, family))
    exact: dict[int, int] = {}
    for n in divisors_of(p.out_order):
        nonzero = sum(_kernel_orders(p, family, n)) - 2
        if nonzero % per_label:  # the multipliers permute the fixed indices freely
            raise InvariantError(
                f"f={p.f} {family.value} n={n}: {nonzero} fixed indices, "
                f"not {per_label} per label"
            )
        count = nonzero // per_label - sum(c for k, c in exact.items() if n % k == 0)
        if count < 0 or count % n:  # labels of exact exponent n fill n-orbits
            raise InvariantError(f"f={p.f} {family.value} n={n}: {count} labels, not whole orbits")
        exact[n] = count
    hist = {n: c for n, c in exact.items() if c}
    if sum(hist.values()) != total:
        raise InvariantError(
            f"f={p.f} {family.value}: exponent counts do not sum to the family count"
        )
    return hist


def orbit_oracle(p: SuzukiParams, family: Family) -> dict[int, int]:
    """Exact-exponent histogram {n: number of canonical labels} for a family.

    Brute force: for each divisor k of |M|/2 * (2f+1), counts the pairs
    {y, N - y} of the torus that k doublings fix, testing every residue
    whose tag came back.  Refuses f > ORACLE_F_MAX, as does cd_oracle, with
    "orbit enumeration: f F is over its limit of 10".
    """
    require_within("orbit enumeration: f", p.f, ORACLE_F_MAX)
    return dict(_orbit_histogram(p.f, family))


#: One tag byte per pair, repeated along the half torus; a faked constant
#: (all zeros, say) only widens the candidates the exact test decides.
_TAGS = bytes(range(256))


@lru_cache(maxsize=None)
def _orbit_histogram(f: int, family: Family) -> tuple[tuple[int, int], ...]:
    p = make_params(f)
    if family not in TORUS_FAMILIES:
        return ((1, family_count(p, family)),)
    order = torus_order_of(p, family)
    mult = sorted(multipliers_of(p, family))
    if [order - m for m in reversed(mult)] != mult:
        raise InvariantError(
            f"f={f} {family.value}: the multipliers are not closed under negation"
        )
    # Each class is closed under negation and N is odd, so a pair {y, N - y},
    # kept at its lower member y <= N // 2, stands for both; on those members
    # doubling is 2y, folded to N - 2y when past N // 2.  A class holds
    # per = |M|/2 pairs, and fold(c y) = y for every y iff c == +-1 (take
    # y = 1), so `period` doublings fix every pair iff 2^period == +-1.
    per = len(mult) // 2
    period = per * p.out_order
    if pow(2, period, order) not in (1, order - 1):
        length = 1  # the doubling orbit of index 1 back into its class
        while pow(2, length, order) not in mult:  # ends, as 1 is a multiplier
            length += 1
        raise InvariantError(
            f"f={f} {family.value}: a doubling orbit of length {length} "
            "does not divide 2f+1"
        )
    half = order // 2
    size = half + 1
    quarter = half // 2
    # tags[y] is pair y's tag; after k doubling steps cur[y] is the tag of
    # fold(2^k y), so the pairs k doublings fix are among those whose tag
    # came back, and the exact test below decides each of them.
    tags = (_TAGS * (size // 256 + 1))[:size]
    start = int.from_bytes(tags, "little")
    cur, steps = tags, 0
    exact: dict[int, int] = {}  # pairs of each exact doubling period
    for k in divisors_of(period):
        fixed = half
        if k < period:
            while steps < k:
                cur = cur[0 : 2 * quarter + 1 : 2] + cur[order - 2 * quarter - 2 :: -2]
                steps += 1
            same = (int.from_bytes(cur, "little") ^ start).to_bytes(size, "little")
            two_k = pow(2, k, order)
            fixed = 0
            y = same.find(0, 1)
            while y != -1:
                if two_k * y % order in (y, order - y):
                    fixed += 1
                y = same.find(0, y + 1)
        count = fixed - sum(c for d, c in exact.items() if k % d == 0)
        # pairs of period k fill k-cycles, and a class's pairs share one cycle
        if count < 0 or count % k or (count and k % per):
            raise InvariantError(
                f"f={f} {family.value}: {count} pairs of doubling period {k}, "
                f"not whole cycles of {per}-pair classes"
            )
        exact[k] = count
    # a class of exact exponent n has its per pairs in one cycle of length per * n
    counts = {k // per: c // per for k, c in exact.items() if c}
    if sum(counts.values()) != family_count(p, family):
        raise InvariantError(
            f"f={f} {family.value}: enumerated labels do not sum to the family count"
        )
    return tuple(sorted(counts.items()))
