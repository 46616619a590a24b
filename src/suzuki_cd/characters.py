"""The irreducible characters of S = Sz(q^2) as labelled families.

Irr(S) splits into six families: the trivial character (ONE), the
Steinberg character of degree q^4 (ST), two exceptional characters of
degree r(q^2-1)/2 (W), and three semisimple families X, Y, Z indexed by
the cyclic tori.  A semisimple character is determined by a nonzero
residue modulo its torus order N, up to the multipliers {+-1, +-q^2}
mod N:

========  ============  ==================  ==========================
family    torus order   multipliers mod N   degree
========  ============  ==================  ==========================
X         q^2 - 1       {+-1, +-q^2}        (q^2 + r + 1)(q^2 - r + 1)
Y         q^2 + r + 1   {+-1, +-q^2}        (q^2 - r + 1)(q^2 - 1)
Z         q^2 - r + 1   {+-1, +-q^2}        (q^2 + r + 1)(q^2 - 1)
========  ============  ==================  ==========================

A semisimple character attached to a torus T has degree
theta(1) = |S|_{2'}/|T|, and |S|_{2'} = (q^2 - 1)(q^2 + r + 1)(q^2 - r + 1)
is the product of the three torus orders, so each family's degree is
the product of the other two.  That is why the degrees criss-cross
with the tori: Y, indexed by q^2 + r + 1, has degree (q^2 - r + 1)(q^2 - 1)
and Z the other way round.  degree_of, the stabilizer exceptions and
the kernel orders behind orbit_counts all read the torus from
torus_order_of, the one place where the families meet their tori;
family_count is an independent expression, the reference the counts
are checked against.

For X, q^2 == 1 modulo q^2 - 1, so its multipliers collapse to {+-1}.
For Y and Z, q^2 squares to -1 modulo the torus order because
q^4 == -1 there, so each multiplier set really is a group of order 4.
Every nonzero residue class has exactly 2 (X) or 4 (Y, Z) members; the
family counts q^2/2 - 1, (q^2+r)/4, (q^2-r)/4 fall out of that.  The
canonical representative of a class is its least positive member.

The field automorphism acts on semisimple labels by doubling the index:
applying it n times sends index i to the class of 2^n * i.  ONE, ST and
W are fixed.
"""

from __future__ import annotations

from enum import Enum

from .errors import require_within
from .params import Record, SuzukiParams

#: Exhaustive family sweeps (canonical_indices here, orbit_oracle and
#: cd_oracle downstream) are refused above this f.
ORACLE_F_MAX = 10


class Family(Enum):
    ONE = "ONE"
    ST = "ST"
    X = "X"
    Y = "Y"
    Z = "Z"
    W = "W"


#: Families indexed by a torus residue class.
TORUS_FAMILIES = (Family.X, Family.Y, Family.Z)


class CharacterLabel(Record):
    """One irreducible character of S: a Family plus a canonical int index.

    ONE and ST use index 0, W uses index 1 or 2, and X/Y/Z use the
    canonical representative of their residue class.  Build through
    :func:`make_label` to get validation.
    """

    __slots__ = ("family", "index")


def degree_of(p: SuzukiParams, family: Family) -> int:
    if family is Family.ONE:
        return 1
    if family is Family.ST:
        return p.q4
    if family is Family.W:
        return p.r * p.a0 // 2
    own = torus_order_of(p, family)
    first, second = (order for order in (p.a0, p.a1, p.a2) if order != own)
    return first * second


def family_count(p: SuzukiParams, family: Family) -> int:
    if family in (Family.ONE, Family.ST):
        return 1
    if family is Family.X:
        return p.q2 // 2 - 1
    if family is Family.Y:
        return (p.q2 + p.r) // 4
    if family is Family.Z:
        return (p.q2 - p.r) // 4
    return 2


def torus_order_of(p: SuzukiParams, family: Family) -> int:
    if family is Family.X:
        return p.a0
    if family is Family.Y:
        return p.a1
    if family is Family.Z:
        return p.a2
    raise ValueError(f"family {family.value} has no indexing torus")


def multipliers_of(p: SuzukiParams, family: Family) -> frozenset[int]:
    n = torus_order_of(p, family)
    q = p.q2 % n
    return frozenset((1, n - 1, q, n - q))


def canonicalize(p: SuzukiParams, family: Family, raw_index: int) -> int:
    """Least positive member of raw_index's class; rejects index 0."""
    n = torus_order_of(p, family)
    raw = raw_index % n
    if raw == 0:
        raise ValueError(f"index must be nonzero mod {n}")
    return min(raw * m % n for m in multipliers_of(p, family))


def make_label(p: SuzukiParams, family: Family, index: int = 0) -> CharacterLabel:
    """Validated label; X/Y/Z indices are canonicalized."""
    if family in (Family.ONE, Family.ST):
        if index != 0:
            raise ValueError(f"{family.value} takes index 0, got {index}")
        return CharacterLabel(family, 0)
    if family is Family.W:
        if index not in (1, 2):
            raise ValueError(f"W takes index 1 or 2, got {index}")
        return CharacterLabel(family, index)
    return CharacterLabel(family, canonicalize(p, family, index))


def canonical_indices(p: SuzukiParams, family: Family) -> list[int]:
    """All canonical indices of a torus family, ascending.

    An oracle helper: it walks every residue of the torus, so it refuses
    f > ORACLE_F_MAX ("canonical index enumeration: f F is over its limit of 10").
    """
    require_within("canonical index enumeration: f", p.f, ORACLE_F_MAX)
    n = torus_order_of(p, family)
    mult = multipliers_of(p, family)
    out = []
    for i in range(1, n):
        if all(i <= i * m % n for m in mult):
            out.append(i)
    return out


def torus_value(p: SuzukiParams, label: CharacterLabel, l: int) -> CyclotomicSum:
    """Exact character value at the l-th power of the torus generator.

    A label with index i takes eps * sum(zeta^(ilm)) over the multipliers
    m of its family: eps = +1 on the split torus of X, where q^2 == 1 and
    the multipliers are +-1, and -1 on the tori of Y and Z.  Values away
    from the indexing torus are out of scope, as are ONE/ST/W values.
    """
    from .cyclotomic import root_power_sum  # here, so that cd and orbits never load it
    if label.family not in TORUS_FAMILIES:
        raise ValueError(f"no torus value formula for family {label.family.value}")
    n = torus_order_of(p, label.family)
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= {n}, got {l}")
    eps = 1 if p.q2 % n == 1 else -1
    mult = multipliers_of(p, label.family)
    return root_power_sum(n, [label.index * l * m for m in mult], [eps] * len(mult))


def phi_power_on_label(
    p: SuzukiParams, label: CharacterLabel, n: int
) -> CharacterLabel:
    """Image of a label under the n-th power of the field automorphism.

    ONE, ST and W are invariant; a torus label's index is doubled n
    times and re-canonicalized.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if label.family not in TORUS_FAMILIES:
        return label
    order = torus_order_of(p, label.family)
    new = canonicalize(p, label.family, label.index * pow(2, n, order))
    return CharacterLabel(label.family, new)
