"""Closed-form gcds of the torus orders against q^2 +- 2^n.

gcd_torus takes a torus order N, an int, and answers
gcd(N, q^2 + sign * 2^n) for n a proper divisor of 2f+1.  On the split
torus, N = q^2 - 1, the gcd is 2^n - 1 or 1.  The other two torus
orders a1 = q^2+r+1 and a2 = q^2-r+1 are coprime and multiply to
q^4+1, and their gcds collapse to a three-way branch on the congruence
class of 2f -+ n + 1 modulo 8.  The q^4+1 gcd is stated nowhere else:
its rows are the product of the two torus rows.  Gcds at two exponents
collide only at 1 and 3, where both are 5 (coincidence_classify): the
torus order and signs are derived from which torus order 5 divides, as
stabilizers.is_witnessless derives theorem A's exceptions, so nothing
here is keyed by f mod 4.  Here a torus is its order: which family an
order indexes is characters.torus_order_of's business, and the names
"plus" and "minus" only label the rows gcd-table prints.  The case
analysis is easy to mis-transcribe, so euclid_gcd, a plain
Euclidean oracle on the actual pair of integers, is the ground truth.
gcd_verification_rows is the only code here that calls it: one grid of
closed form vs Euclid per f, which ``gcd-table`` prints and the sweep
in :mod:`suzuki_cd.verification` checks; it extends the closed-form
rows of gcd_closed_form_rows, so a caller can render the closed forms
before any Euclid call.

Notation used in branch records: ``4 || x`` means 4 divides x but 8
does not (4 divides x exactly).
"""

from __future__ import annotations

from .params import Record, SuzukiParams, divisors_of, require_divisor


class GcdCase(Record):
    """A closed-form gcd value (int) plus the congruence branch (str)
    that produced it.

    ``value`` always divides both members of the pair the query was
    about (the verification sweep enforces this against Euclid).
    """

    __slots__ = ("value", "condition")


class CoincidenceCase(Record):
    """A (d1, d2) collision between gcds at exponents n and m.

    d1 = gcd(torus order, q^2 + sign_n * 2^n) and
    d2 = gcd(torus order, q^2 + sign_m * 2^m) are equal (to 5); this
    happens only for (m, n) = (1, 3), on the one torus whose order, the
    int ``order``, 5 divides.
    """

    __slots__ = ("order", "sign_n", "sign_m")


def euclid_gcd(a: int, b: int) -> int:
    """Greatest common divisor by the plain Euclidean algorithm.

    This is the independent oracle for every closed form in this
    module, so it deliberately shares no code with them; within the
    module only gcd_verification_rows calls it.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError(f"need a, b >= 0 and not both zero, got {a}, {b}")
    while b:
        a, b = b, a % b
    return a


def gcd_torus(p: SuzukiParams, order: int, n: int, sign: int) -> GcdCase:
    """gcd(order, q^2 + sign * 2^n) for a torus order and a proper divisor
    n of 2f+1; any order but q^2 - 1, q^2 + r + 1 and q^2 - r + 1 is a
    ValueError.

    On the split torus, modulo q^2 - 1, q^2 is 1, so this is
    gcd(2^(2f+1) - 1, 2^n + sign).  For sign -1 it is 2^n - 1, which
    divides 2^(2f+1) - 1.  For sign +1 it is 1: modulo the odd 2^n + 1,
    2^(2f+1) is (-1)^((2f+1)/n) = -1, so 2^(2f+1) - 1 is -2.

    On the other two, let u = 2f - n + 1 for sign -1 and u = 2f + n + 1
    for sign +1, and write h = 2^((n+1)/2).  The branch table, with the
    +-pairing fixed by the Euclidean oracle (see the verification sweep):

    =========  ==================  ==================
    branch     order q^2+r+1       order q^2-r+1
    =========  ==================  ==================
    8 | u      2^n + h + 1         2^n - h + 1
    4 || u     2^n - h + 1         2^n + h + 1
    otherwise  1                   1
    =========  ==================  ==================

    Note 2^n - h + 1 = 1 when n = 1, so at n = 1 only one of the two has
    a nontrivial gcd.  Their values multiply to
    gcd(q^4 + 1, q^2 + sign * 2^n), since a1 * a2 = q^4 + 1 with a1, a2
    coprime; gcd_closed_form_rows builds its q^4+1 rows that way.
    """
    _require_sign(sign)
    require_divisor(p, "n", n, proper=True)
    if order == p.a0:
        return GcdCase((1 << n) - 1, "sign -1") if sign < 0 else GcdCase(1, "none")
    if order != p.a1 and order != p.a2:
        raise ValueError(f"order is no torus order of Sz(2^{p.out_order})")
    u = 2 * p.f + (n if sign > 0 else -n) + 1
    u_name = "2f+n+1" if sign > 0 else "2f-n+1"
    half = 1 << ((n + 1) // 2)
    if u % 8 == 0:
        plus_form = order == p.a1
        condition = f"8 | {u_name}"
    elif u % 4 == 0:
        plus_form = order == p.a2
        condition = f"4 || {u_name}"
    else:
        return GcdCase(1, "none")
    if plus_form:
        return GcdCase((1 << n) + half + 1, condition)
    return GcdCase((1 << n) - half + 1, condition)


def coincidence_classify(
    p: SuzukiParams, m: int, n: int
) -> CoincidenceCase | None:
    """Detect when gcds at two different exponents collide.

    For distinct proper divisors m | n of 2f+1 and a fixed torus, a
    nontrivial d1 = gcd(torus, q^2 +- 2^n) can equal
    d2 = gcd(torus, q^2 -+ 2^m) only when (m, n) = (1, 3); then both
    gcds are 5.  5 divides q^4 + 1 = a1 * a2, so exactly one torus order,
    and q^2 = 2^(2f+1) is 2 or 3 mod 5, as are 2 and 8, so exactly one
    sign makes 5 | q^2 +- 2^k at each k: the collision is on the torus
    whose order 5 divides, with those signs.  Returns that case, or None
    when no collision occurs for (m, n).  It computes no gcd: the
    verification sweep checks every prediction against Euclid.
    """
    require_divisor(p, "m", m, proper=True)
    require_divisor(p, "n", n, proper=True)
    if m == n or n % m != 0:
        raise ValueError(f"need distinct proper divisors with m | n, got m={m}, n={n}")
    if (m, n) != (1, 3):
        return None
    order = p.a1 if p.a1 % 5 == 0 else p.a2
    sign_n, sign_m = (
        sign for k in (n, m) for sign in (-1, 1) if (p.q2 + sign * (1 << k)) % 5 == 0
    )
    return CoincidenceCase(order, sign_n, sign_m)


def gcd_closed_form_rows(p: SuzukiParams) -> list[tuple[int, str, int, GcdCase]]:
    """The closed form of every gcd query at this f.

    One row ``(n, torus, sign, case)`` per query, n over the proper
    divisors of 2f+1 ascending, torus over "plus" (order q^2+r+1),
    "minus" (order q^2-r+1) and "product" (the q^4+1 queries), sign over
    -1, +1; the names are the ``torus`` column of ``gcd-table``.  A
    product row is the product of the two torus rows of its (n, sign),
    since a1 and a2 are coprime with a1 * a2 = q^4 + 1.  It is above 1
    exactly when one torus branch fires, that is when 4 divides
    2f -+ n + 1: 2f+1 == n (mod 4) for sign -1 and 2f+1 == -n (mod 4)
    for sign +1.
    """
    rows = []
    for n in divisors_of(p.out_order)[:-1]:
        product = {-1: 1, 1: 1}
        for name, order in (("plus", p.a1), ("minus", p.a2)):
            for sign in (-1, 1):
                case = gcd_torus(p, order, n, sign)
                product[sign] *= case.value
                rows.append((n, name, sign, case))
        for sign, value in product.items():
            condition = "2f+1 == n (mod 4)" if sign < 0 else "2f+1 == -n (mod 4)"
            rows.append((n, "product", sign, GcdCase(value, condition if value > 1 else "none")))
    return rows


def gcd_verification_rows(
    p: SuzukiParams, closed_forms: list[tuple[int, str, int, GcdCase]]
) -> list[tuple[int, str, int, GcdCase, int]]:
    """Closed form vs Euclid for every (n, torus, sign) at this f.

    Extends each row of ``closed_forms``, gcd_closed_form_rows(p), to
    ``(n, torus, sign, case, euclid)``: ``case`` is the closed form and
    ``euclid`` the oracle's gcd of the same pair.
    """
    left = {"plus": p.a1, "minus": p.a2, "product": p.q4 + 1}
    return [
        (n, torus_name, sign, case, euclid_gcd(left[torus_name], p.q2 + sign * (1 << n)))
        for n, torus_name, sign, case in closed_forms
    ]


def _require_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
