"""Closed-form gcds of the torus orders against q^2 +- 2^n.

On the split torus, of order q^2 - 1, the gcd is 2^n - 1 or 1
(gcd_split_torus, through the two-power lemma gcd_two_powers).  The
other two torus orders a1 = q^2+r+1 and a2 = q^2-r+1 multiply to
q^4+1, and their gcds with q^2 +- 2^n (n a proper divisor of 2f+1)
collapse to a three-way branch on the congruence class of 2f -+ n + 1
modulo 8.  Gcds at two exponents collide only at 1 and 3, where both
are 5 (coincidence_classify): the torus and signs are derived from
which torus order 5 divides, as stabilizers.is_witnessless derives
theorem A's exceptions, so nothing here is keyed by f mod 4.  The
case analysis is easy to mis-transcribe, so euclid_gcd, a plain
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

from enum import Enum

from .params import Record, SuzukiParams, divisors_of


class Torus(Enum):
    """Which of the two q^4+1 torus factors a gcd refers to."""

    PLUS = "plus"  # order q^2 + r + 1
    MINUS = "minus"  # order q^2 - r + 1


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
    happens only for (m, n) = (1, 3), on the one Torus whose order 5
    divides.
    """

    __slots__ = ("torus", "sign_n", "sign_m")


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


def torus_order(p: SuzukiParams, torus: Torus) -> int:
    return p.a1 if torus is Torus.PLUS else p.a2


def gcd_two_powers(n: int, m: int, sign: int) -> int:
    """gcd(2^n - 1, 2^m + sign) for m | n, in closed form.

    It is 2^m - 1 for sign -1, since 2^m - 1 divides 2^n - 1.  For
    sign +1 it is 2^m + 1 if n/m is even, else 1: modulo the odd 2^m + 1,
    2^n is (-1)^(n/m), so 2^n - 1 is 0 or -2.
    """
    _require_sign(sign)
    if n < 1 or m < 1:
        raise ValueError(f"need positive exponents, got n={n}, m={m}")
    if n % m != 0:
        raise ValueError(f"m must divide n, got n={n}, m={m}")
    if sign < 0:
        return (1 << m) - 1
    return (1 << m) + 1 if (n // m) % 2 == 0 else 1


def gcd_split_torus(p: SuzukiParams, n: int, sign: int) -> int:
    """gcd(q^2 - 1, q^2 + sign * 2^n) for a proper divisor n of 2f+1.

    Modulo q^2 - 1, q^2 is 1, so this is gcd(2^(2f+1) - 1, 2^n + sign),
    which gcd_two_powers gives: 2^n - 1 for sign -1, and 1 for sign +1
    since (2f+1)/n is odd.
    """
    _require_proper_divisor(p, n)
    return gcd_two_powers(p.out_order, n, sign)


def gcd_q4_plus1(p: SuzukiParams, n: int, sign: int) -> GcdCase:
    """gcd(q^4 + 1, q^2 + sign * 2^n) for a proper divisor n of 2f+1.

    The value is 2^(2n) + 1 exactly when 2f+1 is congruent to -sign * n
    modulo 4, and 1 otherwise.
    """
    _require_sign(sign)
    _require_proper_divisor(p, n)
    if sign < 0:
        fires = (2 * p.f + 1 - n) % 4 == 0
        condition = "2f+1 == n (mod 4)" if fires else "none"
    else:
        fires = (2 * p.f + 1 + n) % 4 == 0
        condition = "2f+1 == -n (mod 4)" if fires else "none"
    if fires:
        return GcdCase((1 << (2 * n)) + 1, condition)
    return GcdCase(1, condition)


def gcd_torus(p: SuzukiParams, torus: Torus, n: int, sign: int) -> GcdCase:
    """gcd(torus order, q^2 + sign * 2^n) for a proper divisor n of 2f+1.

    Let u = 2f - n + 1 for sign -1 and u = 2f + n + 1 for sign +1, and
    write h = 2^((n+1)/2).  The branch table, with the +-pairing fixed
    by the Euclidean oracle (see the verification sweep):

    =========  ==================  ==================
    branch     torus q^2+r+1       torus q^2-r+1
    =========  ==================  ==================
    8 | u      2^n + h + 1         2^n - h + 1
    4 || u     2^n - h + 1         2^n + h + 1
    otherwise  1                   1
    =========  ==================  ==================

    Note 2^n - h + 1 = 1 when n = 1, so at n = 1 only one torus ever
    has a nontrivial gcd.  The two torus values always multiply to the
    matching gcd_q4_plus1 value, since a1 * a2 = q^4 + 1 with a1, a2
    coprime.
    """
    _require_sign(sign)
    _require_proper_divisor(p, n)
    u = 2 * p.f + (n if sign > 0 else -n) + 1
    u_name = "2f+n+1" if sign > 0 else "2f-n+1"
    half = 1 << ((n + 1) // 2)
    if u % 8 == 0:
        plus_form = torus is Torus.PLUS
        condition = f"8 | {u_name}"
    elif u % 4 == 0:
        plus_form = torus is Torus.MINUS
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
    _require_proper_divisor(p, m)
    _require_proper_divisor(p, n)
    if m == n or n % m != 0:
        raise ValueError(f"need distinct proper divisors with m | n, got m={m}, n={n}")
    if (m, n) != (1, 3):
        return None
    torus = Torus.PLUS if torus_order(p, Torus.PLUS) % 5 == 0 else Torus.MINUS
    sign_n, sign_m = (
        sign for k in (n, m) for sign in (-1, 1) if (p.q2 + sign * (1 << k)) % 5 == 0
    )
    return CoincidenceCase(torus, sign_n, sign_m)


def gcd_closed_form_rows(p: SuzukiParams) -> list[tuple[int, str, int, GcdCase]]:
    """The closed form of every gcd query at this f.

    One row ``(n, torus, sign, case)`` per query, n over the proper
    divisors of 2f+1 ascending, torus over "plus", "minus" and "product"
    (the q^4+1 queries), sign over -1, +1.
    """
    rows = []
    for n in divisors_of(p.out_order)[:-1]:
        for torus_name in ("plus", "minus", "product"):
            for sign in (-1, +1):
                if torus_name == "product":
                    case = gcd_q4_plus1(p, n, sign)
                else:
                    case = gcd_torus(p, Torus(torus_name), n, sign)
                rows.append((n, torus_name, sign, case))
    return rows


def gcd_verification_rows(
    p: SuzukiParams, closed_forms: list[tuple[int, str, int, GcdCase]]
) -> list[tuple[int, str, int, GcdCase, int]]:
    """Closed form vs Euclid for every (n, torus, sign) at this f.

    Extends each row of ``closed_forms``, gcd_closed_form_rows(p), to
    ``(n, torus, sign, case, euclid)``: ``case`` is the closed form and
    ``euclid`` the oracle's gcd of the same pair.
    """
    rows = []
    for n, torus_name, sign, case in closed_forms:
        left = p.q4 + 1 if torus_name == "product" else torus_order(p, Torus(torus_name))
        rows.append((n, torus_name, sign, case, euclid_gcd(left, p.q2 + sign * (1 << n))))
    return rows


def _require_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def _require_proper_divisor(p: SuzukiParams, n: int) -> None:
    if n < 1 or p.out_order % n != 0 or n == p.out_order:
        raise ValueError(
            f"n must be a proper positive divisor of 2f+1={p.out_order}, got {n}"
        )

