"""Closed-form gcds for divisors of q^4 + 1 against q^2 +- 2^n.

The torus orders a1 = q^2+r+1 and a2 = q^2-r+1 multiply to q^4+1, and
their gcds with numbers of the form q^2 +- 2^n (n a proper divisor of
2f+1) collapse to a three-way branch on the congruence class of
2f -+ n + 1 modulo 8.  The case analysis is easy to mis-transcribe, so
euclid_gcd, a plain Euclidean oracle on the actual pair of integers, is
the ground truth.  gcd_verification_rows is the only code here that
calls it: one grid of closed form vs Euclid per f, which ``gcd-table``
prints and the sweep in :mod:`suzuki_cd.verification` checks.

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
    happens only for (m, n) = (1, 3), in one Torus per f mod 4 class.
    """

    __slots__ = ("case", "torus", "sign_n", "sign_m")  # case: "i", "ii", "iii" or "iv"


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


def gcd_two_powers(n: int, m: int, sign_n: int, sign_m: int) -> int:
    """gcd(2^n + sign_n, 2^m + sign_m) for m | n, in closed form.

    With base 2 the four sign combinations give:

    ==========  =======================================
    signs       value
    ==========  =======================================
    (-1, -1)    2^m - 1
    (-1, +1)    2^m + 1 if n/m is even, else 1
    (+1, -1)    1
    (+1, +1)    2^m + 1 if n/m is odd, else 1
    ==========  =======================================
    """
    _require_sign(sign_n)
    _require_sign(sign_m)
    if n < 1 or m < 1:
        raise ValueError(f"need positive exponents, got n={n}, m={m}")
    if n % m != 0:
        raise ValueError(f"m must divide n, got n={n}, m={m}")
    ratio_odd = (n // m) % 2 == 1
    if sign_n < 0 and sign_m < 0:
        return (1 << m) - 1
    if sign_n < 0 and sign_m > 0:
        return 1 if ratio_odd else (1 << m) + 1
    if sign_n > 0 and sign_m < 0:
        return 1
    return (1 << m) + 1 if ratio_odd else 1


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


# f mod 4 -> (case label, torus, sign for 2^n=8, sign for 2^m=2).
# Every f class has exactly one coinciding torus; the other torus has
# d1 != d2 (one of them being 1).
_COINCIDENCE_TABLE = {
    0: ("i", Torus.PLUS, +1, -1),
    3: ("ii", Torus.PLUS, -1, +1),
    1: ("iii", Torus.MINUS, -1, +1),
    2: ("iv", Torus.MINUS, +1, -1),
}


def coincidence_classify(
    p: SuzukiParams, m: int, n: int
) -> CoincidenceCase | None:
    """Detect when gcds at two different exponents collide.

    For distinct proper divisors m | n of 2f+1 and a fixed torus, a
    nontrivial d1 = gcd(torus, q^2 +- 2^n) can equal
    d2 = gcd(torus, q^2 -+ 2^m) only when (m, n) = (1, 3); then both
    gcds are 5, in the torus and with the signs listed in
    ``_COINCIDENCE_TABLE`` for f mod 4.  Returns that case, or None
    when no collision occurs for (m, n).  A pure table read: the
    verification sweep checks every prediction against Euclid.
    """
    _require_proper_divisor(p, m)
    _require_proper_divisor(p, n)
    if m == n or n % m != 0:
        raise ValueError(f"need distinct proper divisors with m | n, got m={m}, n={n}")
    if (m, n) != (1, 3):
        return None
    return CoincidenceCase(*_COINCIDENCE_TABLE[p.f % 4])


def gcd_verification_rows(
    p: SuzukiParams,
) -> list[tuple[int, str, int, GcdCase, int]]:
    """Closed form vs Euclid for every (n, torus, sign) at this f.

    One row ``(n, torus, sign, case, euclid)`` per gcd query, n over the
    proper divisors of 2f+1 ascending, torus over "plus", "minus" and
    "product" (the q^4+1 queries), sign over -1, +1: ``case`` is the
    closed form and ``euclid`` the oracle's gcd of the same pair.
    """
    rows = []
    for n in divisors_of(p.out_order)[:-1]:
        for torus_name in ("plus", "minus", "product"):
            for sign in (-1, +1):
                if torus_name == "product":
                    case = gcd_q4_plus1(p, n, sign)
                    left = p.q4 + 1
                else:
                    torus = Torus(torus_name)
                    case = gcd_torus(p, torus, n, sign)
                    left = torus_order(p, torus)
                actual = euclid_gcd(left, p.q2 + sign * (1 << n))
                rows.append((n, torus_name, sign, case, actual))
    return rows


def _require_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def _require_proper_divisor(p: SuzukiParams, n: int) -> None:
    if n < 1 or p.out_order % n != 0 or n == p.out_order:
        raise ValueError(
            f"n must be a proper positive divisor of 2f+1={p.out_order}, got {n}"
        )

