#!/usr/bin/env python3
"""The number theory under the hood: gcd branch tables and exact
root-of-unity identities, each checked against its oracle live."""

from suzuki_cd import (
    Torus,
    coincidence_classify,
    divisors_of,
    euclid_gcd,
    gcd_torus,
    make_params,
    quad_sum_equivalence,
    root_power_sum,
    equals,
    torus_order,
)

# The paper's names for the four collision cases, by f mod 4; the
# library derives each case from which torus order 5 divides.
CASE_NAMES = {0: "i", 3: "ii", 1: "iii", 2: "iv"}


def main() -> None:
    print("Closed-form gcd(torus order, q^2 +- 2^n) vs Euclid:")
    for f in (2, 4, 7):
        p = make_params(f)
        for n in divisors_of(p.out_order)[:-1]:
            for torus in Torus:
                for sign in (-1, 1):
                    case = gcd_torus(p, torus, n, sign)
                    actual = euclid_gcd(torus_order(p, torus), p.q2 + sign * 2**n)
                    print(
                        f"  f={f} n={n} {torus.value:5s} sign={sign:+d}: "
                        f"closed={case.value:4d} euclid={actual:4d} "
                        f"[{case.condition}]"
                    )

    print("\nGcd collisions between exponents 3 and 1 (always value 5,")
    print("torus and signs determined by f mod 4):")
    for f in (4, 7, 10, 13):
        p = make_params(f)
        case = coincidence_classify(p, 1, 3)
        order = torus_order(p, case.torus)
        d1 = euclid_gcd(order, p.q2 + case.sign_n * 2**3)
        d2 = euclid_gcd(order, p.q2 + case.sign_m * 2**1)
        gcds = f"d1 = d2 = {d1}" if d1 == d2 else f"d1 = {d1}, d2 = {d2}"
        print(
            f"  f={f} (f mod 4 = {f % 4}): case {CASE_NAMES[f % 4]} on torus "
            f"{case.torus.value}, signs ({case.sign_n:+d}, {case.sign_m:+d}), "
            f"{gcds}"
        )

    print("\nExact root-of-unity arithmetic (no floating point):")
    s = root_power_sum(5, [1, 2, 3, 4], [1, 1, 1, 1])
    minus_one = root_power_sum(5, [0], [-1])
    print(f"  sum of primitive 5th roots == -1: {equals(s, minus_one)}")
    pair_2 = root_power_sum(7, [2, -2], [1, 1])
    pair_5 = root_power_sum(7, [5, -5], [1, 1])
    print(f"  z^2 + z^-2 == z^5 + z^-5 for z a primitive 7th root (5 == -2 mod 7): "
          f"{equals(pair_2, pair_5)}")

    print("\nThe four-root identity vs its congruence criterion (k^2 == -1):")
    pairs = [(1, 5), (1, 2), (3, 11)]
    for (i, j), (identity, congruence) in zip(pairs, quad_sum_equivalence(13, 5, pairs)):
        print(f"  n=13 k=5 i={i} j={j}: identity={identity} congruence={congruence}")


if __name__ == "__main__":
    main()
