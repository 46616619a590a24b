#!/usr/bin/env python3
"""Tour of character degree sets, from Sz(8) up to bigger fields.

Walks the closed form and the Clifford-counting oracle side by side,
shows the Aut(S) exceptions switching with f mod 4, and counts the
degrees of proper extensions against Corollary B's formula.
"""

from suzuki_cd import (
    ExtensionSpec,
    cd_closed_form,
    cd_oracle,
    divisors_of,
    make_params,
)


def show_group(f: int, d: int) -> None:
    p = make_params(f)
    spec = ExtensionSpec(p, d)
    tag = "Aut(S)" if spec.is_aut else f"S.{d}" if d > 1 else "S"
    print(f"\nf={f} (q2={p.q2}), G = {tag}, |G| = {spec.order}")
    closed = sorted(cd_closed_form(spec))
    print(f"  closed form ({len(closed)} degrees): {closed}")
    if p.f <= 10:
        oracle = cd_oracle(spec)
        agreement = "agrees" if oracle.keys() == set(closed) else "DISAGREES"
        print(f"  oracle multiset {agreement}: {oracle}")
        squares = sum(deg * deg * mult for deg, mult in oracle.items())
        print(f"  sum of squared degrees = {squares} = |G|")


def main() -> None:
    print("The smallest Suzuki group and its automorphism group:")
    show_group(1, 1)
    show_group(1, 3)
    print("\nNote what vanished at Aut(Sz(8)): 65 = q^4+1 (a=1 excluded),")
    print("35 (b=1 excluded at f=1 mod 4) and 3*91 (c=3 excluded), while")
    print("105 = 3*35 and 195 = 3*65 appeared.")

    print("\nA composite outer index (f=4, 2f+1=9):")
    for d in divisors_of(9):
        show_group(4, d)

    print("\nDegree counts of proper extensions, next to Corollary B's")
    print("|cd(G)| = 3 + 3*tau(d) - [G = Aut(S)]*(2 + [3 | d]), tau(d) = #divisors of d:")
    for f, d in [(1, 3), (2, 5), (3, 7), (4, 3), (4, 9), (7, 15)]:
        spec = ExtensionSpec(make_params(f), d)
        formula = 3 + 3 * len(divisors_of(d)) - spec.is_aut * (2 + (d % 3 == 0))
        print(f"  f={f} d={d}: |cd(G)| = {len(cd_closed_form(spec))}, formula {formula}")
    print("So |cd(G)| >= 7 once f > 1 (>= 9 for composite d); f = 1 has only 6.")

    print("\nClosed form at a field far past any enumeration budget:")
    big = ExtensionSpec(make_params(31), 63)
    degrees = sorted(cd_closed_form(big))
    print(f"  f=31, d=63: {len(degrees)} degrees, largest = {degrees[-1]}")


if __name__ == "__main__":
    main()
