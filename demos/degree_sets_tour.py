#!/usr/bin/env python3
"""Tour of character degree sets, from Sz(8) up to bigger fields.

Walks the closed form and the Clifford-counting oracle side by side,
shows the Aut(S) exceptions switching with f mod 4, and counts the
degrees of proper extensions against Corollary B's formula.
"""

from suzuki_cd import cd_closed_form, cd_oracle, divisors_of, make_params


def show_groups(f: int, ds: list[int]) -> None:
    """Each G with |G : S| = d for d in ds, from one call per route."""
    p = make_params(f)
    closed_sets = cd_closed_form(p, ds)
    oracles = cd_oracle(p, ds) if p.f <= 10 else {}
    for d in ds:
        tag = "Aut(S)" if d == p.out_order else f"S.{d}" if d > 1 else "S"
        print(f"\nf={f} (q2={p.q2}), G = {tag}, |G| = {d * p.group_order}")
        closed = sorted(closed_sets[d])
        print(f"  closed form ({len(closed)} degrees): {closed}")
        if d in oracles:
            oracle = oracles[d]
            agreement = "agrees" if oracle.keys() == set(closed) else "DISAGREES"
            print(f"  oracle multiset {agreement}: {oracle}")
            squares = sum(deg * deg * mult for deg, mult in oracle.items())
            print(f"  sum of squared degrees = {squares} = |G|")


def main() -> None:
    print("The smallest Suzuki group and its automorphism group:")
    show_groups(1, [1, 3])
    print("\nNote what vanished at Aut(Sz(8)): 65 = q^4+1 (a=1 excluded),")
    print("35 (b=1 excluded at f=1 mod 4) and 3*91 (c=3 excluded), while")
    print("105 = 3*35 and 195 = 3*65 appeared.")

    print("\nA composite outer index (f=4, 2f+1=9):")
    show_groups(4, divisors_of(9))

    print("\nDegree counts of proper extensions, next to Corollary B's")
    print("|cd(G)| = 3 + 3*tau(d) - [G = Aut(S)]*(2 + [3 | d]), tau(d) = #divisors of d:")
    for f, d in [(1, 3), (2, 5), (3, 7), (4, 3), (4, 9), (7, 15)]:
        is_aut = d == 2 * f + 1
        formula = 3 + 3 * len(divisors_of(d)) - is_aut * (2 + (d % 3 == 0))
        count = len(cd_closed_form(make_params(f), [d])[d])
        print(f"  f={f} d={d}: |cd(G)| = {count}, formula {formula}")
    print("So |cd(G)| >= 7 once f > 1 (>= 9 for composite d); f = 1 has only 6.")

    print("\nClosed form at a field far past any enumeration budget:")
    degrees = sorted(cd_closed_form(make_params(31), [63])[63])
    print(f"  f=31, d=63: {len(degrees)} degrees, largest = {degrees[-1]}")


if __name__ == "__main__":
    main()
