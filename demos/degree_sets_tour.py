#!/usr/bin/env python3
"""Tour of character degree sets, from Sz(8) up to bigger fields.

Walks the closed form and the Clifford-counting oracle side by side,
and shows the Aut(S) exceptions switching with f mod 4.
"""

from suzuki_cd import (
    ExtensionSpec,
    cd_closed_form,
    cd_oracle,
    check_corollary_b,
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

    print("\nCardinality bounds for proper extensions:")
    for f, d in [(2, 5), (3, 7), (4, 3), (4, 9), (7, 15)]:
        rep = check_corollary_b(ExtensionSpec(make_params(f), d))
        print(
            f"  f={f} d={d}: |cd(G)| = {rep.cardinality} >= {rep.required}"
            f" ({'ok' if rep.passed else 'VIOLATED'})"
        )
    sharp = check_corollary_b(ExtensionSpec(make_params(1), 3))
    print(f"  f=1 d=3: |cd(G)| = {sharp.cardinality} (why f > 1 is required)")

    print("\nClosed form at a field far past any enumeration budget:")
    big = ExtensionSpec(make_params(31), 63)
    degrees = sorted(cd_closed_form(big))
    print(f"  f=31, d=63: {len(degrees)} degrees, largest = {degrees[-1]}")


if __name__ == "__main__":
    main()
