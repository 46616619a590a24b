#!/usr/bin/env python3
"""How the field automorphism shuffles the characters of Sz(q^2).

Shows index-doubling orbits, exact stabilizer exponents, the witness
constructions, and the exceptional witnessless branches moving with
f mod 4.
"""

from suzuki_cd import (
    Family,
    canonical_indices,
    divisors_of,
    exact_stabilizer_exponent,
    make_label,
    make_params,
    orbit_oracle,
    phi_power_on_label,
    witness_for,
)


def doubling_orbits(f: int, family: Family) -> None:
    p = make_params(f)
    seen = set()
    print(f"  {family.value} labels of f={f} under repeated doubling:")
    for idx in canonical_indices(p, family):
        if idx in seen:
            continue
        label = make_label(p, family, idx)
        orbit = [label.index]
        cur = phi_power_on_label(p, label, 1)
        while cur != label:
            orbit.append(cur.index)
            cur = phi_power_on_label(p, cur, 1)
        seen.update(orbit)
        print(f"    orbit {orbit} (exact exponent {len(orbit)})")


def main() -> None:
    print("Small orbits, fully spelled out:")
    for family in (Family.X, Family.Y, Family.Z):
        doubling_orbits(1, family)

    print("\nExact-exponent histograms (label counts per exponent):")
    for f in (1, 2, 4, 7):
        p = make_params(f)
        row = {
            fam.value: orbit_oracle(p, fam)
            for fam in (Family.X, Family.Y, Family.Z)
        }
        print(f"  f={f} (2f+1={p.out_order}): {row}")

    print("\nWitness labels per admissible exponent (None = witnessless):")
    for f in (1, 4, 7):
        p = make_params(f)
        for family in (Family.X, Family.Y, Family.Z):
            row = {n: witness_for(p, family, n) for n in divisors_of(p.out_order)}
            print(f"  f={f} {family.value}: {row}")
    print("\nNote the mirrored exceptions: at f=4 (f=0 mod 4) Y lacks an")
    print("exponent-3 witness and Z lacks exponent 1; at f=1 and f=7 the")
    print("classes swap. The invariant label on the 5-divisible torus:")
    for f in (4, 7):
        p = make_params(f)
        j = p.a1 // 5
        exp = exact_stabilizer_exponent(p, make_label(p, Family.Y, j))
        print(f"  f={f}: Y index a1/5 = {j} has exact exponent {exp}")


if __name__ == "__main__":
    main()
