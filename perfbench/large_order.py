"""Large-order cyclotomic workload, driven through the public library API.

For f = 4, 5, 6 and each torus family X, Y, Z it draws seeded labels
(raw index i), exponents l and offsets k, and compares the library's
torus character value against two sums built here from the value
formula itself, with the raw (not canonical) index:

- ``value + sum_{t < p} zeta^(k + t n/p)`` with p the least prime
  factor of the torus order n: a full coset of the order-p subgroup
  sums to zero, so the library must answer "equal";
- ``value + zeta^k``: never equal.

The torus orders reach 8321, far past the table-accelerated range, so
this exercises Phi_n construction and the dense remainder.

Run as ``python3 perfbench/large_order.py --seed N`` with the package on
``PYTHONPATH``; prints one JSON verdict line per case.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

F_VALUES = (4, 5, 6)
FAMILIES = ("X", "Y", "Z")
LABELS_PER_FAMILY = 6


def torus_order(f: int, family: str) -> int:
    q2 = 1 << (2 * f + 1)
    r = 1 << (f + 1)
    return {"X": q2 - 1, "Y": q2 + r + 1, "Z": q2 - r + 1}[family]


def least_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def cases(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for f in F_VALUES:
        for family in FAMILIES:
            n = torus_order(f, family)
            for _ in range(LABELS_PER_FAMILY):
                out.append(
                    {
                        "f": f,
                        "family": family,
                        "index": rng.randrange(1, n),
                        "l": rng.randrange(1, n + 1),
                        "k": rng.randrange(n),
                    }
                )
    return out


def run(seed: int) -> None:
    from suzuki_cd import Family, make_label, make_params, root_power_sum, torus_value

    for case in cases(seed):
        f, family, i, l, k = (case[key] for key in ("f", "family", "index", "l", "k"))
        n = torus_order(f, family)
        e = i * l
        if family == "X":
            formula = root_power_sum(n, [e, -e], [1, 1])
        else:
            q = (1 << (2 * f + 1)) % n
            formula = root_power_sum(n, [e, -e, e * q, -e * q], [-1, -1, -1, -1])
        prime = least_prime_factor(n)
        coset = root_power_sum(n, [k + t * (n // prime) for t in range(prime)], [1] * prime)
        params = make_params(f)
        value = torus_value(params, make_label(params, Family(family), i), l)
        verdict = dict(case)
        verdict["coset"] = value.equals(formula + coset)
        verdict["single"] = value.equals(formula + root_power_sum(n, [k], [1]))
        print(json.dumps(verdict))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Large-order cyclotomic workload.")
    parser.add_argument("--seed", type=int, required=True)
    run(parser.parse_args(argv).seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
