"""Command-line front end.

Subcommands (``verify`` offers each scope the options of its sweeps)::

    suzuki-cd cd --f 1 --d 3 [--json] [--multiplicities] [--output PATH]
    suzuki-cd verify {lemmas,stabilizers,theorem-a} [--f-max N] [--jobs N]
    suzuki-cd verify corollary-b [--f-max N]
    suzuki-cd verify cyclotomic [--n-max N] [--samples N] [--seed N] [--jobs N]
    suzuki-cd orbits --f 1 --family X [--json]
    suzuki-cd gcd-table --f 1..8 [--output PATH]

Exit codes: 0 success, 1 verification failure or broken invariant, 2
usage error, 3 budget violation (f past params.F_MAX, oracle size cap,
sweep size cap, gcd-table range cap or int->str digit limit), 4 I/O
error.  ``cd`` renders each integer once, in output order, and counts
each d's orbits (cd_multiset) only after rendering that d's integers, so
an unprintable one refuses before that d counts; ``gcd-table`` renders
its closed-form column before any Euclid call.
``cd`` counts when --multiplicities is given or f <= 4, and then prints
``verified_against_oracle: true``: the counted degrees agreed with the
closed form, since a disagreement raises InvariantError and exits 1.
Otherwise its JSON says false and gives null multiplicities.
``orbits`` derives its histogram from the gcd lemmas at every accepted
f and never enumerates; for X, Y and Z it exits 3 from f = 7143, where
the family count passes the digit limit.  This module imports only
characters (the --family choices), errors and params; each subcommand
imports the modules it runs.  So ``cd`` and ``orbits`` start without the
sweeps or the cyclotomic code and load the gcd closed forms only to
count, while ``gcd-table`` and ``verify lemmas`` load neither the
degrees nor the stabilizers, ``verify cyclotomic`` not even the gcd
closed forms, and no other scope the cyclotomic code.
All output is deterministic (ascending degrees/divisors, fixed key
order) and uses UTF-8 with LF line endings; --output writes bytes
identical to what stdout would receive.
"""

from __future__ import annotations

import argparse
import sys

from .characters import Family, family_count
from .errors import BudgetExceededError, InvariantError, require_within, to_decimal
from .params import divisors_of, make_params

# Each verify scope: the verification sweeps it runs, in output order, each
# with the options it reads, which are its parameters.
VERIFY_SWEEPS = {
    "lemmas": (("verify_gcd_closed_forms", "f_max", "jobs"), ("verify_class_counts", "f_max")),
    "stabilizers": (("verify_stabilizer_witnesses", "f_max", "jobs"),),
    "theorem-a": (("verify_degree_sets", "f_max", "jobs"),),
    "corollary-b": (("verify_degree_count_bounds", "f_max"),),
    "cyclotomic": (("verify_quad_identity", "n_max", "samples", "seed", "jobs"),),
}
# Largest accepted sum of f^2 over a gcd-table range LO..HI: each row runs
# Euclid on (2f+1)-bit integers.  The model overstates the cost at large f,
# so the slowest accepted range is the longest 1..HI, 1..2691, which takes
# about 1.3 s (5000..5200 about 0.74 s; whole commands, medians of 7
# alternating fresh runs, 2-vCPU Xeon, Python 3.11.7).  A single
# f is not a range and is not capped here; make_params caps it at F_MAX.
GCD_TABLE_SIZE_LIMIT = 6_500_000_000


def main(argv: list[str] | None = None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    if extras:  # reported with the subcommand's usage, not the root parser's
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suzuki-cd",
        description="Exact character degree sets of Sz(q^2) and its extensions.",
    )
    sub = parser.add_subparsers(required=True)

    p_cd = sub.add_parser("cd", help="degree set/multiset of one extension")
    p_cd.add_argument("--f", type=int, required=True, help="field parameter, q^2 = 2^(2f+1)")
    p_cd.add_argument("--d", default="1", help="index of G over S (divisor of 2f+1), or 'all'")
    p_cd.add_argument("--json", action="store_true", help="emit the JSON schema instead of a table")
    p_cd.add_argument(
        "--multiplicities",
        action="store_true",
        help="include multiplicities from Clifford counting over orbit counts (any f)",
    )
    p_cd.add_argument("--output", help="write to this path instead of stdout")
    p_cd.set_defaults(func=_cmd_cd, parser=p_cd)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    scopes = p_verify.add_subparsers(dest="scope", required=True)
    for scope, sweeps in VERIFY_SWEEPS.items():
        p_scope = scopes.add_parser(scope)
        for option in dict.fromkeys(opt for _, *options in sweeps for opt in options):
            p_scope.add_argument("--" + option.replace("_", "-"), type=int)
        p_scope.set_defaults(func=_cmd_verify, parser=p_scope)

    p_orbits = sub.add_parser("orbits", help="stabilizer-exponent histogram of one family")
    p_orbits.add_argument("--f", type=int, required=True)
    p_orbits.add_argument("--family", required=True, choices=[fam.value for fam in Family])
    p_orbits.add_argument("--json", action="store_true")
    p_orbits.add_argument("--output", help="write to this path instead of stdout")
    p_orbits.set_defaults(func=_cmd_orbits, parser=p_orbits)

    p_table = sub.add_parser("gcd-table", help="closed form vs Euclid as CSV")
    p_table.add_argument("--f", default="1..8", help="single f or inclusive range like 1..8")
    p_table.add_argument("--output", help="write to this path instead of stdout")
    p_table.set_defaults(func=_cmd_gcd_table, parser=p_table)

    return parser


def _cmd_cd(args: argparse.Namespace) -> int:
    # here, so that gcd-table and verify lemmas or cyclotomic never load it
    from .degrees import ExtensionSpec, cd_closed_form, cd_multiset

    p = make_params(args.f)
    d_form = "an integer or 'all'"
    ds = divisors_of(p.out_order) if args.d == "all" else _ints("--d", d_form, args.d, [args.d])
    q2 = to_decimal(p.q2)
    counted = args.multiplicities or p.f <= 4
    bodies: list = []  # one JSON payload or text block per d
    for d in ds:
        spec = ExtensionSpec(p, d)
        # Render each d's integers before it counts, in output order, so that
        # one past the digit limit refuses before that d's orbits are counted.
        header = None if args.json else (
            f"# cd(G) for f={p.f}, d={d} (q2={q2}, |G|={to_decimal(spec.order)})"
        )
        degrees = {deg: to_decimal(deg) for deg in sorted(cd_closed_form(spec))}
        # cd_multiset raises unless its degrees are the closed form's
        mults = cd_multiset(spec) if counted else dict.fromkeys(degrees)
        rows = [(text, mults[deg]) for deg, text in degrees.items()]
        if args.json:
            bodies.append({
                "f": p.f,
                "d": d,
                "q2": q2,
                "degrees": [{"degree": text, "multiplicity": mult} for text, mult in rows],
                "verified_against_oracle": counted,
            })
            continue
        lines = [header]
        if args.multiplicities:
            lines.append("degree multiplicity")
            lines.extend(f"{text} {to_decimal(mult)}" for text, mult in rows)
        else:
            lines.extend(text for text, _ in rows)
        if counted:
            lines.append("verified_against_oracle: true")
        bodies.append("\n".join(lines) + "\n")
    if args.json:
        import json
        text = json.dumps(bodies if args.d == "all" else bodies[0], indent=2) + "\n"
    else:
        text = "\n".join(bodies)
    _emit(text, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification
    reports = []
    for name, *options in VERIFY_SWEEPS[args.scope]:
        # an option left out takes its sweep's own default
        given = {k: getattr(args, k) for k in options if getattr(args, k) is not None}
        reports.append(getattr(verification, name)(**given))
    for report in reports:
        print(report.summary())
        for failure in report.failures[:5]:
            print(f"  counterexample: {failure}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_orbits(args: argparse.Namespace) -> int:
    from .stabilizers import orbit_counts  # here, for the same reason as _cmd_cd's

    p = make_params(args.f)
    family = Family(args.family)
    # every count is at most the family count, so this refuses first
    to_decimal(family_count(p, family))
    rows = sorted(orbit_counts(p, family).items())
    if args.json:
        import json
        report = {
            "f": p.f,
            "family": family.value,
            "orbits": [{"stabilizer_exponent": n, "count": c} for n, c in rows],
        }
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = [f"# orbits for f={p.f}, family={family.value}"]
        lines.append("stabilizer_exponent count")
        lines.extend(f"{n} {c}" for n, c in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_gcd_table(args: argparse.Namespace) -> int:
    import csv
    import io

    from .numtheory import gcd_closed_form_rows, gcd_verification_rows
    f_values = _parse_f_range(args.f)
    make_params(f_values[-1])  # refuses an f past F_MAX before any row is computed
    # Render the closed-form column of the whole range first, in output
    # order, so that a gcd past the digit limit refuses before Euclid runs.
    tables = []
    for f in f_values:
        p = make_params(f)
        closed_forms = gcd_closed_form_rows(p)
        tables.append((p, closed_forms, [to_decimal(case.value) for *_, case in closed_forms]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["f", "n", "torus", "sign", "closed_form", "euclid", "branch", "match"])
    for p, closed_forms, texts in tables:
        rows = gcd_verification_rows(p, closed_forms)
        for (n, torus, sign, case, actual), text in zip(rows, texts):
            sign_text = "+" if sign > 0 else "-"
            match = "true" if case.value == actual else "false"
            euclid = to_decimal(actual)
            writer.writerow([p.f, n, torus, sign_text, text, euclid, case.condition, match])
    _emit(buf.getvalue(), args.output)
    return 0


def _parse_f_range(text: str) -> list[int]:
    ends = _ints("--f", "F or LO..HI", text, text.split("..", 1))
    if len(ends) == 1:
        return ends
    lo, hi = ends
    if hi < lo:
        raise ValueError(f"--f range {text!r} is empty")
    make_params(lo)  # an f below 1 is a usage error, not a cost
    # sum of f^2 for f = lo..hi: the sum up to hi minus the sum up to lo-1
    size = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
    require_within(f"--f {text}: sum of f^2 =", size, GCD_TABLE_SIZE_LIMIT)
    return list(range(lo, hi + 1))


def _ints(option: str, form: str, text: str, parts: list[str]) -> list[int]:
    # parts are the pieces of an option's text; a bad one names the option
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"{option} must be {form}, got {text!r}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


if __name__ == "__main__":
    sys.exit(main())
