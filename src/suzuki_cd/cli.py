"""Command-line front end.

Subcommands::

    suzuki-cd cd --f 1 --d 3 [--json] [--multiplicities] [--output PATH]
    suzuki-cd verify {lemmas,stabilizers,theorem-a,corollary-b,cyclotomic} [--f-max N]
    suzuki-cd orbits --f 1 --family X [--json]
    suzuki-cd gcd-table --f 1..8 [--output PATH]

Exit codes: 0 success, 1 verification failure or broken invariant, 2
usage error, 3 budget violation (oracle size cap, sweep size cap or
int->str digit limit), 4 I/O error.  ``cd`` counts orbits (cd_multiset)
when --multiplicities is given or f <= 4, and then prints
``verified_against_oracle: true``: the counted degrees agreed with the
closed form, since a disagreement raises InvariantError and exits 1.
``orbits`` counts at any f and never enumerates; for X, Y and Z it
exits 3 from f = 7143, where the family count passes the digit limit.
``verify cyclotomic`` caps --n-max at N_MAX_LIMIT and --n-max times
--samples at SAMPLED_PAIRS_LIMIT, about 3 s of sweep at most.  All
output is deterministic (ascending degrees/divisors, fixed key order)
and uses UTF-8 with LF line endings; --output writes bytes identical to
what stdout would receive.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .characters import Family, family_count
from .degrees import DegreeMultiset, ExtensionSpec, cd_closed_form, cd_multiset
from .errors import BudgetExceededError, InvariantError, to_decimal
from .numtheory import gcd_verification_rows
from .params import divisors_of, make_params
from .stabilizers import ORACLE_F_MAX, orbit_counts
from .verification import (
    DEFAULT_SEED,
    SweepReport,
    verify_class_counts,
    verify_degree_count_bounds,
    verify_degree_sets,
    verify_gcd_closed_forms,
    verify_quad_identity,
    verify_stabilizer_witnesses,
)

VERIFY_SCOPES = ("lemmas", "stabilizers", "theorem-a", "corollary-b", "cyclotomic")
# Largest accepted verify cyclotomic sizes.  The sweep's cost grows with
# n-max times samples and, per check, with n: the slowest accepted pair,
# --n-max 1000 --samples 600, takes about 2.9 s (2-vCPU Xeon, Python 3.11).
N_MAX_LIMIT = 1000
SAMPLED_PAIRS_LIMIT = 600_000


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    p_cd.set_defaults(func=_cmd_cd)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("scope", choices=VERIFY_SCOPES)
    p_verify.add_argument("--f-max", type=int, default=None, dest="f_max")
    p_verify.add_argument("--n-max", type=int, default=200, dest="n_max")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    p_orbits = sub.add_parser("orbits", help="stabilizer-exponent histogram of one family")
    p_orbits.add_argument("--f", type=int, required=True)
    p_orbits.add_argument("--family", required=True, choices=[fam.value for fam in Family])
    p_orbits.add_argument("--json", action="store_true")
    p_orbits.add_argument("--output", help="write to this path instead of stdout")
    p_orbits.set_defaults(func=_cmd_orbits)

    p_table = sub.add_parser("gcd-table", help="closed form vs Euclid as CSV")
    p_table.add_argument("--f", default="1..8", help="single f or inclusive range like 1..8")
    p_table.add_argument("--output", help="write to this path instead of stdout")
    p_table.set_defaults(func=_cmd_gcd_table)

    return parser


def _cmd_cd(args: argparse.Namespace) -> int:
    p = make_params(args.f)
    counted = args.multiplicities or p.f <= 4
    if args.d == "all":
        ds = divisors_of(p.out_order)
    else:
        ds = [int(args.d)]
    blocks: list[str] = []
    payloads: list[dict] = []
    for d in ds:
        spec = ExtensionSpec(p, d)
        multiset = cd_multiset(spec) if counted else None
        if args.json:
            payloads.append(degrees_json_payload(spec, multiset))
        else:
            blocks.append(_cd_table(spec, multiset, args.multiplicities))
    if args.json:
        body = payloads[0] if args.d != "all" else payloads
        text = json.dumps(body, indent=2) + "\n"
    else:
        text = "\n".join(blocks)
    _emit(text, args.output)
    return 0


def _cd_table(
    spec: ExtensionSpec, multiset: DegreeMultiset | None, show_mult: bool
) -> str:
    p = spec.params
    lines = [
        f"# cd(G) for f={p.f}, d={spec.d} "
        f"(q2={to_decimal(p.q2)}, |G|={to_decimal(spec.order)})"
    ]
    if show_mult and multiset is not None:
        lines.append("degree multiplicity")
        for deg, mult in sorted(multiset.entries.items()):
            lines.append(f"{to_decimal(deg)} {to_decimal(mult)}")
    else:
        lines.extend(to_decimal(deg) for deg in sorted(cd_closed_form(spec)))
    if multiset is not None:
        # cd_multiset raises rather than return degrees that disagree
        lines.append("verified_against_oracle: true")
    return "\n".join(lines) + "\n"


def degrees_json_payload(spec: ExtensionSpec, multiset: DegreeMultiset | None) -> dict:
    """JSON-ready degree report; big integers become decimal strings.

    ``multiset`` is the cd_multiset result, which has already agreed
    with the closed form, or None when only the closed form was computed
    (multiplicities then serialize as null and verified_against_oracle
    is false).
    """
    if multiset is not None:
        degree_items = [
            {"degree": to_decimal(deg), "multiplicity": mult}
            for deg, mult in sorted(multiset.entries.items())
        ]
    else:
        degree_items = [
            {"degree": to_decimal(deg), "multiplicity": None}
            for deg in sorted(cd_closed_form(spec))
        ]
    return {
        "f": spec.params.f,
        "d": spec.d,
        "q2": to_decimal(spec.params.q2),
        "degrees": degree_items,
        "verified_against_oracle": multiset is not None,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    jobs = args.jobs
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    if args.f_max is not None and args.f_max < 1:
        raise ValueError(f"--f-max must be >= 1, got {args.f_max}")
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    # each sweep's default size lives in its verify_* signature
    sized = {} if args.f_max is None else {"f_max": args.f_max}
    reports: list[SweepReport] = []
    if args.scope == "lemmas":
        reports.append(verify_gcd_closed_forms(**sized, jobs=jobs))
        reports.append(verify_class_counts(**sized))
    elif args.scope == "stabilizers":
        _require_oracle_budget(args.f_max)
        reports.append(verify_stabilizer_witnesses(**sized, jobs=jobs))
    elif args.scope == "theorem-a":
        _require_oracle_budget(args.f_max)
        reports.append(verify_degree_sets(**sized, jobs=jobs))
    elif args.scope == "corollary-b":
        reports.append(verify_degree_count_bounds(**sized))
    else:
        _require_within(f"--n-max {args.n_max}", args.n_max, N_MAX_LIMIT)
        _require_within(
            f"--n-max {args.n_max} * --samples {args.samples} = {args.n_max * args.samples}",
            args.n_max * args.samples,
            SAMPLED_PAIRS_LIMIT,
        )
        reports.append(
            verify_quad_identity(args.n_max, args.samples, args.seed, jobs=jobs)
        )
    ok = True
    for report in reports:
        print(report.summary())
        if not report.passed:
            ok = False
            for failure in report.failures[:5]:
                print(f"  counterexample: {failure}")
    return 0 if ok else 1


def _require_oracle_budget(f_max: int | None) -> None:
    if f_max is not None and f_max > ORACLE_F_MAX:
        raise BudgetExceededError(
            f"this sweep enumerates orbits and needs --f-max <= {ORACLE_F_MAX}"
        )


def _require_within(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise BudgetExceededError(f"{what} is over its limit of {limit}")


def _cmd_orbits(args: argparse.Namespace) -> int:
    p = make_params(args.f)
    family = Family(args.family)
    # every count is at most the family count, so this refuses first
    to_decimal(family_count(p, family))
    rows = sorted(orbit_counts(p, family).items())
    if args.json:
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
    f_values = _parse_f_range(args.f)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["f", "n", "torus", "sign", "closed_form", "euclid", "branch", "match"])
    for f in f_values:
        for n, torus, sign, case, actual in gcd_verification_rows(make_params(f)):
            writer.writerow(
                [
                    f,
                    n,
                    torus,
                    "+" if sign > 0 else "-",
                    to_decimal(case.value),
                    to_decimal(actual),
                    case.condition,
                    "true" if case.value == actual else "false",
                ]
            )
    _emit(buf.getvalue(), args.output)
    return 0


def _parse_f_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"--f range {text!r} is empty")
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


if __name__ == "__main__":
    sys.exit(main())
