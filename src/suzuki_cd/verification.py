"""Exhaustive verification sweeps: closed forms vs brute-force oracles.

Each sweep re-derives one layer of the library from first principles
(Euclid, exact cyclotomic equality, orbit enumeration, Clifford
counting) and compares against the closed-form implementation, over an
exhaustive parameter range.  Sweeps return a :class:`SweepReport`; a
report with failures carries printable minimal counterexamples.  Each
sweep checks its sizes before any work: too small raises ValueError,
too large BudgetExceededError, naming the ``suzuki-cd verify`` option.

The per-f work items are independent, so sweeps accept a ``jobs``
argument and fan out over a process pool of at most min(jobs, items,
CPUs) workers; results are merged in deterministic order regardless of
worker count.  The pool's modules are imported only when that is > 1.
An InvariantError raised while one item runs becomes that item's
result, one failed check with the error's text; the other items still run.

This module imports only characters, params and errors.  Each sweep or
worker imports the cyclotomic, numtheory, stabilizers and degrees names
it calls, so a sweep loads only the layers it checks: ``verify
cyclotomic`` only cyclotomic, ``verify lemmas`` only numtheory.  A
command starts in a fresh interpreter that may write no bytecode cache,
and then compiles every module it imports.
"""

from __future__ import annotations

import os
import random
import sys
from collections.abc import Callable
from functools import partial
from math import gcd as _math_gcd

from .characters import ORACLE_F_MAX, Family, family_count, make_label, torus_order_of
from .errors import InvariantError, require_within
from .params import divisors_of, make_params

DEFAULT_SEED = 20160414
# Largest accepted sizes (shared 2-vCPU Xeon, Python 3.11.7; in-process
# medians of 3 runs, each in a fresh interpreter; runs swing by a quarter).
# The gcd and class-count sweeps and the corollary-b sweep grow
# superlinearly in f_max: 1.6 s each at their limits (medians of 5; up to
# 2.6 s on a busier host).  The quad sweep grows with n_max * samples
# and, per check, with n, so its slowest accepted pair is n_max 1000 with
# samples 200: 0.55-0.64 s (two medians of 7), where n_max 500 with
# samples 400 took 0.21-0.26 s.  ORACLE_F_MAX
# caps the two sweeps that enumerate orbits: stabilizers and theorem-a
# 0.25 s each at f_max 10 (medians of 5; 0.19 s and 0.18 s in an earlier
# set of 3), about nine tenths of it orbit_oracle at f = 9 and 10.
LEMMAS_F_MAX_LIMIT = 2400
COROLLARY_B_F_MAX_LIMIT = 3800
N_MAX_LIMIT = 1000
SAMPLED_PAIRS_LIMIT = 200_000


class SweepReport:
    """Mutable tally of one sweep: its scope name, the number of checks
    run, and one printable message per failed check."""

    __slots__ = ("scope", "checks", "failures")

    def __init__(self, scope: str, checks: int = 0, failures: list[str] | None = None) -> None:
        self.scope = scope
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.passed else f"FAILED ({len(self.failures)})"
        return f"{self.scope}: {self.checks} checks, {status}"


def verify_gcd_closed_forms(f_max: int = 64, jobs: int = 1) -> SweepReport:
    """Every closed-form gcd equals Euclid, and collisions between
    exponents happen exactly where the classifier says they do.

    Every check is per f, so all grow with f_max: the torus and q^4+1
    rows, and the X kernel orders gcd(q^2-1, 2^n -+ 1) at the arguments
    stabilizers._kernel_orders passes to gcd_split_torus."""
    _require_size("--f-max", f_max, 1, LEMMAS_F_MAX_LIMIT)
    return _merge("gcd-closed-forms", _map_ordered(_gcd_worker, range(1, f_max + 1), jobs))


def verify_class_counts(f_max: int = 64) -> SweepReport:
    """Family counts sum to q^2 + 3; torus orders pairwise coprime; 3
    never divides the group order."""
    _require_size("--f-max", f_max, 1, LEMMAS_F_MAX_LIMIT)
    report = SweepReport("class-counts")
    for f in range(1, f_max + 1):
        p = make_params(f)
        total = sum(family_count(p, fam) for fam in Family)
        _check(report, total == p.q2 + 3, lambda: f"f={f}: class count {total} != q^2+3")
        for x, y in ((p.a0, p.a1), (p.a0, p.a2), (p.a1, p.a2)):
            _check(report, _math_gcd(x, y) == 1, lambda: f"f={f}: gcd({x},{y}) != 1")
        _check(report, p.group_order % 3 != 0, lambda: f"f={f}: 3 divides |S|")
        _check(report, p.a1 * p.a2 == p.q4 + 1, lambda: f"f={f}: a1*a2 != q^4+1")
    return report


def verify_quad_identity(
    n_max: int = 200,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> SweepReport:
    """Exact cyclotomic equality of the four-root sums agrees with the
    congruence criterion, for every order with a square root of -1."""
    _require_size("--n-max", n_max, 1, N_MAX_LIMIT)
    _require_size("--samples", samples, 0)
    require_within(f"--n-max {n_max} * --samples {samples} =", n_max * samples, SAMPLED_PAIRS_LIMIT)
    items = [
        (n, roots, samples, seed)
        for n in range(1, n_max + 1)
        if (roots := _roots_of_minus_one(n))
    ]
    return _merge("quad-identity", _map_ordered(_quad_worker, items, jobs))


def verify_stabilizer_witnesses(f_max: int = 8, jobs: int = 1) -> SweepReport:
    """Witnesses and derived orbit histograms agree with exhaustive orbit
    enumeration at every exponent, witnessless ones too; the invariant label
    is N/5, the n = 1 witness of the Y or Z that is_witnessless gives one."""
    _require_size("--f-max", f_max, 1, ORACLE_F_MAX)
    return _merge("stabilizer-witnesses", _map_ordered(_stabilizer_worker, range(1, f_max + 1), jobs))


def verify_degree_sets(f_max: int = 8, jobs: int = 1) -> SweepReport:
    """Closed-form cd(G) equals the Clifford-counting oracle for every
    d | 2f+1, and the counted multiset equals the enumerated one.

    The closed form's per-family degrees are pairwise distinct, so a
    wrong degree over one family cannot cancel in the union: agreement
    of the whole set pins every family's degrees."""
    _require_size("--f-max", f_max, 1, ORACLE_F_MAX)
    return _merge("degree-sets", _map_ordered(_degree_worker, range(1, f_max + 1), jobs))


def verify_degree_count_bounds(f_max: int = 16) -> SweepReport:
    """|cd(G)| >= 7 for proper extensions with f > 1 (>= 9 for composite
    d), while f = 1, d = 3 gives exactly 6."""
    from .degrees import ExtensionSpec, check_corollary_b

    _require_size("--f-max", f_max, 1, COROLLARY_B_F_MAX_LIMIT)
    report = SweepReport("degree-count-bounds")
    for f in range(2, f_max + 1):
        p = make_params(f)
        for d in divisors_of(p.out_order):
            if d == 1:
                continue
            res = check_corollary_b(ExtensionSpec(p, d))
            _check(
                report,
                res.hypotheses_met and res.passed,
                lambda: f"f={f} d={d}: |cd|={res.cardinality} < {res.required}",
            )
    sharp = check_corollary_b(ExtensionSpec(make_params(1), 3))
    _check(
        report,
        not sharp.hypotheses_met and sharp.cardinality == 6,
        lambda: f"f=1 d=3: expected 6 degrees, got {sharp.cardinality}",
    )
    return report


# ---------------------------------------------------------------------------
# per-item workers (top level so they pickle for the process pool)


def _gcd_worker(f: int) -> SweepReport:
    from .numtheory import (
        Torus,
        coincidence_classify,
        euclid_gcd,
        gcd_closed_form_rows,
        gcd_split_torus,
        gcd_verification_rows,
    )

    report = SweepReport("")
    p = make_params(f)
    # (n, torus name, sign) -> gcd, from the one closed-form-vs-Euclid grid
    euclid: dict[tuple[int, str, int], int] = {}
    for n, torus_name, sign, case, actual in gcd_verification_rows(p, gcd_closed_form_rows(p)):
        euclid[n, torus_name, sign] = actual
        _check(
            report,
            case.value == actual,
            lambda: f"f={f} n={n} {torus_name} sign={sign}: "
            f"closed {case.value} != euclid {actual}",
        )
    proper = divisors_of(p.out_order)[:-1]
    for n in proper:
        for sign in (-1, 1):
            _check(
                report,
                euclid_gcd(p.q4 + 1, (1 << n) + sign) == 1,
                lambda: f"f={f} n={n} sign={sign}: gcd(q^4+1, 2^n{sign:+d}) != 1",
            )
            # the X kernel orders of stabilizers._kernel_orders; Euclid's pair
            # has the same gcd, as q^2 == 1 (mod q^2-1)
            closed = gcd_split_torus(p, n, sign)
            actual = euclid_gcd(p.a0, (1 << n) + sign)
            _check(
                report,
                closed == actual,
                lambda: f"f={f} n={n} sign={sign}: gcd(q^2-1, 2^n{sign:+d}) "
                f"closed {closed} != euclid {actual}",
            )
        for torus in Torus:
            nontrivial = sum(1 for sign in (-1, 1) if euclid[n, torus.value, sign] > 1)
            _check(
                report,
                nontrivial <= 1,
                lambda: f"f={f} n={n} {torus.value}: both signs nontrivial",
            )
    # collisions between exponent pairs
    for m in proper:
        for n in proper:
            if m == n or n % m != 0:
                continue
            case = coincidence_classify(p, m, n)
            for torus in Torus:
                for sign_n in (-1, 1):
                    d1 = euclid[n, torus.value, sign_n]
                    if d1 == 1:
                        continue
                    for sign_m in (-1, 1):
                        d2 = euclid[m, torus.value, sign_m]
                        observed = d1 == d2
                        predicted = (
                            case is not None
                            and case.torus is torus
                            and case.sign_n == sign_n
                            and case.sign_m == sign_m
                        )
                        _check(
                            report,
                            observed == predicted,
                            lambda: f"f={f} (m,n)=({m},{n}) {torus.value} "
                            f"signs=({sign_m},{sign_n}): d1={d1} d2={d2} "
                            f"predicted={predicted}",
                        )
                        if predicted:
                            _check(
                                report,
                                d1 == d2 == 5,
                                lambda: f"f={f} collision with d1={d1}, d2={d2} != 5",
                            )
    return report


def _quad_worker(args: tuple[int, list[int], int, int]) -> SweepReport:
    from .cyclotomic import quad_sum_equivalence

    n, roots, samples, seed = args
    report = SweepReport("")
    rng = random.Random(seed * 1000003 + n)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
    for k in roots:
        boundary = {v % n for v in (0, 1, 2, n - 2, n - 1, k, k - 1, k + 1, n - k)}
        block = sorted({(i, j) for i in boundary for j in boundary}.union(pairs))
        # _check's count and messages, taken for the whole block at once
        report.checks += len(block)
        report.failures += [
            f"n={n} k={k} i={i} j={j}: identity={identity} congruence={congruence}"
            for (i, j), (identity, congruence) in zip(block, quad_sum_equivalence(n, k, block))
            if identity != congruence
        ]
    return report


def _stabilizer_worker(f: int) -> SweepReport:
    from .stabilizers import (
        exact_stabilizer_exponent,
        is_witnessless,
        orbit_counts,
        orbit_oracle,
        witness_for,
    )

    report = SweepReport("")
    p = make_params(f)
    divisors = divisors_of(p.out_order)
    witnesses = {}
    for family in (Family.X, Family.Y, Family.Z):
        hist = orbit_oracle(p, family)
        counted = orbit_counts(p, family)
        _check(
            report,
            counted == hist,
            lambda: f"f={f} {family.value}: orbit_counts {counted} != orbit_oracle {hist}",
        )
        for n in divisors:
            w = witnesses[family, n] = witness_for(p, family, n)
            oracle_has = hist.get(n, 0) > 0
            _check(
                report,
                (w is not None) == oracle_has,
                lambda: f"f={f} {family.value} n={n}: witness={w} oracle_count={hist.get(n, 0)}",
            )
            if w is not None:
                exp = exact_stabilizer_exponent(p, make_label(p, family, w))
                _check(
                    report,
                    exp == n,
                    lambda: f"f={f} {family.value} n={n}: witness {w} has exponent {exp}",
                )
    # No torus order divides q^2 +- 2^n for proper n, except the single
    # degenerate pair a2 = 5 | q^2 + 2 = 10 at f = 1 (q^2 + 2^n = 2*a2
    # needs 2^n = 2*(2^f - 1)^2, a power of two only for f = 1).
    for n in divisors[:-1]:
        for order in (p.a1, p.a2):
            for sign in (-1, 1):
                divides = (p.q2 + sign * (1 << n)) % order == 0
                allowed = f == 1 and order == p.a2 and sign == 1 and n == 1
                _check(
                    report,
                    divides == allowed,
                    lambda: f"f={f} n={n}: torus order {order} vs q^2{sign:+d}*2^n: "
                    f"divides={divides}",
                )
    # the invariant label: the Y or Z that is_witnessless gives one has
    # 5 | N, and its n = 1 witness (exponent checked above) is N/5
    family = Family.Z if is_witnessless(p, Family.Y, 1) else Family.Y
    order, w = torus_order_of(p, family), witnesses[family, 1]
    _check(report, order % 5 == 0, lambda: f"f={f}: expected 5 | {family.value} order {order}")
    _check(report, w == order // 5, lambda: f"f={f} {family.value}: n=1 witness {w} != {order}/5")
    return report


def _degree_worker(f: int) -> SweepReport:
    from .degrees import ExtensionSpec, cd_closed_form, cd_multiset, cd_oracle

    report = SweepReport("")
    p = make_params(f)
    for d in divisors_of(p.out_order):
        spec = ExtensionSpec(p, d)
        closed = cd_closed_form(spec)
        oracle = cd_oracle(spec)
        _check(
            report,
            oracle.keys() == closed,
            lambda: f"f={f} d={d}: oracle keys {list(oracle)} != closed form {sorted(closed)}",
        )
        _check(
            report,
            cd_multiset(spec) == oracle,
            lambda: f"f={f} d={d}: counted multiset differs from the enumerated one",
        )
    return report


# ---------------------------------------------------------------------------
# plumbing


def _roots_of_minus_one(n: int) -> list[int]:
    # k^2 == -1 exactly when (n - k)^2 == -1, so scan k <= n // 2 and mirror
    low = [k for k in range(n // 2 + 1) if (k * k + 1) % n == 0]
    return low + [n - k for k in reversed(low) if 0 < k < n - k]


def _check(report: SweepReport, ok: bool, message: Callable[[], str]) -> None:
    """Count one check; only a failed one builds its message."""
    report.checks += 1
    if not ok:
        report.failures.append(message())


def _require_size(name: str, value: int, least: int, limit: int | None = None) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if limit is not None:
        require_within(name, value, limit)


def _map_ordered(fn, items, jobs: int) -> list[SweepReport]:
    _require_size("--jobs", jobs, 1)
    items = list(items)
    run = partial(_run_item, fn)
    # the pool starts all its workers at once, so ask for no more than can run
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        # Imported here so that serial runs do not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run, items))
        except (OSError, BrokenProcessPool) as exc:  # pragma: no cover
            print(f"worker pool unavailable ({exc}); running serially", file=sys.stderr)
    return [run(item) for item in items]


def _run_item(fn, item) -> SweepReport:
    """fn(item), or one failed check with its InvariantError's text; top level, so it pickles."""
    try:
        return fn(item)
    except InvariantError as exc:
        return SweepReport("", 1, [str(exc)])


def _merge(scope: str, reports: list[SweepReport]) -> SweepReport:
    merged = SweepReport(scope)
    for report in reports:
        merged.checks += report.checks
        merged.failures.extend(report.failures)
    return merged
