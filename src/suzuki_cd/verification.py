"""Exhaustive verification sweeps: closed forms vs brute-force oracles.

Each sweep re-derives one layer of the library from first principles
(Euclid, exact cyclotomic equality, orbit enumeration, Clifford
counting) and compares against the closed-form implementation, over an
exhaustive parameter range.  Sweeps return a :class:`SweepReport`; a
report with failures carries printable minimal counterexamples.  Each
sweep checks its sizes before any work: too small raises ValueError,
too large BudgetExceededError, naming the ``suzuki-cd verify`` option.

Every sweep hands its items, each f or (quad sweep) each order n, to
_sweep, the one sweep loop.  It runs the sweep's worker on each item
through _run_item, which hands the worker a fresh report to fill, and
adds the items' reports, in item order, into the sweep's report.  An
InvariantError raised while one item runs becomes that item's report,
one failed check with the error's text; the other items still run.  The
items are independent, so four sweeps accept a ``jobs`` argument and
_sweep fans their items out over a process pool of at most min(jobs,
items, CPUs) workers; the class-count and corollary-b sweeps run
serially.  The pool's modules are imported only when that is > 1.

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
from itertools import product
from math import gcd as _math_gcd

from .characters import ORACLE_F_MAX, Family, family_count, make_label, torus_order_of
from .errors import InvariantError, require_within
from .params import divisors_of, make_params

DEFAULT_SEED = 20160414
# Largest accepted sizes (shared 2-vCPU Xeon, Python 3.11.7; in-process
# medians, each run in a fresh interpreter, import included; runs swing
# by a quarter).  The gcd and class-count sweeps and the corollary-b sweep
# grow superlinearly in f_max: 0.98 s and 0.67 s at their limits (medians
# of 9; up to 2.6 s on a busier host).  The quad sweep grows with
# n_max * samples and, per check, with n, so its slowest accepted pair is
# n_max 1000 with samples 200: 0.26 s (median of 7), where n_max 500 with
# samples 400 took 0.13 s.  ORACLE_F_MAX caps the two sweeps that
# enumerate orbits: stabilizers and theorem-a 0.15 s each at f_max 10
# (medians of 7), about nine tenths of it orbit_oracle at f = 9 and 10.
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
    """Every closed-form torus gcd equals Euclid, and three gcd lemmas
    hold on the Euclid values of the torus rows.

    Every check is per f, so all grow with f_max: the torus rows (the
    q^4+1 rows are their products), gcd(q^4+1, 2^n -+ 1) = 1, and the X
    kernel orders gcd(q^2-1, 2^n -+ 1), the split-torus case of
    gcd_torus, at the arguments stabilizers._kernel_orders passes.
    Each lemma is one check per f, the set it observes against
    the set it predicts: (a) equal nontrivial gcds at exponents m | n are
    exactly the collisions coincidence_classify gives, each of value 5;
    (b) no (n, torus) has a nontrivial gcd at both signs; (c) no torus
    order divides q^2 +- 2^n, except a2 = 5 | q^2 + 2 at f = 1."""
    return _sweep("gcd-closed-forms", _gcd_worker, _f_range(f_max, LEMMAS_F_MAX_LIMIT), jobs)


def verify_class_counts(f_max: int = 64) -> SweepReport:
    """Family counts sum to q^2 + 3; torus orders pairwise coprime; 3
    never divides the group order."""
    return _sweep("class-counts", _class_count_worker, _f_range(f_max, LEMMAS_F_MAX_LIMIT))


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
    return _sweep("quad-identity", _quad_worker, items, jobs)


def verify_stabilizer_witnesses(f_max: int = 8, jobs: int = 1) -> SweepReport:
    """Witnesses and derived orbit histograms agree with exhaustive orbit
    enumeration at every exponent, witnessless ones too; each witness's
    exact_stabilizer_exponent, read from the fixing criterion, is its n;
    the invariant label is N/5, the n = 1 witness of the Y or Z that
    is_witnessless gives one.  That no torus order divides q^2 +- 2^n is
    a gcd lemma, which verify_gcd_closed_forms checks at every f up to
    its own limit."""
    return _sweep("stabilizer-witnesses", _stabilizer_worker, _f_range(f_max, ORACLE_F_MAX), jobs)


def verify_degree_sets(f_max: int = 8, jobs: int = 1) -> SweepReport:
    """Closed-form cd(G) equals the Clifford-counting oracle for every
    d | 2f+1, and the counted multiset equals the enumerated one.  Each
    family's orbits are enumerated once per f and counted for every d.

    The closed form's per-family degrees are pairwise distinct, so a
    wrong degree over one family cannot cancel in the union: agreement
    of the whole set pins every family's degrees."""
    return _sweep("degree-sets", _degree_worker, _f_range(f_max, ORACLE_F_MAX), jobs)


def verify_degree_count_bounds(f_max: int = 16) -> SweepReport:
    """Corollary B as an exact count: every proper extension (d > 1) has
    |cd(G)| = 3 + 3 tau(d) - [d = 2f+1] (2 + [3 | d]) degrees, tau(d)
    the number of divisors of d.

    That is Theorem A's closed form counted: the three invariant degrees
    and one multiple per divisor of d for each torus family, less a = 1,
    one of b, c = 1 and (when 3 | d) the other at 3 for Aut(S).  As
    tau(d) >= 2 (>= 3 for composite d) and d = 2f+1 = 3 only at f = 1,
    it implies the paper's bounds |cd(G)| >= 7 for f > 1 (>= 9 for
    composite d), and f = 1, d = 3 gives exactly 6."""
    return _sweep("degree-count-bounds", _degree_count_worker, _f_range(f_max, COROLLARY_B_F_MAX_LIMIT))


# ---------------------------------------------------------------------------
# per-item workers, one per f or n: each fills the fresh report that
# _run_item hands it (top level, so that _sweep's pool can pickle them)


def _gcd_worker(report: SweepReport, f: int) -> None:
    from .numtheory import (
        coincidence_classify,
        euclid_gcd,
        gcd_closed_form_rows,
        gcd_torus,
        gcd_verification_rows,
    )

    p = make_params(f)
    # (n, torus name, sign) -> gcd, from the one closed-form-vs-Euclid grid.
    # Its q^4+1 rows are the products of its torus rows, as a1 * a2 = q^4+1
    # with gcd(a1, a2) = 1, which the class-count sweep checks: no Euclid there.
    torus_rows = [row for row in gcd_closed_form_rows(p) if row[1] != "product"]
    euclid: dict[tuple[int, str, int], int] = {}
    for n, torus_name, sign, case, actual in gcd_verification_rows(p, torus_rows):
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
            closed = gcd_torus(p, p.a0, n, sign).value
            actual = euclid_gcd(p.a0, (1 << n) + sign)
            _check(
                report,
                closed == actual,
                lambda: f"f={f} n={n} sign={sign}: gcd(q^2-1, 2^n{sign:+d}) "
                f"closed {closed} != euclid {actual}",
            )
    # each gcd lemma below is one check: the set it observes in Euclid's
    # values against the set it predicts
    orders = {"plus": p.a1, "minus": p.a2}
    pairs = [(m, n) for m in proper for n in proper if m != n and n % m == 0]
    # (a) equal nontrivial gcds at exponents m | n are the classified collisions, of value 5
    observed = {
        (m, n, name, sign_m, sign_n, euclid[n, name, sign_n])
        for m, n in pairs
        for name in orders
        for sign_m, sign_n in product((-1, 1), repeat=2)
        if 1 < euclid[n, name, sign_n] == euclid[m, name, sign_m]
    }
    predicted = {
        (m, n, name, collision.sign_m, collision.sign_n, 5)
        for m, n in pairs
        if (collision := coincidence_classify(p, m, n)) is not None
        for name, order in orders.items()
        if order == collision.order
    }
    _check_same(report, f"f={f} (m, n, torus, sign_m, sign_n, gcd) collisions", observed, predicted)
    # (b) no (n, torus) has a nontrivial gcd at both signs
    both = {
        (n, name) for n in proper for name in orders if euclid[n, name, -1] > 1 < euclid[n, name, 1]
    }
    _check_same(report, f"f={f} (n, torus) nontrivial at both signs", both, set())
    # (c) no torus order divides q^2 +- 2^n, except a2 = 5 | q^2 + 2 = 10 at f = 1
    # (q^2 + 2^n = 2*a2 needs 2^n = 2*(2^f - 1)^2, a power of two only for f = 1)
    dividing = {
        (n, name, sign) for (n, name, sign), value in euclid.items() if value == orders.get(name)
    }
    allowed = {(1, "minus", 1)} if f == 1 else set()
    _check_same(report, f"f={f} (n, torus, sign) with order | q^2+sign*2^n", dividing, allowed)


def _class_count_worker(report: SweepReport, f: int) -> None:
    p = make_params(f)
    total = sum(family_count(p, fam) for fam in Family)
    _check(report, total == p.q2 + 3, lambda: f"f={f}: class count {total} != q^2+3")
    for x, y in ((p.a0, p.a1), (p.a0, p.a2), (p.a1, p.a2)):
        _check(report, _math_gcd(x, y) == 1, lambda: f"f={f}: gcd({x},{y}) != 1")
    _check(report, p.group_order % 3 != 0, lambda: f"f={f}: 3 divides |S|")
    _check(report, p.a1 * p.a2 == p.q4 + 1, lambda: f"f={f}: a1*a2 != q^4+1")


def _quad_worker(report: SweepReport, args: tuple[int, list[int], int, int]) -> None:
    from .cyclotomic import quad_sum_equivalence

    n, roots, samples, seed = args
    rng = random.Random(seed * 1000003 + n)
    # the draws are sorted once per n; each root's block appends the sorted
    # boundary grid's undrawn pairs, two sorted runs that sorted() merges.
    # One call per n takes every root's block; k and -k share its image
    # memo, so _image runs once per orbit that either of them meets.
    drawn = {(rng.randrange(n), rng.randrange(n)) for _ in range(samples)}
    ordered = sorted(drawn)
    blocks = {}
    for k in roots:
        boundary = sorted({v % n for v in (0, 1, 2, n - 2, n - 1, k, k - 1, k + 1, n - k)})
        grid = product(boundary, repeat=2)
        blocks[k] = sorted(ordered + [pair for pair in grid if pair not in drawn])
    answers = quad_sum_equivalence(n, blocks)
    for k, block in blocks.items():
        # _check's count and messages, taken for the whole block at once
        report.checks += len(block)
        report.failures += [
            f"n={n} k={k} i={i} j={j}: identity={identity} congruence={congruence}"
            for (i, j), (identity, congruence) in zip(block, answers[k])
            if identity != congruence
        ]


def _stabilizer_worker(report: SweepReport, f: int) -> None:
    from .stabilizers import (
        exact_stabilizer_exponent,
        is_witnessless,
        orbit_counts,
        orbit_oracle,
        witness_for,
    )

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
    # the invariant label: the Y or Z that is_witnessless gives one has
    # 5 | N, and its n = 1 witness (exponent checked above) is N/5
    family = Family.Z if is_witnessless(p, Family.Y, 1) else Family.Y
    order, w = torus_order_of(p, family), witnesses[family, 1]
    _check(report, order % 5 == 0, lambda: f"f={f}: expected 5 | {family.value} order {order}")
    _check(report, w == order // 5, lambda: f"f={f} {family.value}: n=1 witness {w} != {order}/5")


def _degree_worker(report: SweepReport, f: int) -> None:
    from .degrees import cd_closed_form, cd_multiset, cd_oracle

    p = make_params(f)
    ds = divisors_of(p.out_order)
    # one call per route: each enumerates or derives the histograms once for every d
    closed, counted, oracle = cd_closed_form(p, ds), cd_multiset(p, ds), cd_oracle(p, ds)
    for d in ds:
        _check(
            report,
            oracle[d].keys() == closed[d],
            lambda: f"f={f} d={d}: oracle keys {list(oracle[d])} "
            f"!= closed form {sorted(closed[d])}",
        )
        _check(
            report,
            counted[d] == oracle[d],
            lambda: f"f={f} d={d}: counted multiset differs from the enumerated one",
        )


def _degree_count_worker(report: SweepReport, f: int) -> None:
    from .degrees import cd_closed_form

    p = make_params(f)
    for d, closed in cd_closed_form(p, divisors_of(p.out_order)[1:]).items():
        # the count from d alone, sharing no code with the closed form
        expected = 3 + 3 * len(divisors_of(d)) - (d == p.out_order) * (2 + (d % 3 == 0))
        count = len(closed)
        _check(report, count == expected, lambda: f"f={f} d={d}: |cd|={count} != {expected}")


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


def _check_same(report: SweepReport, what: str, observed: set, predicted: set) -> None:
    """One check that two sets are equal; a failure lists, sorted, what each
    holds that the other lacks."""
    _check(
        report,
        observed == predicted,
        lambda: f"{what}: observed only {sorted(observed - predicted)}, "
        f"predicted only {sorted(predicted - observed)}",
    )


def _require_size(name: str, value: int, least: int, limit: int | None = None) -> None:
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if limit is not None:
        require_within(name, value, limit)


def _f_range(f_max: int, limit: int) -> range:
    """The items of an f-sweep, 1..f_max, once f_max is within its limit."""
    _require_size("--f-max", f_max, 1, limit)
    return range(1, f_max + 1)


def _sweep(scope: str, worker, items, jobs: int = 1) -> SweepReport:
    """The report named scope, with every item's report from _run_item
    added in item order; items is a range or a list."""
    _require_size("--jobs", jobs, 1)
    run = partial(_run_item, worker)
    reports = map(run, items)
    # the pool starts all its workers at once, so ask for no more than can run
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        # Imported here so that serial runs do not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(run, items))
        except (OSError, BrokenProcessPool) as exc:  # pragma: no cover
            print(f"worker pool unavailable ({exc}); running serially", file=sys.stderr)
    report = SweepReport(scope)
    for item_report in reports:
        report.checks += item_report.checks
        report.failures += item_report.failures
    return report


def _run_item(worker, item) -> SweepReport:
    """A fresh report that worker(report, item) fills, or one failed check
    with the text of the InvariantError it raised; top level, so it pickles."""
    report = SweepReport("")
    try:
        worker(report, item)
    except InvariantError as exc:
        return SweepReport("", 1, [str(exc)])
    return report
