"""Acceptance suite: one test per criterion, at full stated bounds.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them inline) and enforces both the exact expected values and the stated
runtime limit.
"""

import time

from suzuki_cd import cd_closed_form, cd_oracle, make_params
from suzuki_cd.verification import (
    verify_class_counts,
    verify_degree_count_bounds,
    verify_degree_sets,
    verify_gcd_closed_forms,
    verify_quad_identity,
    verify_stabilizer_witnesses,
)


def _finish(num: int, desc: str, ok: bool, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"{status} criterion {num}: {desc} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_cd_sz8():
    started = time.perf_counter()
    p = make_params(1)
    closed = cd_closed_form(p, [1])[1]
    oracle = cd_oracle(p, [1])[1]
    ok = (
        closed == {1, 14, 35, 64, 65, 91}
        and oracle.keys() == closed
        and oracle == {1: 1, 14: 2, 35: 3, 64: 1, 65: 3, 91: 1}
        and sum(deg * deg * m for deg, m in oracle.items()) == 29120 == p.group_order
    )
    _finish(1, "cd(Sz(8)) with multiplicities", ok, started, 1.0)


def test_criterion_2_cd_aut_sz8():
    started = time.perf_counter()
    p = make_params(1)
    closed = cd_closed_form(p, [3])[3]
    oracle = cd_oracle(p, [3])[3]
    exceptions_fire = (
        65 not in closed  # a != 1 at G = Aut(S)
        and 35 not in closed  # b != 1 at f == 1 (mod 4)
        and 273 not in closed  # c != 3 at f == 1 (mod 4)
    )
    ok = (
        closed == {1, 14, 64, 91, 105, 195}
        and exceptions_fire
        and oracle.keys() == closed
        and sum(deg * deg * m for deg, m in oracle.items()) == 3 * 29120
    )
    _finish(2, "cd(Aut(Sz(8))) with all three exceptions", ok, started, 1.0)


def test_criterion_3_closed_form_equals_oracle():
    started = time.perf_counter()
    report = verify_degree_sets(8)
    _finish(
        3,
        f"closed form == Clifford oracle for f <= 8, all d ({report.checks} checks)",
        report.passed,
        started,
        120.0,
    )


def test_criterion_4_gcd_closed_forms():
    started = time.perf_counter()
    report = verify_gcd_closed_forms(64)
    _finish(
        4,
        f"gcd closed forms == Euclid and collision cases exact for f <= 64 "
        f"({report.checks} checks)",
        report.passed,
        started,
        30.0,
    )


def test_criterion_5_quad_identity():
    started = time.perf_counter()
    report = verify_quad_identity(n_max=200, samples=200)
    _finish(
        5,
        f"exact cyclotomic identity == congruence test, n <= 200 "
        f"({report.checks} checks)",
        report.passed,
        started,
        120.0,
    )


def test_criterion_6_stabilizer_witnesses():
    started = time.perf_counter()
    report = verify_stabilizer_witnesses(8)
    _finish(
        6,
        f"witnesses == orbit oracle with exact exception branches for f <= 8 "
        f"({report.checks} checks)",
        report.passed,
        started,
        120.0,
    )


def test_criterion_7_degree_count_bounds():
    started = time.perf_counter()
    report = verify_degree_count_bounds(16)
    _finish(
        7,
        f"exact |cd(G)| of every proper extension for f <= 16, which implies "
        f"the bounds and the sharp f=1 case ({report.checks} checks)",
        report.passed,
        started,
        10.0,
    )


def test_criterion_8_class_counts():
    started = time.perf_counter()
    report = verify_class_counts(64)
    _finish(
        8,
        f"class-count identity and coprimality for f <= 64 ({report.checks} checks)",
        report.passed,
        started,
        5.0,
    )
