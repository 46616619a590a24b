import json
import os
import random
import subprocess
import sys
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from suzuki_cd import numtheory
from suzuki_cd.characters import Family
from suzuki_cd.errors import BudgetExceededError
from suzuki_cd.params import make_params
from suzuki_cd.verification import (
    verify_class_counts,
    verify_degree_count_bounds,
    verify_degree_sets,
    verify_gcd_closed_forms,
    verify_quad_identity,
    verify_stabilizer_witnesses,
)


def test_gcd_sweep():
    report = verify_gcd_closed_forms(24)
    assert report.passed, report.failures[:3]
    assert report.checks > 500


def test_class_count_sweep():
    report = verify_class_counts(24)
    assert report.passed, report.failures[:3]


def test_quad_identity_sweep():
    report = verify_quad_identity(n_max=80, samples=40)
    assert report.passed, report.failures[:3]
    assert report.checks > 1000


def test_quad_identity_deterministic():
    a = verify_quad_identity(n_max=30, samples=20, seed=7)
    b = verify_quad_identity(n_max=30, samples=20, seed=7)
    assert (a.checks, a.failures) == (b.checks, b.failures)


def test_quad_failure_message(monkeypatch):
    from suzuki_cd import cyclotomic

    quad = cyclotomic.quad_sum_equivalence

    def flip_one(n, blocks):
        return {
            k: [
                (identity != ((n, k, i, j) == (13, 5, 1, 2)), congruence)
                for (i, j), (identity, congruence) in zip(pairs, answers)
            ]
            for (k, pairs), answers in zip(blocks.items(), quad(n, blocks).values())
        }

    checks = verify_quad_identity(n_max=13).checks
    monkeypatch.setattr(cyclotomic, "quad_sum_equivalence", flip_one)
    report = verify_quad_identity(n_max=13)
    assert report.checks == checks == 534
    assert report.failures == ["n=13 k=5 i=1 j=2: identity=True congruence=False"]


def test_quad_sweep_makes_one_call_per_order(monkeypatch):
    # each order n with a root of -1 goes to quad_sum_equivalence once, with
    # one block per root in root order, each block's pairs sorted and
    # distinct; the call computes at most one image per (class, orbit) of
    # the exponents i, j, il and jl it is given, k and -k forming one class
    from suzuki_cd import cyclotomic

    quad, image = cyclotomic.quad_sum_equivalence, cyclotomic._image
    calls, computed = [], []

    def record(n, blocks):
        met = set()
        for k, pairs in blocks.items():
            assert pairs == sorted(set(pairs))
            exponents = {e * l for pair in pairs for e in pair for l in (1, k - 1)}
            met |= {
                (min(k % n, -k % n), min(t % n for t in (e, -e, e * k, -e * k)))
                for e in exponents
            }
        calls.append((n, list(blocks), len(met)))
        computed.append(0)
        return quad(n, blocks)

    def count(terms, n):
        computed[-1] += 1
        return image(terms, n)

    monkeypatch.setattr(cyclotomic, "quad_sum_equivalence", record)
    monkeypatch.setattr(cyclotomic, "_image", count)
    assert verify_quad_identity(n_max=130).passed
    roots = {n: [k for k in range(n) if (k * k + 1) % n == 0] for n in range(1, 131)}
    assert [(n, ks) for n, ks, _ in calls] == [(n, ks) for n, ks in roots.items() if ks]
    assert all(0 < done <= met for (_, _, met), done in zip(calls, computed))


def expected_blocks(n_max, samples, seed):
    """(n, k, pairs) for each order n <= n_max and root k of -1 mod n, in
    the sweep's order: the boundary grid and the seeded draws, recomputed
    here from the per-n generator, sorted and without repeats."""
    blocks = []
    for n in range(1, n_max + 1):
        rng = random.Random(seed * 1000003 + n)
        drawn = [(rng.randrange(n), rng.randrange(n)) for _ in range(samples)]
        for k in (k for k in range(n) if (k * k + 1) % n == 0):
            grid = {v % n for v in (0, 1, 2, n - 2, n - 1, k, k - 1, k + 1, n - k)}
            blocks.append((n, k, sorted({(i, j) for i in grid for j in grid}.union(drawn))))
    return blocks


@pytest.mark.parametrize("seed", [1, 7, 20160414])
@pytest.mark.parametrize("samples", [0, 1, 200])
def test_quad_worker_blocks_are_the_sorted_grid_and_draws(monkeypatch, seed, samples):
    # each root block is the boundary grid and the seeded draws, recomputed
    # here: the draws in their order from the per-n generator, then one block
    # per root k, sorted and without repeats
    from suzuki_cd import cyclotomic

    quad, blocks = cyclotomic.quad_sum_equivalence, []

    def record(n, by_root):
        blocks.extend((n, k, pairs) for k, pairs in by_root.items())
        return quad(n, by_root)

    monkeypatch.setattr(cyclotomic, "quad_sum_equivalence", record)
    report = verify_quad_identity(n_max=60, samples=samples, seed=seed)
    expected = expected_blocks(60, samples, seed)
    assert blocks == expected
    assert report.passed and report.checks == sum(len(pairs) for _, _, pairs in expected)


def test_quad_sweep_count_at_the_benchmark_seed():
    # the count of verify cyclotomic --n-max 200 --samples 200 --seed 1
    assert verify_quad_identity(200, 200, seed=1).checks == 24890


def test_quad_sweep_image_count_at_the_benchmark_seed(monkeypatch):
    # verify cyclotomic --n-max 200 --samples 200 --seed 1 computes one image
    # per (n, class {k, -k}, orbit {+-e, +-ek}) its blocks meet: i and j of
    # each pair, and il and jl where the l = 1 sums agree, decided here by
    # the dense annihilated vectors of phi_reference
    from phi_reference import annihilator_vector, cyclic_product
    from suzuki_cd import cyclotomic

    image, computed = cyclotomic._image, []

    def count(terms, n):
        computed.append(n)
        return image(terms, n)

    monkeypatch.setattr(cyclotomic, "_image", count)
    assert verify_quad_identity(200, 200, seed=1).passed

    vectors = {}

    def met(n, k, e):
        key = (n, min(k, n - k), min(t % n for t in (e, -e, e * k, -e * k)))
        if key not in vectors:
            dense = [0] * n
            for t in (e, -e, e * k, -e * k):
                dense[t % n] += 1
            vectors[key] = cyclic_product(dense, annihilator_vector(n))
        return vectors[key]

    for n, k, pairs in expected_blocks(200, 200, 1):
        for i, j in pairs:
            if met(n, k, i) == met(n, k, j):
                met(n, k, i * (k - 1))
                met(n, k, j * (k - 1))
    assert len(computed) == len(vectors) == 1296


def test_gcd_failure_messages(monkeypatch):
    # the fake reaches gcd_verification_rows too, which never asks for (65, 3)
    euclid = numtheory.euclid_gcd

    def wrong_once(a, b):
        # gcd(2^6 + 1, 2^1 + 1) = gcd(q^4 + 1, 2^n + 1) at f = n = 1
        return 5 if (a, b) == (65, 3) else euclid(a, b)

    checks = verify_gcd_closed_forms(f_max=2).checks
    monkeypatch.setattr(numtheory, "euclid_gcd", wrong_once)
    report = verify_gcd_closed_forms(f_max=2)
    assert report.checks == checks == 26
    assert report.failures == ["f=1 n=1 sign=1: gcd(q^4+1, 2^n+1) != 1"]


def test_gcd_sweep_checks_the_x_kernel_orders_at_every_f(monkeypatch):
    # 2f+1 = 39 = 3 * 13 at f = 19 is the first proper divisor over 12
    real = numtheory.gcd_torus

    def wrong_at_13(p, order, n, sign):
        case = real(p, order, n, sign)
        if order == p.a0 and n == 13:
            return numtheory.GcdCase(case.value + 2, case.condition)
        return case

    monkeypatch.setattr(numtheory, "gcd_torus", wrong_at_13)
    assert verify_gcd_closed_forms(18).passed
    assert verify_gcd_closed_forms(19).failures == [
        "f=19 n=13 sign=-1: gcd(q^2-1, 2^n-1) closed 8193 != euclid 8191",
        "f=19 n=13 sign=1: gcd(q^2-1, 2^n+1) closed 3 != euclid 1",
    ]


F5 = make_params(5)  # 2f+1 = 11: n = 1 is the one proper divisor, a1 = 2113, a2 = 1985


def other_torus_at_f4(real):
    """coincidence_classify, except that at f = 4 it names the torus 5 does not divide."""

    def fake(p, m, n):
        case = real(p, m, n)
        if p.f != 4 or case is None:
            return case
        other = p.a2 if case.order == p.a1 else p.a1
        return numtheory.CoincidenceCase(other, case.sign_n, case.sign_m)

    return fake


def tori_divide_at_f5(real):
    """euclid_gcd, except that a1 | q^2 - 2 and a2 | q^2 + 2 at f = 5."""
    rows = {(F5.a1, F5.q2 - 2), (F5.a2, F5.q2 + 2)}
    return lambda a, b: a if (a, b) in rows else real(a, b)


def both_signs_at_f5(real):
    """euclid_gcd, except that each trivial gcd(a1 or a2, q^2 -+ 2) at f = 5 is 3."""
    rows = set(product((F5.a1, F5.a2), (F5.q2 - 2, F5.q2 + 2)))
    return lambda a, b: 3 if (a, b) in rows and real(a, b) == 1 else real(a, b)


# fake for one numtheory name -> every failure of verify_gcd_closed_forms(6)
GCD_LEMMA_FAKES = {
    # the 1/3 collision is on a1 = 545 at f = 4 (2f+1 = 9)
    "collisions": (
        "coincidence_classify",
        other_torus_at_f4,
        [
            "f=4 (m, n, torus, sign_m, sign_n, gcd) collisions: "
            "observed only [(1, 3, 'plus', -1, 1, 5)], "
            "predicted only [(1, 3, 'minus', -1, 1, 5)]",
        ],
    ),
    "signs": (
        "euclid_gcd",
        both_signs_at_f5,
        [
            "f=5 n=1 plus sign=-1: closed 1 != euclid 3",
            "f=5 n=1 plus sign=1: closed 1 != euclid 3",
            "f=5 n=1 minus sign=-1: closed 1 != euclid 3",
            "f=5 (n, torus) nontrivial at both signs: "
            "observed only [(1, 'minus'), (1, 'plus')], predicted only []",
        ],
    ),
    "divisibility": (
        "euclid_gcd",
        tori_divide_at_f5,
        [
            "f=5 n=1 plus sign=-1: closed 1 != euclid 2113",
            "f=5 n=1 minus sign=1: closed 5 != euclid 1985",
            "f=5 (n, torus, sign) with order | q^2+sign*2^n: "
            "observed only [(1, 'minus', 1), (1, 'plus', -1)], predicted only []",
        ],
    ),
}


def gcd_lemma_failures(case):
    """The failures of verify_gcd_closed_forms(6) under one GCD_LEMMA_FAKES fake."""
    name, fake, _ = GCD_LEMMA_FAKES[case]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numtheory, name, fake(getattr(numtheory, name)))
        return verify_gcd_closed_forms(6).failures


@pytest.mark.parametrize("case", GCD_LEMMA_FAKES)
def test_each_gcd_lemma_is_one_check_that_can_fail(case):
    assert verify_gcd_closed_forms(6).passed
    assert gcd_lemma_failures(case) == GCD_LEMMA_FAKES[case][2]


def test_gcd_lemma_failures_do_not_depend_on_the_hash_seed():
    # the sets of facts (b) and (c) hold torus names, whose string hashes,
    # and so set order, change with PYTHONHASHSEED
    tests = Path(__file__).resolve().parent
    probe = (
        "import json, test_verification as t; "
        "print(json.dumps({case: t.gcd_lemma_failures(case) for case in t.GCD_LEMMA_FAKES}))"
    )
    outputs = []
    for seed in ("0", "1"):
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {case: fake[2] for case, fake in GCD_LEMMA_FAKES.items()}


def test_stabilizer_sweep():
    report = verify_stabilizer_witnesses(6)
    assert report.passed, report.failures[:3]


def fake_at_f4(real, fake):
    """real, except that at f = 4 it answers fake(real, p, family, n)."""
    return lambda p, family, n: fake(real, p, family, n) if p.f == 4 else real(p, family, n)


@pytest.mark.parametrize(
    "name, fake, checks, failures",
    [
        # a wrong n = 1 witness on the 5-divisible family (Y at f = 4, a1 = 545)
        (
            "witness_for",
            lambda real, p, family, n: 1 if (family, n) == (Family.Y, 1) else real(p, family, n),
            64,
            ["f=4 Y n=1: witness 1 has exponent 9", "f=4 Y: n=1 witness 1 != 545/5"],
        ),
        # Y's n = 1 answer flipped sends the check to Z, whose a2 = 481 has no 5;
        # witness_for reads is_witnessless too, so Y loses its n = 1 witness and
        # the exponent check of that witness is not made
        (
            "is_witnessless",
            lambda real, p, family, n: real(p, family, n) != ((family, n) == (Family.Y, 1)),
            63,
            [
                "f=4 Y n=1: witness=None oracle_count=1",
                "f=4: expected 5 | Z order 481",
                "f=4 Z: n=1 witness None != 481/5",
            ],
        ),
    ],
    ids=["witness", "table"],
)
def test_stabilizer_sweep_reports_a_wrong_invariant_label(monkeypatch, name, fake, checks, failures):
    from suzuki_cd import stabilizers

    assert verify_stabilizer_witnesses(4).checks == 64
    monkeypatch.setattr(stabilizers, name, fake_at_f4(getattr(stabilizers, name), fake))
    report = verify_stabilizer_witnesses(4)
    assert report.checks == checks
    assert report.failures == failures


def broken_at_f3(real, f_of):
    """real, except that at f = 3 it raises InvariantError."""
    from suzuki_cd.errors import InvariantError

    def fake(arg, *rest):
        if f_of(arg) == 3:
            raise InvariantError("f=3: broken")
        return real(arg, *rest)

    return fake


@pytest.mark.parametrize(
    "sweep, worker, module, name, f_of",
    [
        (verify_stabilizer_witnesses, "_stabilizer_worker", "stabilizers", "witness_for",
         lambda p: p.f),
        (verify_degree_sets, "_degree_worker", "degrees", "cd_multiset",
         lambda spec: spec.params.f),
        (verify_class_counts, "_class_count_worker", "verification", "make_params",
         lambda f: f),
        (verify_degree_count_bounds, "_degree_count_worker", "verification", "make_params",
         lambda f: f),
    ],
    ids=["stabilizers", "theorem-a", "class-counts", "corollary-b"],
)
def test_an_invariant_error_fails_its_item_and_the_sweep_goes_on(
    monkeypatch, sweep, worker, module, name, f_of
):
    # the item that raises counts as one failed check with the error's text;
    # every other f still runs all of its checks
    import importlib

    from suzuki_cd import verification

    home = importlib.import_module(f"suzuki_cd.{module}")
    run = partial(verification._run_item, getattr(verification, worker))
    checks = {f: run(f).checks for f in (1, 2, 4, 5)}
    monkeypatch.setattr(home, name, broken_at_f3(getattr(home, name), f_of))
    report = sweep(5)
    assert report.failures == ["f=3: broken"]
    assert report.checks == sum(checks.values()) + 1


def test_degree_set_sweep():
    report = verify_degree_sets(6)
    assert report.passed, report.failures[:3]


def test_degree_count_bound_sweep():
    report = verify_degree_count_bounds(12)
    assert report.passed, report.failures[:3]


def test_degree_count_sweep_wants_the_exact_count(monkeypatch):
    # one degree dropped at f = 4, d = 3, in _closed_form, where the sweep
    # builds each d's set, leaves 8: above the bound of 7 for prime d, yet
    # not the 9 that 3 + 3 tau(3) gives
    from suzuki_cd import degrees

    real = degrees._closed_form

    def drop_one(spec, family_degrees):
        closed = real(spec, family_degrees)
        return closed - {max(closed)} if (spec.params.f, spec.d) == (4, 3) else closed

    checks = verify_degree_count_bounds(6).checks
    monkeypatch.setattr(degrees, "_closed_form", drop_one)
    report = verify_degree_count_bounds(6)
    assert report.checks == checks == 7
    assert report.failures == ["f=4 d=3: |cd|=8 != 9"]


def test_parallel_jobs_agree_with_serial(monkeypatch):
    import os

    # two CPUs even on a one-CPU host, so jobs=2 starts a real pool of two
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for sweep, f_max in [(verify_degree_sets, 4), (verify_gcd_closed_forms, 40),
                         (verify_stabilizer_witnesses, 5)]:
        serial = sweep(f_max, jobs=1)
        parallel = sweep(f_max, jobs=2)
        assert serial.checks > 0
        assert (serial.scope, serial.checks, serial.failures) == (
            parallel.scope, parallel.checks, parallel.failures
        )
    # the quad sweep's items carry their roots of -1, and must still pickle
    serial = verify_quad_identity(60, 20, jobs=1)
    parallel = verify_quad_identity(60, 20, jobs=2)
    assert serial.checks > 0
    assert (serial.checks, serial.failures) == (parallel.checks, parallel.failures)


def test_jobs_starts_no_more_workers_than_items_or_cpus(monkeypatch):
    # a fake pool records the worker count it is asked for and maps in this
    # process, so no test starts real workers at a large jobs
    import concurrent.futures
    import os

    from suzuki_cd import verification

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def name(report, item):
        report.failures.append(str(item))

    def sweep(items, jobs):
        return verification._sweep("names", name, items, jobs).failures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert sweep(range(4), 10**6) == ["0", "1", "2", "3"]
    assert sweep([7], 10**6) == ["7"]
    assert sweep(range(4), 1) == ["0", "1", "2", "3"]
    assert asked == [2]
    serial = verify_degree_sets(2)
    report = verify_degree_sets(2, jobs=10**6)
    assert asked == [2, 2]
    assert (report.checks, report.failures) == (serial.checks, serial.failures)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: serial
    assert sweep(range(4), 10**6) == ["0", "1", "2", "3"]
    assert asked == [2, 2]


def test_summary_wording():
    report = verify_class_counts(4)
    assert report.summary().startswith("class-counts: ")
    assert report.summary().endswith("ok")


@pytest.mark.parametrize(
    "sweep, kwargs, error, message",
    [
        (verify_stabilizer_witnesses, {"f_max": 11}, BudgetExceededError,
         "--f-max 11 is over its limit of 10"),
        (verify_quad_identity, {"n_max": 1000, "samples": 10000}, BudgetExceededError,
         "--n-max 1000 * --samples 10000 = 10000000 is over its limit of 200000"),
        (verify_gcd_closed_forms, {"f_max": 100000}, BudgetExceededError,
         "--f-max 100000 is over its limit of 2400"),
        (verify_degree_count_bounds, {"f_max": 0}, ValueError, "--f-max must be >= 1, got 0"),
    ],
    ids=["stabilizers", "quad", "gcd", "degree-count-bounds"],
)
def test_sweeps_refuse_oversized_arguments_before_any_work(monkeypatch, sweep, kwargs, error, message):
    from suzuki_cd import stabilizers, verification

    def work(*_args, **_kwargs):
        raise AssertionError("the sweep started work before checking its sizes")

    for module, name in [(verification, "_sweep"), (verification, "make_params"),
                         (stabilizers, "orbit_oracle")]:
        monkeypatch.setattr(module, name, work)
    with pytest.raises(error) as exc:
        sweep(**kwargs)
    assert str(exc.value) == message


def test_sweeps_refuse_jobs_below_one(monkeypatch):
    from suzuki_cd import verification

    def work(report, f):
        raise AssertionError("a worker ran")

    monkeypatch.setattr(verification, "_degree_worker", work)
    with pytest.raises(ValueError, match="--jobs must be >= 1, got 0"):
        verify_degree_sets(4, jobs=0)
