import pytest

from suzuki_cd.characters import Family
from suzuki_cd.errors import BudgetExceededError
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
    from suzuki_cd import verification

    quad = verification.quad_sum_equivalence

    def flip_one(n, k, i, j):
        identity, congruence = quad(n, k, i, j)
        if (n, k, i, j) == (13, 5, 1, 2):
            identity = not identity
        return identity, congruence

    checks = verify_quad_identity(n_max=13).checks
    monkeypatch.setattr(verification, "quad_sum_equivalence", flip_one)
    report = verify_quad_identity(n_max=13)
    assert report.checks == checks == 534
    assert report.failures == ["n=13 k=5 i=1 j=2: identity=True congruence=False"]


def test_quad_sweep_computes_one_image_per_plus_minus_k(monkeypatch):
    from suzuki_cd import verification
    from suzuki_cd.cyclotomic import _quad_image

    quad = verification.quad_sum_equivalence
    keys = set()

    def record(n, k, i, j):
        for l in (1, k - 1):
            keys.update((n, min(k, -k % n), e * l % n) for e in (i, j))
        return quad(n, k, i, j)

    monkeypatch.setattr(verification, "quad_sum_equivalence", record)
    _quad_image.cache_clear()
    assert verify_quad_identity(n_max=130).passed
    assert _quad_image.cache_info().misses <= len(keys)


def test_gcd_failure_messages(monkeypatch):
    from suzuki_cd import verification

    euclid = verification.euclid_gcd

    def wrong_once(a, b):
        # gcd(2^6 + 1, 2^1 + 1) = gcd(q^4 + 1, 2^n + 1) at f = n = 1
        return 5 if (a, b) == (65, 3) else euclid(a, b)

    checks = verify_gcd_closed_forms(f_max=2).checks
    monkeypatch.setattr(verification, "euclid_gcd", wrong_once)
    report = verify_gcd_closed_forms(f_max=2)
    assert report.checks == checks == 24
    assert report.failures == ["f=1 n=1 sign=1: gcd(q^4+1, 2^n+1) != 1"]


def test_gcd_sweep_checks_the_x_kernel_orders_at_every_f(monkeypatch):
    # 2f+1 = 39 = 3 * 13 at f = 19 is the first proper divisor over 12
    from suzuki_cd import verification

    real = verification.gcd_two_powers

    def wrong_at_13(n, m, sign):
        return real(n, m, sign) + (2 if m == 13 else 0)

    monkeypatch.setattr(verification, "gcd_two_powers", wrong_at_13)
    assert verify_gcd_closed_forms(18).passed
    assert verify_gcd_closed_forms(19).failures == [
        "f=19 n=13 sign=-1: gcd(q^2-1, 2^n-1) closed 8193 != euclid 8191",
        "f=19 n=13 sign=1: gcd(q^2-1, 2^n+1) closed 3 != euclid 1",
    ]


def test_stabilizer_sweep():
    report = verify_stabilizer_witnesses(6)
    assert report.passed, report.failures[:3]


def fake_at_f4(real, fake):
    """real, except that at f = 4 it answers fake(real, p, family, n)."""
    return lambda p, family, n: fake(real, p, family, n) if p.f == 4 else real(p, family, n)


@pytest.mark.parametrize(
    "name, fake, failures",
    [
        # a wrong n = 1 witness on the 5-divisible family (Y at f = 4, a1 = 545)
        (
            "witness_for",
            lambda real, p, family, n: 1 if (family, n) == (Family.Y, 1) else real(p, family, n),
            ["f=4 Y n=1: witness 1 has exponent 9", "f=4 Y: n=1 witness 1 != 545/5"],
        ),
        # a flipped exception table sends the check to Z, whose a2 = 481 has no 5
        (
            "is_witnessless",
            lambda real, p, family, n: not real(p, family, n),
            ["f=4: expected 5 | Z order 481", "f=4 Z: n=1 witness None != 481/5"],
        ),
    ],
    ids=["witness", "table"],
)
def test_stabilizer_sweep_reports_a_wrong_invariant_label(monkeypatch, name, fake, failures):
    from suzuki_cd import verification

    checks = verify_stabilizer_witnesses(4).checks
    monkeypatch.setattr(verification, name, fake_at_f4(getattr(verification, name), fake))
    report = verify_stabilizer_witnesses(4)
    assert report.checks == checks == 84
    assert report.failures == failures


def test_degree_set_sweep():
    report = verify_degree_sets(6)
    assert report.passed, report.failures[:3]


def test_degree_count_bound_sweep():
    report = verify_degree_count_bounds(12)
    assert report.passed, report.failures[:3]


def test_parallel_jobs_agree_with_serial():
    serial = verify_degree_sets(4, jobs=1)
    parallel = verify_degree_sets(4, jobs=2)
    assert (serial.checks, serial.failures) == (parallel.checks, parallel.failures)
    # the quad sweep's items carry their roots of -1, and must still pickle
    serial = verify_quad_identity(60, 20, jobs=1)
    parallel = verify_quad_identity(60, 20, jobs=2)
    assert serial.checks > 0
    assert (serial.checks, serial.failures) == (parallel.checks, parallel.failures)


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

    for module, name in [(verification, "_map_ordered"), (verification, "make_params"),
                         (verification, "orbit_oracle"), (stabilizers, "orbit_oracle")]:
        monkeypatch.setattr(module, name, work)
    with pytest.raises(error) as exc:
        sweep(**kwargs)
    assert str(exc.value) == message


def test_sweeps_refuse_jobs_below_one(monkeypatch):
    from suzuki_cd import verification

    def work(f):
        raise AssertionError("a worker ran")

    monkeypatch.setattr(verification, "_degree_worker", work)
    with pytest.raises(ValueError, match="--jobs must be >= 1, got 0"):
        verify_degree_sets(4, jobs=0)
