"""Value semantics of the package's immutable records.

Every record compares by value, hashes by value, refuses attribute
assignment, names its fields in its repr, and survives pickle and
deepcopy as an equal object.
"""

import copy
import pickle

import pytest

from suzuki_cd.characters import CharacterLabel, Family
from suzuki_cd.cyclotomic import CyclotomicSum, root_power_sum
from suzuki_cd.degrees import ExtensionSpec
from suzuki_cd.numtheory import CoincidenceCase, GcdCase, coincidence_classify, gcd_torus
from suzuki_cd.params import SuzukiParams, make_params
from suzuki_cd.verification import SweepReport

# record type -> (builder of one value, builder of a different value, a field name)
RECORDS = {
    SuzukiParams: (lambda: make_params(3), lambda: make_params(4), "f"),
    CharacterLabel: (
        lambda: CharacterLabel(Family.Y, 3),
        lambda: CharacterLabel(Family.Z, 3),
        "index",
    ),
    CyclotomicSum: (
        lambda: root_power_sum(7, [1, -1], [1, 1]),
        lambda: root_power_sum(7, [2, -2], [1, 1]),
        "terms",
    ),
    ExtensionSpec: (
        lambda: ExtensionSpec(make_params(4), 3),
        lambda: ExtensionSpec(make_params(4), 9),
        "d",
    ),
    GcdCase: (
        lambda: gcd_torus(make_params(4), make_params(4).a1, 3, 1),
        lambda: gcd_torus(make_params(4), make_params(4).a2, 3, 1),
        "value",
    ),
    CoincidenceCase: (
        lambda: coincidence_classify(make_params(4), 1, 3),
        lambda: coincidence_classify(make_params(7), 1, 3),
        "order",
    ),
}

cases = pytest.mark.parametrize("record", list(RECORDS), ids=lambda cls: cls.__name__)


@cases
def test_equal_values_compare_equal(record):
    build, build_other, _ = RECORDS[record]
    a, b, other = build(), build(), build_other()
    assert type(a) is type(other) is record
    assert a is not b
    assert a == b and not a != b
    assert a != other
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2


@cases
def test_assignment_raises(record):
    build, _, name = RECORDS[record]
    value = build()
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, name) == before


@cases
def test_repr_names_the_fields(record):
    build, _, name = RECORDS[record]
    value = build()
    text = repr(value)
    assert text.startswith(f"{record.__name__}(")
    assert f"{name}={getattr(value, name)!r}" in text


@cases
def test_pickle_and_deepcopy_round_trip(record):
    value = RECORDS[record][0]()
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is record
        assert clone == value
        assert repr(clone) == repr(value)


def test_records_build_by_position_only():
    bad = [
        ((Family.X,), {}),
        ((Family.X, 1, 2), {}),
        ((Family.X,), {"family": Family.Y}),
        ((), {"family": Family.X, "index": 1, "extra": 0}),
        ((Family.X,), {"index": 1}),
    ]
    for args, kwargs in bad:
        with pytest.raises(TypeError):
            CharacterLabel(*args, **kwargs)


def test_records_validate_on_construction():
    with pytest.raises(ValueError):
        ExtensionSpec(make_params(4), 2)
    with pytest.raises(ValueError):
        CyclotomicSum(7, ((3, 1), (1, 1)))
    with pytest.raises(ValueError):
        CyclotomicSum(0, ())


def test_sweep_report_constructor():
    assert SweepReport("s").checks == 0
    a, b = SweepReport("a"), SweepReport("b")
    a.failures.append("x")
    assert b.failures == [] and b.passed
    report = SweepReport(scope="t", checks=3, failures=["boom"])
    assert (report.scope, report.checks, report.failures) == ("t", 3, ["boom"])
    assert report.summary() == "t: 3 checks, FAILED (1)"
    report.checks += 1
    assert SweepReport("u", 2).summary() == "u: 2 checks, ok"
