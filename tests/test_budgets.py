"""Every size cap refuses through errors.require_within, with one message shape."""

import re

import pytest

from suzuki_cd import BudgetExceededError, Family, make_params
from suzuki_cd.characters import canonical_indices
from suzuki_cd.cli import _parse_f_range
from suzuki_cd.degrees import cd_oracle
from suzuki_cd.errors import require_within
from suzuki_cd.stabilizers import orbit_oracle
from suzuki_cd.verification import (
    verify_class_counts,
    verify_degree_count_bounds,
    verify_degree_sets,
    verify_gcd_closed_forms,
    verify_quad_identity,
    verify_stabilizer_witnesses,
)

# one case per cap, each one past its limit; a None message means the call passes
CAPS = {
    "require_within-at-limit": (lambda: require_within("size", 10, 10), None),
    "require_within-past-limit": (
        lambda: require_within("size", 11, 10), "size 11 is over its limit of 10"
    ),
    "make_params": (lambda: make_params(38001), "f 38001 is over its limit of 38000"),
    "canonical_indices": (
        lambda: canonical_indices(make_params(11), Family.Y),
        "canonical index enumeration: f 11 is over its limit of 10",
    ),
    "orbit_oracle": (
        lambda: orbit_oracle(make_params(11), Family.Z),
        "orbit enumeration: f 11 is over its limit of 10",
    ),
    "cd_oracle": (
        lambda: cd_oracle(make_params(11), [23]),
        "orbit enumeration: f 11 is over its limit of 10",
    ),
    "verify_gcd_closed_forms": (
        lambda: verify_gcd_closed_forms(2401), "--f-max 2401 is over its limit of 2400"
    ),
    "verify_class_counts": (
        lambda: verify_class_counts(2401), "--f-max 2401 is over its limit of 2400"
    ),
    "verify_stabilizer_witnesses": (
        lambda: verify_stabilizer_witnesses(11), "--f-max 11 is over its limit of 10"
    ),
    "verify_degree_sets": (lambda: verify_degree_sets(11), "--f-max 11 is over its limit of 10"),
    "verify_degree_count_bounds": (
        lambda: verify_degree_count_bounds(3801), "--f-max 3801 is over its limit of 3800"
    ),
    "verify_quad_identity-n-max": (
        lambda: verify_quad_identity(n_max=1001), "--n-max 1001 is over its limit of 1000"
    ),
    "verify_quad_identity-pairs": (
        lambda: verify_quad_identity(n_max=200, samples=1001),
        "--n-max 200 * --samples 1001 = 200200 is over its limit of 200000",
    ),
    "gcd-table-range": (
        lambda: _parse_f_range("1..2692"),
        "--f 1..2692: sum of f^2 = 6506476510 is over its limit of 6500000000",
    ),
}


@pytest.mark.parametrize("call, message", CAPS.values(), ids=CAPS.keys())
def test_each_cap_refuses_one_past_its_limit_in_one_shape(call, message):
    if message is None:
        assert call() is None
        return
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        call()
