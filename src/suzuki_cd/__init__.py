"""Exact character degree sets of the Suzuki groups Sz(q^2) and of all
groups between Sz(q^2) and its automorphism group.

Closed forms throughout, each backed by an independent brute-force
oracle (Euclid, exact cyclotomic equality, orbit enumeration, Clifford
counting); see :mod:`suzuki_cd.verification` for the sweeps that
compare the two routes exhaustively.

The package namespace holds the library API that the demos and the
README use; everything else, the command line's helpers included, is
imported from its submodule.
"""

from .characters import (
    Family,
    canonical_indices,
    make_label,
    phi_power_on_label,
    torus_value,
)
from .cyclotomic import equals, pair_equality, quad_sum_equivalence, root_power_sum
from .degrees import (
    DegreeMultiset,
    ExtensionSpec,
    cd_closed_form,
    cd_multiset,
    cd_oracle,
    check_corollary_b,
)
from .errors import BudgetExceededError, InvariantError
from .numtheory import (
    Torus,
    coincidence_classify,
    euclid_gcd,
    gcd_torus,
    torus_order,
)
from .params import divisors_of, make_params
from .stabilizers import (
    ORACLE_F_MAX,
    exact_stabilizer_exponent,
    orbit_counts,
    orbit_oracle,
    witness_for,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DegreeMultiset",
    "ExtensionSpec",
    "Family",
    "InvariantError",
    "ORACLE_F_MAX",
    "Torus",
    "canonical_indices",
    "cd_closed_form",
    "cd_multiset",
    "cd_oracle",
    "check_corollary_b",
    "coincidence_classify",
    "divisors_of",
    "equals",
    "euclid_gcd",
    "exact_stabilizer_exponent",
    "gcd_torus",
    "make_label",
    "make_params",
    "orbit_counts",
    "orbit_oracle",
    "pair_equality",
    "phi_power_on_label",
    "quad_sum_equivalence",
    "root_power_sum",
    "torus_order",
    "torus_value",
    "witness_for",
]
