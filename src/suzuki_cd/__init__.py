"""Exact character degree sets of the Suzuki groups Sz(q^2) and of all
groups between Sz(q^2) and its automorphism group.

Closed forms throughout, each backed by an independent brute-force
oracle (Euclid, exact cyclotomic equality, orbit enumeration, Clifford
counting); see :mod:`suzuki_cd.verification` for the sweeps that
compare the two routes exhaustively.  Degree multisets and orbit
histograms are plain dicts (degree or stabilizer exponent -> count).

The package namespace holds the library API that the demos and the
README use; everything else, the command line's helpers included, is
imported from its submodule.  Each name is resolved on first use, so
``import suzuki_cd`` loads none of the submodules.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in (
        ("characters", "Family canonical_indices make_label phi_power_on_label torus_value"),
        ("cyclotomic", "equals quad_sum_equivalence root_power_sum"),
        ("degrees", "cd_closed_form cd_multiset cd_oracle"),
        ("errors", "BudgetExceededError InvariantError"),
        ("numtheory", "coincidence_classify euclid_gcd gcd_torus"),
        ("params", "divisors_of make_params"),
        ("stabilizers", "ORACLE_F_MAX exact_stabilizer_exponent orbit_counts orbit_oracle"),
        ("stabilizers", "witness_for"),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
