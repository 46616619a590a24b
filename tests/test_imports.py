"""The import graph: what a cold interpreter loads for each entry point.

Each probe runs in a fresh ``python -S`` so that no site-packages
``.pth`` file can preload a module and hide a regression.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC_NAMES = [
    "BudgetExceededError",
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
    "phi_power_on_label",
    "quad_sum_equivalence",
    "root_power_sum",
    "torus_order",
    "torus_value",
    "witness_for",
]

# modules the cd and orbits commands do not run
NOT_FOR_CD = [
    "csv",
    "dataclasses",
    "inspect",
    "json",
    "random",
    "suzuki_cd.cyclotomic",
    "suzuki_cd.numtheory",
    "suzuki_cd.verification",
    "typing",
]


def probe(code: str) -> str:
    """Run code in a fresh ``python -S`` and return what it wrote to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_package_import_loads_no_submodule():
    out = probe(
        "import sys; before = set(sys.modules); import suzuki_cd; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('suzuki_cd.')), "
        "file=sys.stderr)"
    )
    assert out == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cd", "--f", "10", "--d", "all", "--multiplicities"],
        ["orbits", "--f", "10", "--family", "Y"],
    ],
    ids=["cd", "orbits"],
)
def test_cd_and_orbits_load_only_what_they_run(argv):
    out = probe(
        "import sys; before = set(sys.modules); from suzuki_cd.cli import main; "
        f"rc = main({argv!r}); print(rc, sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    rc, added = out.split(" ", 1)
    assert rc == "0"
    loaded = ast.literal_eval(added)
    assert "suzuki_cd.stabilizers" in loaded
    assert [m for m in NOT_FOR_CD if m in loaded] == []


def test_star_import_binds_each_name_to_its_home_object():
    out = probe(
        "import sys; ns = {}; exec('from suzuki_cd import *', ns); ns.pop('__builtins__'); "
        "import suzuki_cd; "
        "print(sorted(ns), sorted(suzuki_cd.__all__) == sorted(ns), "
        "set(suzuki_cd.__all__) <= set(dir(suzuki_cd)), "
        "[n for n, v in ns.items() "
        " if v is not getattr(sys.modules[getattr(v, '__module__', 'suzuki_cd.stabilizers')], n)], "
        "sep='\\n', file=sys.stderr)"
    )
    names, same_all, in_dir, strays = out.splitlines()
    assert ast.literal_eval(names) == PUBLIC_NAMES
    assert same_all == in_dir == "True"
    assert strays == "[]"
