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
    "canonical_indices",
    "cd_closed_form",
    "cd_multiset",
    "cd_oracle",
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
    "torus_value",
    "witness_for",
]

# modules the cd and orbits commands do not run, apart from numtheory,
# whose gcd lemma (gcd_torus, for X, Y and Z alike)
# orbit_counts reads through stabilizers._kernel_orders when a command counts
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
    "argv, counts",
    [
        (["cd", "--f", "10", "--d", "all", "--multiplicities"], True),
        (["orbits", "--f", "10", "--family", "Y"], True),
        (["cd", "--f", "1000", "--d", "all"], False),
    ],
    ids=["cd", "orbits", "cd-uncounted"],
)
def test_cd_and_orbits_load_only_what_they_run(argv, counts):
    out = probe(
        "import sys; before = set(sys.modules); from suzuki_cd.cli import main; "
        f"rc = main({argv!r}); print(rc, sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    rc, added = out.split(" ", 1)
    assert rc == "0"
    loaded = ast.literal_eval(added)
    assert "suzuki_cd.stabilizers" in loaded
    gcd_lemmas = ["suzuki_cd.numtheory"] if counts else []
    assert [m for m in NOT_FOR_CD if m in loaded] == gcd_lemmas


def test_cli_import_loads_only_what_the_parser_reads():
    # characters for the --family choices, errors and params for main and _ints
    out = probe(
        "import sys; before = set(sys.modules); import suzuki_cd.cli; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('suzuki_cd.')), "
        "file=sys.stderr)"
    )
    assert ast.literal_eval(out) == [
        "suzuki_cd.characters", "suzuki_cd.cli", "suzuki_cd.errors", "suzuki_cd.params"
    ]


@pytest.mark.parametrize(
    "argv, not_run",
    [
        (["verify", "cyclotomic", "--n-max", "5"], ["degrees", "numtheory", "stabilizers"]),
        (["verify", "lemmas", "--f-max", "3"], ["cyclotomic", "degrees", "stabilizers"]),
        (["verify", "theorem-a", "--f-max", "2"], ["cyclotomic"]),
        (["verify", "corollary-b"], ["cyclotomic", "numtheory"]),
        (["verify", "stabilizers", "--f-max", "2"], ["cyclotomic", "degrees"]),
        (["gcd-table", "--f", "1..3"], ["cyclotomic", "degrees", "stabilizers", "verification"]),
    ],
    ids=[
        "verify-cyclotomic",
        "verify-lemmas",
        "verify-theorem-a",
        "verify-corollary-b",
        "verify-stabilizers",
        "gcd-table",
    ],
)
def test_verify_and_gcd_table_load_no_layer_they_do_not_run(argv, not_run):
    out = probe(
        "import sys; from suzuki_cd.cli import main; "
        f"rc = main({argv!r}); print(rc, sorted(sys.modules), file=sys.stderr)"
    )
    rc, loaded = out.split(" ", 1)
    assert rc == "0"
    assert [m for m in not_run if f"suzuki_cd.{m}" in ast.literal_eval(loaded)] == []


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
