"""Rules the library source keeps, checked on its syntax tree.

- No ``assert``: it vanishes under ``python -O``, and the invariant
  checks must not.
- No ``dataclasses`` import, and no module-level ``typing`` import: both
  cost start-up time.
- ``BudgetExceededError`` is constructed only by errors.require_within
  (every size cap), errors.to_decimal (the int->str digit limit) and
  params.distinct_primes (an order trial division cannot factor).
- ``f % 4`` (a name ``f`` or an attribute ``.f`` modulo 4) is taken only
  by numtheory.coincidence_classify and stabilizers.is_witnessless, the
  one home of theorem A's f mod 4 exceptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BUDGET_ERROR_HOMES = {"errors.require_within", "errors.to_decimal", "params.distinct_primes"}
F_MOD_4_HOMES = {"numtheory.coincidence_classify", "stabilizers.is_witnessless"}


def imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def name_of(node: ast.AST | None) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def builds_budget_error(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and name_of(node.func) == "BudgetExceededError") or (
        isinstance(node, ast.Raise) and name_of(node.exc) == "BudgetExceededError"
    )


def takes_f_mod_4(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and name_of(node.left) == "f"
        and getattr(node.right, "value", None) == 4
    )


def homes(tree: ast.Module, module: str, hit):
    """(line, home) of each node that hit() accepts, home its enclosing top-level def."""
    for top in tree.body:
        home = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            if hit(node):
                yield node.lineno, home


def rule_breaks(src: Path) -> list[str]:
    hits = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        where = path.relative_to(src)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                hits.append(f"{where}:{node.lineno}: assert statement")
            if "dataclasses" in imported(node):
                hits.append(f"{where}:{node.lineno}: dataclasses import")
        for node in tree.body:
            if "typing" in imported(node):
                hits.append(f"{where}:{node.lineno}: module-level typing import")
        for line, home in homes(tree, path.stem, builds_budget_error):
            if home not in BUDGET_ERROR_HOMES:
                hits.append(f"{where}:{line}: BudgetExceededError built in {home}")
        for line, home in homes(tree, path.stem, takes_f_mod_4):
            if home not in F_MOD_4_HOMES:
                hits.append(f"{where}:{line}: f % 4 taken in {home}")
    return hits


def test_library_source_keeps_its_rules():
    assert rule_breaks(SRC) == []


def test_f_mod_4_outside_its_homes_is_a_rule_break(tmp_path):
    (tmp_path / "stabilizers.py").write_text(
        "def is_witnessless(p):\n    return p.f % 4\n\n\n"
        "def witness_for(p, f):\n    return p.f % 4 + f % 4 + f % 8 + (2 * f) % 4\n"
    )
    (tmp_path / "verification.py").write_text("def _stabilizer_worker(f):\n    return f % 4\n")
    assert rule_breaks(tmp_path) == [
        "stabilizers.py:6: f % 4 taken in stabilizers.witness_for",
        "stabilizers.py:6: f % 4 taken in stabilizers.witness_for",
        "verification.py:2: f % 4 taken in verification._stabilizer_worker",
    ]
