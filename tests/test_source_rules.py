"""Rules the library source keeps, checked on its syntax tree.

- No ``assert``: it vanishes under ``python -O``, and the invariant
  checks must not.
- No ``dataclasses`` import, and no module-level ``typing`` import: both
  cost start-up time.
- ``BudgetExceededError`` is constructed only by errors.require_within
  (every size cap), errors.to_decimal (the int->str digit limit) and
  params.distinct_primes (an order trial division cannot factor).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BUDGET_ERROR_HOMES = {"errors.require_within", "errors.to_decimal", "params.distinct_primes"}


def imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def is_budget_error(node: ast.AST | None) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "BudgetExceededError"


def budget_error_homes(tree: ast.Module, module: str):
    """(line, home) of each BudgetExceededError built, home its enclosing top-level def."""
    for top in tree.body:
        home = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and is_budget_error(node.func)) or (
                isinstance(node, ast.Raise) and is_budget_error(node.exc)
            ):
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
        for line, home in budget_error_homes(tree, path.stem):
            if home not in BUDGET_ERROR_HOMES:
                hits.append(f"{where}:{line}: BudgetExceededError built in {home}")
    return hits


def test_library_source_keeps_its_rules():
    assert rule_breaks(SRC) == []
