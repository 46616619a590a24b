"""Rules the library source keeps, checked on its syntax tree.

- No ``assert``: it vanishes under ``python -O``, and the invariant
  checks must not.
- No ``dataclasses`` import, and no module-level ``typing`` import: both
  cost start-up time.
- ``BudgetExceededError`` is constructed only by errors.require_within
  (every size cap), errors.to_decimal (the int->str digit limit) and
  params.distinct_primes (an order trial division cannot factor).
- ``f % 4`` (a name ``f`` or an attribute ``.f`` modulo 4) is taken
  nowhere: stabilizers.is_witnessless derives theorem A's exceptions,
  and numtheory.coincidence_classify the gcd collision at exponents 1
  and 3, from which torus order 5 divides.
- ``Family.X``, ``Family.Y`` and ``Family.Z`` are named only in
  characters, where torus_order_of meets the families with their tori,
  and in verification, whose sweeps walk the families; numtheory imports
  nothing from the package but params, so the gcd lemmas take a torus
  order and know no family.
- ``distinct_primes`` is called only by cyclotomic._annihilator, the one
  per-prime pass, which builds the annihilator every equality test uses.
- ``lru_cache`` is named only by cyclotomic._annihilator and
  stabilizers._orbit_histogram, so a new module-level cache is a
  deliberate edit of this list.
- The oracles share no code with the closed forms they check: no oracle
  of ORACLE_LIMITS reaches, through the call graph, a function its
  limits name.
- A call through ``getattr(obj, name)(...)``, which the call graph
  cannot follow, is made only by cli._cmd_verify, and each name it can
  take, a sweep of cli.VERIFY_SWEEPS, is a top-level def of
  verification that ORACLE_LIMITS does not list.
"""

import ast
from fnmatch import fnmatch
from pathlib import Path

from suzuki_cd.cli import VERIFY_SWEEPS

SRC = Path(__file__).resolve().parents[1] / "src"

BUDGET_ERROR_HOMES = {"errors.require_within", "errors.to_decimal", "params.distinct_primes"}
F_MOD_4_HOMES: set[str] = set()
DISTINCT_PRIMES_HOMES = {"cyclotomic._annihilator"}
LRU_CACHE_HOMES = {"cyclotomic._annihilator", "stabilizers._orbit_histogram"}
GETATTR_CALL_HOMES = {"cli._cmd_verify"}
TORUS_FAMILY_HOMES = {"characters", "verification"}  # modules, not defs
NUMTHEORY_IMPORTS = {"params"}

# oracle -> patterns of the closed forms it checks, which it must not reach
CLOSED_FORMS = (
    "numtheory.*",
    "stabilizers.orbit_counts",
    "stabilizers.witness_for",
    "stabilizers.is_witnessless",
)
ORACLE_LIMITS = {
    "stabilizers.orbit_oracle": CLOSED_FORMS,
    "stabilizers.exact_stabilizer_exponent": CLOSED_FORMS,
    "degrees.cd_oracle": (*CLOSED_FORMS, "degrees.cd_closed_form"),
    "numtheory.euclid_gcd": ("numtheory.gcd_*",),
}


def imported(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def package_imported(node: ast.AST) -> list[str]:
    """The package modules an import names, relatively or as ``suzuki_cd``."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("suzuki_cd")):
        module = (node.module or "").removeprefix("suzuki_cd").lstrip(".")
        return [module.split(".")[0]] if module else [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [name[1] for name in names if name[0] == "suzuki_cd" and len(name) > 1]
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


def names_torus_family(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("X", "Y", "Z")
        and name_of(node.value) == "Family"
    )


def calls_distinct_primes(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and name_of(node.func) == "distinct_primes"


def names_lru_cache(node: ast.AST) -> bool:
    return isinstance(node, (ast.Name, ast.Attribute)) and name_of(node) == "lru_cache"


def calls_through_getattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Call)
        and name_of(node.func.func) == "getattr"
    )


def homes(tree: ast.Module, module: str, hit):
    """(line, home) of each node that hit() accepts, home its enclosing top-level def."""
    for top in tree.body:
        home = f"{module}.{top.name}" if hasattr(top, "name") else module
        for node in ast.walk(top):
            if hit(node):
                yield node.lineno, home


def bindings(nodes, module: str) -> dict[str, str]:
    """Name -> "module.name" for each def, class and ``from .x import y`` among nodes."""
    bound = {}
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = ".".join(filter(None, (node.module, alias.name)))
    return bound


def call_graph(src: Path) -> dict[str, set[str]]:
    """"module.name" of each top-level def or class -> the "module.name"s it names.

    A name resolves through its module's defs and ``from .x import y``,
    also an import inside the def, and on through x when x only imports y;
    ``x.attr`` of a module bound by ``from . import x`` resolves to "x.attr".
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.rglob("*.py")}
    scopes = {module: bindings(tree.body, module) for module, tree in trees.items()}

    def resolve(target: str) -> str:
        module, _, name = target.partition(".")
        home = scopes.get(module, {}).get(name, target)
        return target if home == target else resolve(home)

    graph = {}
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            inner = [node for node in ast.walk(top) if isinstance(node, ast.ImportFrom)]
            names = scopes[module] | bindings(inner, module)
            reached = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in names:
                    reached.add(resolve(names[node.id]))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if names.get(node.value.id) in trees:
                        reached.add(resolve(f"{names[node.value.id]}.{node.attr}"))
            graph[f"{module}.{top.name}"] = reached
    return graph


def oracle_breaks(src: Path) -> list[str]:
    graph = call_graph(src)
    breaks = []
    for oracle, limits in ORACLE_LIMITS.items():
        seen, todo = set(), [oracle]
        while todo:
            for name in graph.get(todo.pop(), ()):
                if name not in seen:
                    seen.add(name)
                    todo.append(name)
        breaks += [
            f"{oracle} reaches {name}"
            for name in sorted(seen)
            if any(fnmatch(name, limit) for limit in limits)
        ]
    return breaks


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
        for line, home in homes(tree, path.stem, names_torus_family):
            if path.stem not in TORUS_FAMILY_HOMES:
                hits.append(f"{where}:{line}: Family.X/Y/Z named in {home}")
        if path.stem == "numtheory":
            for node in ast.walk(tree):
                for module in set(package_imported(node)) - NUMTHEORY_IMPORTS:
                    hits.append(f"{where}:{node.lineno}: numtheory imports {module}")
        for line, home in homes(tree, path.stem, calls_distinct_primes):
            if home not in DISTINCT_PRIMES_HOMES:
                hits.append(f"{where}:{line}: distinct_primes called in {home}")
        for line, home in homes(tree, path.stem, names_lru_cache):
            if home not in LRU_CACHE_HOMES:
                hits.append(f"{where}:{line}: lru_cache in {home}")
        for line, home in homes(tree, path.stem, calls_through_getattr):
            if home not in GETATTR_CALL_HOMES:
                hits.append(f"{where}:{line}: call through getattr in {home}")
    return hits + oracle_breaks(src)


def test_library_source_keeps_its_rules():
    assert rule_breaks(SRC) == []
    assert ORACLE_LIMITS.keys() <= call_graph(SRC).keys()


def test_verify_dispatches_only_to_sweeps():
    tree = ast.parse((SRC / "suzuki_cd" / "verification.py").read_text(encoding="utf-8"))
    defs = {f"verification.{node.name}" for node in tree.body if isinstance(node, ast.FunctionDef)}
    sweeps = {f"verification.{name}" for sweeps in VERIFY_SWEEPS.values() for name, *_ in sweeps}
    assert sweeps <= defs - ORACLE_LIMITS.keys()


def test_f_mod_4_outside_its_homes_is_a_rule_break(tmp_path):
    (tmp_path / "stabilizers.py").write_text(
        "def is_witnessless(p):\n    return p.f % 4\n\n\n"
        "def witness_for(p, f):\n    return p.f % 4 + f % 4 + f % 8 + (2 * f) % 4\n"
    )
    (tmp_path / "verification.py").write_text("def _stabilizer_worker(f):\n    return f % 4\n")
    assert rule_breaks(tmp_path) == [
        "stabilizers.py:2: f % 4 taken in stabilizers.is_witnessless",
        "stabilizers.py:6: f % 4 taken in stabilizers.witness_for",
        "stabilizers.py:6: f % 4 taken in stabilizers.witness_for",
        "verification.py:2: f % 4 taken in verification._stabilizer_worker",
    ]


def test_torus_families_and_numtheory_imports_outside_their_homes_are_rule_breaks(tmp_path):
    # _kernel_orders picking the gcd by family, and a gcd lemma reading the
    # families' tori itself; characters and verification may name them
    (tmp_path / "stabilizers.py").write_text(
        "from .characters import Family\n\n\n"
        "def _kernel_orders(p, family, n):\n    return family is Family.Y\n"
    )
    (tmp_path / "numtheory.py").write_text(
        "from __future__ import annotations\n\nfrom enum import Enum\n\n"
        "from .params import make_params\nfrom .characters import torus_order_of\n"
        "from . import characters, params\nimport suzuki_cd.stabilizers\n"
    )
    (tmp_path / "characters.py").write_text("TORUS_FAMILIES = (Family.X, Family.Y, Family.Z)\n")
    (tmp_path / "verification.py").write_text("def _worker(f):\n    return Family.Z\n")
    assert rule_breaks(tmp_path) == [
        "numtheory.py:6: numtheory imports characters",
        "numtheory.py:7: numtheory imports characters",
        "numtheory.py:8: numtheory imports stabilizers",
        "stabilizers.py:5: Family.X/Y/Z named in stabilizers._kernel_orders",
    ]


def test_distinct_primes_outside_its_home_is_a_rule_break(tmp_path):
    (tmp_path / "cyclotomic.py").write_text(
        "from . import params\nfrom .params import distinct_primes\n\n\n"
        "def _annihilator(n):\n    return distinct_primes(n)\n\n\n"
        "def equals(a, b):\n    return params.distinct_primes(a.order)\n"
    )
    assert rule_breaks(tmp_path) == ["cyclotomic.py:10: distinct_primes called in cyclotomic.equals"]


def test_lru_cache_outside_its_homes_is_a_rule_break(tmp_path):
    # a four-root image cache beside the annihilator's, one decorator each way
    (tmp_path / "cyclotomic.py").write_text(
        "import functools\nfrom functools import lru_cache\n\n\n"
        "@lru_cache(maxsize=8)\ndef _annihilator(n):\n    return n\n\n\n"
        "@lru_cache(maxsize=1024)\ndef _quad_image(n, e, k):\n    return e\n\n\n"
        "@functools.lru_cache\ndef _image(terms, n):\n    return terms\n"
    )
    assert rule_breaks(tmp_path) == [
        "cyclotomic.py:10: lru_cache in cyclotomic._quad_image",
        "cyclotomic.py:15: lru_cache in cyclotomic._image",
    ]


def test_an_oracle_that_reaches_a_closed_form_is_a_rule_break(tmp_path):
    # orbit_oracle hands f > 8 to orbit_counts, which imports a gcd lemma
    # inside its body; cd_oracle reaches both through a module attribute
    (tmp_path / "numtheory.py").write_text(
        "def gcd_torus(p):\n    return 1\n\n\ndef euclid_gcd(a, b):\n    return a\n"
    )
    (tmp_path / "characters.py").write_text("def family_count(p):\n    return 1\n")
    (tmp_path / "stabilizers.py").write_text(
        "from .characters import family_count\n\n\n"
        "def orbit_counts(p):\n    from .numtheory import gcd_torus\n\n    return gcd_torus(p)\n\n\n"
        "def orbit_oracle(p):\n    return orbit_counts(p) if p.f > 8 else family_count(p)\n"
    )
    (tmp_path / "degrees.py").write_text(
        "from . import stabilizers\n\n\n"
        "def cd_oracle(spec):\n    return stabilizers.orbit_oracle(spec.params)\n"
    )
    assert rule_breaks(tmp_path) == [
        "stabilizers.orbit_oracle reaches numtheory.gcd_torus",
        "stabilizers.orbit_oracle reaches stabilizers.orbit_counts",
        "degrees.cd_oracle reaches numtheory.gcd_torus",
        "degrees.cd_oracle reaches stabilizers.orbit_counts",
    ]


def test_a_call_through_getattr_outside_its_home_is_a_rule_break(tmp_path):
    # the oracle rule cannot see orbit_oracle reach a gcd lemma by name
    (tmp_path / "cli.py").write_text(
        "def _cmd_verify(args):\n    return getattr(verification, args.name)(args)\n"
    )
    (tmp_path / "stabilizers.py").write_text(
        "from . import numtheory\n\n\n"
        "def orbit_oracle(p, name):\n    return getattr(numtheory, name)(p)\n"
    )
    assert rule_breaks(tmp_path) == [
        "stabilizers.py:5: call through getattr in stabilizers.orbit_oracle"
    ]
