"""Independent checks of the outputs the benchmark collects.

Nothing here imports ``suzuki_cd``: every expected value is recomputed
from the paper's formulas with plain integers, so a wrong answer from
the package cannot also corrupt the check.  Each checker returns a list
of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

GCD_TABLE_HEADER = "f,n,torus,sign,closed_form,euclid,branch,match"

_CD_HEADER = re.compile(r"^# cd\(G\) for f=(\d+), d=(\d+) \(q2=(\d+), \|G\|=(\d+)\)$")
_VERIFY_LINE = re.compile(r"^([a-z0-9-]+): (\d+) checks, (.+)$")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def group_order(f: int, d: int) -> int:
    """|G| = d * q^4 (q^4 + 1)(q^2 - 1) for |G : Sz(q^2)| = d."""
    q2 = 1 << (2 * f + 1)
    q4 = q2 * q2
    return d * q4 * (q4 + 1) * (q2 - 1)


def theorem_a(f: int, d: int) -> set[int]:
    """The paper's cd(G) for |G : S| = d, with the three Aut(S) exceptions."""
    q2 = 1 << (2 * f + 1)
    r = 1 << (f + 1)
    q4 = q2 * q2
    degrees = {1, q4, r * (q2 - 1) // 2}
    excluded = {"a": None, "b": None, "c": None}
    if d == 2 * f + 1:
        excluded["a"] = 1
        if f % 4 in (1, 2):
            excluded["b"], excluded["c"] = 1, 3
        else:
            excluded["b"], excluded["c"] = 3, 1
    bases = {
        "a": q4 + 1,
        "b": (q2 - r + 1) * (q2 - 1),
        "c": (q2 + r + 1) * (q2 - 1),
    }
    for key, base in bases.items():
        degrees.update(base * v for v in divisors(d) if v != excluded[key])
    return degrees


def check_cd_text(text: str, f: int) -> list[str]:
    """``cd --f F --d all --multiplicities``: one block per d | 2f+1."""
    problems: list[str] = []
    blocks = [b for b in text.split("\n\n") if b.strip()]
    ds = []
    for block in blocks:
        lines = block.strip("\n").split("\n")
        match = _CD_HEADER.match(lines[0])
        if match is None:
            problems.append(f"bad block header {lines[0][:80]!r}")
            continue
        bf, d, q2, order = (int(g) for g in match.groups())
        ds.append(d)
        where = f"f={bf} d={d}"
        if bf != f or q2 != 1 << (2 * f + 1):
            problems.append(f"{where}: header names the wrong group")
        if order != group_order(f, d):
            problems.append(f"{where}: |G| printed as {order}")
        if lines[1] != "degree multiplicity" or lines[-1] != "verified_against_oracle: true":
            problems.append(f"{where}: missing multiplicity table or oracle verdict")
            continue
        entries = {}
        for row in lines[2:-1]:
            deg, mult = (int(x) for x in row.split())
            if deg in entries or mult < 1:
                problems.append(f"{where}: bad row {row!r}")
            entries[deg] = mult
        if set(entries) != theorem_a(f, d):
            problems.append(f"{where}: degree set differs from theorem A")
        if sum(deg * deg * m for deg, m in entries.items()) != group_order(f, d):
            problems.append(f"{where}: squared degrees do not sum to |G|")
    if ds != divisors(2 * f + 1):
        problems.append(f"f={f}: blocks for d={ds}, expected every divisor of {2 * f + 1}")
    return problems


def check_cd_json(text: str, f: int) -> list[str]:
    """``cd --f F --d all --json`` past the oracle budget: closed form only."""
    try:
        payloads = json.loads(text)
    except ValueError as exc:
        return [f"cd json does not parse: {exc}"]
    problems: list[str] = []
    if [p.get("d") for p in payloads] != divisors(2 * f + 1):
        problems.append(f"f={f}: payloads do not cover every d | {2 * f + 1} in order")
    for p in payloads:
        where = f"f={p.get('f')} d={p.get('d')}"
        if p.get("f") != f or p.get("q2") != str(1 << (2 * f + 1)):
            problems.append(f"{where}: names the wrong group")
            continue
        degrees = [int(item["degree"]) for item in p["degrees"]]
        if degrees != sorted(theorem_a(f, p["d"])):
            problems.append(f"{where}: degrees differ from theorem A")
        if any(item["multiplicity"] is not None for item in p["degrees"]):
            problems.append(f"{where}: multiplicities without an oracle run")
        if p.get("verified_against_oracle") is not False:
            problems.append(f"{where}: claims an oracle check past the oracle budget")
    return problems


def check_verify(text: str, scopes: list[str]) -> list[str]:
    """Every sweep line reads ``<scope>: N checks, ok`` with N > 0."""
    lines = text.splitlines()
    problems: list[str] = []
    seen = []
    for line in lines:
        match = _VERIFY_LINE.match(line)
        if match is None:
            problems.append(f"unexpected verify line {line[:80]!r}")
            continue
        scope, checks, status = match.group(1), int(match.group(2)), match.group(3)
        seen.append(scope)
        if checks == 0:
            problems.append(f"{scope}: vacuous pass with 0 checks")
        if status != "ok":
            problems.append(f"{scope}: {status}")
    if seen != scopes:
        problems.append(f"sweeps {seen}, expected {scopes}")
    return problems


def verify_checks(text: str) -> int:
    """Total check count over the sweep lines of ``verify`` output."""
    return sum(int(m.group(2)) for m in map(_VERIFY_LINE.match, text.splitlines()) if m)


def check_gcd_table(text: str, f_values: list[int]) -> list[str]:
    """Every row's closed form equals a gcd recomputed here, and says so."""
    if text.split("\n", 1)[0] != GCD_TABLE_HEADER:
        return ["gcd table header differs"]
    rows = list(csv.DictReader(io.StringIO(text)))
    expected_keys = []
    for f in f_values:
        for n in divisors(2 * f + 1)[:-1]:
            for torus in ("plus", "minus", "product"):
                for sign in "-+":
                    expected_keys.append((str(f), str(n), torus, sign))
    got_keys = [(r["f"], r["n"], r["torus"], r["sign"]) for r in rows]
    if got_keys != expected_keys:
        return [f"gcd table has {len(rows)} rows, expected {len(expected_keys)} in order"]
    problems: list[str] = []
    for row in rows:
        f, n = int(row["f"]), int(row["n"])
        q2 = 1 << (2 * f + 1)
        r = 1 << (f + 1)
        left = {"plus": q2 + r + 1, "minus": q2 - r + 1, "product": q2 * q2 + 1}[row["torus"]]
        right = q2 + (1 << n) if row["sign"] == "+" else q2 - (1 << n)
        value = math.gcd(left, right)
        if row["closed_form"] != str(value) or row["euclid"] != str(value):
            problems.append(f"f={f} n={n} {row['torus']} {row['sign']}: gcd is {value}")
        if row["match"] != "true":
            problems.append(f"f={f} n={n} {row['torus']} {row['sign']}: match={row['match']}")
    return problems


def check_large_order(text: str, cases: list[dict]) -> list[str]:
    """One verdict line per generated case; the coset sum vanishes
    (identity holds) and a lone root of unity does not (identity fails)."""
    lines = text.splitlines()
    if len(lines) != len(cases):
        return [f"{len(lines)} verdicts for {len(cases)} cases"]
    problems: list[str] = []
    for line, case in zip(lines, cases):
        try:
            verdict = json.loads(line)
        except ValueError:
            problems.append(f"unparsable verdict {line[:80]!r}")
            continue
        inputs = {k: verdict.get(k) for k in case}
        if inputs != case:
            problems.append(f"verdict for {inputs}, expected case {case}")
        elif verdict.get("coset") is not True or verdict.get("single") is not False:
            problems.append(f"wrong verdict {verdict}")
    return problems
