"""Self-test of the benchmark's output checks and its metric declarations.

Each checker must accept a genuine output of the program and reject
every corrupted copy of it; BENCHMARK.json must declare exactly the
workloads and metrics that ``run.py`` reports.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import large_order
import run

failures: list[str] = []


def output(op: run.Op) -> str:
    return subprocess.run(
        op.command(), cwd=run.ROOT, env=run.child_env(), capture_output=True,
        encoding="utf-8", check=True,
    ).stdout


def expect(label: str, checker, good: str, corruptions: dict[str, str]) -> None:
    problems = checker(good)
    if problems:
        failures.append(f"{label}: genuine output rejected: {problems[:2]}")
    for what, bad in corruptions.items():
        if bad == good:
            failures.append(f"{label}: corruption '{what}' changed nothing")
        elif not checker(bad):
            failures.append(f"{label}: corruption '{what}' was accepted")


def replace_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data, indent=2) + "\n"


def test_declarations() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append(f"end_to_end declares {declared}, run.py reports {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.LAYER_UNITS:
        failures.append("per_layer declarations differ from run.LAYER_UNITS")
    if tuple(w["name"] for w in spec["workloads"]) != run.WORKLOADS:
        failures.append("workloads differ from run.WORKLOADS")
    if checks.theorem_a(1, 1) != {1, 14, 35, 64, 65, 91} or checks.group_order(1, 1) != 29120:
        failures.append("theorem_a/group_order disagree with cd(Sz(8)) from the paper")
    if checks.theorem_a(1, 3) != {1, 14, 64, 91, 105, 195}:
        failures.append("theorem_a disagrees with cd(Aut(Sz(8))) from the paper")


def test_cd_text() -> None:
    good = output(run.cli_op("cd", "--f", "1", "--d", "all", "--multiplicities", check=None))
    expect("cd text", lambda out: checks.check_cd_text(out, 1), good, {
        "multiplicity": good.replace("\n14 2\n", "\n14 3\n"),
        "degree": good.replace("\n35 3\n", "\n36 3\n"),
        "missing degree": good.replace("\n64 1\n", "\n", 1),
        "oracle verdict": good.replace("verified_against_oracle: true", "verified_against_oracle: false", 1),
        "group order": good.replace("|G|=29120", "|G|=29121"),
        "missing block": good.split("\n\n")[0] + "\n",
    })


def test_cd_json() -> None:
    f = 13  # 2f+1 = 27 has the divisor 3 that two of the Aut(S) exceptions name
    good = output(run.cli_op("cd", "--f", str(f), "--d", "all", "--json", check=None))
    q4 = 1 << (4 * f + 2)

    def add_to_aut(data):  # (q^4+1)*1 is excluded from cd(Aut(S))
        degrees = data[-1]["degrees"]
        degrees.append({"degree": str(q4 + 1), "multiplicity": None})
        degrees.sort(key=lambda item: int(item["degree"]))

    expect("cd json", lambda out: checks.check_cd_json(out, f), good, {
        "degree": replace_json(good, lambda d: d[0]["degrees"][0].__setitem__("degree", "2")),
        "multiplicity": replace_json(good, lambda d: d[0]["degrees"][0].__setitem__("multiplicity", 1)),
        "oracle claim": replace_json(good, lambda d: d[0].__setitem__("verified_against_oracle", True)),
        "Aut(S) exception": replace_json(good, add_to_aut),
        "missing d": replace_json(good, lambda d: d.pop(1)),
    })


def test_verify() -> None:
    good = output(run.cli_op("verify", "lemmas", "--f-max", "4", check=None))
    scopes = ["gcd-closed-forms", "class-counts"]
    first = good.splitlines()[0]
    count = first.split(": ")[1].split()[0]
    expect("verify", lambda out: checks.check_verify(out, scopes), good, {
        "failed": good.replace("checks, ok", "checks, FAILED (1)", 1),
        "vacuous": good.replace(f": {count} checks", ": 0 checks", 1),
        "missing sweep": first + "\n",
    })


def test_gcd_table() -> None:
    good = output(run.cli_op("gcd-table", "--f", "1..4", check=None))
    lines = good.splitlines(keepends=True)
    row = lines[5].split(",")
    wrong = ",".join(row[:4] + [str(int(row[4]) + 2), str(int(row[5]) + 2)] + row[6:])
    expect("gcd-table", lambda out: checks.check_gcd_table(out, [1, 2, 3, 4]), good, {
        "match flag": good.replace(",true\n", ",false\n", 1),
        "closed form": "".join(lines[:5] + [wrong] + lines[6:]),
        "missing row": "".join(lines[:5] + lines[6:]),
    })


def test_large_order() -> None:
    seed = 7
    cases = large_order.cases(seed)
    good = output(run.Op("large-order", ("--seed", str(seed)), check=None))
    lines = good.splitlines(keepends=True)
    expect("large-order", lambda out: checks.check_large_order(out, cases), good, {
        "coset verdict": good.replace('"coset": true', '"coset": false', 1),
        "single verdict": good.replace('"single": false', '"single": true', 1),
        "case input": good.replace(f'"index": {cases[0]["index"]},', f'"index": {cases[0]["index"] + 1},', 1),
        "missing case": "".join(lines[1:]),
    })


def main() -> int:
    for test in (test_declarations, test_cd_text, test_cd_json, test_verify,
                 test_gcd_table, test_large_order):
        test()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
