import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from suzuki_cd.cli import main
from suzuki_cd.degrees import cd_closed_form
from suzuki_cd.params import divisors_of, make_params

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, optimize=False):
    """The CLI in a fresh interpreter, under python -O if optimize is set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "suzuki_cd.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_cli_import_leaves_the_process_pool_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import sys, suzuki_cd.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cd_table_sz8(capsys):
    code, out, _ = run(capsys, "cd", "--f", "1", "--d", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# cd(G) for f=1, d=1")
    assert [l for l in lines if l.isdigit()] == ["1", "14", "35", "64", "65", "91"]
    assert "verified_against_oracle: true" in lines


def test_cd_json_aut_sz8(capsys):
    code, out, _ = run(capsys, "cd", "--f", "1", "--d", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [int(item["degree"]) for item in payload["degrees"]] == [1, 14, 64, 91, 105, 195]
    assert payload["verified_against_oracle"] is True


def test_cd_multiplicities_table(capsys):
    code, out, _ = run(capsys, "cd", "--f", "1", "--d", "3", "--multiplicities")
    assert code == 0
    assert "degree multiplicity" in out
    assert "14 6" in out.splitlines()


def test_cd_all_divisors_json(capsys):
    code, out, _ = run(capsys, "cd", "--f", "1", "--d", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["d"] for entry in payload] == [1, 3]


def test_cd_large_f_closed_form_only(capsys):
    code, out, _ = run(capsys, "cd", "--f", "31", "--d", "63", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_against_oracle"] is False
    assert payload["q2"] == str(1 << 63)
    assert all(item["multiplicity"] is None for item in payload["degrees"])


def test_cd_multiplicities_past_enumeration_budget(capsys):
    code, out, _ = run(capsys, "cd", "--f", "31", "--d", "63", "--multiplicities")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "degree multiplicity"
    assert lines[-1] == "verified_against_oracle: true"
    q2 = 1 << 63
    order = 63 * (q2 * q2 + 1) * q2 * q2 * (q2 - 1)
    rows = [tuple(map(int, line.split())) for line in lines[2:-1]]
    assert sum(deg * deg * mult for deg, mult in rows) == order


def test_cd_checked_past_enumeration_budget(capsys):
    code, out, _ = run(capsys, "cd", "--f", "11", "--multiplicities", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_against_oracle"] is True
    assert all(item["multiplicity"] is not None for item in payload["degrees"])


def test_cd_multiplicities_under_optimize():
    # the counting route's invariant checks are not asserts: they still
    # run, and pass, when python -O strips assertions
    proc = run_module("cd", "--f", "200", "--d", "all", "--multiplicities", "--json",
                      optimize=True)
    assert proc.returncode == 0, proc.stderr
    payloads = json.loads(proc.stdout)
    assert [p["d"] for p in payloads] == [1, 401]
    q2 = 1 << 401
    for p in payloads:
        assert p["verified_against_oracle"] is True
        squares = sum(int(i["degree"]) ** 2 * i["multiplicity"] for i in p["degrees"])
        assert squares == p["d"] * (q2 * q2 + 1) * q2 * q2 * (q2 - 1)


def test_verify_stabilizers_under_optimize():
    # the witness, exponent and enumeration invariants raise instead of
    # asserting, so the sweep is the same under python -O
    plain = run_module("verify", "stabilizers", "--f-max", "4")
    optimized = run_module("verify", "stabilizers", "--f-max", "4", optimize=True)
    assert optimized.returncode == 0, optimized.stderr
    assert optimized.stdout == plain.stdout == "stabilizer-witnesses: 64 checks, ok\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["cd", "--f", "1428", "--d", "1"],  # |G| in the header passes the limit
        ["cd", "--f", "3600", "--d", "1", "--json"],  # so do the degrees
    ],
)
def test_cd_past_int_str_digit_limit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
def test_gcd_table_past_int_str_digit_limit(capsys):
    # 2f+1 = 26001 = 3^5 * 107; at its divisor n = 8667,
    # gcd(q^4+1, q^2 + 2^n) = 2^17334 + 1 has 5219 digits
    code, out, err = run(capsys, "gcd-table", "--f", "13000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot print a 17335-bit integer")
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
@pytest.mark.parametrize(
    "argv, bits",
    [
        (["cd", "--f", "37537", "--d", "1", "--multiplicities"], 75076),  # q^2
        (["cd", "--f", "37537", "--d", "1", "--multiplicities", "--json"], 75076),
        (["cd", "--f", "1428", "--d", "all", "--multiplicities"], 14285),  # |G|
        (["cd", "--f", "3600", "--d", "1", "--multiplicities", "--json"], 14402),  # a2 * a0
    ],
    ids=["text-q2", "json-q2", "text-order", "json-degree"],
)
def test_cd_refuses_an_unprintable_integer_before_counting(capsys, monkeypatch, argv, bits):
    from suzuki_cd import degrees

    def count(p, ds):
        raise AssertionError("counted orbits before refusing")

    monkeypatch.setattr(degrees, "cd_multiset", count)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.splitlines()[-1] == (
        f"error: cannot print a {bits}-bit integer: it has more than "
        f"{sys.get_int_max_str_digits()} decimal digits, Python's int->str limit"
    )


def test_cd_just_below_int_str_digit_limit(capsys):
    code, out, _ = run(capsys, "cd", "--f", "1427", "--d", "1")
    assert code == 0
    q2 = 1 << 2855
    assert out.splitlines()[0].endswith(f"|G|={(q2 * q2 + 1) * q2 * q2 * (q2 - 1)})")


def test_invariant_error_exits_one(capsys, monkeypatch):
    from suzuki_cd import degrees
    from suzuki_cd.errors import InvariantError

    def broken(p, ds):
        raise InvariantError("squared degrees do not sum to |S|")

    monkeypatch.setattr(degrees, "cd_multiset", broken)
    code, out, err = run(capsys, "cd", "--f", "1", "--multiplicities")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["cd", "--f", "3", "--d", "all", "--json"],
        ["cd", "--f", "10", "--d", "all", "--multiplicities"],
    ],
)
def test_counted_degrees_disagreeing_with_closed_form_exit_one(capsys, monkeypatch, argv):
    from suzuki_cd import degrees

    # the one closed form that cd renders and cd_multiset compares against
    closed_form = degrees._closed_form
    monkeypatch.setattr(
        degrees, "_closed_form", lambda p, d, family_degrees: closed_form(p, d, family_degrees) - {1}
    )
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "differ from the closed form" in err


def test_cd_usage_errors(capsys):
    assert run(capsys, "cd", "--f", "0", "--d", "1")[0] == 2
    assert run(capsys, "cd", "--f", "1", "--d", "2") == (
        2, "", "error: --d must divide 2f+1=3, got 2\n"
    )
    assert run(capsys, "cd", "--f", "1", "--d", "x") == (
        2, "", "error: --d must be an integer or 'all', got 'x'\n"
    )


def test_argparse_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cd"])  # missing required --f
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--f", "1", "--family", "X", "--json")
    assert code == 0
    assert json.loads(out) == {
        "f": 1,
        "family": "X",
        "orbits": [{"stabilizer_exponent": 3, "count": 3}],
    }


def test_orbits_table_and_budget(capsys):
    code, out, _ = run(capsys, "orbits", "--f", "4", "--family", "Y")
    assert code == 0
    assert "1 1" in out.splitlines() and "9 135" in out.splitlines()
    # past the enumeration budget the counted histogram still prints
    code, out, _ = run(capsys, "orbits", "--f", "11", "--family", "X")
    assert code == 0
    assert out.splitlines()[2:] == [f"23 {2**23 // 2 - 1}"]


def test_production_commands_never_enumerate(capsys, monkeypatch):
    from suzuki_cd import degrees, stabilizers

    def enumerate_orbits(p, family):
        raise AssertionError(f"enumerated the orbits of {family.value} at f={p.f}")

    # orbit_oracle is the enumeration, bound in its module and in degrees
    for module in (stabilizers, degrees):
        monkeypatch.setattr(module, "orbit_oracle", enumerate_orbits)
    for argv in (
        ["orbits", "--f", "10", "--family", "X"],
        ["cd", "--f", "10", "--d", "all", "--multiplicities"],
        ["cd", "--f", "4", "--d", "all", "--json"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out


def test_cd_derives_each_histogram_once_for_every_d(capsys, monkeypatch):
    # the histograms depend on f alone, so all 4 d of f = 10 count from
    # one orbit_counts call per family, bound in its module and in degrees
    from collections import Counter

    from suzuki_cd import degrees, stabilizers
    from suzuki_cd.characters import Family

    calls = Counter()
    real = stabilizers.orbit_counts

    def orbit_counts(p, family):
        calls[family] += 1
        return real(p, family)

    for module in (stabilizers, degrees):
        monkeypatch.setattr(module, "orbit_counts", orbit_counts)
    code, out, _ = run(capsys, "cd", "--f", "10", "--d", "all", "--multiplicities")
    assert code == 0 and out.count("verified_against_oracle: true") == 4
    assert calls == Counter(Family)
    assert sum(calls.values()) == 6


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
@pytest.mark.parametrize(
    "argv, needle",
    [
        # the X family count q^2/2 - 1 = 2^14286 - 1 has 4301 digits
        (["orbits", "--f", "7143", "--family", "X"], "14286-bit integer"),
        (["verify", "cyclotomic", "--n-max", "1001"], "--n-max 1001 is over its limit of 1000"),
        (["verify", "cyclotomic", "--samples", "10001"],
         "--n-max 200 * --samples 10001 = 2000200 is over its limit of 200000"),
        (["verify", "cyclotomic", "--n-max", "1000", "--samples", "10000"],
         "--n-max 1000 * --samples 10000 = 10000000 is over its limit of 200000"),
        # without the limits these two ran for minutes
        (["verify", "lemmas", "--f-max", "100000"], "--f-max 100000 is over its limit of 2400"),
        (["verify", "corollary-b", "--f-max", "3801"], "--f-max 3801 is over its limit of 3800"),
        (["verify", "stabilizers", "--f-max", "11"], "--f-max 11 is over its limit of 10"),
        (["verify", "theorem-a", "--f-max", "11"], "--f-max 11 is over its limit of 10"),
        # refused by make_params before any arithmetic: these three ran for
        # seconds to minutes, or died of MemoryError
        (["cd", "--f", "100000000", "--d", "1"], "f 100000000 is over its limit of 38000"),
        (["gcd-table", "--f", "1000003"], "f 1000003 is over its limit of 38000"),
        (["orbits", "--f", "1000000000", "--family", "ONE"],
         "f 1000000000 is over its limit of 38000"),
    ],
    ids=[
        "orbits-f7143",
        "cyclotomic-n-max",
        "cyclotomic-samples",
        "cyclotomic-pairs",
        "lemmas-f-max",
        "corollary-b-f-max",
        "stabilizers-f-max",
        "theorem-a-f-max",
        "cd-f-max",
        "gcd-table-f-max",
        "orbits-f-max",
    ],
)
def test_budget_refusals_are_fast(argv, needle):
    start = time.perf_counter()
    proc = run_module(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert needle in proc.stderr
    assert elapsed < 1.0, elapsed


def test_gcd_table_stdout_matches_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gcd-table", "--f", "1..4")
    assert code == 0
    target = tmp_path / "table.csv"
    assert main(["gcd-table", "--f", "1..4", "--output", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == out.encode("utf-8")
    assert "\r" not in out
    header, *rows = out.splitlines()
    assert header == "f,n,torus,sign,closed_form,euclid,branch,match"
    assert rows and all(row.endswith(",true") for row in rows)


def test_gcd_table_pinned(capsys):
    # every (f, n, torus, sign) row and its rendering, byte for byte
    code, out, _ = run(capsys, "gcd-table", "--f", "1..64")
    assert code == 0
    assert len(out.splitlines()) == 859
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5c2d3f3804a27f44ec2ca573c08db356f5138805f75c96221da3c856a4dd3f9e"
    )


def test_gcd_table_empty_range(capsys):
    code, out, err = run(capsys, "gcd-table", "--f", "5..4")
    assert code == 2
    assert out == ""
    assert "--f range" in err
    # a malformed --f names the option, the form it takes and its whole text
    for text in ["abc", "1..2..3", "1.."]:
        assert run(capsys, "gcd-table", "--f", text) == (
            2, "", f"error: --f must be F or LO..HI, got {text!r}\n"
        )


def test_gcd_table_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "gcd-table", "--f", "1..2", "--output", str(missing))
    assert code == 4
    assert err


def test_verify_lemmas_check_counts_pinned(capsys):
    code, out, _ = run(capsys, "verify", "lemmas")
    assert code == 0
    assert out == "gcd-closed-forms: 1336 checks, ok\nclass-counts: 384 checks, ok\n"


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "corollary-b", "--f-max", "8")
    assert code == 0
    assert "ok" in out


@pytest.mark.parametrize(
    "argv, argument",
    [
        (["verify", "theorem-a", "--f-max", "0"], "--f-max"),
        (["verify", "stabilizers", "--f-max", "-3"], "--f-max"),
        (["verify", "cyclotomic", "--n-max", "-1"], "--n-max"),
        (["verify", "cyclotomic", "--samples", "-5"], "--samples"),
        (["gcd-table", "--f", "8..1"], "--f"),
    ],
)
def test_vacuous_sweeps_are_usage_errors(capsys, argv, argument):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and argument in err


def test_verify_budget_guard(capsys):
    code, _, err = run(capsys, "verify", "theorem-a", "--f-max", "12")
    assert code == 3
    assert "f-max" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    from suzuki_cd import verification

    broken = verification.SweepReport("degree-sets", checks=3, failures=["f=9 d=1: mismatch"])
    monkeypatch.setattr(verification, "verify_degree_sets", lambda f_max=8, jobs=1: broken)
    code, out, _ = run(capsys, "verify", "theorem-a")
    assert code == 1
    assert "FAILED" in out
    assert "counterexample: f=9 d=1: mismatch" in out


def test_verify_reports_an_invariant_error_as_a_counterexample(capsys, monkeypatch):
    from suzuki_cd import stabilizers
    from suzuki_cd.errors import InvariantError

    witness_for = stabilizers.witness_for

    def broken(p, family, n):
        if p.f == 2:
            raise InvariantError("f=2 X n=1: 0 nontrivial kernels, expected 1")
        return witness_for(p, family, n)

    monkeypatch.setattr(stabilizers, "witness_for", broken)
    code, out, err = run(capsys, "verify", "stabilizers", "--f-max", "3")
    assert code == 1
    assert err == ""
    summary, counterexample = out.splitlines()
    assert summary.startswith("stabilizer-witnesses: ") and summary.endswith("checks, FAILED (1)")
    assert counterexample == "  counterexample: f=2 X n=1: 0 nontrivial kernels, expected 1"


def test_gcd_table_rejects_f_zero(capsys):
    assert run(capsys, "gcd-table", "--f", "0..2")[0] == 2
    # a long range from below f = 1 too: the range cap never counts f <= 0
    for bounds, low in (("-3000000..1", -3000000), ("0..100000", 0), ("-1..90000", -1)):
        error = f"error: f must be an integer >= 1, got {low}\n"
        assert run(capsys, "gcd-table", f"--f={bounds}") == (2, "", error)


def test_deterministic_output(capsys):
    first = run(capsys, "cd", "--f", "2", "--d", "all", "--json")
    second = run(capsys, "cd", "--f", "2", "--d", "all", "--json")
    assert first == second


# (scope, option) pairs that none of the scope's sweeps reads
UNREAD_VERIFY_OPTIONS = [
    *[
        (scope, option)
        for scope in ("lemmas", "stabilizers", "theorem-a", "corollary-b")
        for option in ("n-max", "samples", "seed")
    ],
    ("corollary-b", "jobs"),
    ("cyclotomic", "f-max"),
]


@pytest.mark.parametrize("scope, option", UNREAD_VERIFY_OPTIONS)
def test_verify_refuses_options_its_scope_does_not_read(capsys, scope, option):
    with pytest.raises(SystemExit) as exc:
        main(["verify", scope, f"--{option}", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    usage, *_, message = captured.err.splitlines()
    assert usage.startswith(f"usage: suzuki-cd verify {scope} [-h]")
    assert message == f"suzuki-cd verify {scope}: error: unrecognized arguments: --{option} 1"


@pytest.mark.parametrize("scope", ["lemmas", "stabilizers", "theorem-a", "corollary-b", "cyclotomic"])
def test_verify_options_are_the_parameters_of_the_scope_sweeps(capsys, monkeypatch, scope):
    from suzuki_cd import verification
    from suzuki_cd.cli import VERIFY_SWEEPS

    for name, *options in VERIFY_SWEEPS[scope]:
        assert options == list(inspect.signature(getattr(verification, name)).parameters)
    ran = []

    def recorder(name):
        def fake(**kwargs):
            ran.append(name)
            return verification.SweepReport(name)
        return fake

    for name in dir(verification):
        if name.startswith("verify_"):
            monkeypatch.setattr(verification, name, recorder(name))
    code, out, _ = run(capsys, "verify", scope)
    assert code == 0
    listed = [name for name, *_ in VERIFY_SWEEPS[scope]]
    assert ran == listed
    assert out == "".join(f"{name}: 0 checks, ok\n" for name in listed)


@pytest.mark.parametrize(
    "flags", [["--multiplicities"], [], ["--json"], ["--json", "--multiplicities"]],
    ids=["text-multiplicities", "text", "json", "json-multiplicities"],
)
def test_cd_converts_no_integer_twice(capsys, monkeypatch, flags):
    import suzuki_cd.cli as cli

    converted = []

    def to_decimal(n):
        converted.append(n)
        return str(n)

    monkeypatch.setattr(cli, "to_decimal", to_decimal)
    code, _, _ = run(capsys, "cd", "--f", "10", "--d", "all", *flags)
    assert code == 0
    p = make_params(10)
    sets = cd_closed_form(p, divisors_of(p.out_order))
    rows = sum(map(len, sets.values()))
    # q2 once; |G| once per text block; each degree once, and each
    # multiplicity of a text table once (JSON prints those as integers)
    orders = 0 if "--json" in flags else len(sets)
    mults = rows if flags == ["--multiplicities"] else 0
    assert len(converted) == 1 + orders + rows + mults


def test_gcd_table_range_past_its_cap_is_refused_fast():
    start = time.perf_counter()
    proc = run_module("gcd-table", "--f", "1..4000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: --f 1..4000: sum of f^2 = 21341334000 is over its limit of 6500000000\n"
    )
    assert elapsed < 1.0, elapsed


def test_gcd_table_cap_bounds_ranges_only():
    from suzuki_cd.cli import _parse_f_range
    from suzuki_cd.errors import BudgetExceededError

    # the longest accepted 1..HI range; the sum of squares is computed exactly
    assert _parse_f_range("1..2691") == list(range(1, 2692))
    with pytest.raises(BudgetExceededError, match="over its limit"):
        _parse_f_range("1..2692")
    with pytest.raises(BudgetExceededError, match="over its limit"):
        _parse_f_range(f"1..{10**18}")  # refused without building the range
    # a single f is left to make_params, which caps it at F_MAX
    assert _parse_f_range("1000003") == [1000003]


def test_gcd_table_range_past_F_MAX_is_refused_before_any_row(capsys, monkeypatch):
    from suzuki_cd import numtheory

    def rows(p, closed_forms):
        raise AssertionError(f"computed the rows of f={p.f}")

    monkeypatch.setattr(numtheory, "gcd_verification_rows", rows)
    code, out, err = run(capsys, "gcd-table", "--f", "37999..38001")
    assert code == 3
    assert out == ""
    assert err == "error: f 38001 is over its limit of 38000\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit"
)
def test_gcd_table_refuses_an_unprintable_closed_form_before_euclid(capsys, monkeypatch):
    from suzuki_cd import numtheory

    def euclid(a, b):
        raise AssertionError("ran Euclid before refusing")

    monkeypatch.setattr(numtheory, "euclid_gcd", euclid)
    code, out, err = run(capsys, "gcd-table", "--f", "37537")
    assert code == 3
    assert out == ""
    assert err == (
        f"error: cannot print a 21451-bit integer: it has more than "
        f"{sys.get_int_max_str_digits()} decimal digits, Python's int->str limit\n"
    )
    start = time.perf_counter()
    proc = run_module("gcd-table", "--f", "37537")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)
    assert elapsed < 0.5, elapsed


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [
        shlex.split(line.strip(), comments=True)[1:]
        for line in block.splitlines()
        if line.strip().startswith("suzuki-cd ")
    ]


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    # the README's examples parse and succeed, so a documented option a
    # parser rejects fails here; --output files land in tmp_path
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
