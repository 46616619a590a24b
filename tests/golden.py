"""Golden corpus: command lines with their pinned outputs.

Each entry of golden.json holds an argv, its exit code, the sha256 of
its stdout and the last line of its stderr.  An argv whose first item
ends in ``.py`` runs that script (relative to the repository root) as
``__main__``; any other argv runs ``suzuki_cd.cli.main``.  Every entry
runs in this process, so the whole corpus replays in a few seconds.
A replay that takes over TIME_LIMIT_S seconds is a difference too, so
each command line is also held to its time; times are never pinned.

    PYTHONPATH=src python tests/golden.py --check    # replay; exit 1 on any difference
    PYTHONPATH=src python tests/golden.py --update   # rewrite golden.json from its argvs

Only ``--check`` belongs in tests and CI; ``--update`` is for a change
that alters output on purpose.  Before it rewrites golden.json it prints
each field it changes in ``--check``'s format ("no entry changed" if
none), so its own output names the command lines that changed.  The
checker uses no ``assert``, so it checks the same under ``python -O``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("golden.json")
TIME_LIMIT_S = 5.0


def run(argv: list[str]) -> dict:
    """Run one command line in this process; return its corpus entry."""
    from suzuki_cd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv[0].endswith(".py"):
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
                code = 0
            else:
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    lines = err.getvalue().splitlines()
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_last": lines[-1] if lines else "",
    }


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def changes(entry: dict, actual: dict) -> list[str]:
    """One line per pinned field of entry that its replay, actual, differs in."""
    return [
        f"{' '.join(entry['argv'])}: {key} {entry.get(key)!r} -> {value!r}"
        for key, value in actual.items()
        if entry.get(key) != value
    ]


def replay(entry: dict) -> tuple[dict, list[str]]:
    """Run entry's argv; return its new entry and changes(), plus one line
    if the run took over TIME_LIMIT_S."""
    started = time.perf_counter()
    actual = run(entry["argv"])
    seconds = time.perf_counter() - started
    found = changes(entry, actual)
    if seconds > TIME_LIMIT_S:
        found.append(f"{' '.join(entry['argv'])}: took {seconds:.1f} s, over {TIME_LIMIT_S:g} s")
    return actual, found


def differences(entries: list[dict]) -> list[str]:
    """One line per pinned field that an entry's replay differs in, and per slow replay."""
    return [line for entry in entries for line in replay(entry)[1]]


def dump(entries: list[dict]) -> str:
    # one entry per line, so a diff names exactly the command lines that changed
    return "[\n" + ",\n".join("  " + json.dumps(entry) for entry in entries) + "\n]\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Replay or rewrite the golden corpus.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="replay every entry")
    mode.add_argument("--update", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    entries = load()
    replays = [replay(entry) for entry in entries]
    found = [line for _, lines in replays for line in lines]
    if args.update:
        print("\n".join(found) or "no entry changed")
        CORPUS.write_text(dump([actual for actual, _ in replays]), encoding="utf-8")
        print(f"rewrote {len(entries)} entries of {CORPUS.name}")
        return 0
    print("\n".join(found) or f"{len(entries)} entries match {CORPUS.name}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
