"""Run the benchmark over several seeds and record the spread of each metric.

For every workload it runs ``run.py`` once per seed (1..N) with tracing
off, and once with tracing on, then writes medians, quartiles, the
quartile spread as a share of the median, and run metadata (machine,
Python, git SHA, seeds, sample counts) to a JSON file.  A metric whose
spread is not below a third of its bound in ``BENCHMARK.json`` is
flagged on stdout.

Usage, from the repository root::

    python3 perfbench/record.py --runs 10 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from run import ROOT, quartiles

NOTES = [
    "Text `suzuki-cd cd` exits 2 from f = 1428: the block header prints |G|, "
    "which passes Python's 4300-digit int-to-str limit, and the resulting "
    "ValueError is reported as a usage error. `--json` output still works there.",
    "closed-forms stops at f = 1000 because of that defect; 1000 is not the "
    "range of the tool.",
    "fail_ratio is 0 on every workload here, so it is carried by the result "
    "line's attempted/failed counts rather than declared as a bounded metric.",
]


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "samples": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description="Record benchmark spreads over seeds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default="perfbench/baseline.json")
    args = parser.parse_args()

    seeds = list(range(1, args.runs + 1))
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_sha": git_sha(),
        "command": spec["command"],
        "run_seconds": args.seconds,
        "seeds": seeds,
        "notes": NOTES,
        "workloads": {},
    }
    ok = True
    for workload in whys:
        results = [run_once(workload, seed, args.seconds, False) for seed in seeds]
        entry = {"why": whys[workload],
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = stats([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            steady = s["spread"] < bound / 3
            ok &= steady or name == "setup_s"
            print(f"{workload:12s} {name:12s} median {s['median']:.6g} {s['unit']:3s} "
                  f"spread {s['spread']:.4f} (bound {bound}){'' if steady else '  NOT STEADY'}")
        traced = run_once(workload, seeds[0], args.seconds, True)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        ok &= entry["failed"] == 0
        report["workloads"][workload] = entry
    (ROOT / args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
