"""Benchmark of the suzuki-cd package: four workloads, run as users run them.

Every operation runs in a fresh interpreter (cold ``lru_cache``s), one
at a time, against the package source in ``src/``.  Each output is
checked by :mod:`checks`, which recomputes the expected answers without
importing the package.

``--trace 0`` repeats passes over the workload's operations for
``--seconds`` seconds and reports end-to-end metrics (medians over
passes):

- ``wall_s``: wall time of one pass over the operations;
- ``cpu_s``: user + system time of those child processes;
- ``setup_s``: fresh interpreter until the entry point is imported;
- ``peak_rss_mb``: largest max-RSS among the child processes.

The host this runs on may be shared, and its speed swings by a quarter
within seconds and drifts over minutes.  So a fixed pure-Python loop is
timed in this process just before every child, and the child's times
are scaled by ``REF_NOMINAL_S`` over the loop's time: times are
reported in seconds at the speed of the host the baseline was recorded
on.  The package cannot affect the loop, so a slower package still
reads slower.

Failed or rejected operations are counted in ``attempted``/``failed``
and printed as ``fail_ratio``.

``--trace 1`` runs each operation under :mod:`tracer`, which wraps the
package's public functions in spans, and reports per-layer calls and
self times (span duration minus child spans), alongside an untraced
pass for ``trace.overhead_ratio``, a tracemalloc pass over cyclotomic
calls and, where the workload runs a pooled sweep, the ``--jobs 2``
speed-up.  Spans of the last traced pass are written to
``.bench_out/trace-<workload>-seed<seed>.json``.

Usage, from the repository root::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import large_order

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CLI_MAIN = "import sys; from suzuki_cd.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # children past this share of the 180 s limit get 1 s each
SETUPS_PER_PASS = 2
MIN_SETUPS = 20
# Host-speed reference: a fixed pure-Python loop timed in this process just
# before every child.  The child's times are scaled by REF_NOMINAL_S / (the
# loop's time), so a shared host's speed swings cancel; REF_NOMINAL_S is the
# loop's time on the 2-vCPU 2.1 GHz Xeon the committed baseline was recorded on.
REF_LOOPS = 400_000
REF_NOMINAL_S = 0.04
# Orders up to this use the package's power table; above it, dense remainder.
TABLE_MAX_ORDER = 512


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command or the large-order library script."""

    kind: str  # "cli" or "large-order"
    args: tuple[str, ...]
    check: Callable[[str], list[str]]

    @property
    def name(self) -> str:
        return " ".join((self.kind,) + self.args)

    def command(self) -> list[str]:
        if self.kind == "cli":
            return [sys.executable, "-c", CLI_MAIN, *self.args]
        return [sys.executable, str(BENCH / "large_order.py"), *self.args]

    def traced_command(self, alloc: bool = False) -> list[str]:
        spec = json.dumps({"kind": self.kind, "args": list(self.args)})
        return [sys.executable, str(BENCH / "tracer.py"), spec] + (["--alloc"] if alloc else [])


def cli_op(*args: str, check: Callable[[str], list[str]]) -> Op:
    return Op("cli", args, check)


def _verify(*scopes: str) -> Callable[[str], list[str]]:
    return lambda out: checks.check_verify(out, list(scopes))


def workload(name: str, seed: int) -> tuple[str, list[Op]]:
    """(entry module imported at set-up, operations) of a workload."""
    if name == "oracle":
        return "suzuki_cd.cli", [
            cli_op("cd", "--f", "10", "--d", "all", "--multiplicities",
                   check=lambda out: checks.check_cd_text(out, 10)),
            cli_op("verify", "stabilizers", "--f-max", "8", check=_verify("stabilizer-witnesses")),
            cli_op("verify", "theorem-a", "--f-max", "8", check=_verify("degree-sets")),
        ]
    if name == "quad-sweep":
        return "suzuki_cd.cli", [
            cli_op("verify", "cyclotomic", "--n-max", "200", "--samples", "200",
                   "--seed", str(seed), check=_verify("quad-identity")),
        ]
    if name == "large-order":
        cases = large_order.cases(seed)
        return "suzuki_cd", [
            Op("large-order", ("--seed", str(seed)),
               lambda out: checks.check_large_order(out, cases)),
        ]
    if name == "closed-forms":
        return "suzuki_cd.cli", [
            cli_op("verify", "lemmas", check=_verify("gcd-closed-forms", "class-counts")),
            cli_op("verify", "corollary-b", check=_verify("degree-count-bounds")),
            cli_op("gcd-table", "--f", "1..64",
                   check=lambda out: checks.check_gcd_table(out, list(range(1, 65)))),
            # f = 1000, not higher: text output fails from f = 1428 (see perfbench/README.md).
            cli_op("cd", "--f", "1000", "--d", "all", "--json",
                   check=lambda out: checks.check_cd_json(out, 1000)),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle", "quad-sweep", "large-order", "closed-forms")

# Pooled sweeps timed at --jobs 1 and 2 in the traced run of the workload
# that runs them: metric -> (workload, call).
POOL_SWEEPS = {
    "verification.pool_speedup_j2.quad": ("quad-sweep", "verify_quad_identity(200, 200, {seed}, jobs={jobs})"),
    "verification.pool_speedup_j2.degree_sets": ("oracle", "verify_degree_sets(10, jobs={jobs})"),
}
POOL_PAIRS = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer span groups: metric prefix -> traced functions.  Each group
# reports ``calls`` (entries into the group from outside it) and
# ``self_s`` (summed self time of all its spans).
GROUPS = {
    "stabilizers.orbit_oracle": ("stabilizers.orbit_oracle",),
    "stabilizers.witness": (
        "stabilizers.witness_for",
        "stabilizers.x_with_stabilizer",
        "stabilizers.y_with_stabilizer",
        "stabilizers.z_with_stabilizer",
    ),
    "stabilizers.exact_exponent": (
        "stabilizers.exact_stabilizer_exponent",
        "stabilizers.x_invariant",
        "stabilizers.y_invariant",
        "stabilizers.z_invariant",
    ),
    "degrees.clifford": ("degrees.cd_oracle",),
    "degrees.closed_form": ("degrees.cd_closed_form", "degrees.cd_family"),
    "characters.canonicalize": ("characters.canonicalize",),
    "characters.doubling": ("characters.phi_power_on_label",),
    "characters.torus_value": ("characters.torus_value",),
    "cyclotomic.phi_build": ("cyclotomic.cyclotomic_polynomial",),
    "cyclotomic.root_sum": ("cyclotomic.root_power_sum",),
    "cyclotomic.equals.table": ("cyclotomic.equals.table",),
    "cyclotomic.equals.dense": ("cyclotomic.equals.dense",),
    "cyclotomic.quad": ("cyclotomic.quad_sum_equivalence",),
    "numtheory.closed_form": (
        "numtheory.gcd_two_powers",
        "numtheory.gcd_q4_plus1",
        "numtheory.gcd_q4_small",
        "numtheory.gcd_torus",
        "numtheory.coincidence_classify",
    ),
    "numtheory.euclid": ("numtheory.euclid_gcd",),
    "params.make_params": ("params.make_params",),
    "cli": ("cli.main",),
}

LAYER_UNITS = {
    **{f"{g}.{k}": u for g in GROUPS for k, u in (("calls", "count"), ("self_s", "s"))},
    "stabilizers.orbit_oracle.X.self_s": "s",
    "stabilizers.orbit_oracle.Y.self_s": "s",
    "stabilizers.orbit_oracle.Z.self_s": "s",
    "stabilizers.orbit_oracle.labels_per_s": "1/s",
    "stabilizers.orbit_oracle.repeat_ratio": "ratio",
    "cyclotomic.alloc_peak_mb": "MB",
    "verification.checks": "count",
    "verification.item_max_s": "s",
    "verification.pool_speedup_j2.quad": "ratio",
    "verification.pool_speedup_j2.degree_sets": "ratio",
    "cli.output_bytes": "bytes",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}


def reference_kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("SUZUKI_CD_JOBS", None)  # default --jobs, as documented
    return env


class Runner:
    """Spawns child processes serially and tallies failed operations."""

    def __init__(self) -> None:
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: list[float] = []
        self.budget_end = time.perf_counter() + RUN_BUDGET_S

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float, float, float]:
        """Run a child to completion.

        Returns (result or None on timeout, wall s, cpu s, scale), wall and
        cpu already multiplied by ``scale``, the host-speed factor measured
        by the reference loop just before the child.
        """
        self.references.append(reference_kernel())
        scale = REF_NOMINAL_S / self.references[-1]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.budget_end - start))
        # A session of its own, so a timeout also stops the child's pool workers.
        with subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            encoding="utf-8", start_new_session=True,
        ) as child:
            try:
                out, err = child.communicate(timeout=timeout)
                proc = subprocess.CompletedProcess(argv, child.returncode, out, err)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                proc = None
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall * scale, cpu * scale, scale

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:5])
        return not problems

    def run_op(self, op: Op) -> tuple[str | None, float, float]:
        """Run an operation untraced and check it: (stdout if accepted, wall, cpu)."""
        proc, wall, cpu, _ = self.spawn(op.command())
        problems = _process_problems(proc) or op.check(proc.stdout)
        return (proc.stdout if self.record(op.name, problems) else None), wall, cpu

    def setup_probe(self, entry: str) -> float:
        """Wall time of a fresh interpreter importing the entry module."""
        proc, wall, _, _ = self.spawn([sys.executable, "-c", f"import {entry} as m; print(m.__file__)"])
        problems = _process_problems(proc)
        if not problems and not Path(proc.stdout.strip()).is_relative_to(SRC):
            problems = [f"imported {proc.stdout.strip()}, not the package under {SRC}"]
        if problems:
            raise SystemExit(f"error: cannot import {entry}: {problems[0]}")
        return wall


def _process_problems(proc: subprocess.CompletedProcess | None) -> list[str]:
    if proc is None:
        return ["timed out"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
    return []


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# end-to-end run


def measure(name: str, seed: int, seconds: int) -> tuple[Runner, dict]:
    entry, ops = workload(name, seed)
    runner = Runner()
    runner.setup_probe(entry)  # writes the bytecode cache; not timed
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    while not walls or time.perf_counter() < deadline:
        setups.extend(runner.setup_probe(entry) for _ in range(SETUPS_PER_PASS))
        wall = cpu = 0.0
        for op in ops:
            _, w, c = runner.run_op(op)
            wall += w
            cpu += c
        walls.append(wall)
        cpus.append(cpu)
    while len(setups) < MIN_SETUPS:
        setups.append(runner.setup_probe(entry))
    # High-water mark over every child so far; the import-only set-up
    # probes are smaller than any operation, so this is the largest op.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": [peak_mb]}
    return runner, samples


# ---------------------------------------------------------------------------
# traced run


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def span_name(names: list[str], span: list) -> str:
    name = names[span[0]]
    if name == "cyclotomic.equals":
        return name + (".table" if span[4] <= TABLE_MAX_ORDER else ".dense")
    return name


def sweep_items(names: list[str], spans: list[list]) -> list[float]:
    """Per-item durations inside each ``verification.verify_*`` span.

    The direct children of a sweep run item by item (f or n); an item
    lasts from its first tagged child to the next item's first child,
    or to the end of the sweep.
    """
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append(s)
    out = []
    for sid, s in enumerate(spans):
        if not names[s[0]].startswith("verification.verify_"):
            continue
        item, start = None, None
        for c in sorted(children[sid], key=lambda c: c[1]):
            if c[4] is not None and c[4] != item:
                if start is not None:
                    out.append(c[1] - start)
                item, start = c[4], c[1]
        if start is not None:
            out.append(s[2] - start)
    return out


def labels(f: int, family: str) -> int:
    """Canonical labels of a torus family (q^2/2 - 1, (q^2 +- r)/4)."""
    q2, r = 1 << (2 * f + 1), 1 << (f + 1)
    return {"X": q2 // 2 - 1, "Y": (q2 + r) // 4, "Z": (q2 - r) // 4}[family]


def layer_metrics(traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (one dict per operation)."""
    m = {k: 0.0 for k in LAYER_UNITS}
    member = {fn: g for g, fns in GROUPS.items() for fn in fns}
    orbit = []  # (f, family, self s, repeat)
    items = []
    for op in traced:
        names, spans, scale = op["names"], op["spans"], op["scale"]
        selfs = [t * scale for t in self_times(spans)]
        groups = [member.get(span_name(names, s)) for s in spans]
        seen = set()
        for s, own, group in zip(spans, selfs, groups):
            name = names[s[0]]
            if name == "bench.op":
                m["trace.op_s"] += (s[2] - s[1]) * scale
            if group is None:
                continue
            m[f"{group}.self_s"] += own
            if s[3] < 0 or groups[s[3]] != group:
                m[f"{group}.calls"] += 1
            if name == "stabilizers.orbit_oracle":
                orbit.append((s[4], s[5], own, (s[4], s[5]) in seen))
                seen.add((s[4], s[5]))
        items.extend(t * scale for t in sweep_items(names, spans))
        m["verification.checks"] += checks.verify_checks(op["stdout"])
        if op["kind"] == "cli":
            m["cli.output_bytes"] += len(op["stdout"].encode())
    if orbit:
        f_max = max(f for f, *_ in orbit)
        for f, family, own, _ in orbit:
            if f == f_max and family in ("X", "Y", "Z"):
                m[f"stabilizers.orbit_oracle.{family}.self_s"] += own
        fresh = [(f, fam, own) for f, fam, own, repeat in orbit if not repeat and fam in ("X", "Y", "Z")]
        busy = sum(own for *_, own in fresh)
        if busy > 0:
            m["stabilizers.orbit_oracle.labels_per_s"] = sum(labels(f, fam) for f, fam, _ in fresh) / busy
        m["stabilizers.orbit_oracle.repeat_ratio"] = sum(r for *_, r in orbit) / len(orbit)
    m["verification.item_max_s"] = max(items, default=0.0)
    return m


def pool_speedup(runner: Runner, call: str, seed: int) -> float:
    """Median --jobs 1 time over median --jobs 2 time, fresh interpreter each."""
    times = {1: [], 2: []}
    for pair in range(POOL_PAIRS):
        for jobs in ((1, 2) if pair % 2 == 0 else (2, 1)):
            code = (
                "import time\nfrom suzuki_cd.verification import *\n"
                f"t = time.perf_counter(); r = {call.format(seed=seed, jobs=jobs)}\n"
                "print(time.perf_counter() - t, r.checks, len(r.failures))"
            )
            proc, _, _, scale = runner.spawn([sys.executable, "-c", code])
            problems = _process_problems(proc)
            if not problems:
                elapsed, n_checks, n_failures = proc.stdout.split()
                if int(n_checks) == 0 or int(n_failures):
                    problems = [f"sweep reported {n_checks} checks, {n_failures} failures"]
            if runner.record(f"{call} jobs={jobs}", problems):
                times[jobs].append(float(elapsed) * scale)
    if not times[1] or not times[2]:
        return 0.0
    return statistics.median(times[1]) / statistics.median(times[2])


def traced_pass(runner: Runner, ops: list[Op]) -> tuple[list[dict], float]:
    traced, wall = [], 0.0
    for op in ops:
        proc, w, _, scale = runner.spawn(op.traced_command())
        wall += w
        problems = _process_problems(proc)
        if not problems:
            result = json.loads(proc.stdout)
            problems = ([f"exit code {result['rc']}"] if result["rc"] else []) or op.check(result["stdout"])
        if runner.record(op.name + " (traced)", problems):
            traced.append(dict(result, op=op.name, kind=op.kind, scale=scale))
    return traced, wall


def alloc_peak_mb(runner: Runner, ops: list[Op], traced: list[dict]) -> float:
    """tracemalloc peak over cyclotomic calls, for ops whose trace has any."""
    peak = 0
    for op, t in zip(ops, traced):
        if not any(t["names"][s[0]].startswith("cyclotomic.") for s in t["spans"]):
            continue
        proc, _, _, _ = runner.spawn(op.traced_command(alloc=True))
        problems = _process_problems(proc)
        if not problems:
            result = json.loads(proc.stdout)
            problems = op.check(result["stdout"])
        if runner.record(op.name + " (alloc)", problems):
            peak = max(peak, result["alloc_peak_bytes"])
    return peak / 2**20


def trace(name: str, seed: int, seconds: int) -> tuple[Runner, dict]:
    entry, ops = workload(name, seed)
    runner = Runner()
    runner.setup_probe(entry)
    deadline = time.perf_counter() + seconds
    rounds: list[dict[str, float]] = []
    overheads: list[float] = []
    extra: dict[str, float] = {}
    traced: list[dict] = []
    while not rounds or time.perf_counter() < deadline:
        untraced_wall = sum(runner.run_op(op)[1] for op in ops)
        traced, traced_wall = traced_pass(runner, ops)
        if len(traced) != len(ops):
            break
        overheads.append(traced_wall / untraced_wall)
        rounds.append(layer_metrics(traced))
    if len(traced) == len(ops):
        extra["cyclotomic.alloc_peak_mb"] = alloc_peak_mb(runner, ops, traced)
        for metric, (owner, call) in POOL_SWEEPS.items():
            if owner == name:
                extra[metric] = pool_speedup(runner, call, seed)
    if traced:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": seed, "ops": traced}, handle)
    samples = {k: [r[k] for r in rounds] for k in LAYER_UNITS}
    samples.update({k: [v] for k, v in extra.items()})
    samples["trace.overhead_ratio"] = overheads
    return runner, samples


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="suzuki-cd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "suzuki_cd" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    run = trace if args.trace else measure
    runner, samples = run(args.workload, args.seed, args.seconds)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS

    metrics = {}
    for key, unit in units.items():
        values = samples.get(key) or [0.0]
        q1, median, q3 = quartiles(values)
        metrics[key] = {"value": median, "unit": unit}
        print(f"{args.workload:12s} {key:44s} {median:14.6g} {unit:6s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    ratio = runner.failed / max(runner.attempted, 1)
    print(f"{args.workload:12s} {'fail_ratio':44s} {ratio:14.6g} ratio  "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    q1, median, q3 = quartiles(runner.references)
    print(f"{args.workload:12s} {'host reference loop':44s} {median:14.6g} s      "
          f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(runner.references)}; times above are "
          f"scaled to {REF_NOMINAL_S} s)")
    for problem in runner.problems[:20]:
        print(f"rejected: {problem}")
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
