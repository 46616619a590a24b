"""Every committed BENCH_*.json keeps the schema a speed claim is read from.

A file holds alternating parent/change runs of ``perfbench/run.py``:
per workload its seeds, pair count and correctness, and per metric each
side's median, quartiles and runs, the pairs the change was lower in and
the parent's interquartile range.  An untraced workload (one named as
BENCHMARK.json declares it; traced ones carry a suffix) has at least 10
pairs, all correct.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

TOP_KEYS = {
    "claim", "parent_sha", "change_sha", "command", "protocol",
    "nproc", "python", "claim_met", "all_runs_correct",
}
WORKLOAD_KEYS = {"seeds", "pairs", "all_correct", "metrics"}
METRIC_KEYS = {"parent", "change", "pairs_lower", "parent_iqr"}
SIDE_KEYS = {"median", "q1", "q3", "runs"}
MIN_PAIRS = 10


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_keeps_the_schema(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert TOP_KEYS <= bench.keys(), TOP_KEYS - bench.keys()
    for name, workload in bench["workloads"].items():
        assert WORKLOAD_KEYS <= workload.keys(), (name, WORKLOAD_KEYS - workload.keys())
        for metric_name, metric in workload["metrics"].items():
            where = (name, metric_name)
            assert METRIC_KEYS <= metric.keys(), (where, METRIC_KEYS - metric.keys())
            for side in ("parent", "change"):
                assert SIDE_KEYS <= metric[side].keys(), (where, side)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_runs_each_untraced_workload_in_enough_correct_pairs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    untraced = [name for name in bench["workloads"] if name in declared]
    assert untraced
    for name in untraced:
        workload = bench["workloads"][name]
        assert workload["pairs"] >= MIN_PAIRS, (name, workload["pairs"])
        assert workload["all_correct"] is True, name
