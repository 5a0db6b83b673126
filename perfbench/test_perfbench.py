"""The benchmark's own checks.  Run with ``python3 -m pytest perfbench``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, self_times

run.import_library()

from workloads import COUNTS, LAYER_CALLS, WORKLOADS  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CONFIG_LINE = re.compile(r"^#   config (.+): (\d+) requests, .*, (\d+) failed$")


def bench(workload: str, seed: int, trace: int, seconds: float = 0.5):
    """Run one workload; returns (JSON result, {config label: failures})."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    failures = {}
    for line in lines:
        m = CONFIG_LINE.match(line)
        if m:
            failures[m.group(1)] = int(m.group(3))
    return json.loads(lines[-1]), failures


def units(metrics: dict) -> list[tuple[str, str]]:
    return [(name, m["unit"]) for name, m in metrics.items()]


def units_of(kind: str) -> list[tuple[str, str]]:
    return [(m["name"], m["unit"]) for m in BENCH[kind]]


def test_self_time_subtracts_children():
    spans = [Span("request", 0.0, 10.0, None, 0, False),
             Span("a", 1.0, 4.0, 0, 0, False),
             Span("b", 2.0, 3.0, 1, 0, False),
             Span("c", 5.0, 9.0, 0, 0, True)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(1000))) == (99.0, 989)
    assert run.tail_percentile(list(range(5))) == (100.0, 4)


def test_thread_vars_match_cli():
    from stockframe import cli
    assert run.THREAD_VARS == cli._THREAD_VARS


def test_benchmark_json_names_what_the_runner_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == (
        [f"{c}.s" for c in LAYER_CALLS] + list(COUNTS) + ["trace.overhead_frac"])
    records = [run.Record(0, 0.001 * (i + 1), True, True, False) for i in range(20)]
    metrics, _ = run.end_to_end([0.5], records, 1)
    assert units(metrics) == units_of("end_to_end")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_and_failures_repeat_exactly(workload):
    first, fail1 = bench(workload, seed=1, trace=1)
    second, fail2 = bench(workload, seed=2, trace=1)
    assert units(first["metrics"]) == units_of("per_layer")
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and second["correct"]
    # whole rounds only, so the failure share is exact
    assert first["failed"] * second["attempted"] == second["failed"] * first["attempted"]
    failing = {label for label, n in fail1.items() if n}
    assert failing == {label for label, n in fail2.items() if n}
    if workload == "frame1d-stream":
        assert failing == {"gaussian alpha=1/2 q=2"}
    else:
        assert failing == set()


def test_untraced_run_prints_end_to_end_metrics():
    result, _ = bench("nd-stream", seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == units_of("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
