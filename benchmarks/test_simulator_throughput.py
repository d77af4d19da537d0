"""Simulator throughput: references simulated per wall-clock second.

Not a paper exhibit — a performance regression guard for the simulator
itself.  The whole evaluation's turnaround depends on this number, so
it is tracked alongside the figures in two forms:

* the pytest-benchmark test below (human-readable table in
  ``results/simulator_throughput.txt``), and
* the ``perf``-marked harness test, which writes the machine-readable
  ``results/BENCH_throughput.json`` — refs/sec per exhibit, speedup
  against the recorded fast-path baseline, the sweep executor's
  parallel wall-clock comparison, and the result store's warm-cache
  hit-path latency — and enforces the soft regression threshold plus
  the cache-hit gates (``repro.harness.perf``).

Run the perf harness alone with ``pytest benchmarks -m perf`` or via
``python tools/bench.py`` (docs/PERFORMANCE.md).
"""

import os

import pytest

from conftest import write_result

from repro.harness.perf import (
    RECORDED_BASELINE_REFS_PER_SEC,
    format_report,
    hard_failures,
    throughput_report,
    write_report,
)
from repro.harness.reporting import format_table
from repro.harness.runner import build_machine
from repro.machine.config import MachineConfig
from repro.workloads.registry import get_workload


def _simulate(variant):
    machine = build_machine(variant,
                            machine_config=MachineConfig.bench())
    machine.attach_workload(get_workload("lu", scale=0.25))
    machine.run()
    return machine.total_mem_refs(), machine


def test_simulator_throughput(benchmark, results_dir):
    refs, _machine = benchmark.pedantic(lambda: _simulate("baseline"),
                                        rounds=3, iterations=1)
    seconds = benchmark.stats.stats.mean
    refs_per_sec = refs / seconds

    # Regression guard: the trace-driven simulator should stay above
    # ~50k refs/s on any reasonable host (typical: several 100k/s).
    assert refs_per_sec > 50_000, f"{refs_per_sec:.0f} refs/s"

    table = format_table(
        ["Metric", "Value"],
        [["references per round", refs],
         ["mean wall seconds", f"{seconds:.2f}"],
         ["simulated refs/sec (baseline)", f"{refs_per_sec:,.0f}"]],
        title="Simulator throughput (regression guard, not a paper "
              "exhibit)")
    write_result(results_dir, "simulator_throughput", table)


@pytest.mark.perf
def test_throughput_report(results_dir):
    """Write BENCH_throughput.json and gate on the soft threshold."""
    report = throughput_report(rounds=3)
    path = os.path.join(results_dir, "BENCH_throughput.json")
    write_report(report, path)
    print()
    print(format_report(report))
    print(f"report: {path}")

    failures = hard_failures(report)
    assert not failures, "; ".join(failures)
    # The recorded number is the fast path's bench-host rate; staying
    # at or above it is the point of the exercise.
    base = report["exhibits"]["baseline"]["refs_per_sec"]
    assert base > 50_000, f"{base:.0f} refs/s"
    assert RECORDED_BASELINE_REFS_PER_SEC == 752_941  # provenance pin
