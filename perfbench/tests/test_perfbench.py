"""Tests of the benchmark itself: generator, populations, checks, counts.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The generator tests take a second; the tests that drive ``run.py``
end to end take about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import ops  # noqa: E402

#: Keys the program-facing part of each op kind may hold.
PROGRAM_KEYS = {"machine": {"variant", "interval_ns", "revive", "spec"},
                "campaign": {"campaign", "scenario"},
                "request": {"request"}}

#: Simulated (host-independent) per-layer metrics.
SIMULATED = ("machine.refs", "machine.image_bytes", "cache.l2_miss_rate",
             "coherence.calls_per_ref", "core.checkpoints",
             "core.log_bytes", "core.entries_undone", "network.bytes",
             "sim.acquire_per_ref", "harness.store_hit_ratio",
             "serve.hit_ratio", "op.count")


def run_bench(*args, env=None, cwd=ROOT):
    """Run run.py; return (exit code, last stdout line as JSON, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


# -- generator -------------------------------------------------------------

@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert ops.generate(workload, 7, 30) == ops.generate(workload, 7, 30)
    assert ops.generate(workload, 7, 30) != ops.generate(workload, 8, 30)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_longer_run_extends_shorter_one(workload):
    short = ops.generate(workload, 3, 10)
    long = ops.generate(workload, 3, 40)
    assert long["ops"][:10] == short["ops"]
    assert long["fill"] == short["fill"]


def test_seed_zero_reproduces_recorded_inputs():
    with open(os.path.join(BENCH, "reference.json")) as handle:
        reference = json.load(handle)
    assert reference["seed"] == 0
    for workload in ops.WORKLOADS:
        n_ops = ops.op_count(workload, reference["seconds"])
        inputs = ops.generate(workload, 0, n_ops)
        assert ops.inputs_digest(inputs) == reference["inputs"][workload]
        fingerprints = reference["workloads"][workload]["fingerprints"]
        assert len(fingerprints) == n_ops


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_program_sees_only_specs_scenarios_and_requests(workload):
    names = set(ops.WORKLOADS) | {"perfbench", "errfree", "recovery",
                                  "hits", "writes", "bench"}
    for seed in range(5):
        inputs = ops.generate(workload, seed, 40)
        programs = [op["program"] for op in inputs["ops"]]
        programs += [{"request": request} for request in inputs["fill"]]
        for op, program in zip(inputs["ops"], programs):
            assert set(program) == PROGRAM_KEYS[op["kind"]]
        for program in programs:
            blob = json.dumps(program).lower()
            assert not any(name in blob for name in names), blob
            if "spec" in program:
                assert program["spec"]["name"] == ops.SPEC_NAME


# -- one population per workload ----------------------------------------

@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_each_workload_is_one_variant_and_one_size_class(workload):
    for seed in range(10):
        timed = ops.generate(workload, seed, 80)["ops"]
        variants = {op["population"]["variant"] for op in timed}
        sizes = {json.dumps(op["population"]["size"]) for op in timed}
        assert len(variants) == 1, variants
        assert len(sizes) == 1, sizes
        ops.check_single_population(timed)


def test_mixed_populations_are_refused():
    hits = ops.generate("errfree-hits", 0, 4)["ops"]
    writes = ops.generate("errfree-writes", 0, 4)["ops"]
    with pytest.raises(ValueError):
        ops.check_single_population(hits + writes)
    relabelled = json.loads(json.dumps(hits))
    relabelled[1]["program"]["variant"] = "cp_parity"
    relabelled[1]["population"] = ops.population(relabelled[1])
    with pytest.raises(ValueError):
        ops.check_single_population(relabelled)


# -- end to end through run.py ------------------------------------------

def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, result, _ = run_bench("--workload", "errfree-hits", "--seed",
                                "1", "--seconds", "1", "--trace", "0",
                                cwd=tmp_path)
    assert code != 0
    assert result is None


def test_perturbed_program_reports_failed_ops():
    env = dict(os.environ, REPRO_PERTURB_STORE="50")
    code, result, _ = run_bench("--workload", "errfree-hits", "--seed",
                                "0", "--seconds", "1", "--trace", "0",
                                env=env)
    assert code == 0
    assert result["correct"] is False
    # An op whose flipped store is overwritten later ends in the same
    # state and passes; the others must be failed ops.
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, result, stderr = run_bench("--workload", workload, "--seed",
                                         "0", "--seconds", "1",
                                         "--trace", "1")
        assert code == 0, stderr
        # Correct includes: seed-0 outputs match the reference, and
        # traced outputs equal the untraced outputs of the same ops.
        assert result["correct"], stderr
        runs.append(result["metrics"])
    first, second = runs
    counted = [name for name in first
               if name.endswith(".calls") or name in SIMULATED]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    if workload == "errfree-hits":
        assert all(first[n]["value"] == 0 for n in first
                   if n.startswith("core.") and n.endswith(".calls"))
    if workload != "campaign-recovery":
        assert first["core.recover.calls"]["value"] == 0
    if workload != "serve-hits":
        assert first["trace.coverage"]["value"] >= 0.95
    assert first["trace.overhead"]["value"] > 0
