"""Tier oracle: two execution tiers, one behaviour.

``REPRO_FASTPATH`` selects between two execution tiers — ``0`` is the
layered reference loop, anything else the compiled per-reference
(scalar) fast path.  The tiers are performance levels of *one*
simulator: every observable — cache counters, LRU order, memory
contents, checkpoint history, trace output — must be bit-identical
across them.  These tests enforce that oracle for every Splash-2
analog and every ReVive variant, plus the contracts that ride on it:
trace record -> replay round-trips, mid-run snapshot/restore
(including a tier switch at the restore boundary), and ``mem.batch``
counter reconciliation on a real analog.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.harness.runner import build_machine, tiny_revive_overrides
from repro.machine.config import MachineConfig
from repro.obs import RingBufferSink, Tracer
from repro.workloads.registry import APP_NAMES, get_workload
from repro.workloads.tracefile import TraceWorkload, record_trace

NODES = 4
SCALE = 0.02
INTERVAL_NS = 50_000
TIERS = ("reference", "scalar")
REVIVE_VARIANTS = ("cp_parity", "cpinf_parity", "cp_mirroring",
                   "cpinf_mirroring")

#: CpInf variants never reclaim their logs; their oracle runs stop
#: here instead of running the tiny log region into overflow.
CPINF_HORIZON_NS = 3 * INTERVAL_NS


def horizon(variant: str):
    return CPINF_HORIZON_NS if variant.startswith("cpinf") else None


def set_tier(machine, tier: str) -> None:
    assert tier in TIERS
    for proc in machine.processors:
        proc.fastpath = tier == "scalar"


def tiny_config():
    """The tiny preset with enough simulated DRAM for every analog.

    Footprints don't shrink with ``scale`` (it multiplies run length,
    not the touched region), and cholesky/ocean overflow the preset's
    256KB/node.
    """
    return dataclasses.replace(MachineConfig.tiny(NODES),
                               node_memory_bytes=4 * 1024 * 1024)


def build(app: str, variant: str, tracer=None, scale: float = SCALE):
    machine = build_machine(variant, tiny_config(),
                            INTERVAL_NS, tracer=tracer,
                            **tiny_revive_overrides(NODES))
    machine.attach_workload(get_workload(app, scale=scale,
                                         n_procs=NODES))
    return machine


def fingerprint(machine):
    """Everything observable, *including* cache LRU order (the
    hierarchy snapshot lists each set in LRU order)."""
    return {
        "now": machine.simulator.now,
        "activations": machine.simulator.activations,
        "times": [p.time for p in machine.processors],
        "mem_refs": [p.mem_refs for p in machine.processors],
        "store_counter": machine._store_counter,
        "memories": [dict(node.memory.lines()) for node in machine.nodes],
        "caches": [node.hierarchy.snapshot() for node in machine.nodes],
        "l1_counters": [(n.hierarchy.l1.hits, n.hierarchy.l1.misses)
                        for n in machine.nodes],
        "l2_counters": [(n.hierarchy.l2.hits, n.hierarchy.l2.misses)
                        for n in machine.nodes],
        "commits": (list(machine.checkpointing.commit_times)
                    if machine.checkpointing else None),
        "log_bytes": (machine.revive.max_log_bytes()
                      if machine.revive else None),
    }


def run_tier(app: str, variant: str, tier: str, trace: bool = False):
    sink = RingBufferSink(capacity=1 << 20) if trace else None
    machine = build(app, variant, tracer=Tracer(sink) if trace else None)
    set_tier(machine, tier)
    machine.run(until=horizon(variant))
    events = sink.events() if trace else None
    return fingerprint(machine), events


def non_mem_trace(events):
    """The tier-invariant trace: everything but ``mem`` aggregates.

    ``mem.batch`` flush boundaries are a property of the tier (the
    reference loop emits none at all), so mem events — and the global
    ``seq`` numbers they consume — are excluded; every other category
    must match byte for byte, in order.
    """
    return [json.dumps({k: v for k, v in e.items() if k != "seq"},
                       sort_keys=True)
            for e in events if e["cat"] != "mem"]


class TestTierOracle:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_analog_bit_identical_across_tiers(self, app):
        ref_fp, ref_ev = run_tier(app, "cp_parity", "reference",
                                  trace=True)
        ref_trace = non_mem_trace(ref_ev)
        assert ref_trace, "reference run emitted no trace events"
        fp, ev = run_tier(app, "cp_parity", "scalar", trace=True)
        assert fp == ref_fp, f"{app}: scalar tier diverged"
        assert non_mem_trace(ev) == ref_trace, \
            f"{app}: scalar tier trace differs"

    @pytest.mark.parametrize("variant",
                             ("baseline",) + REVIVE_VARIANTS)
    def test_every_variant_bit_identical_across_tiers(self, variant):
        fps = {tier: run_tier("lu", variant, tier)[0] for tier in TIERS}
        assert fps["scalar"] == fps["reference"], variant


class TestTracefileRoundtrip:
    def test_recorded_trace_replays_identically_on_every_tier(
            self, tmp_path):
        """record -> replay round-trips: a replayed trace drives each
        tier to the exact machine state the live generator does."""
        path = str(tmp_path / "lu.npz")
        record_trace(get_workload("lu", scale=SCALE, n_procs=NODES),
                     path)
        live_fp, _ = run_tier("lu", "cp_parity", "scalar")
        for tier in TIERS:
            machine = build_machine("cp_parity", tiny_config(),
                                    INTERVAL_NS,
                                    **tiny_revive_overrides(NODES))
            machine.attach_workload(TraceWorkload(path))
            set_tier(machine, tier)
            machine.run()
            assert fingerprint(machine) == live_fp, tier

    def test_replay_fast_forward_resumes_mid_chunk(self, tmp_path):
        """A snapshot taken mid-run of a trace-driven fast-path machine
        restores into a fresh machine whose ``replay_stream`` fast-
        forward lands mid-chunk and continues bit-identically."""
        path = str(tmp_path / "fft.npz")
        record_trace(get_workload("fft", scale=SCALE, n_procs=NODES),
                     path)

        def trace_machine():
            machine = build_machine("cp_parity", tiny_config(),
                                    INTERVAL_NS,
                                    **tiny_revive_overrides(NODES))
            machine.attach_workload(TraceWorkload(path))
            set_tier(machine, "scalar")
            return machine

        reference = trace_machine()
        reference.run()
        final = fingerprint(reference)

        paused = trace_machine()
        paused.run(until=int(1.5 * INTERVAL_NS))
        image = pickle.dumps(paused.snapshot())
        fresh = trace_machine()
        fresh.restore(pickle.loads(image))
        fresh.run()
        assert fingerprint(fresh) == final


class TestSnapshotTierSwitch:
    @pytest.mark.parametrize("resume_tier", TIERS)
    def test_restore_continues_bit_identically_on_any_tier(
            self, resume_tier):
        """Snapshot/restore points are tier-independent: an image
        captured mid-run under the scalar fast path resumes bit-
        identically on either tier."""
        reference, _ = run_tier("lu", "cp_parity", "reference")

        donor = build("lu", "cp_parity")
        set_tier(donor, "scalar")
        donor.run(until=int(1.5 * INTERVAL_NS))
        image = pickle.dumps(donor.snapshot())

        resumed = build("lu", "cp_parity")
        resumed.restore(pickle.loads(image))
        set_tier(resumed, resume_tier)
        resumed.run()
        assert fingerprint(resumed) == reference, resume_tier


class TestMemBatchReconciliation:
    def test_scalar_batches_reconcile_on_real_analog(self):
        """``mem.batch`` sums equal the cache counters bit-for-bit on
        a real Splash-2 analog under the scalar fast path (the toy-
        workload version lives in test_mem_events.py)."""
        sink = RingBufferSink(capacity=1 << 20)
        machine = build("lu", "baseline", tracer=Tracer(sink))
        set_tier(machine, "scalar")
        machine.run()
        marker = [e["seq"] for e in sink.events()
                  if e["name"] == "sim.warmup_done"]
        assert len(marker) == 1
        steady = [e for e in sink.events()
                  if e["name"] == "mem.batch" and e["seq"] > marker[0]]
        assert steady

        def total(node, field):
            return sum(e[field] for e in steady if e["node"] == node)

        for node_id, node in enumerate(machine.nodes):
            assert total(node_id, "l1_hits") == node.hierarchy.l1.hits
            assert total(node_id, "l1_misses") == node.hierarchy.l1.misses
            assert total(node_id, "l2_hits") == node.hierarchy.l2.hits
            assert total(node_id, "l2_misses") == node.hierarchy.l2.misses
        assert sum(e["refs"] for e in steady) == machine.total_mem_refs()
