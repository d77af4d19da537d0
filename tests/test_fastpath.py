"""Fast path vs reference loop: behavioural equivalence.

``Processor._run_batch`` inlines translation, L1/L2 probing, and the
hit-path store into one bound-local loop; the original layered loop is
kept as ``_run_batch_reference``.  These tests run the same workload
through both and require *bit-identical* machines afterwards: times,
reference counts, every cache counter, memory contents, logs and
checkpoint history.  Any divergence is a fast-path bug by definition.
"""

import pytest

from conftest import ToyWorkload, build_tiny_machine

from repro.cpu.processor import Processor


def _run(fastpath: bool, revive: bool = True, rounds: int = 4,
         **revive_overrides):
    machine = build_tiny_machine(revive=revive, **revive_overrides)
    machine.attach_workload(ToyWorkload(rounds=rounds))
    for proc in machine.processors:
        proc.fastpath = fastpath
    machine.run()
    return machine


def _fingerprint(machine):
    """Everything observable that the two paths must agree on."""
    fp = {
        "times": [p.time for p in machine.processors],
        "finish": [p.finish_time for p in machine.processors],
        "refs": [p.mem_refs for p in machine.processors],
        "activations": machine.simulator.activations,
        "now": machine.simulator.now,
        "store_counter": machine._store_counter,
        "memory": [dict(n.memory._lines) for n in machine.nodes],
        "l1": [(n.hierarchy.l1.hits, n.hierarchy.l1.misses)
               for n in machine.nodes],
        "l2": [(n.hierarchy.l2.hits, n.hierarchy.l2.misses)
               for n in machine.nodes],
        "silent": [n.hierarchy.silent_upgrades for n in machine.nodes],
        "l2_lines": [sorted((line.addr, line.state, line.value)
                            for line in n.hierarchy.l2.resident_lines())
                     for n in machine.nodes],
    }
    if machine.revive is not None:
        fp["log_bytes"] = {n: log.bytes_used
                           for n, log in machine.revive.logs.items()}
        fp["checkpoints"] = machine.checkpointing.checkpoints_committed
        fp["commit_times"] = list(machine.checkpointing.commit_times)
    return fp


class TestEquivalence:
    @pytest.mark.parametrize("revive", [False, True])
    def test_bit_identical_machines(self, revive):
        fast = _run(True, revive=revive)
        slow = _run(False, revive=revive)
        assert all(p.fastpath for p in fast.processors)
        assert not any(p.fastpath for p in slow.processors)
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_bit_identical_under_mirroring(self):
        fast = _run(True, parity_group_size=1)
        slow = _run(False, parity_group_size=1)
        assert _fingerprint(fast) == _fingerprint(slow)

    def test_snapshots_identical(self):
        fast = _run(True)
        slow = _run(False)
        assert fast.snapshots.keys() == slow.snapshots.keys()
        assert fast.snapshots == slow.snapshots


class TestFallback:
    def test_env_flag_disables_fastpath(self, monkeypatch):
        import repro.cpu.processor as processor_module
        monkeypatch.setattr(processor_module, "FASTPATH_DEFAULT", False)
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1))
        assert not any(p.fastpath for p in machine.processors)
        machine.run()
        assert all(p.mem_refs > 0 for p in machine.processors
                   if not p.killed)

    def test_fastpath_binding_is_lazy_and_cached(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1))
        proc = machine.processors[0]
        assert proc._batch_fn is None
        machine.run()
        if proc.fastpath:
            assert proc._batch_fn is not None

    def test_processor_slots(self):
        machine = build_tiny_machine()
        machine.attach_workload(ToyWorkload(rounds=1))
        proc = machine.processors[0]
        assert isinstance(proc, Processor)
        with pytest.raises(AttributeError):
            proc.no_such_attribute = 1
