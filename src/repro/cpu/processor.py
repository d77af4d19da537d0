"""Processor model: a workload-driven memory-reference engine.

The paper's 6-issue dynamic superscalar core is abstracted into a
reference stream with inter-reference gaps (already scaled by IPC in
the workload generator).  Hits add the L1/L2 latency; misses block the
processor until the directory transaction completes — an in-order
approximation whose error is second-order for ReVive, because every
ReVive action is off the critical path by design (Table 1).

A processor is a simulator *actor*: each activation runs references
until the batch quantum expires (bounding the time skew between
processors, which is what keeps the busy-until contention model
honest) or until a miss/barrier yields a natural scheduling point.

Fast path (docs/PERFORMANCE.md): the reference loop is the
simulator's hottest code — every simulated memory reference passes
through it — so :meth:`Processor._run_batch` inlines the translation
and the L1/L2 probe into one bound-local loop over the raw cache-set
dicts, with hit/miss counters accumulated locally and flushed at
batch boundaries.  The original layered loop is retained verbatim as
:meth:`Processor._run_batch_reference`; the two are pinned
behaviourally identical (times, counters, LRU order) by
``tests/test_fastpath.py``, and ``REPRO_FASTPATH=0`` falls back to
the reference loop globally.

When a tracer with the ``mem`` category is installed, the fast path
additionally emits one ``mem.batch`` event per counter flush (per-batch
L1/L2 hit/miss and remote-home directory-transaction counts — see
docs/OBSERVABILITY.md).  The hook is resolved at closure-bind time, so
an untraced run pays nothing; the reference loop does not emit
``mem`` events (it exists to pin timing/counter behaviour, which the
batch events do not affect).

The same bind-time pattern powers the host-time tier split
(docs/OBSERVABILITY.md): with a machine profiler installed, the
directory-protocol fallout calls are wrapped with ``perf_counter``
timers into per-node fallout cells (:func:`timed_protocol`).  The
reference loop stays uninstrumented, exactly like it does for ``mem``
events.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.cache.cache import EXCLUSIVE, MODIFIED, SHARED
from repro.cache.hierarchy import HIT, NEED_GETS, NEED_GETX, NEED_UPGRADE

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.system import Machine

#: Re-check period for a processor parked at a workload barrier.
BARRIER_POLL_NS = 500

#: Execution-tier switch (docs/PERFORMANCE.md).  ``REPRO_FASTPATH=0``
#: selects the layered reference loop everywhere; any other value —
#: including the default ``1`` — selects the inlined fast path.
FASTPATH_DEFAULT = os.environ.get("REPRO_FASTPATH", "1") != "0"


def timed_protocol(read, write, cell):
    """Wrap the protocol entry points with host-time fallout timers.

    ``cell`` is a mutable ``[seconds, calls]`` list (one per node,
    handed out by ``Profiler.fallout_cell``) mutated in place, so the
    instrumented hot loop performs no dict lookups.  Used by the fast
    path at closure-bind time when a machine profiler is installed;
    unprofiled binds keep the raw bound methods.
    """

    def timed_read(node, line, t):
        begin = perf_counter()
        done = read(node, line, t)
        cell[0] += perf_counter() - begin
        cell[1] += 1
        return done

    def timed_write(node, line, t, upgrade):
        begin = perf_counter()
        done = write(node, line, t, upgrade)
        cell[0] += perf_counter() - begin
        cell[1] += 1
        return done

    return timed_read, timed_write


class Processor:
    """One node's processor, consuming a workload reference stream."""

    __slots__ = ("machine", "node_id", "time", "finished", "killed",
                 "finish_time", "mem_refs", "_stream", "_gaps", "_vaddrs",
                 "_writes", "_index", "_barrier_index", "_waiting_barrier",
                 "_chunks", "fastpath", "_batch_fn")

    def __init__(self, machine: "Machine", node_id: int,
                 stream: Iterator) -> None:
        self.machine = machine
        self.node_id = node_id
        self.time = 0
        self.finished = False
        self.killed = False
        self.finish_time: Optional[int] = None
        self.mem_refs = 0
        self._stream = stream
        #: The in-flight chunk's columns, as plain lists: list indexing
        #: is several times faster than numpy scalar indexing, and plain
        #: ints keep ``self.time`` JSON-serializable.
        self._gaps: list = []
        self._vaddrs: list = []
        self._writes: list = []
        self._index = 0
        self._barrier_index = 0          # how many barriers passed
        self._waiting_barrier = False
        self._chunks = 0                 # stream chunks consumed so far
        #: Per-processor tier switch (tests flip it to compare):
        #: ``fastpath`` False selects the reference loop.
        self.fastpath = FASTPATH_DEFAULT
        self._batch_fn = None

    # -- simulator actor protocol ------------------------------------------

    def __call__(self, now: int) -> Optional[int]:
        if self.finished:
            return None
        if now > self.time:
            self.time = now
        if self._waiting_barrier:
            release = self.machine.barrier_release_time(self._barrier_index)
            if release is None:
                return self.time + BARRIER_POLL_NS
            self._waiting_barrier = False
            self._barrier_index += 1
            if release > self.time:
                self.time = release
        return self._run_batch()

    def kill(self) -> None:
        """Node loss: the processor stops issuing references."""
        self.finished = True
        self.killed = True

    def invalidate_fastpath(self) -> None:
        """Drop the compiled batch closure so machine state is re-read.

        The closure captures machine invariants — including the tracer
        — at bind time; anything that changes them after a batch has
        run (``Machine.install_tracer``) must invalidate so the next
        batch re-binds against the new state.
        """
        self._batch_fn = None

    # -- snapshot / restore (docs/SNAPSHOTS.md) ------------------------------

    def snapshot(self) -> dict:
        """Plain-data state: cursors and counters, not the stream itself.

        The workload stream is a pure deterministic generator, so its
        position is fully described by the number of chunks consumed —
        :meth:`restore` rebuilds the stream and fast-forwards it.  The
        compiled fast-path closure and its batch-local counters need no
        capture: counters are flushed to the shared statistics at every
        batch boundary, and snapshots are only taken between batches.
        """
        return {
            "time": self.time,
            "finished": self.finished,
            "killed": self.killed,
            "finish_time": self.finish_time,
            "mem_refs": self.mem_refs,
            "index": self._index,
            "barrier_index": self._barrier_index,
            "waiting_barrier": self._waiting_barrier,
            "chunks": self._chunks,
        }

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot`, replaying the workload stream.

        The machine's workload must already be attached.  The current
        reference chunk (if the snapshot rests mid-chunk) is re-derived
        from the replayed stream's final yield and resumes at the saved
        index; barrier and marker chunks leave the reference columns
        empty, exactly as :meth:`_next_chunk` does.
        """
        self.time = state["time"]
        self.finished = state["finished"]
        self.killed = state["killed"]
        self.finish_time = state["finish_time"]
        self.mem_refs = state["mem_refs"]
        self._index = state["index"]
        self._barrier_index = state["barrier_index"]
        self._waiting_barrier = state["waiting_barrier"]
        self._chunks = state["chunks"]
        self._batch_fn = None
        self._gaps, self._vaddrs, self._writes = [], [], []
        if self.finished:
            return
        stream, last = self.machine.workload.replay_stream(self.node_id,
                                                           self._chunks)
        self._stream = stream
        if last is not None and last[0] not in ("warmup_done", "barrier"):
            self._set_chunk(last)

    # -- execution ---------------------------------------------------------------

    def _run_batch(self) -> Optional[int]:
        if not self.fastpath:
            return self._run_batch_reference()
        batch_fn = self._batch_fn
        if batch_fn is None:
            batch_fn = self._bind_fastpath()
            if batch_fn is None:         # unsupported geometry
                self.fastpath = False
                return self._run_batch_reference()
            self._batch_fn = batch_fn
        return batch_fn()

    def _bind_fastpath(self):
        """Compile the inlined reference pipeline for this processor.

        Every invariant of the machine (cache-set dicts, page table,
        index parameters, latencies) is captured once in closure cells,
        so the per-reference loop runs on locals only.  Returns ``None``
        when the geometry rules out inline indexing (non-power-of-two
        line size), in which case the reference loop is used.
        """
        machine = self.machine
        config = machine.config
        hierarchy = machine.nodes[self.node_id].hierarchy
        l1, l2 = hierarchy.l1, hierarchy.l2
        l1_shift, l1_nsets, l1_groups = l1.index_params()
        l2_shift, l2_nsets, l2_groups = l2.index_params()
        if l1_shift is None or l2_shift is None:
            return None
        # l1 and l2 share the line size, hence one line-number shift.
        line_shift = l2_shift
        l1_sets = l1.raw_sets()
        l2_sets = l2.raw_sets()
        l1_assoc = l1.assoc
        space = machine.addr_space
        page_get = space._page_table.get
        allocate = space._allocate
        in_page_mask = space._line_in_page_mask
        offset_bits = space._offset_bits
        proto_read = machine.protocol.read
        proto_write = machine.protocol.write
        # Host-time tier split (docs/OBSERVABILITY.md): with a profiler
        # installed, the directory-protocol fallout calls are bracketed
        # by perf_counter reads into the profiler's per-node fallout
        # cell.  Resolved at bind time like the tracer hook, so an
        # unprofiled run keeps the raw bound methods and pays nothing;
        # Machine.install_profiler invalidates the closure to re-bind.
        if machine.profiler is not None:
            proto_read, proto_write = timed_protocol(
                proto_read, proto_write,
                machine.profiler.fallout_cell(self.node_id))
        write_value = hierarchy.write_value
        next_store = machine.next_store_value
        # The inlined store-counter bumps below must honor the
        # test-only perturbation exactly like next_store_value does,
        # or the two tiers would disagree under REPRO_PERTURB_STORE.
        perturb_store = machine.perturb_store
        l1_hit_ns = config.l1_hit_ns
        l2_hit_ns = config.l2_hit_ns
        quantum = config.batch_quantum_ns
        overlap = config.miss_overlap
        node_id = self.node_id
        MOD, EXC, SHA = MODIFIED, EXCLUSIVE, SHARED
        # The mem-category hook is resolved once at bind time: when the
        # tracer is off (or filters out "mem"), trace_mem is a plain
        # False and the loop below never touches tracing state at all —
        # the zero-cost-when-off guarantee the throughput benchmark
        # pins.  Machine.install_tracer invalidates the closure so a
        # later-installed tracer re-binds with trace_mem recomputed.
        tracer = machine.tracer
        trace_mem = tracer.enabled and (tracer.categories is None
                                        or "mem" in tracer.categories)
        emit = tracer.emit
        node_bytes = space._node_bytes
        home_lo = node_id * node_bytes
        home_hi = home_lo + node_bytes

        def run_batch() -> Optional[int]:
            t = self.time
            deadline = t + quantum
            gaps, vaddrs, writes = self._gaps, self._vaddrs, self._writes
            i = self._index
            n = len(vaddrs)
            refs = l1h = l1m = l2h = l2m = silent = remote = fills = 0
            while True:
                if i >= n:
                    # Flush local counters and state before the stream
                    # advances: _next_chunk may cross the warmup marker,
                    # which resets every statistic machine-wide.
                    if trace_mem and refs:
                        emit(t, "mem", "mem.batch", node=node_id,
                             refs=refs, l1_hits=l1h + fills, l1_misses=l1m,
                             l2_hits=l2h, l2_misses=l2m, remote=remote)
                    self.mem_refs += refs
                    l1.hits += l1h
                    l1.misses += l1m
                    l2.hits += l2h
                    l2.misses += l2m
                    hierarchy.silent_upgrades += silent
                    refs = l1h = l1m = l2h = l2m = silent = remote = \
                        fills = 0
                    self.time = t
                    self._index = i
                    outcome = self._next_chunk()
                    if outcome is not None:
                        return outcome if outcome >= 0 else None
                    t = self.time
                    gaps, vaddrs, writes = (self._gaps, self._vaddrs,
                                            self._writes)
                    i = self._index
                    n = len(vaddrs)
                    continue
                t += gaps[i]
                vaddr = vaddrs[i]
                is_write = writes[i]
                i += 1
                refs += 1

                # Translate (first-touch allocation on the rare path).
                base = page_get(vaddr >> offset_bits)
                if base is None:
                    base = allocate(vaddr >> offset_bits, node_id)
                line_addr = base + (vaddr & in_page_mask)

                # L2 lookup with LRU refresh (== SetAssocCache.lookup).
                line_no = line_addr >> line_shift
                if l2_groups:
                    s2 = l2_sets[(line_no & 63)
                                 + (((((line_no >> 6) * 2654435761) >> 12)
                                     % l2_groups) << 6)]
                else:
                    s2 = l2_sets[line_no % l2_nsets]
                line = s2.pop(line_addr, None)
                if line is not None:
                    s2[line_addr] = line
                    l2h += 1
                else:
                    l2m += 1

                # L1 tag-filter touch (== TagFilter.touch).
                if l1_groups:
                    s1 = l1_sets[(line_no & 63)
                                 + (((((line_no >> 6) * 2654435761) >> 12)
                                     % l1_groups) << 6)]
                else:
                    s1 = l1_sets[line_no % l1_nsets]
                if line_addr in s1:
                    del s1[line_addr]
                    s1[line_addr] = None
                    l1h += 1
                    l1_hit = True
                else:
                    l1m += 1
                    if len(s1) >= l1_assoc:
                        del s1[next(iter(s1))]
                    s1[line_addr] = None
                    l1_hit = False

                if line is not None:
                    if is_write:
                        state = line.state
                        if state == SHA:
                            # Upgrade through the directory.
                            if trace_mem and not home_lo <= line_addr \
                                    < home_hi:
                                remote += 1
                            self.time = t
                            done = proto_write(node_id, line_addr, t, True)
                            t += int((done - t) / overlap)
                            write_value(line_addr, next_store())
                        else:
                            if state == EXC:
                                silent += 1
                            line.state = MOD
                            sc = machine._store_counter + 1
                            machine._store_counter = sc
                            line.value = (sc if sc != perturb_store
                                          else sc + (1 << 32))
                            t += l1_hit_ns if l1_hit else l2_hit_ns
                    else:
                        t += l1_hit_ns if l1_hit else l2_hit_ns
                else:
                    # Full miss: directory transaction, overlap-scaled.
                    if trace_mem:
                        # The fill below touches the L1 filter directly
                        # (always a hit: the tag was just inserted), so
                        # the batch's L1 numbers mirror TagFilter.hits
                        # exactly — the flush arithmetic must not count
                        # it twice.
                        fills += 1
                        if not home_lo <= line_addr < home_hi:
                            remote += 1
                    self.time = t
                    if is_write:
                        done = proto_write(node_id, line_addr, t, False)
                    else:
                        done = proto_read(node_id, line_addr, t)
                    t += int((done - t) / overlap)
                    if is_write:
                        write_value(line_addr, next_store())

                if t >= deadline:
                    if trace_mem and refs:
                        emit(t, "mem", "mem.batch", node=node_id,
                             refs=refs, l1_hits=l1h + fills, l1_misses=l1m,
                             l2_hits=l2h, l2_misses=l2m, remote=remote)
                    self.mem_refs += refs
                    l1.hits += l1h
                    l1.misses += l1m
                    l2.hits += l2h
                    l2.misses += l2m
                    hierarchy.silent_upgrades += silent
                    self.time = t
                    self._index = i
                    return t

        return run_batch

    def _run_batch_reference(self) -> Optional[int]:
        """The original layered loop; the fast path's behavioural oracle."""
        machine = self.machine
        config = machine.config
        hierarchy = machine.nodes[self.node_id].hierarchy
        protocol = machine.protocol
        translate = machine.addr_space.translate_line
        deadline = self.time + config.batch_quantum_ns
        overlap = config.miss_overlap
        gaps, vaddrs, writes = self._gaps, self._vaddrs, self._writes

        while True:
            if self._index >= len(vaddrs):
                outcome = self._next_chunk()
                if outcome is not None:
                    return outcome if outcome >= 0 else None
                gaps, vaddrs, writes = self._gaps, self._vaddrs, self._writes
                continue
            i = self._index
            self.time += gaps[i]
            line_addr = translate(vaddrs[i], self.node_id)
            is_write = writes[i]
            self._index = i + 1
            self.mem_refs += 1

            result = hierarchy.probe(line_addr, is_write)
            if result.need == HIT:
                self.time += (config.l1_hit_ns if result.l1_hit
                              else config.l2_hit_ns)
            else:
                if result.need == NEED_UPGRADE:
                    done = protocol.write(self.node_id, line_addr,
                                          self.time, upgrade=True)
                elif result.need == NEED_GETX:
                    done = protocol.write(self.node_id, line_addr,
                                          self.time, upgrade=False)
                else:
                    assert result.need == NEED_GETS
                    done = protocol.read(self.node_id, line_addr, self.time)
                # The OOO core overlaps misses; charge 1/overlap of the
                # transaction latency as architectural stall.
                self.time += int((done - self.time) / overlap)
            if is_write:
                hierarchy.write_value(line_addr,
                                      machine.next_store_value())
            if self.time >= deadline:
                return self.time

    def _next_chunk(self) -> Optional[int]:
        """Advance the stream.  Returns None to keep executing, a
        non-negative time to resched at, or -1 when the stream ends."""
        try:
            chunk = next(self._stream)
            self._chunks += 1
        except StopIteration:
            self.finished = True
            self.finish_time = self.time
            self.machine.note_processor_finished(self)
            return -1
        if chunk[0] == "warmup_done":
            # First processor past this marker resets runtime statistics,
            # so reported rates reflect steady state, not first-touch
            # compulsory misses (all processors cross it together,
            # straight after a barrier).
            self.machine.note_warmup_done()
            return None
        if chunk[0] == "barrier":
            release = self.machine.barrier_arrive(self._barrier_index,
                                                  self.node_id, self.time)
            self._gaps, self._vaddrs, self._writes = [], [], []
            self._index = 0
            if release is not None:
                self._barrier_index += 1
                self.time = max(self.time, release)
                return None
            self._waiting_barrier = True
            return self.time + BARRIER_POLL_NS
        self._set_chunk(chunk)
        self._index = 0
        return None

    def _set_chunk(self, chunk: tuple) -> None:
        """Install an ``("ops", gaps, vaddrs, writes)`` chunk as lists.

        Converted once per chunk: both tiers then index plain Python
        ints and bools, whatever sequence type the workload yielded.
        """
        _tag, gaps, vaddrs, writes = chunk
        self._gaps = np.asarray(gaps, dtype=np.int64).tolist()
        self._vaddrs = np.asarray(vaddrs, dtype=np.int64).tolist()
        self._writes = np.asarray(writes, dtype=bool).tolist()
