"""Workload interface.

A workload describes what ``n_procs`` processors do: each processor
consumes a *stream* of chunks, where a chunk is either

* ``("ops", gaps, vaddrs, writes)`` — three equal-length arrays: the
  inter-reference gap in nanoseconds (already divided by the core's
  sustained IPC), the virtual byte address of each reference, and a
  write flag; or
* ``("barrier",)`` — a global synchronization point.  Streams must
  agree on barrier placement: the k-th barrier of every processor is
  the same barrier.

Virtual addresses live in a single shared space; the machine binds
pages to physical memory on first touch.

Streams must be pure and replayable: a processor's stream is a
deterministic function of the workload and the processor id, so
``replay_stream`` (below) can rebuild it and fast-forward to any chunk.
The number of chunks consumed is therefore a processor's only cursor
into its stream, and an image captured under one execution tier
resumes bit-identically under the other (tests/test_tiers.py).  The
processor copies each ``("ops", ...)`` chunk into plain lists as it
arrives (int64 gaps and addresses, boolean writes), so the arrays are
read exactly once.
"""

from __future__ import annotations

import abc
from typing import Iterator, Tuple, Union

import numpy as np

WorkloadChunk = Union[
    Tuple[str],                                        # ("barrier",)
    Tuple[str, np.ndarray, np.ndarray, np.ndarray],    # ("ops", ...)
]

#: Address-space carve-up shared by all built-in workloads: each
#: processor's private segment, then one global shared segment.
PRIVATE_SEGMENT_BITS = 30
SHARED_BASE = 1 << 40


def private_base(proc_id: int) -> int:
    """Base virtual address of a processor's private segment."""
    return (proc_id + 1) << PRIVATE_SEGMENT_BITS


class Workload(abc.ABC):
    """Base class for machine workloads."""

    #: Human-readable workload name (Table 4 row, for the analogs).
    name: str = "workload"
    #: Number of processor threads.
    n_procs: int = 16
    #: Modelled instructions per memory reference (Table 4 instruction
    #: counts are derived as refs * instructions_per_ref).
    instructions_per_ref: float = 2.0

    @abc.abstractmethod
    def stream_for(self, proc_id: int) -> Iterator[WorkloadChunk]:
        """The chunk stream executed by processor ``proc_id``."""

    def replay_stream(self, proc_id: int,
                      chunks: int) -> Tuple[Iterator[WorkloadChunk],
                                            "WorkloadChunk | None"]:
        """Rebuild ``proc_id``'s stream fast-forwarded past ``chunks``.

        Streams are pure functions of (workload spec, ``proc_id``) —
        every generator seeds its own PRNG from those alone — so a
        snapshot needs to record only how many chunks a processor has
        consumed, and restore replays that many here
        (docs/SNAPSHOTS.md).  Returns the repositioned stream and the
        last chunk replayed (``None`` when ``chunks`` is zero), which
        the processor uses to reinstate its in-flight reference arrays.
        """
        stream = self.stream_for(proc_id)
        last = None
        for _ in range(chunks):
            last = next(stream)
        return stream, last

    def total_refs_hint(self) -> int:
        """Approximate total references across all processors (optional)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, n_procs={self.n_procs})"
