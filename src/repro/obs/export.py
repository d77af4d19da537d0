"""Chrome Trace Event export (``repro export-trace``).

Converts a schema-v2 JSONL trace into the Chrome Trace Event JSON
format that Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``
load natively: a ``{"traceEvents": [...]}`` object whose entries are
complete ("X") slices, instant ("i") markers, and metadata ("M")
records.

Mapping:

* Every ``span.end`` becomes one top-level "X" slice on the track of
  its subject node (``pid`` = node id; machine-wide spans — ckpt,
  recovery — land on the ``pid = -1`` "machine" track), named by its
  span class, with the ``txn`` id and original fields under ``args``.
* The span's segments become *nested* "X" slices directly under it —
  one per segment, laid end-to-end from the span's begin time, which is
  exactly what the monotone-cursor closure invariant guarantees is
  correct.  In Perfetto the span row therefore expands into a
  self-explaining waterfall: net → dir → mem_read → net, etc.
* Point events (``ckpt.begin``, ``log.append``, ...) become "i"
  instants on their node's track when they carry a ``node`` field, or
  on the machine track otherwise — set ``include_instants=False`` to
  export spans only.

Timestamps: the simulator's integer nanoseconds divided by 1000.0
(the format's ``ts``/``dur`` unit is microseconds); the original
nanosecond values ride along in ``args`` untouched.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

#: ``pid`` used for machine-wide tracks (spans with ``node == -1`` and
#: point events carrying no node field).
MACHINE_PID = -1

#: Envelope + span keys not repeated under ``args``.
_SKIP_ARGS = ("v", "seq", "cat", "name")


def _args(event: Dict) -> Dict:
    return {k: v for k, v in event.items() if k not in _SKIP_ARGS}


def chrome_trace(events: Iterable[Dict],
                 include_instants: bool = True) -> Dict:
    """Build the Chrome Trace Event object for one event stream."""
    trace_events: List[Dict] = []
    pids = set()

    for event in events:
        name = event.get("name")
        if name == "span.begin":
            continue
        if name == "span.end":
            pid = event["node"]
            pids.add(pid)
            begin_ns = event["ts"] - event["dur_ns"]
            trace_events.append({
                "ph": "X", "name": event["class"], "cat": "span",
                "pid": pid, "tid": 0,
                "ts": begin_ns / 1000.0,
                "dur": event["dur_ns"] / 1000.0,
                "args": _args(event),
            })
            cursor = begin_ns
            for kind, dur in event["segs"]:
                trace_events.append({
                    "ph": "X", "name": kind, "cat": "segment",
                    "pid": pid, "tid": 0,
                    "ts": cursor / 1000.0,
                    "dur": dur / 1000.0,
                    "args": {"txn": event["txn"], "dur_ns": dur},
                })
                cursor += dur
        elif include_instants and isinstance(event.get("ts"), int):
            pid = event.get("node", MACHINE_PID)
            if not isinstance(pid, int):
                pid = MACHINE_PID
            pids.add(pid)
            trace_events.append({
                "ph": "i", "name": name, "cat": event.get("cat", "event"),
                "pid": pid, "tid": 0, "s": "p",
                "ts": event["ts"] / 1000.0,
                "args": _args(event),
            })

    metadata = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "machine" if pid == MACHINE_PID
                 else f"node {pid}"},
    } for pid in sorted(pids)]
    return {"traceEvents": metadata + trace_events,
            "displayTimeUnit": "ns"}


def write_chrome_trace(events: Iterable[Dict], path: str,
                       include_instants: bool = True) -> int:
    """Write the Chrome Trace JSON to ``path``; returns the slice count."""
    trace = chrome_trace(events, include_instants=include_instants)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return len(trace["traceEvents"])


def profile_counter_trace(profile: Dict) -> Dict:
    """Chrome Trace counter ("C") tracks for a host-time profile.

    Renders a :func:`repro.obs.telemetry.profile_snapshot` as per-node
    counter tracks Perfetto draws as bar charts: dispatch seconds,
    activations, and the batch-vs-protocol-fallout split
    (docs/OBSERVABILITY.md) per node, plus one machine-wide track
    per timed component.  Counters are point-in-time (host wall clock
    has no simulated timeline), so every sample sits at ``ts`` 0.
    """
    trace_events: List[Dict] = []
    pids = set()
    fallout = profile.get("fallout", {})
    for actor_id, info in profile.get("actors", {}).items():
        pid = info["node"] if isinstance(info["node"], int) \
            else MACHINE_PID
        pids.add(pid)
        drop = fallout.get(str(info["node"]), {})
        drop_s = drop.get("seconds", 0.0)
        trace_events.append({
            "ph": "C", "name": f"host seconds (actor {actor_id})",
            "pid": pid, "tid": 0, "ts": 0,
            "args": {"batch": info["seconds"] - drop_s,
                     "protocol_fallout": drop_s},
        })
        trace_events.append({
            "ph": "C", "name": f"activations (actor {actor_id})",
            "pid": pid, "tid": 0, "ts": 0,
            "args": {"activations": info["activations"]},
        })
    pids.add(MACHINE_PID)
    for name, self_s, cum_s, _calls in profile.get("components", ()):
        trace_events.append({
            "ph": "C", "name": f"component {name}",
            "pid": MACHINE_PID, "tid": 0, "ts": 0,
            "args": {"self_seconds": self_s, "cum_seconds": cum_s},
        })
    metadata = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "machine" if pid == MACHINE_PID
                 else f"node {pid}"},
    } for pid in sorted(pids)]
    return {"traceEvents": metadata + trace_events,
            "displayTimeUnit": "ns"}


def write_profile_counter_trace(profile: Dict, path: str) -> int:
    """Write :func:`profile_counter_trace` JSON; returns the entry count."""
    trace = profile_counter_trace(profile)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return len(trace["traceEvents"])
