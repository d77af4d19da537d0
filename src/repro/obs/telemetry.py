"""Host-time attribution snapshots, merging, and exposition.

This module turns the raw maps a :class:`~repro.obs.profiling.Profiler`
accumulates (component timers, per-actor dispatch attribution, tier
fallout cells) into the portable *profile snapshot* dict that travels
through ``RunResult.profile``, worker pools, and the CLI:

``profile_snapshot`` builds the snapshot, ``merge_profiles`` folds the
per-job snapshots returned by sweep/campaign workers into one coherent
machine-wide profile (deterministically — keys are summed, output maps
are key-sorted), ``emit_profile_events`` narrates a snapshot as
``prof.*`` trace events, ``flamegraph_lines`` renders it as
collapsed-stack lines for ``flamegraph.pl``/speedscope, and
``prometheus_text`` exposes a :class:`~repro.obs.metrics.MetricsRegistry`
``full_snapshot()`` in the Prometheus text format so a deployed
``repro serve`` is scrapeable (docs/SERVING.md).

The snapshot shape (schema'd by :data:`PROFILE_SCHEMA`)::

    {"schema": 1,
     "total_wall_seconds": float,     # outermost machine.run wall time
     "events": int,                   # engine activations dispatched
     "events_per_sec": float,
     "components": [[name, self_s, cum_s, calls], ...],  # hottest first
     "actors": {"0": {"node": 0, "kind": "Processor",
                      "seconds": s, "activations": n}, ...},
     "fallout": {"0": {"seconds": s, "calls": n}, ...}}

Dict keys are strings so the snapshot survives JSON round-trips
unchanged (``repro profile --json`` and ``sweep.profile.json`` both
store exactly this shape).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

#: Version of the profile snapshot dict produced by
#: :func:`profile_snapshot` (its ``schema`` key).
PROFILE_SCHEMA = 1


def profile_snapshot(profiler) -> Dict:
    """Build the portable profile dict from a live ``Profiler``."""
    actors = {}
    for actor_id in sorted(profiler.actors):
        seconds, activations = profiler.actors[actor_id]
        node, kind = profiler.actor_meta.get(actor_id, (-1, "unknown"))
        actors[str(actor_id)] = {"node": node, "kind": kind,
                                 "seconds": seconds,
                                 "activations": activations}
    fallout = {str(node): {"seconds": cell[0], "calls": cell[1]}
               for node, cell in sorted(profiler.fallout.items())}
    return {
        "schema": PROFILE_SCHEMA,
        "total_wall_seconds": profiler.total_wall_seconds,
        "events": profiler.events,
        "events_per_sec": profiler.events_per_sec,
        "components": [list(row) for row in profiler.self_report()],
        "actors": actors,
        "fallout": fallout,
    }


def merge_profiles(profiles: Iterable[Optional[Dict]]) -> Optional[Dict]:
    """Fold per-job profile snapshots into one machine-wide profile.

    Workers run in separate processes, so their host times are
    *additive*: total CPU seconds spent across the pool.  ``None``
    entries (unprofiled jobs) are skipped; an all-``None`` input
    returns ``None``.  The merge is deterministic for any input order
    — every map is summed per key and emitted key-sorted — so serial
    and parallel sweeps produce the identical merged profile for the
    same job results.
    """
    merged_components: Dict[str, List] = {}
    merged_actors: Dict[str, Dict] = {}
    merged_fallout: Dict[str, Dict] = {}
    total_wall = 0.0
    events = 0
    jobs = 0
    for profile in profiles:
        if profile is None:
            continue
        jobs += 1
        total_wall += profile.get("total_wall_seconds", 0.0)
        events += profile.get("events", 0)
        for name, self_s, cum_s, calls in profile.get("components", ()):
            cell = merged_components.setdefault(name, [0.0, 0.0, 0])
            cell[0] += self_s
            cell[1] += cum_s
            cell[2] += calls
        for actor_id, info in profile.get("actors", {}).items():
            cell = merged_actors.get(actor_id)
            if cell is None:
                merged_actors[actor_id] = dict(info)
            else:
                cell["seconds"] += info["seconds"]
                cell["activations"] += info["activations"]
        for node, info in profile.get("fallout", {}).items():
            cell = merged_fallout.get(node)
            if cell is None:
                merged_fallout[node] = dict(info)
            else:
                cell["seconds"] += info["seconds"]
                cell["calls"] += info["calls"]
    if not jobs:
        return None
    components = sorted(
        ([name] + cell for name, cell in merged_components.items()),
        key=lambda row: row[1], reverse=True)
    return {
        "schema": PROFILE_SCHEMA,
        "jobs": jobs,
        "total_wall_seconds": total_wall,
        "events": events,
        "events_per_sec": (events / total_wall) if total_wall > 0 else 0.0,
        "components": components,
        "actors": {k: merged_actors[k]
                   for k in sorted(merged_actors, key=int)},
        "fallout": {k: merged_fallout[k]
                    for k in sorted(merged_fallout, key=int)},
    }


def actor_coverage(profile: Dict) -> float:
    """Fraction of ``machine.run`` wall time attributed to actors.

    The reconciliation number ``repro profile`` prints and gates on:
    per-actor host time must account for (nearly) all of the run
    loop's wall clock, or the attribution is lying.  Returns 0.0 when
    the profile has no run wall time.
    """
    total = profile.get("total_wall_seconds", 0.0)
    if total <= 0:
        return 0.0
    attributed = sum(a["seconds"] for a in profile.get("actors", {}).values())
    return attributed / total


def fallout_share(profile: Dict) -> float:
    """Fraction of attributed actor time spent in protocol fallout.

    Fallout seconds (directory-protocol calls made by the fast path)
    over total per-actor dispatch seconds (docs/OBSERVABILITY.md).
    """
    attributed = sum(a["seconds"] for a in profile.get("actors", {}).values())
    if attributed <= 0:
        return 0.0
    fallout = sum(f["seconds"] for f in profile.get("fallout", {}).values())
    return fallout / attributed


def emit_profile_events(tracer, profile: Dict) -> None:
    """Narrate a profile snapshot as ``prof.*`` trace events.

    Events carry ``ts`` 0 by convention (host time is outside
    simulated time, like ``svc.*``/``snap.*``): one ``prof.run``
    summary, one ``prof.actor`` per actor, one ``prof.component`` per
    timed component, and one ``prof.tier`` per node with fallout
    attribution.  The stream passes ``repro trace-lint``, including
    its attribution-sums-to-run check (docs/OBSERVABILITY.md).
    """
    if not tracer.enabled:
        return
    tracer.emit(0, "prof", "prof.run",
                wall_seconds=profile.get("total_wall_seconds", 0.0),
                activations=profile.get("events", 0))
    for actor_id, info in profile.get("actors", {}).items():
        tracer.emit(0, "prof", "prof.actor", actor=int(actor_id),
                    node=info["node"], kind=info["kind"],
                    seconds=info["seconds"],
                    activations=info["activations"])
    for name, self_s, cum_s, calls in profile.get("components", ()):
        tracer.emit(0, "prof", "prof.component", component=name,
                    self_seconds=self_s, cum_seconds=cum_s, calls=calls)
    for node, info in profile.get("fallout", {}).items():
        actor_secs = sum(
            a["seconds"] for a in profile.get("actors", {}).values()
            if a.get("node") == int(node))
        tracer.emit(0, "prof", "prof.tier", node=int(node),
                    fallout_seconds=info["seconds"],
                    fallout_calls=info["calls"],
                    batch_seconds=max(0.0, actor_secs - info["seconds"]))


def flamegraph_lines(profile: Dict) -> List[str]:
    """Collapsed-stack lines (``flamegraph.pl`` input) for a profile.

    Two-level stacks rooted at ``machine.run``: one frame per actor
    (split into batch vs protocol-fallout leaves for nodes with
    fallout attribution) plus one frame per non-run component.
    Sample counts are integer microseconds.
    """

    def us(seconds: float) -> int:
        return max(0, int(round(seconds * 1e6)))

    lines = []
    fallout = profile.get("fallout", {})
    for actor_id, info in profile.get("actors", {}).items():
        frame = f"machine.run;actor{actor_id}/{info['kind']}" \
                f"/node{info['node']}"
        drop = fallout.get(str(info["node"]), {}).get("seconds", 0.0)
        if drop > 0:
            lines.append(f"{frame};batch {us(info['seconds'] - drop)}")
            lines.append(f"{frame};protocol_fallout {us(drop)}")
        else:
            lines.append(f"{frame} {us(info['seconds'])}")
    for name, self_s, _cum_s, _calls in profile.get("components", ()):
        if name == "machine.run":
            continue
        lines.append(f"machine.run;{name} {us(self_s)}")
    return lines


def _prom_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus grammar."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def prometheus_text(full_snapshot: Dict) -> str:
    """Render a ``MetricsRegistry.full_snapshot()`` as Prometheus text.

    Counters become ``counter`` samples, gauges ``gauge`` samples
    (with a ``_max`` companion), histogram summaries ``gauge`` samples
    per statistic (``_count``/``_mean``/``_max``/``_p50``/...).  Names
    are sanitized (``.`` → ``_``) and prefixed ``repro_``; the output
    ends with a newline as the exposition format requires.
    """
    lines: List[str] = []
    for name, value in sorted(full_snapshot.get("counters", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, info in sorted(full_snapshot.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {info['value']}")
        lines.append(f"# TYPE {prom}_max gauge")
        lines.append(f"{prom}_max {info['max']}")
    for name, summary in sorted(full_snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        for stat, value in sorted(summary.items()):
            lines.append(f"# TYPE {prom}_{stat} gauge")
            lines.append(f"{prom}_{stat} {value}")
    return "\n".join(lines) + "\n"
