"""Plain-text table formatting for experiment output.

The benchmark harness prints the same rows/series the paper's tables
and figures report; these helpers keep that output aligned and
copy-paste friendly for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render rows as an aligned monospace table."""
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def percent(value: float, digits: int = 2) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def megabytes(nbytes: int, digits: int = 2) -> str:
    """Format a byte count in MB."""
    return f"{nbytes / (1024 * 1024):.{digits}f}MB"


def milliseconds(ns: float, digits: int = 2) -> str:
    """Format nanoseconds in ms."""
    return f"{ns / 1e6:.{digits}f}ms"


def bar_chart(labels: Sequence[str], values: Sequence[float],
              width: int = 50, unit: str = "") -> str:
    """Horizontal ASCII bar chart (one bar per label).

    The paper's figures are bar charts; this renders their text
    equivalent for terminals and result files.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return ""
    peak = max(values)
    label_width = max(len(l) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * value / peak)) if peak > 0 else 0
        lines.append(f"{label.ljust(label_width)}  "
                     f"{'#' * filled}{' ' * (width - filled)} "
                     f"{value:.3g}{unit}")
    return "\n".join(lines)


def stacked_bar_chart(labels: Sequence[str],
                      series: "dict[str, Sequence[float]]",
                      width: int = 50) -> str:
    """Stacked horizontal bars (Figures 9/10's traffic breakdowns).

    Each category gets a distinct fill character; a legend line maps
    characters to category names.
    """
    fills = "#=+:.%@*"
    categories = list(series)
    if len(categories) > len(fills):
        raise ValueError(f"at most {len(fills)} categories supported")
    for values in series.values():
        if len(values) != len(labels):
            raise ValueError("every series must align with labels")
    totals = [sum(series[c][i] for c in categories)
              for i in range(len(labels))]
    peak = max(totals) if totals else 0
    label_width = max((len(l) for l in labels), default=0)
    lines = ["legend: " + "  ".join(f"{f}={c}" for f, c
                                    in zip(fills, categories))]
    for i, label in enumerate(labels):
        bar = ""
        for fill, category in zip(fills, categories):
            share = (series[category][i] / peak * width) if peak else 0
            bar += fill * int(round(share))
        lines.append(f"{label.ljust(label_width)}  {bar[:width].ljust(width)}"
                     f" {totals[i]:.3g}")
    return "\n".join(lines)


def timeline(phases: Sequence, width: int = 60) -> str:
    """Figure-7-style phase timeline: ``phases`` is (name, duration)."""
    total = sum(d for _n, d in phases)
    if total <= 0:
        raise ValueError("timeline needs positive total duration")
    segments = []
    cursor = 0.0
    lines = []
    for name, duration in phases:
        span = duration / total * width
        segments.append("|" + "-" * max(0, int(round(span)) - 1))
        lines.append(f"  {name}: {duration:.3g}")
    bar = "".join(segments) + "|"
    return bar + "\n" + "\n".join(lines)


def profile_table(profile: "dict") -> str:
    """Render a wall-clock profile (``RunResult.profile``) as a table.

    One row per simulator component (hottest by self time first) with
    self vs cumulative seconds, plus the activations-per-second summary
    the throughput guard tracks.
    """
    rows = [[name, f"{self_s:.3f}", f"{cum_s:.3f}", calls]
            for name, self_s, cum_s, calls in profile["components"]]
    rows.append(["engine activations / sec",
                 f"{profile['events_per_sec']:,.0f}", "", ""])
    return format_table(["Component", "Self (s)", "Cumulative (s)",
                         "Calls"], rows,
                        title="Simulator wall-clock profile")


def actor_table(profile: "dict") -> str:
    """Per-actor host-time attribution table (``repro profile``).

    One row per engine actor, hottest first, with the per-node tier
    split: protocol-fallout seconds (the directory-transaction calls
    made by the fast path, docs/OBSERVABILITY.md) carved out of the
    actor's dispatch seconds.
    """
    fallout = profile.get("fallout", {})
    entries = sorted(profile.get("actors", {}).items(),
                     key=lambda kv: kv[1]["seconds"], reverse=True)
    rows = []
    for actor_id, info in entries:
        drop = fallout.get(str(info["node"]), {})
        rows.append([
            actor_id, info["node"], info["kind"],
            f"{info['seconds']:.3f}",
            f"{info['activations']:,}",
            f"{drop.get('seconds', 0.0):.3f}",
            f"{drop.get('calls', 0):,}",
        ])
    return format_table(
        ["Actor", "Node", "Kind", "Wall (s)", "Activations",
         "Fallout (s)", "Fallout calls"], rows,
        title="Per-actor host-time attribution")


def trace_summary_table(events: "list[dict]") -> str:
    """Per-category event counts of a loaded trace (see ``read_trace``)."""
    from repro.obs.analysis import category_counts

    counts = category_counts(events)
    rows = [[cat, n] for cat, n in counts.items()]
    rows.append(["total", sum(counts.values())])
    return format_table(["Category", "Events"], rows,
                        title="Trace events by category")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _numeric(cell: str) -> bool:
    stripped = cell.rstrip("%BMsm").replace("MB", "").replace("ms", "")
    try:
        float(stripped)
        return True
    except ValueError:
        return False
