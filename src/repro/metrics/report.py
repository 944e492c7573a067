"""ASCII report formatting.

:func:`ascii_table` renders every paper experiment's table (through
``repro.exps.experiment.Experiment.render``, which
``repro.exps.all --check`` parses back cell by cell); the ``format_*``
helpers render the observability reports of ``repro.obs``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.metrics.hist import Metrics

__all__ = [
    "ascii_table",
    "format_instruments",
    "format_profile",
    "format_window_profile",
    "format_busiest_links",
    "format_slo_report",
    "format_span_stats",
]


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render a fixed-width table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(row, widths))

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append(sep)
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out)


# ---------------------------------------------------------------------------
# observability reports (repro.obs)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.1f}"
    return str(int(value))


def format_instruments(metrics: Metrics, title: str = "instruments") -> str:
    """Histograms with count / p50 / p95 / p99 / max, then gauges.

    Values are whatever unit the instrument observes (latencies in
    simulated ns, fan-outs in targets, occupancy in frames).
    """
    rows: list[list[str]] = []
    for name, hist in sorted(metrics.histograms.items()):
        rows.append(
            [
                name, str(hist.count),
                _fmt(hist.percentile(50)), _fmt(hist.percentile(95)),
                _fmt(hist.percentile(99)), _fmt(hist.max),
            ]
        )
    for name, gauge in sorted(metrics.gauges.items()):
        rows.append(
            [f"{name} (gauge)", str(gauge.updates), _fmt(gauge.value), "-", "-", _fmt(gauge.peak)]
        )
    if not rows:
        rows.append(["(no observations)", "0", "-", "-", "-", "-"])
    return ascii_table(
        ["instrument", "count", "p50", "p95", "p99", "max"], rows, title=title
    )


def format_profile(
    per_node: dict[int, dict[str, int]],
    total_ns: int,
    title: str = "simulated-time profile",
) -> str:
    """Per-node + cluster attribution table (each row sums to 100%)."""
    from repro.obs.profiler import CATEGORIES, SimProfiler

    def row(label: str, counts: dict[str, int], denom: int) -> list[str]:
        cells = [label]
        for cat in CATEGORIES:
            ns = counts.get(cat, 0)
            pct = (100.0 * ns / denom) if denom else 0.0
            cells.append(f"{pct:5.1f}% {ns / 1e6:10.1f}")
        return cells

    headers = ["node"] + [f"{cat} (%, ms)" for cat in CATEGORIES]
    rows = [
        row(str(node), counts, total_ns)
        for node, counts in sorted(per_node.items())
    ]
    cluster = SimProfiler.cluster(per_node.values())
    rows.append(row("cluster", cluster, total_ns * max(1, len(per_node))))
    return ascii_table(headers, rows, title=title)


def format_window_profile(
    per_node_windows: dict[int, list[dict[str, int]]],
    window_ns: int,
    total_ns: int,
    title: str = "cluster profile per window",
) -> str:
    """Cluster-wide attribution per window (each row sums to 100%).

    Sums the per-node windowed breakdowns: one row per window, one
    column per category, so saturation reads as the fault/network share
    climbing down the table.
    """
    from repro.obs.profiler import CATEGORIES, SimProfiler

    nwin = max((len(windows) for windows in per_node_windows.values()), default=0)
    nnodes = max(1, len(per_node_windows))
    rows: list[list[str]] = []
    for w in range(nwin):
        totals = SimProfiler.cluster(
            ws[w] for ws in per_node_windows.values() if w < len(ws)
        )
        width = min(window_ns, max(1, total_ns - w * window_ns)) * nnodes
        cells = [f"{w}", f"{w * window_ns / 1e6:.0f}"]
        for cat in CATEGORIES:
            cells.append(f"{100.0 * totals[cat] / width:5.1f}%")
        rows.append(cells)
    if not rows:
        rows.append(["(no windows)", "-"] + ["-"] * len(CATEGORIES))
    return ascii_table(
        ["window", "start ms"] + list(CATEGORIES), rows, title=title
    )


def format_busiest_links(
    rows: Sequence[tuple[str, int, float]],
    title: str = "busiest links over the run",
) -> str:
    """Top links by total busy time, with each link's peak window."""
    table_rows = [
        [name, f"{busy / 1e6:.1f}", f"{100.0 * peak:.1f}%"]
        for name, busy, peak in rows
    ]
    if not table_rows:
        table_rows.append(["(no links)", "-", "-"])
    return ascii_table(
        ["link", "busy ms", "peak window util"], table_rows, title=title
    )


def format_slo_report(report: Any, title: str = "SLO verdicts") -> str:
    """One row per spec: verdict and the first violating window."""
    rows: list[list[str]] = []
    for res in report.results:
        rows.append(
            [
                res.spec.raw,
                "OK" if res.ok else "VIOLATED",
                "-" if res.first_violation is None else str(res.first_violation),
            ]
        )
    if not rows:
        rows.append(["(no specs)", "-", "-"])
    onset = report.saturation_onset
    tail = (
        "no saturation onset"
        if onset is None
        else f"saturation onset at window {onset} "
        f"(t = {onset * report.window_ns / 1e6:.0f} ms)"
    )
    return ascii_table(
        ["spec", "verdict", "first bad window"], rows,
        title=f"{title} ({report.windows} windows of "
        f"{report.window_ns / 1e6:.0f} ms): {tail}",
    )


def format_span_stats(
    stats: dict[str, dict[str, float | int | None]],
    limit: int = 20,
    title: str = "top spans by total simulated time",
) -> str:
    ordered = sorted(
        stats.items(), key=lambda kv: kv[1].get("total_ns") or 0, reverse=True
    )
    rows = [
        [
            name, _fmt(agg.get("count")),
            f"{(agg.get('total_ns') or 0) / 1e6:.1f}",
            _fmt(agg.get("mean_ns")), _fmt(agg.get("p95_ns")), _fmt(agg.get("max_ns")),
        ]
        for name, agg in ordered[:limit]
    ]
    if not rows:
        rows.append(["(no spans)", "0", "-", "-", "-", "-"])
    return ascii_table(
        ["span", "count", "total ms", "mean ns", "p95 ns", "max ns"], rows, title=title
    )
