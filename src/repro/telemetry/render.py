"""Human-readable rendering of a telemetry capture.

Backs the ``repro telemetry <file>`` CLI subcommand.  Everything goes
through :func:`repro.analysis.report.render_table` so telemetry output
matches the look of every other table the package prints.
"""

from typing import List

from repro.telemetry.export import RunTelemetry
from repro.telemetry.spans import PARENT_SHARD, Span


def _render_table(headers, rows, title):
    # Imported lazily: repro.analysis pulls in the core pipeline, which
    # itself depends on repro.telemetry — a module-level import would be
    # circular.
    from repro.analysis.report import render_table
    return render_table(headers, rows, title=title)


def _shard_label(shard: int) -> str:
    return "parent" if shard == PARENT_SHARD else str(shard)


def render_spans(spans: List[Span], title: str = "Stage spans") -> str:
    rows = [
        (span.name, _shard_label(span.shard), f"{span.wall_seconds:.3f}",
         f"{span.virtual_start:.0f}", f"{span.virtual_end:.0f}",
         f"{span.virtual_seconds:.0f}")
        for span in spans
    ]
    return _render_table(
        ("stage", "shard", "wall s", "virt start", "virt end", "virt span"),
        rows, title)


def render_profile(spans: List[Span],
                   title: str = "Stage profile (cumulative wall time)") -> str:
    """Per-stage cumulative time across all shards — the ``--profile`` view.

    Aggregates all shards' copies of a stage into one row, so the output
    answers "where did the run spend its time" rather than listing every
    span.  Shares
    are of summed wall time: with N workers overlapping, they measure
    work, not elapsed time.
    """
    totals = {}
    for span in spans:
        stage = totals.setdefault(span.name, [0.0, 0, set()])
        stage[0] += span.wall_seconds
        stage[1] += 1
        stage[2].add(span.shard)
    grand_total = sum(wall for wall, _, _ in totals.values()) or 1.0
    rows = [
        (name, str(count), str(len(shards)), f"{wall:.3f}",
         f"{100.0 * wall / grand_total:.1f}%")
        for name, (wall, count, shards) in sorted(
            totals.items(), key=lambda item: -item[1][0])
    ]
    return _render_table(
        ("stage", "spans", "shards", "cum wall s", "share"), rows, title)


def render_telemetry(telemetry: RunTelemetry) -> str:
    """All tables: run metadata, counters, gauges, histograms, spans."""
    sections = []

    if telemetry.meta:
        sections.append(_render_table(
            ("key", "value"),
            sorted((key, value) for key, value in telemetry.meta.items()),
            "Run"))

    counters = telemetry.metrics.counter_values()
    if counters:
        sections.append(_render_table(
            ("counter", "value"), sorted(counters.items()),
            "Counters"))

    gauges = telemetry.metrics.gauge_values()
    if gauges:
        sections.append(_render_table(
            ("gauge", "value"),
            [(name, f"{value:g}") for name, value in sorted(gauges.items())],
            "Gauges (per-process max)"))

    histograms = telemetry.metrics.histogram_values()
    if histograms:
        rows = []
        snapshot = telemetry.metrics.snapshot()["histograms"]
        for name in sorted(histograms):
            bounds = snapshot[name]["bounds"]
            counts = snapshot[name]["counts"]
            for bound, count in zip(bounds, counts):
                rows.append((name, f"<= {bound:g}", count))
            rows.append((name, f"> {bounds[-1]:g}", counts[-1]))
        sections.append(_render_table(
            ("histogram", "bucket", "count"), rows, "Histograms"))

    if telemetry.spans:
        sections.append(render_spans(telemetry.spans))

    if not sections:
        return "telemetry capture is empty (was the run made with telemetry enabled?)"
    return "\n\n".join(sections)
